//! Batched, branch-free math kernels for the hot noise/oscillator paths.
//!
//! The simulator's dominant cost is synthesizing noise (the shield jams
//! continuously, so every idle block is mostly `ln`/`sqrt`/`sin`/`cos`
//! work). libm's scalar transcendentals are accurate to the last ulp but
//! branchy, so the compiler cannot vectorize loops around them. These
//! kernels trade the last few ulps for straight-line code over slices:
//! every lane executes the same instructions, which lets LLVM autovectorize
//! the polynomial evaluation even at the baseline x86-64 target.
//!
//! Accuracy: `ln_batch` is within ~2e-12 relative error over the full
//! normal range (and exact enough at the `1e-300` clamp the noise path
//! uses); `sincos_turns_batch` is within ~2e-10 absolute. Both are pure
//! functions of their input bits — no tables, no FMA, no fast-math — so
//! results are bit-identical across runs, hosts and thread counts, which
//! is what the golden determinism suite pins.
//!
//! These are *statistical* kernels: they feed noise synthesis, where a
//! 1e-10 phase error is ~120 dB below the signal. Code that needs
//! last-ulp trig (one-off table construction, analysis helpers) should
//! keep calling `f64::ln`/`f64::sin_cos`.
//!
//! The same batched, branch-free design recurs across the crate's hot
//! paths: [`crate::noise::NoiseSource`] stages uniforms and runs
//! [`boxmuller_batch`] in place, [`crate::osc`] replaces per-sample trig
//! with phase recurrences, and [`crate::correlator`] replaces the
//! streaming detector's per-sample phase sweep with one running window
//! sum per tone. All of them are exact-rounding-order deterministic, so
//! the golden suite pins their outputs bit-for-bit.

/// Scalar core of [`ln_batch`]: branch-free base-2 decomposition plus an
/// `atanh`-series polynomial. `#[inline(always)]` so the batch loops fuse
/// it into straight-line, autovectorizable bodies.
#[inline(always)]
pub(crate) fn ln_core(x: f64) -> f64 {
    const LN2: f64 = std::f64::consts::LN_2;
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut mbits = (bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000;
    // Re-center the mantissa into [sqrt(1/2), sqrt(2)) so the series
    // argument t stays small (|t| <= 0.1716).
    let m0 = f64::from_bits(mbits);
    let big = (m0 >= std::f64::consts::SQRT_2) as i64;
    e += big;
    mbits -= (big as u64) << 52;
    let m = f64::from_bits(mbits);
    // ln(m) = 2 atanh(t), t = (m-1)/(m+1); odd series in t.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let p = t2
        * (1.0 / 3.0
            + t2 * (1.0 / 5.0
                + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0 + t2 * (1.0 / 11.0 + t2 * (1.0 / 13.0))))));
    e as f64 * LN2 + 2.0 * t * (1.0 + p)
}

/// Scalar core of [`sincos_turns_batch`]: quarter-turn reduction, Taylor
/// polynomials, branch-free quadrant rotation. Returns `(sin, cos)`.
#[inline(always)]
fn sincos_turns_core(u: f64) -> (f64, f64) {
    // Quarter-turn units: x in [0, 4); q = nearest quadrant;
    // r in [-1/2, 1/2] quarter-turns, i.e. a in [-pi/4, pi/4] radians.
    let x = 4.0 * u;
    let q = (x + 0.5).floor();
    let r = x - q;
    let a = r * std::f64::consts::FRAC_PI_2;
    let a2 = a * a;
    // Taylor series; at |a| <= pi/4 the truncation error is below 1e-16
    // for sin (a^13 term) and ~1e-14 for cos (a^12 term).
    let s = a
        * (1.0
            + a2 * (-1.0 / 6.0
                + a2 * (1.0 / 120.0
                    + a2 * (-1.0 / 5040.0 + a2 * (1.0 / 362_880.0 + a2 * (-1.0 / 39_916_800.0))))));
    let c = 1.0
        + a2 * (-1.0 / 2.0
            + a2 * (1.0 / 24.0
                + a2 * (-1.0 / 720.0 + a2 * (1.0 / 40_320.0 + a2 * (-1.0 / 3_628_800.0)))));
    // (sin, cos) by quadrant: q=0:(s,c)  1:(c,-s)  2:(-s,-c)  3:(-c,s).
    let qi = q as i64 & 3;
    let swap = (qi & 1) as f64; // 0.0 or 1.0: odd quadrants swap s/c
    let bs = s + swap * (c - s);
    let bc = c + swap * (s - c);
    let sneg = (((qi >> 1) & 1) as u64) << 63; // q=2,3: sin negative
    let cneg = ((((qi + 1) >> 1) & 1) as u64) << 63; // q=1,2: cos negative
    (
        f64::from_bits(bs.to_bits() ^ sneg),
        f64::from_bits(bc.to_bits() ^ cneg),
    )
}

/// Natural log over a slice: `out[i] = ln(xs[i])`.
///
/// Branch-free base-2 decomposition (`x = 2^e · m` with `m` in
/// `[√½, √2)`) followed by an `atanh`-series polynomial. Inputs must be
/// finite, positive normals (the noise path clamps to `1e-300`, well
/// inside the normal range); zeros, subnormals, infinities and NaNs are
/// *not* handled.
///
/// # Panics
/// Panics if `out` is shorter than `xs`.
pub fn ln_batch(xs: &[f64], out: &mut [f64]) {
    assert!(out.len() >= xs.len(), "ln_batch: output too short");
    for (o, &x) in out.iter_mut().zip(xs.iter()) {
        *o = ln_core(x);
    }
}

/// Sine and cosine of `2π · turns[i]` for `turns[i]` in `[0, 1)`.
///
/// The argument is a fraction of a full turn — exactly what a uniform
/// `[0, 1)` random draw gives — so range reduction is a single
/// multiply-and-round to the nearest quarter turn, not a `fmod` by an
/// irrational. Quadrant rotation is branch-free (arithmetic select plus
/// sign-bit xor), so the whole loop autovectorizes.
///
/// # Panics
/// Panics if either output is shorter than `turns`.
pub fn sincos_turns_batch(turns: &[f64], sin_out: &mut [f64], cos_out: &mut [f64]) {
    assert!(
        sin_out.len() >= turns.len() && cos_out.len() >= turns.len(),
        "sincos_turns_batch: output too short"
    );
    for ((s_out, c_out), &u) in sin_out.iter_mut().zip(cos_out.iter_mut()).zip(turns.iter()) {
        let (s, c) = sincos_turns_core(u);
        *s_out = s;
        *c_out = c;
    }
}

/// Fused paired Box–Muller transform, in place over `(u₁, u₂)` pairs.
///
/// On input each sample holds two uniforms packed as `re = u₁` (already
/// clamped away from zero), `im = u₂`; on output it is one
/// circularly-symmetric complex Gaussian with average power `-neg_power`:
/// radius `√(ln u₁ · neg_power)`, phase `2π·u₂`. Fusing the `ln`, `sqrt`
/// and `sincos` stages into one straight-line pass keeps the whole
/// transform in registers — no scratch arrays, so a 16-sample fill (one
/// `Medium` block at one antenna) pays no fixed batch overhead, while
/// long fills still autovectorize.
///
/// Accuracy and determinism follow the component kernels ([`ln_batch`],
/// [`sincos_turns_batch`]): pure per-sample function, bit-identical
/// regardless of how a buffer is split across calls.
pub fn boxmuller_batch(samples: &mut [crate::complex::C64], neg_power: f64) {
    for v in samples.iter_mut() {
        let radius = (ln_core(v.re) * neg_power).sqrt();
        let (sin, cos) = sincos_turns_core(v.im);
        v.re = radius * cos;
        v.im = radius * sin;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ln_matches_std_over_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100_000 {
            let x: f64 = rng.gen::<f64>().max(1e-300);
            let mut out = [0.0];
            ln_batch(&[x], &mut out);
            let want = x.ln();
            let err = (out[0] - want).abs() / want.abs().max(1e-30);
            assert!(err < 2e-12, "ln({x:e}): {} vs {want} (rel {err:e})", out[0]);
        }
    }

    #[test]
    fn ln_handles_extreme_and_near_one_inputs() {
        for x in [
            1e-300f64,
            1e-100,
            1e-10,
            0.25,
            0.5,
            1.0 - 1e-16,
            1.0,
            2.0,
            1e10,
        ] {
            let mut out = [0.0];
            ln_batch(&[x], &mut out);
            let want = x.ln();
            assert!(
                (out[0] - want).abs() <= want.abs() * 2e-12 + 1e-15,
                "ln({x:e}): {} vs {want}",
                out[0]
            );
        }
    }

    #[test]
    fn sincos_matches_std_over_full_turn() {
        let mut rng = StdRng::seed_from_u64(13);
        let (mut s, mut c) = ([0.0], [0.0]);
        for i in 0..100_000 {
            // Mix random draws with boundary-adjacent points.
            let u: f64 = if i % 10 == 0 {
                [
                    0.0,
                    0.125,
                    0.25,
                    0.375,
                    0.5,
                    0.625,
                    0.75,
                    0.875,
                    1.0 - 1e-16,
                    1e-16,
                ][i / 10 % 10]
            } else {
                rng.gen()
            };
            sincos_turns_batch(&[u], &mut s, &mut c);
            let (ws, wc) = (2.0 * std::f64::consts::PI * u).sin_cos();
            assert!(
                (s[0] - ws).abs() < 2e-10 && (c[0] - wc).abs() < 2e-10,
                "u={u:e}: ({}, {}) vs ({ws}, {wc})",
                s[0],
                c[0]
            );
        }
    }

    #[test]
    fn sincos_outputs_stay_on_unit_circle() {
        let mut rng = StdRng::seed_from_u64(17);
        let (mut s, mut c) = ([0.0], [0.0]);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            sincos_turns_batch(&[u], &mut s, &mut c);
            let norm = s[0] * s[0] + c[0] * c[0];
            assert!((norm - 1.0).abs() < 1e-9, "u={u}: |.|^2 = {norm}");
        }
    }

    #[test]
    fn batch_results_equal_scalar_results() {
        // The batch kernels must be a pure per-lane function: evaluating a
        // slice must produce bit-identical results to evaluating each lane
        // alone (no cross-lane state, no chunk-size dependence).
        let mut rng = StdRng::seed_from_u64(19);
        let xs: Vec<f64> = (0..257).map(|_| rng.gen::<f64>().max(1e-300)).collect();
        let mut whole = vec![0.0; xs.len()];
        ln_batch(&xs, &mut whole);
        for (i, &x) in xs.iter().enumerate() {
            let mut one = [0.0];
            ln_batch(&[x], &mut one);
            assert_eq!(one[0].to_bits(), whole[i].to_bits(), "lane {i}");
        }
        let (mut sw, mut cw) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
        sincos_turns_batch(&xs, &mut sw, &mut cw);
        for (i, &x) in xs.iter().enumerate() {
            let (mut s1, mut c1) = ([0.0], [0.0]);
            sincos_turns_batch(&[x], &mut s1, &mut c1);
            assert_eq!(s1[0].to_bits(), sw[i].to_bits(), "sin lane {i}");
            assert_eq!(c1[0].to_bits(), cw[i].to_bits(), "cos lane {i}");
        }
    }

    #[test]
    #[should_panic(expected = "output too short")]
    fn ln_rejects_short_output() {
        let mut out = [0.0];
        ln_batch(&[1.0, 2.0], &mut out);
    }

    #[test]
    fn fused_boxmuller_equals_component_kernels() {
        // The fused pass and the component kernels share the same scalar
        // cores; pin that composing them stays bit-identical.
        use crate::complex::C64;
        let mut rng = StdRng::seed_from_u64(37);
        let n = 300;
        let power = 2.75;
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>().max(1e-300), rng.gen::<f64>()))
            .collect();
        let mut fused: Vec<C64> = pairs.iter().map(|&(u1, u2)| C64::new(u1, u2)).collect();
        boxmuller_batch(&mut fused, -power);
        let u1s: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let turns: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let mut lns = vec![0.0; n];
        ln_batch(&u1s, &mut lns);
        let (mut s, mut c) = (vec![0.0; n], vec![0.0; n]);
        sincos_turns_batch(&turns, &mut s, &mut c);
        for i in 0..n {
            let r = (lns[i] * -power).sqrt();
            assert_eq!(fused[i].re.to_bits(), (r * c[i]).to_bits(), "re lane {i}");
            assert_eq!(fused[i].im.to_bits(), (r * s[i]).to_bits(), "im lane {i}");
        }
    }
}
