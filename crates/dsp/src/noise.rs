//! Noise generation: white complex Gaussian noise and **PSD-shaped** random
//! noise.
//!
//! The shaped generator implements the jamming-signal construction of §6(a)
//! of the paper: draw independent white Gaussian values for each frequency
//! bin, set each bin's variance to match a target power profile, then IFFT to
//! obtain a time-domain signal whose spectrum matches the profile. This lets
//! the shield concentrate jamming power at the FSK mark/space tones instead
//! of spreading it across the whole 300 kHz channel.

use crate::complex::{mean_power, C64};
use crate::fft::{is_pow2, FftPlan};
use crate::kernels::boxmuller_batch;
use rand::Rng;
use std::f64::consts::PI;

/// Draws one standard normal variate via the Box–Muller transform.
///
/// Scalar path for cold call sites (shadowing draws, fading taps,
/// heartbeat jitter). Consumption is **fixed**: exactly two uniforms per
/// call — the historical `u1 > 1e-300` *rejection* loop consumed a
/// data-dependent number of uniforms, so the stream position after `n`
/// calls was not a pure function of `n`; the guard is now a *clamp*
/// (`max(1e-300)`), which truncates the output at ~37σ with probability
/// 2⁻⁵³ per draw — statistically indistinguishable, and deterministic in
/// stream position. The batched [`NoiseSource`] uses the same clamp.
///
/// Note the cosine variate is kept and the sine discarded, so this path's
/// stream is *not* the same as [`NoiseSource`]'s paired transform; hot
/// loops should fill buffers through [`NoiseSource`]/[`white_noise_into`]
/// instead of calling this per sample.
///
/// Composed of [`normal_uniforms`] (the draw) and
/// [`normal_from_uniforms`] (the pure transform), so a batch that draws
/// the uniforms first and transforms them later yields the same bits.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let [u1, u2] = normal_uniforms(rng);
    normal_from_uniforms(u1, u2)
}

/// The two uniforms one [`standard_normal`] draws, in draw order: `u1`
/// (clamped to `1e-300`, not rejected: see [`standard_normal`]), then
/// `u2`.
pub fn normal_uniforms<R: Rng + ?Sized>(rng: &mut R) -> [f64; 2] {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    [u1, rng.gen()]
}

/// The Box–Muller cosine variate of two [`normal_uniforms`].
pub fn normal_from_uniforms(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Draws one circularly-symmetric complex Gaussian sample with total
/// variance `variance` (i.e. `variance/2` per real dimension).
///
/// Scalar path (two [`standard_normal`] calls, four uniforms); buffer
/// fills should use [`NoiseSource`], which needs half the uniforms and
/// batches the transcendentals.
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, variance: f64) -> C64 {
    let [u1, u2] = normal_uniforms(rng);
    let [u3, u4] = normal_uniforms(rng);
    complex_gaussian_from_uniforms([u1, u2, u3, u4], variance)
}

/// The pure half of [`complex_gaussian`]: the real part from the first
/// pair of [`normal_uniforms`], the imaginary part from the second.
pub fn complex_gaussian_from_uniforms(u: [f64; 4], variance: f64) -> C64 {
    let s = (variance / 2.0).sqrt();
    C64::new(
        normal_from_uniforms(u[0], u[1]) * s,
        normal_from_uniforms(u[2], u[3]) * s,
    )
}

/// A batched generator of white circularly-symmetric complex Gaussian
/// noise — the engine's hot noise path (receiver floors, impulse bursts,
/// the jamming waveform's frequency-domain draws).
///
/// One output sample consumes exactly **two** uniforms `(u₁, u₂)` and is
/// the *paired* Box–Muller transform: radius `√(−ln u₁ · power)` and
/// phase `2π·u₂` yield `re = r·cos`, `im = r·sin` — both variates of the
/// pair are kept (the scalar path discards the sine), halving uniform
/// consumption. The uniforms are staged directly in the output buffer and
/// transformed in place by the fused, branch-free
/// [`crate::kernels::boxmuller_batch`] — one sequential RNG pass, one
/// straight-line math pass the compiler can vectorize, zero scratch.
///
/// Determinism contract: the stream position after `n` samples is exactly
/// `2n` `u64` draws — a pure function of the sample index, with no
/// data-dependent rejection (`u₁` is clamped to `1e-300`, reached with
/// probability 2⁻⁵³) — and the sample values do not depend on how a fill
/// is split across calls: filling 64k samples in one call or in many
/// arbitrary-sized calls from the same RNG produces identical bits.
///
/// # Example
///
/// ```
/// use hb_dsp::complex::{mean_power, C64};
/// use hb_dsp::noise::NoiseSource;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let src = NoiseSource::new(2.0); // average sample power 2.0 (linear)
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut buf = vec![C64::ZERO; 4096];
/// src.fill(&mut rng, &mut buf);
/// let p = mean_power(&buf);
/// assert!((p - 2.0).abs() < 0.2, "measured power {p}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSource {
    /// Average sample power (linear).
    power: f64,
}

impl NoiseSource {
    /// Creates a source with average sample power `power` (linear).
    pub fn new(power: f64) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        NoiseSource { power }
    }

    /// Average sample power (linear).
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Fills `out` with noise, consuming exactly `2 · out.len()` uniforms.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [C64]) {
        // Pass 1 — the raw u64 stream, drawn in blocks through
        // [`RngCore::fill_u64`] (the xoshiro recurrence is inherently
        // sequential, but the batched walk keeps the generator state in
        // registers for the whole block instead of per-call). Draw order
        // is unchanged: sample k always consumes draws (2k, 2k+1)
        // regardless of how fills are chunked across calls.
        // Pass 2 — convert the block to clamped uniforms in the output
        // buffer. With no RNG call in the loop this pass is pure
        // straight-line arithmetic the compiler can vectorize; the
        // mapping is bit-identical to the scalar `gen::<f64>()` path
        // (top 53 bits, `max(1e-300)` fixed-consumption clamp).
        const CHUNK: usize = 128;
        let mut raw = [0u64; 2 * CHUNK];
        for part in out.chunks_mut(CHUNK) {
            let draws = &mut raw[..2 * part.len()];
            rng.fill_u64(draws);
            uniforms_from_draws(draws, part);
        }
        // Pass 3 — the fused branch-free Box–Muller transform in place.
        boxmuller_batch(out, -self.power);
    }

    /// Draws the same `2n` values as [`NoiseSource::fill`] of `n` samples,
    /// appending each sample's radius draw (the first of its pair; the
    /// phase draw is consumed and dropped) to `radii`. With
    /// [`NoiseSource::mean_power_of_radii`] this gives the fill's mean
    /// power without synthesizing it, and leaves the stream where the fill
    /// would.
    pub fn draw_radii<R: Rng + ?Sized>(rng: &mut R, n: usize, radii: &mut Vec<u64>) {
        radii.extend((0..n).map(|_| {
            let radius = rng.next_u64();
            let _phase = rng.next_u64();
            radius
        }));
    }

    /// The mean power of the samples [`NoiseSource::fill`] would write
    /// from the radius draws [`NoiseSource::draw_radii`] took.
    ///
    /// A sample's power is its squared Box–Muller radius, `−ln u₁ ·
    /// power`; the phase uniform cancels (`cos² + sin² = 1`). So this
    /// returns `power · Σ(−ln u₁ᵢ) / n` and evaluates no `sqrt`/`sincos`.
    /// It matches `mean_power` of the fill to within 1e-9 relative (the
    /// batched sincos kernel rounds `cos² + sin²` to ~1e-10), and is
    /// `power/n · Γ(n, 1)` distributed.
    pub fn mean_power_of_radii(&self, radii: &[u64]) -> f64 {
        let n = radii.len();
        if n == 0 {
            return 0.0;
        }
        // One `ln` per call, not per sample: writing each radius uniform
        // as `u = m·2^e` with `m ∈ [1, 2)` (every `u` is normal — the
        // clamp keeps it ≥ 1e-300), `Σ ln u = ln 2 · Σ e + ln Π m`. The
        // mantissa product runs in four independent lanes and is folded
        // into the exponent sum every 64 samples, so it never overflows.
        // Rounding stays ~1e-15 relative, far inside the 1e-9 promised.
        const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;
        const ONE: u64 = 0x3ff0_0000_0000_0000;
        let scale = 1.0 / (1u64 << 53) as f64;
        let mut ln_sum = 0.0;
        let mut exponents = 0i64;
        let mut lanes = [1.0f64; 4];
        for (i, &radius) in radii.iter().enumerate() {
            // Via i64: exact for a 53-bit value, and one instruction.
            let bits = (((radius >> 11) as i64) as f64 * scale)
                .max(1e-300)
                .to_bits();
            exponents += ((bits >> 52) & 0x7ff) as i64 - 1023;
            lanes[i & 3] *= f64::from_bits((bits & MANTISSA) | ONE);
            if i & 63 == 63 || i + 1 == n {
                let product = (lanes[0] * lanes[1]) * (lanes[2] * lanes[3]);
                ln_sum +=
                    exponents as f64 * std::f64::consts::LN_2 + crate::kernels::ln_core(product);
                exponents = 0;
                lanes = [1.0; 4];
            }
        }
        ln_sum * -self.power / n as f64
    }
}

/// Pass 2 of [`NoiseSource::fill`]: unpacks the paired u64 draws into
/// clamped `[0, 1)` uniforms, exactly as rand's `Standard` f64 sampling
/// does (`(u >> 11) · 2⁻⁵³`, then the `max(1e-300)` consumption clamp on
/// the radius uniform). Standalone with slice params so the optimizer
/// sees non-aliasing inputs and vectorizes the conversion.
#[inline(never)]
fn uniforms_from_draws(draws: &[u64], out: &mut [C64]) {
    let scale = 1.0 / (1u64 << 53) as f64;
    for (v, pair) in out.iter_mut().zip(draws.chunks_exact(2)) {
        v.re = ((pair[0] >> 11) as f64 * scale).max(1e-300);
        v.im = (pair[1] >> 11) as f64 * scale;
    }
}

/// Generates `n` samples of white complex Gaussian noise with average power
/// `power` (linear).
pub fn white_noise<R: Rng + ?Sized>(rng: &mut R, n: usize, power: f64) -> Vec<C64> {
    let mut out = vec![C64::ZERO; n];
    white_noise_into(rng, &mut out, power);
    out
}

/// Fills `out` with white complex Gaussian noise with average power `power`
/// (linear). Identical RNG consumption and output to [`white_noise`] of the
/// same length — this is the allocation-free form the simulation hot loop
/// uses on its pooled buffers. Delegates to the batched [`NoiseSource`]
/// (two uniforms per sample, split-invariant across calls).
pub fn white_noise_into<R: Rng + ?Sized>(rng: &mut R, out: &mut [C64], power: f64) {
    NoiseSource::new(power).fill(rng, out);
}

/// A generator of random noise whose power spectral density follows a caller
/// supplied per-bin profile.
///
/// Block-based: each call to [`ShapedNoise::block`] produces `fft_size`
/// fresh samples. Blocks are independent, which is exactly what a jammer
/// wants — there is no exploitable correlation across blocks.
#[derive(Debug, Clone)]
pub struct ShapedNoise {
    plan: FftPlan,
    /// Per-bin amplitude scale (sqrt of the bin's target power share).
    bin_scale: Vec<f64>,
}

impl ShapedNoise {
    /// Creates a generator from a per-bin *power* profile (unnormalized;
    /// only the shape matters). `profile.len()` must be a power of two and
    /// uses standard FFT bin ordering (bin 0 = DC, upper half = negative
    /// frequencies).
    ///
    /// The generated time-domain signal has average power 1.0; scale it to
    /// the desired transmit power with [`crate::complex::scale_in_place`].
    pub fn new(profile: &[f64]) -> Self {
        assert!(
            is_pow2(profile.len()),
            "profile length must be a power of two"
        );
        assert!(
            profile.iter().all(|&p| p >= 0.0),
            "power profile must be non-negative"
        );
        let total: f64 = profile.iter().sum();
        assert!(total > 0.0, "power profile must not be all zero");
        let n = profile.len() as f64;
        // Normalize so that the time-domain output has unit average power.
        // With X[k] ~ CN(0, sigma_k^2) and x = IFFT(X) (1/N convention),
        // E|x[t]|^2 = (1/N^2) * sum_k sigma_k^2. Setting
        // sigma_k^2 = N^2 * p_k / sum(p) yields unit power.
        let bin_scale = profile
            .iter()
            .map(|&p| (n * n * p / total).sqrt())
            .collect();
        ShapedNoise {
            plan: FftPlan::new(profile.len()),
            bin_scale,
        }
    }

    /// Creates a flat (constant-profile) generator over the whole band —
    /// the "oblivious" jammer of Fig. 5.
    pub fn flat(fft_size: usize) -> Self {
        Self::new(&vec![1.0; fft_size])
    }

    /// Number of samples produced per block.
    pub fn block_len(&self) -> usize {
        self.plan.len()
    }

    /// Generates one block of shaped noise with unit average power
    /// (in expectation).
    pub fn block<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<C64> {
        let mut out = Vec::new();
        self.block_into(rng, &mut out);
        out
    }

    /// Generates one block of shaped noise into `out` (resized to
    /// [`ShapedNoise::block_len`]). Identical RNG consumption and output to
    /// [`ShapedNoise::block`], reusing the buffer's allocation.
    ///
    /// The per-bin draws ride the batched [`NoiseSource`] (unit-power fill,
    /// then a per-bin amplitude pass), so jam synthesis shares the same
    /// two-uniforms-per-bin kernel as the white-noise path.
    pub fn block_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<C64>) {
        out.resize(self.bin_scale.len(), C64::ZERO);
        NoiseSource::new(1.0).fill(rng, out);
        for (v, &s) in out.iter_mut().zip(self.bin_scale.iter()) {
            *v = v.scale(s);
        }
        self.plan.inverse(out);
    }

    /// Generates at least `n` samples by concatenating blocks, then truncates
    /// to exactly `n`.
    pub fn samples<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<C64> {
        let mut out = Vec::with_capacity(n + self.block_len());
        while out.len() < n {
            out.extend(self.block(rng));
        }
        out.truncate(n);
        out
    }
}

/// Scales `samples` in place so their *measured* mean power equals `power`.
/// No-op for all-zero input.
pub fn set_mean_power(samples: &mut [C64], power: f64) {
    let p = mean_power(samples);
    if p > 0.0 {
        let k = (power / p).sqrt();
        for s in samples.iter_mut() {
            *s = s.scale(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn noise_source_moments_are_standard() {
        // Per-dimension mean 0, variance power/2; fourth moment consistent
        // with a Gaussian (kurtosis 3 per dimension).
        let mut rng = StdRng::seed_from_u64(23);
        let src = NoiseSource::new(2.0);
        let mut v = vec![C64::ZERO; 200_000];
        src.fill(&mut rng, &mut v);
        let n = v.len() as f64;
        let mean_re = v.iter().map(|s| s.re).sum::<f64>() / n;
        let mean_im = v.iter().map(|s| s.im).sum::<f64>() / n;
        assert!(mean_re.abs() < 0.01, "mean re {mean_re}");
        assert!(mean_im.abs() < 0.01, "mean im {mean_im}");
        let var_re = v.iter().map(|s| s.re * s.re).sum::<f64>() / n;
        let var_im = v.iter().map(|s| s.im * s.im).sum::<f64>() / n;
        assert!((var_re - 1.0).abs() < 0.02, "var re {var_re}");
        assert!((var_im - 1.0).abs() < 0.02, "var im {var_im}");
        let kurt = v.iter().map(|s| s.re.powi(4)).sum::<f64>() / n / (var_re * var_re);
        assert!((kurt - 3.0).abs() < 0.15, "kurtosis {kurt}");
    }

    #[test]
    fn noise_source_is_circularly_symmetric() {
        // E[x²] ≈ 0 (pseudo-variance) and re/im are uncorrelated — the
        // paired Box–Muller keeps both properties because (r·cosθ, r·sinθ)
        // with θ uniform is rotation-invariant.
        let mut rng = StdRng::seed_from_u64(29);
        let src = NoiseSource::new(1.0);
        let mut v = vec![C64::ZERO; 200_000];
        src.fill(&mut rng, &mut v);
        let pseudo: C64 = v.iter().map(|&x| x * x).sum::<C64>() / v.len() as f64;
        assert!(pseudo.abs() < 0.01, "pseudo-variance {pseudo}");
        let cross = v.iter().map(|s| s.re * s.im).sum::<f64>() / v.len() as f64;
        assert!(cross.abs() < 0.01, "re/im correlation {cross}");
    }

    #[test]
    fn split_fills_match_one_big_fill_bit_for_bit() {
        // The determinism contract: 64k samples in one call == the same
        // 64k in many arbitrary-sized calls, from the same RNG state.
        let n = 65_536;
        let mut whole = vec![C64::ZERO; n];
        white_noise_into(&mut StdRng::seed_from_u64(77), &mut whole, 1.7);
        let mut rng = StdRng::seed_from_u64(77);
        let mut split = Vec::with_capacity(n);
        let mut sizes = [1usize, 3, 7, 63, 64, 65, 640, 4096, 10_000].iter().cycle();
        while split.len() < n {
            let take = (*sizes.next().unwrap()).min(n - split.len());
            let mut part = vec![C64::ZERO; take];
            white_noise_into(&mut rng, &mut part, 1.7);
            split.extend(part);
        }
        for (i, (a, b)) in whole.iter().zip(split.iter()).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "sample {i}: {a} != {b}"
            );
        }
    }

    #[test]
    fn noise_source_consumes_exactly_two_uniforms_per_sample() {
        // Stream position is a pure function of sample count: after
        // filling n samples, an independent draw must see the RNG exactly
        // 2n u64s ahead.
        use rand::RngCore;
        for n in [1usize, 63, 64, 65, 1000] {
            let mut a = StdRng::seed_from_u64(5);
            let mut buf = vec![C64::ZERO; n];
            NoiseSource::new(0.5).fill(&mut a, &mut buf);
            let mut b = StdRng::seed_from_u64(5);
            for _ in 0..2 * n {
                b.next_u64();
            }
            assert_eq!(a.next_u64(), b.next_u64(), "consumption at n={n}");
        }
    }

    #[test]
    fn fill_mean_power_matches_the_fill_and_its_consumption() {
        use rand::RngCore;
        for n in [1usize, 16, 127, 128, 129, 1000] {
            let src = NoiseSource::new(0.3);
            let mut a = StdRng::seed_from_u64(n as u64);
            let mut b = StdRng::seed_from_u64(n as u64);
            let mut buf = vec![C64::ZERO; n];
            src.fill(&mut a, &mut buf);
            let mut radii = vec![99];
            NoiseSource::draw_radii(&mut b, n, &mut radii);
            assert_eq!(radii.len(), n + 1, "draws are appended");
            let p = src.mean_power_of_radii(&radii[1..]);
            let want = mean_power(&buf);
            // Equal up to the sincos kernel's rounding of cos² + sin².
            assert!((p - want).abs() <= 1e-9 * want, "n={n}: {p} vs {want}");
            assert_eq!(a.next_u64(), b.next_u64(), "consumption at n={n}");
        }
        assert_eq!(NoiseSource::new(1.0).mean_power_of_radii(&[]), 0.0);
    }

    #[test]
    fn white_noise_power_and_circularity() {
        let mut rng = StdRng::seed_from_u64(42);
        let v = white_noise(&mut rng, 100_000, 2.5);
        let p = mean_power(&v);
        assert!((p - 2.5).abs() < 0.05, "power {p}");
        // Circular symmetry: E[x^2] ~ 0 (not just E[|x|^2]).
        let pseudo: C64 = v.iter().map(|&x| x * x).sum::<C64>() / v.len() as f64;
        assert!(pseudo.abs() < 0.05, "pseudo-variance {pseudo}");
    }

    #[test]
    fn shaped_noise_unit_power() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut profile = vec![0.0; 256];
        // Two tone clusters like FSK.
        for k in 40..48 {
            profile[k] = 1.0;
            profile[256 - k] = 1.0;
        }
        let gen = ShapedNoise::new(&profile);
        let s = gen.samples(&mut rng, 65_536);
        let p = mean_power(&s);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn shaped_noise_concentrates_power_in_profile_bins() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 256;
        let mut profile = vec![0.0; n];
        for p in profile.iter_mut().take(48).skip(40) {
            *p = 1.0;
        }
        let gen = ShapedNoise::new(&profile);
        // Average the spectrum over many blocks.
        let mut acc = vec![0.0; n];
        let blocks = 200;
        for _ in 0..blocks {
            let b = gen.block(&mut rng);
            let spec = fft(&b);
            for (k, v) in spec.iter().enumerate() {
                acc[k] += v.norm_sq();
            }
        }
        let in_band: f64 = (40..48).map(|k| acc[k]).sum();
        let total: f64 = acc.iter().sum();
        assert!(
            in_band / total > 0.99,
            "in-band fraction {}",
            in_band / total
        );
    }

    #[test]
    fn flat_noise_is_spectrally_flat() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 128;
        let gen = ShapedNoise::flat(n);
        let mut acc = vec![0.0; n];
        for _ in 0..500 {
            let spec = fft(&gen.block(&mut rng));
            for (k, v) in spec.iter().enumerate() {
                acc[k] += v.norm_sq();
            }
        }
        let mean = acc.iter().sum::<f64>() / n as f64;
        for (k, &a) in acc.iter().enumerate() {
            assert!(
                (a - mean).abs() / mean < 0.25,
                "bin {k} deviates: {} vs {}",
                a,
                mean
            );
        }
    }

    #[test]
    fn blocks_are_statistically_independent() {
        let mut rng = StdRng::seed_from_u64(5);
        let gen = ShapedNoise::flat(64);
        let a = gen.block(&mut rng);
        let b = gen.block(&mut rng);
        let corr = crate::complex::inner_product(&a, &b).abs()
            / (crate::complex::energy(&a).sqrt() * crate::complex::energy(&b).sqrt());
        assert!(corr < 0.35, "cross-block correlation {corr}");
    }

    #[test]
    fn set_mean_power_hits_target() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v = white_noise(&mut rng, 1000, 1.0);
        set_mean_power(&mut v, 0.125);
        assert!((mean_power(&v) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn set_mean_power_zero_signal_noop() {
        let mut v = vec![C64::ZERO; 16];
        set_mean_power(&mut v, 1.0);
        assert!(v.iter().all(|s| *s == C64::ZERO));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shaped_rejects_non_pow2() {
        let _ = ShapedNoise::new(&[1.0; 100]);
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn shaped_rejects_zero_profile() {
        let _ = ShapedNoise::new(&[0.0; 64]);
    }
}
