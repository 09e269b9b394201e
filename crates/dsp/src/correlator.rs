//! Sliding-window tone correlator — the streaming detection front end
//! shared by `hb_phy`'s `StreamingDetector` and `SidMonitor`.
//!
//! # The problem it solves
//!
//! A streaming FSK receiver does not know where symbol boundaries fall, so
//! it needs the energy of each tone over **every** sub-symbol alignment
//! ("phase"): with `sps` samples per symbol, exactly one phase completes a
//! symbol on every sample, and its energy is the matched-filter output
//! `|Σₖ x[n−sps+1+k]·e^{−iωk}|²` over the last `sps` samples. Kept as `sps`
//! per-phase accumulators, that costs `2·sps` complex multiply-adds per
//! sample.
//!
//! # The sliding window
//!
//! Pulling the unit-modulus factor `e^{−iω(n−sps+1)}` out of the sum leaves
//! `|Σ_{m=n−sps+1..n} x[m]·e^{−iωm}|²`: one running window sum per tone
//! gives every phase's energy, for O(1) work per sample (the sliding DFT
//! of Jacobsen & Lyons, IEEE Signal Processing Magazine, 2003).
//! [`SlidingToneCorrelator`] keeps
//!
//! * a ring of the last `sps` raw samples, indexed by `tick mod sps`;
//! * the window sums `W0`, `W1`, with every sample's phase referred to the
//!   start of the current symbol (the last tick `≡ 0 mod sps`);
//! * one weight table `T[j] = cis(−ω₀·j)` for `j ∈ (−sps, sps)`: a sample
//!   at symbol offset `b` weighs `T[b]` in the current symbol and
//!   `T[b − sps]` in the previous one. No tone periodicity is needed, so
//!   any FSK parameters take the same path.
//!
//! Per sample at offset `b > 0`: `W0 += x·T[b] − x_old·T[b − sps]`, where
//! `x_old` is the ring's sample one symbol back. Binary FSK's tones sit at
//! ±deviation, so the second tone's weights are the conjugates and both
//! sums share the same four real products per operand.
//!
//! At every `b = 0` the reference moves to the new symbol, and the sums are
//! **re-anchored**: recomputed from scratch out of the ring. That bounds
//! round-off drift to one symbol of updates, and it gives the two exactness
//! properties the detectors rely on:
//!
//! * the energies a sample emits depend only on the last `2·sps − 1`
//!   samples (the window plus the updates since the last re-anchor), so
//!   two correlators fed the same `2·sps − 1` samples (counting from a
//!   [`SlidingToneCorrelator::reset`], if one came later) emit bit-identical
//!   energies from then on;
//! * after `2·sps − 1` zero samples every energy is exactly `0.0`, and a
//!   NaN or infinite sample has left the sums.
//!
//! Output is independent of how a stream is chunked into
//! [`SlidingToneCorrelator::process_block`] calls. It is *not* bit-identical
//! to the per-phase sweep: the energies agree to round-off (the unit tests
//! bound the gap at `1e-9·sps·Σ|x|²` against a naive sweep), so only
//! near-tie hard decisions can differ.
//!
//! # Example
//!
//! ```
//! use hb_dsp::complex::C64;
//! use hb_dsp::correlator::SlidingToneCorrelator;
//! use std::f64::consts::PI;
//!
//! // 4 samples/symbol at fs = 8 Hz; tones at -1 Hz (bit 0) and +1 Hz (bit 1).
//! let mut corr = SlidingToneCorrelator::new(4, -1.0, 8.0);
//!
//! // Two symbols of a pure +1 Hz tone ("1" bits), symbol-aligned.
//! let samples: Vec<C64> = (0..8).map(|n| C64::cis(2.0 * PI * n as f64 / 8.0)).collect();
//! let (mut e0, mut e1) = (Vec::new(), Vec::new());
//! corr.process_block(&samples, 0, &mut e0, &mut e1);
//!
//! // Sample 3 completes phase 0's first full symbol: the 1-tone wins.
//! assert_eq!(e0.len(), 8);
//! assert!(e1[3] > e0[3]);
//! assert!(e1[7] > e0[7]);
//! ```

use crate::complex::C64;
use std::f64::consts::PI;

/// Sliding-window energies of a conjugate tone pair over every sub-symbol
/// alignment. See the module docs for the update, the re-anchor and the
/// exactness properties.
#[derive(Debug, Clone)]
pub struct SlidingToneCorrelator {
    /// `now[b] = T[b]`: the tone-0 weight of a current-symbol sample at
    /// offset `b`.
    now: Vec<C64>,
    /// `prev[b] = T[b − sps]`: the tone-0 weight of a previous-symbol
    /// sample at offset `b` (`prev[0]` is never read).
    prev: Vec<C64>,
    /// The last `sps` samples, indexed by symbol offset.
    ring: Vec<C64>,
    /// Window sums `[W0, W1]` for tone 0 and its conjugate tone 1.
    w: [C64; 2],
}

impl SlidingToneCorrelator {
    /// Creates a correlator for `sps` samples per symbol and the tone pair
    /// `±tone_hz` at sample rate `fs_hz`: bit 0's tone at `tone_hz`, bit
    /// 1's at `−tone_hz`. The weights are `cis(−2π·tone_hz·j / fs_hz)`,
    /// the one-symbol matched filter extended to negative `j`.
    ///
    /// # Panics
    /// Panics if `sps` is zero.
    pub fn new(sps: usize, tone_hz: f64, fs_hz: f64) -> Self {
        assert!(sps > 0, "tone table must not be empty (sps = 0)");
        let weight = |j: f64| C64::cis(-2.0 * PI * tone_hz * j / fs_hz);
        SlidingToneCorrelator {
            now: (0..sps).map(|b| weight(b as f64)).collect(),
            prev: (0..sps).map(|b| weight(b as f64 - sps as f64)).collect(),
            ring: vec![C64::ZERO; sps],
            w: [C64::ZERO; 2],
        }
    }

    /// Samples per symbol (the number of alignments covered).
    pub fn sps(&self) -> usize {
        self.ring.len()
    }

    /// How many of the latest samples an emitted energy depends on:
    /// `2·sps − 1` (see the module docs). Two correlators fed the same
    /// `memory()` samples since their last resets emit identical energies,
    /// and `memory()` zero samples make every energy exactly `0.0`.
    pub fn memory(&self) -> usize {
        2 * self.sps() - 1
    }

    /// Forgets every sample: the ring and both sums return to zero (the
    /// weight tables are immutable).
    pub fn reset(&mut self) {
        self.ring.fill(C64::ZERO);
        self.w = [C64::ZERO; 2];
    }

    /// Consumes `samples`, appending one `(e0, e1)` energy pair per sample
    /// to `e0_out`/`e1_out`.
    ///
    /// `base0` is the symbol offset of the first sample (`tick mod sps` in
    /// the caller's sample clock). The sample at offset `base` completes
    /// the symbol of phase `(base + 1) mod sps`, whose window is the last
    /// `sps` samples; samples from before a [`Self::reset`] count as zeros.
    ///
    /// Output is appended (the buffers are not cleared), and is identical
    /// no matter how a stream is split across calls.
    ///
    /// # Panics
    /// Panics if `base0 >= sps`.
    pub fn process_block(
        &mut self,
        samples: &[C64],
        base0: usize,
        e0_out: &mut Vec<f64>,
        e1_out: &mut Vec<f64>,
    ) {
        assert!(base0 < self.sps(), "base0 {base0} out of range");
        let start = e0_out.len();
        e0_out.resize(start + samples.len(), 0.0);
        e1_out.resize(start + samples.len(), 0.0);
        slide_block(
            samples,
            base0,
            &self.now,
            &self.prev,
            &mut self.ring,
            &mut self.w,
            &mut e0_out[start..],
            &mut e1_out[start..],
        );
    }
}

/// The per-sample window update over one block, one symbol run at a
/// time: a run starts at offset `base` (re-anchoring first when that is 0)
/// and slides through the end of the symbol or of the block, so the inner
/// loop walks the tables, the ring and the outputs in lockstep with no
/// branch, modulo or bounds check.
///
/// A standalone `#[inline(never)]` function on purpose: the `&mut` slice
/// parameters carry `noalias` across the call boundary, so the ring, the
/// tables and the outputs need no per-sample overlap checks (reached
/// through `self`, LLVM cannot prove them disjoint).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn slide_block(
    samples: &[C64],
    base0: usize,
    now: &[C64],
    prev: &[C64],
    ring: &mut [C64],
    w: &mut [C64; 2],
    e0_out: &mut [f64],
    e1_out: &mut [f64],
) {
    let sps = ring.len();
    let [mut w0, mut w1] = *w;
    let mut base = base0;
    let mut start = 0;
    while start < samples.len() {
        let end = samples.len().min(start + sps - base);
        let mut from = start;
        if base == 0 {
            // A new symbol starts: re-anchor both sums on the ring, whose
            // other entries all belong to the previous symbol.
            let x = samples[start];
            [w0, w1] = tone_pair(x, now[0]);
            for (&y, &u) in ring[1..].iter().zip(&prev[1..sps]) {
                let [q0, q1] = tone_pair(y, u);
                w0 += q0;
                w1 += q1;
            }
            ring[0] = x;
            e0_out[start] = w0.norm_sq();
            e1_out[start] = w1.norm_sq();
            base = 1;
            from += 1;
        }
        let k = base + (end - from);
        let inputs = samples[from..end]
            .iter()
            .zip(&now[base..k])
            .zip(&prev[base..k]);
        let state = ring[base..k]
            .iter_mut()
            .zip(e0_out[from..end].iter_mut().zip(&mut e1_out[from..end]));
        for (((&x, &t), &u), (y, (e0, e1))) in inputs.zip(state) {
            // Slide: x·T[b] enters, the sample one symbol back (·T[b − sps])
            // leaves.
            let [p0, p1] = tone_pair(x, t);
            let [q0, q1] = tone_pair(*y, u);
            w0 += p0 - q0;
            w1 += p1 - q1;
            *y = x;
            *e0 = w0.norm_sq();
            *e1 = w1.norm_sq();
        }
        base = if k == sps { 0 } else { k };
        start = end;
    }
    *w = [w0, w1];
}

/// `[x·t, x·conj(t)]`, the sample's terms for a tone and its conjugate,
/// from four shared real products.
#[inline(always)]
fn tone_pair(x: C64, t: C64) -> [C64; 2] {
    let (a, b, c, d) = (x.re * t.re, x.im * t.im, x.re * t.im, x.im * t.re);
    [C64::new(a - b, c + d), C64::new(a + b, d - c)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-phase matched-filter sweep: `sps` zero-started accumulators
    /// per tone, one completing per sample. The semantic oracle for the
    /// sliding window.
    fn naive_sweep(
        mf0: &[C64],
        mf1: &[C64],
        samples: &[C64],
        base0: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let sps = mf0.len();
        let mut accum = vec![(C64::ZERO, C64::ZERO); sps];
        let (mut e0s, mut e1s) = (Vec::new(), Vec::new());
        let mut base = base0;
        for &s in samples {
            for (p, acc) in accum.iter_mut().enumerate() {
                let pos = (base + sps - p) % sps;
                acc.0 += s * mf0[pos];
                acc.1 += s * mf1[pos];
            }
            let p = (base + 1) % sps;
            e0s.push(accum[p].0.norm_sq());
            e1s.push(accum[p].1.norm_sq());
            accum[p] = (C64::ZERO, C64::ZERO);
            base = p;
        }
        (e0s, e1s)
    }

    /// The one-symbol matched filters of the tone pair `±tone_hz`, built
    /// the way the streaming detectors build them.
    fn templates(sps: usize, tone_hz: f64, fs_hz: f64) -> (Vec<C64>, Vec<C64>) {
        let make = |f: f64| -> Vec<C64> {
            (0..sps)
                .map(|n| C64::cis(-2.0 * PI * f * n as f64 / fs_hz))
                .collect()
        };
        (make(tone_hz), make(-tone_hz))
    }

    fn random_samples(rng: &mut StdRng, n: usize) -> Vec<C64> {
        (0..n)
            .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    /// Unit-power FSK with ±`tone_hz` tones at 300 kHz (a random bit per
    /// symbol, random symbol offset) plus complex white noise at `snr_db`.
    fn fsk_in_noise(rng: &mut StdRng, n: usize, sps: usize, tone_hz: f64, snr_db: f64) -> Vec<C64> {
        let offset = rng.gen_range(0..sps);
        let (mut phase, mut f) = (0.0f64, tone_hz);
        let tones: Vec<C64> = (0..n)
            .map(|i| {
                if (i + offset) % sps == 0 {
                    f = if rng.gen::<bool>() { tone_hz } else { -tone_hz };
                }
                phase += 2.0 * PI * f / 300e3;
                C64::cis(phase)
            })
            .collect();
        let noise = crate::noise::white_noise(rng, n, 10f64.powf(-snr_db / 10.0));
        tones.iter().zip(&noise).map(|(&t, &w)| t + w).collect()
    }

    /// Runs `samples` through a fresh correlator in random chunks.
    fn run_chunked(
        corr: &mut SlidingToneCorrelator,
        rng: &mut StdRng,
        samples: &[C64],
        base0: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let sps = corr.sps();
        let (mut e0, mut e1) = (Vec::new(), Vec::new());
        let mut off = 0;
        while off < samples.len() {
            let take = rng.gen_range(1..=(samples.len() - off).min(3 * sps + 5));
            corr.process_block(
                &samples[off..off + take],
                (base0 + off) % sps,
                &mut e0,
                &mut e1,
            );
            off += take;
        }
        (e0, e1)
    }

    proptest! {
        /// Against the per-phase sweep: every energy within
        /// `1e-9·sps·Σ|x|²` over the samples it depends on (the last
        /// `2·sps − 1`), and the same hard decision wherever the tones are
        /// not a near-tie. Random input and FSK at 0–30 dB SNR, every
        /// detector `sps`, random start offsets and chunkings.
        #[test]
        fn energies_match_naive_sweep(
            seed in any::<u64>(),
            sps_idx in 0usize..4,
            snr_db in 0.0f64..30.0,
            fsk in any::<bool>(),
        ) {
            let sps = [1usize, 6, 12, 24][sps_idx];
            let fs_hz = 300e3;
            let tone_hz = -50e3;
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 40 * sps + rng.gen_range(0..sps);
            let samples = if fsk {
                fsk_in_noise(&mut rng, n, sps, tone_hz, snr_db)
            } else {
                random_samples(&mut rng, n)
            };
            let base0 = rng.gen_range(0..sps);
            let (mf0, mf1) = templates(sps, tone_hz, fs_hz);
            let (r0, r1) = naive_sweep(&mf0, &mf1, &samples, base0);
            let mut corr = SlidingToneCorrelator::new(sps, tone_hz, fs_hz);
            let (e0, e1) = run_chunked(&mut corr, &mut rng, &samples, base0);
            prop_assert_eq!(e0.len(), n);
            for i in 0..n {
                let lo = (i + 1).saturating_sub(2 * sps - 1);
                let power: f64 = samples[lo..=i].iter().map(|x| x.norm_sq()).sum();
                let tol = 1e-9 * sps as f64 * power;
                prop_assert!((e0[i] - r0[i]).abs() <= tol, "e0[{}]: {} vs {}", i, e0[i], r0[i]);
                prop_assert!((e1[i] - r1[i]).abs() <= tol, "e1[{}]: {} vs {}", i, e1[i], r1[i]);
                if (r1[i] - r0[i]).abs() > 1e-9 * (r0[i] + r1[i]) {
                    prop_assert!((e1[i] > e0[i]) == (r1[i] > r0[i]), "decision {}", i);
                }
            }
        }
    }

    #[test]
    fn odd_fsk_parameters_match_naive_sweep() {
        // Tones that are not periodic in the symbol take the same path.
        let mut rng = StdRng::seed_from_u64(21);
        let (sps, tone_hz, fs_hz) = (7usize, 12_347.0, 44_100.0);
        let samples = random_samples(&mut rng, 30 * sps + 3);
        let (mf0, mf1) = templates(sps, tone_hz, fs_hz);
        let (r0, r1) = naive_sweep(&mf0, &mf1, &samples, 3);
        let mut corr = SlidingToneCorrelator::new(sps, tone_hz, fs_hz);
        let (mut e0, mut e1) = (Vec::new(), Vec::new());
        corr.process_block(&samples, 3, &mut e0, &mut e1);
        for i in 0..samples.len() {
            assert!((e0[i] - r0[i]).abs() < 1e-12, "e0[{i}]");
            assert!((e1[i] - r1[i]).abs() < 1e-12, "e1[{i}]");
        }
    }

    #[test]
    fn energies_forget_everything_older_than_memory() {
        // Two correlators with different pasts, one of them reset, agree
        // bit for bit once both have seen the same `memory()` samples; a
        // NaN/inf past included. And `memory()` zeros give exact zeros.
        let mut rng = StdRng::seed_from_u64(99);
        for sps in [1usize, 6, 24] {
            for base0 in [0, sps / 2, sps - 1] {
                let mut a = SlidingToneCorrelator::new(sps, -50e3, 300e3);
                let mut b = a.clone();
                let (mut e0, mut e1) = (Vec::new(), Vec::new());
                let junk = [C64::new(f64::NAN, 1.0), C64::new(f64::INFINITY, 0.0)];
                a.process_block(&random_samples(&mut rng, 3 * sps), 0, &mut e0, &mut e1);
                a.process_block(&junk, 0, &mut e0, &mut e1);
                b.process_block(&random_samples(&mut rng, sps + 1), 0, &mut e0, &mut e1);
                b.reset();
                let m = a.memory();
                let common = random_samples(&mut rng, 4 * sps);
                let (mut a0, mut a1, mut b0, mut b1) = (vec![], vec![], vec![], vec![]);
                a.process_block(&common, base0, &mut a0, &mut a1);
                b.process_block(&common, base0, &mut b0, &mut b1);
                for i in m - 1..common.len() {
                    assert_eq!(a0[i].to_bits(), b0[i].to_bits(), "sps {sps} e0[{i}]");
                    assert_eq!(a1[i].to_bits(), b1[i].to_bits(), "sps {sps} e1[{i}]");
                }
                let (mut z0, mut z1) = (vec![], vec![]);
                a.process_block(&vec![C64::ZERO; m], base0, &mut z0, &mut z1);
                assert_eq!((z0[m - 1], z1[m - 1]), (0.0, 0.0), "sps {sps}");
            }
        }
    }

    #[test]
    fn chunking_does_not_change_the_output() {
        let mut rng = StdRng::seed_from_u64(55);
        let sps = 24;
        let samples = random_samples(&mut rng, 400);
        let mut whole = SlidingToneCorrelator::new(sps, -50e3, 300e3);
        let (mut e0w, mut e1w) = (Vec::new(), Vec::new());
        whole.process_block(&samples, 0, &mut e0w, &mut e1w);
        let mut chunked = SlidingToneCorrelator::new(sps, -50e3, 300e3);
        let (mut e0c, mut e1c) = (Vec::new(), Vec::new());
        let mut off = 0usize;
        for n in [1usize, 7, 16, 23, 24, 25, 100, 400] {
            let take = n.min(samples.len() - off);
            chunked.process_block(&samples[off..off + take], off % sps, &mut e0c, &mut e1c);
            off += take;
            if off == samples.len() {
                break;
            }
        }
        assert_eq!(off, samples.len());
        for i in 0..samples.len() {
            assert_eq!(e0w[i].to_bits(), e0c[i].to_bits(), "e0[{i}]");
            assert_eq!(e1w[i].to_bits(), e1c[i].to_bits(), "e1[{i}]");
        }
    }

    #[test]
    fn reset_clears_partial_symbols() {
        let mut rng = StdRng::seed_from_u64(77);
        let sps = 6;
        let samples = random_samples(&mut rng, 50);
        let mut a = SlidingToneCorrelator::new(sps, -100e3, 300e3);
        let (mut e0, mut e1) = (Vec::new(), Vec::new());
        // Pollute with a partial block, then reset.
        a.process_block(&samples[..4], 0, &mut e0, &mut e1);
        a.reset();
        e0.clear();
        e1.clear();
        a.process_block(&samples, 0, &mut e0, &mut e1);
        let mut fresh = SlidingToneCorrelator::new(sps, -100e3, 300e3);
        let (mut f0, mut f1) = (Vec::new(), Vec::new());
        fresh.process_block(&samples, 0, &mut f0, &mut f1);
        for i in 0..samples.len() {
            assert_eq!(e0[i].to_bits(), f0[i].to_bits(), "e0[{i}]");
            assert_eq!(e1[i].to_bits(), f1[i].to_bits(), "e1[{i}]");
        }
    }

    #[test]
    fn output_is_appended_not_overwritten() {
        let mut corr = SlidingToneCorrelator::new(4, -1.0, 4.0);
        let (mut e0, mut e1) = (vec![-1.0], vec![-2.0]);
        corr.process_block(&[C64::ONE; 3], 0, &mut e0, &mut e1);
        assert_eq!(e0.len(), 4);
        assert_eq!(e0[0], -1.0);
        assert_eq!(e1[0], -2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_base() {
        let mut corr = SlidingToneCorrelator::new(4, -1.0, 4.0);
        corr.process_block(&[C64::ONE], 4, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn rejects_empty_tables() {
        let _ = SlidingToneCorrelator::new(0, -1.0, 4.0);
    }
}
