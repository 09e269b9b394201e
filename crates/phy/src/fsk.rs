//! Binary FSK modem — the air interface of MICS-band IMDs.
//!
//! The tested Medtronic devices use 2-FSK whose received spectrum
//! concentrates around ±50 kHz within a 300 kHz channel (Fig. 4 of the
//! paper). We model this as phase-continuous binary FSK: a `0` bit is a
//! tone at `-deviation`, a `1` bit a tone at `+deviation`, with continuous
//! phase across symbol boundaries (constant envelope, like real FSK
//! transmitter hardware).
//!
//! Demodulation is **noncoherent matched filtering**: per symbol, correlate
//! against both tones and pick the larger magnitude. This is the "optimal
//! FSK decoder \[38\]" the paper equips the eavesdropper with; we verify the
//! implementation against the textbook BER curve `0.5·exp(−SNR/2)` in the
//! tests.

use crate::bits::bit_errors;
use crate::packet::{Frame, FrameError, PREAMBLE, SYNC_WORD};
use hb_dsp::complex::C64;
use std::f64::consts::PI;

/// FSK air-interface parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FskParams {
    /// Complex baseband sample rate, Hz.
    pub fs_hz: f64,
    /// Bit rate, bits/s. `fs_hz / bitrate` must be an integer.
    pub bitrate: f64,
    /// Tone deviation, Hz: bit 0 ↦ −deviation, bit 1 ↦ +deviation.
    pub deviation_hz: f64,
}

impl FskParams {
    /// The profile used throughout the reproduction: 300 kHz channel,
    /// 12.5 kbps telemetry, ±50 kHz tones.
    ///
    /// The tone placement matches Fig. 4's energy concentration at ±50 kHz.
    /// The bit rate is chosen so that (a) the longest 256-bit frame lasts
    /// ~21 ms — the paper's max packet duration P — and (b) the
    /// matched-filter processing gain (300 kHz / 12.5 kbps ≈ 13.8 dB)
    /// makes the paper's measured 32 dB antenna cancellation sufficient
    /// for its reported 0.2% packet loss at +20 dB jamming (§10.1(b)).
    pub fn mics_default() -> Self {
        FskParams {
            fs_hz: 300e3,
            bitrate: 12.5e3,
            deviation_hz: 50e3,
        }
    }

    /// Samples per symbol (integer by construction).
    pub fn samples_per_symbol(&self) -> usize {
        let sps = self.fs_hz / self.bitrate;
        assert!(
            (sps - sps.round()).abs() < 1e-9 && sps >= 1.0,
            "fs/bitrate must be a positive integer, got {sps}"
        );
        sps.round() as usize
    }

    /// Tone frequency for a bit value.
    pub fn tone_hz(&self, bit: u8) -> f64 {
        if bit == 0 {
            -self.deviation_hz
        } else {
            self.deviation_hz
        }
    }
}

/// Phase-continuous binary FSK modulator/demodulator.
///
/// Performance notes: neither direction pays trig per sample.
/// Demodulation's per-tone correlation phasors are precomputed one symbol
/// deep at construction. Modulation is blocked phase recurrence
/// ([`hb_dsp::osc::ToneBlock`]): per symbol, one vectorizable pass of
/// independent multiplies against a precomputed per-bit phasor table,
/// with the base phasor advancing once per symbol and renormalizing
/// every [`hb_dsp::osc::RENORM_INTERVAL`] symbols — ~1.3 ns a sample
/// versus ~10 ns for the historical `cis(phase)` accumulator. The
/// waveform differs from that accumulator only at the ulp level (phase
/// error stays below 1e-9 over million-sample frames, pinned by tests);
/// the golden determinism suite was deliberately re-captured on this
/// engine (see `crates/testbed/tests/golden.rs` for the re-pin policy).
#[derive(Debug, Clone)]
pub struct FskModem {
    params: FskParams,
    /// Tone-0 matched-filter phasor table (one symbol long, conjugated),
    /// split into SoA re/im planes so the blocked demodulator kernel takes
    /// plain `&[f64]` operands. Tone 1 sits at `+deviation` and tone 0 at
    /// `−deviation`, so the tone-1 table is exactly the conjugate of this
    /// one: the demodulator shares the four partial products between both
    /// tone correlations ([`energies_fused`]).
    mf0_re: Vec<f64>,
    mf0_im: Vec<f64>,
    /// One symbol-long blocked tone table per bit value: modulation
    /// multiplies a running base phasor against these, so it never calls
    /// `cis` and carries no per-sample recurrence chain.
    tone: [hb_dsp::osc::ToneBlock; 2],
}

impl FskModem {
    /// Creates a modem for the given parameters.
    pub fn new(params: FskParams) -> Self {
        let sps = params.samples_per_symbol();
        let tone_for = |bit: u8| {
            hb_dsp::osc::ToneBlock::new(2.0 * PI * params.tone_hz(bit) / params.fs_hz, sps)
        };
        let mf_zero: Vec<C64> = (0..sps)
            .map(|n| C64::cis(-2.0 * PI * params.tone_hz(0) * n as f64 / params.fs_hz))
            .collect();
        FskModem {
            params,
            mf0_re: mf_zero.iter().map(|c| c.re).collect(),
            mf0_im: mf_zero.iter().map(|c| c.im).collect(),
            tone: [tone_for(0), tone_for(1)],
        }
    }

    /// Air-interface parameters.
    pub fn params(&self) -> &FskParams {
        &self.params
    }

    /// Modulates bits into unit-amplitude, phase-continuous baseband
    /// samples (`bits.len() * samples_per_symbol` samples).
    ///
    /// Tone synthesis is blocked phase recurrence
    /// ([`hb_dsp::osc::ToneBlock`]): each symbol is one vectorizable pass
    /// of independent multiplies `base · e^{jiΔφ}` against the per-bit
    /// table, and the base phasor advances once per symbol (phase stays
    /// continuous across symbol boundaries by construction), with a
    /// magnitude renormalization every
    /// [`hb_dsp::osc::RENORM_INTERVAL`] symbols.
    pub fn modulate(&self, bits: &[u8]) -> Vec<C64> {
        let sps = self.params.samples_per_symbol();
        let mut out = vec![C64::ZERO; bits.len() * sps];
        let mut base = C64::ONE;
        for (i, (chunk, &bit)) in out.chunks_mut(sps).zip(bits.iter()).enumerate() {
            base = self.tone[usize::from(bit != 0)].emit(base, chunk);
            if i as u32 % hb_dsp::osc::RENORM_INTERVAL == hb_dsp::osc::RENORM_INTERVAL - 1 {
                base = hb_dsp::osc::renormalize_phasor(base);
            }
        }
        out
    }

    /// Per-symbol noncoherent detection statistics for every complete
    /// symbol in `samples`: parallel `(e0, e1)` vectors of the squared
    /// correlation magnitudes against the 0-tone and 1-tone.
    ///
    /// Blocked layout: [`DEMOD_LANES`] symbols are
    /// correlated at once with independent scalar accumulator chains, so
    /// the per-symbol add-latency chain of the historical scalar walk
    /// (kept under `#[cfg(test)] mod reference`) no longer bounds
    /// throughput. Each symbol's own accumulation order is unchanged —
    /// sequential over the symbol — and the fused kernel's rearrangements
    /// are sign-exact in IEEE arithmetic, so the energies are bit-identical
    /// to the reference (pinned by the equivalence proptests; goldens
    /// needed no re-capture).
    fn demod_energies(&self, samples: &[C64]) -> (Vec<f64>, Vec<f64>) {
        let sps = self.params.samples_per_symbol();
        let n_sym = samples.len() / sps;
        let mut e0 = vec![0.0; n_sym];
        let mut e1 = vec![0.0; n_sym];
        let aligned = &samples[..n_sym * sps];
        energies_fused(aligned, &self.mf0_re, &self.mf0_im, &mut e0, &mut e1);
        (e0, e1)
    }

    /// Demodulates symbol-aligned samples into hard bits. Trailing partial
    /// symbols are ignored.
    pub fn demodulate(&self, samples: &[C64]) -> Vec<u8> {
        let (e0, e1) = self.demod_energies(samples);
        e0.iter().zip(&e1).map(|(&a, &b)| u8::from(b > a)).collect()
    }

    /// Soft demodulation: per symbol, returns `e1 − e0` normalized by the
    /// total, in `[-1, 1]` (positive favours bit 1).
    pub fn demodulate_soft(&self, samples: &[C64]) -> Vec<f64> {
        let (e0, e1) = self.demod_energies(samples);
        e0.iter()
            .zip(&e1)
            .map(|(&a, &b)| {
                let total = a + b;
                if total > 0.0 {
                    (b - a) / total
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Searches for a frame start within `samples` by trying every
    /// sub-symbol alignment and scanning the demodulated bit stream for the
    /// preamble + sync pattern (up to `max_pattern_errors` bit errors
    /// allowed).
    ///
    /// Returns the *sample* index where the frame's first preamble symbol
    /// begins.
    pub fn find_frame_start(&self, samples: &[C64], max_pattern_errors: usize) -> Option<usize> {
        let sps = self.params.samples_per_symbol();
        let mut pattern = Vec::new();
        pattern.extend_from_slice(&crate::bits::bytes_to_bits(&PREAMBLE));
        pattern.extend_from_slice(&crate::bits::bytes_to_bits(&SYNC_WORD));

        let mut best: Option<(usize, usize)> = None; // (errors, sample index)
        for phase in 0..sps.min(samples.len()) {
            let bits = self.demodulate(&samples[phase..]);
            if bits.len() < pattern.len() {
                continue;
            }
            for start in 0..=(bits.len() - pattern.len()) {
                let errs = bit_errors(&bits[start..start + pattern.len()], &pattern);
                if errs <= max_pattern_errors {
                    let sample_idx = phase + start * sps;
                    match best {
                        Some((e, s)) if (errs, sample_idx) >= (e, s) => {}
                        _ => best = Some((errs, sample_idx)),
                    }
                    // Earliest adequate match at this phase is enough.
                    break;
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Attempts to receive a complete frame from a sample buffer: locates
    /// the preamble/sync, demodulates from there, and parses.
    pub fn receive_frame(&self, samples: &[C64]) -> Result<Frame, FskRxError> {
        let start = self
            .find_frame_start(samples, 4)
            .ok_or(FskRxError::NoFrame)?;
        let bits = self.demodulate(&samples[start..]);
        Frame::from_bits(&bits).map_err(FskRxError::Frame)
    }

    /// On-air duration of `n_bits` in seconds.
    pub fn duration_s(&self, n_bits: usize) -> f64 {
        n_bits as f64 / self.params.bitrate
    }

    /// On-air duration of `n_bits` in samples.
    pub fn duration_samples(&self, n_bits: usize) -> usize {
        n_bits * self.params.samples_per_symbol()
    }
}

/// Symbols correlated per blocked-kernel iteration: enough independent
/// accumulator chains (4 lanes × 4 accumulators) to hide FP add latency
/// without spilling the register file.
const DEMOD_LANES: usize = 4;

/// Fused matched-filter energies for a bitwise-conjugate tone pair.
///
/// With `mf_one[i] == conj(mf_zero[i])` the two correlations share the four
/// partial products `s.re·wr, s.im·wi, s.re·wi, s.im·wr`: the tone-1 terms
/// are the same products with flipped combination signs, and in IEEE
/// arithmetic `a − (−b) ≡ a + b` and `(−a) + b ≡ b − a` bit for bit, so
/// this halves the multiplies while staying bit-identical to the scalar
/// reference walk.
///
/// Each full block correlates [`DEMOD_LANES`] symbols at once: per
/// filter tap the four symbols' samples are gathered into fixed-size
/// local lane arrays, which LLVM packs straight into vector registers
/// and turns — together with the `[f64; DEMOD_LANES]` accumulators —
/// into packed mul/add/sub, one SIMD lane per symbol. Lane-parallel
/// packing never reassociates any per-symbol sum, and packed IEEE ops
/// round per-lane identically to their scalar forms, so the energies
/// stay bit-identical to the reference at any vector width. Standalone
/// `#[inline(never)]` function over slice params so noalias holds
/// (PR-5 idiom).
#[inline(never)]
fn energies_fused(samples: &[C64], wr: &[f64], wi: &[f64], e0: &mut [f64], e1: &mut [f64]) {
    let sps = wr.len();
    let n_sym = e0.len();
    debug_assert_eq!(samples.len(), n_sym * sps);
    debug_assert_eq!(e1.len(), n_sym);
    let mut sym = 0;
    while sym + DEMOD_LANES <= n_sym {
        let block = &samples[sym * sps..(sym + DEMOD_LANES) * sps];
        let (b0, rest) = block.split_at(sps);
        let (b1, rest) = rest.split_at(sps);
        let (b2, b3) = rest.split_at(sps);
        let mut c0r = [0.0f64; DEMOD_LANES];
        let mut c0i = [0.0f64; DEMOD_LANES];
        let mut c1r = [0.0f64; DEMOD_LANES];
        let mut c1i = [0.0f64; DEMOD_LANES];
        for i in 0..sps {
            let re = [b0[i].re, b1[i].re, b2[i].re, b3[i].re];
            let im = [b0[i].im, b1[i].im, b2[i].im, b3[i].im];
            let tr = wr[i];
            let ti = wi[i];
            for l in 0..DEMOD_LANES {
                let t1 = re[l] * tr;
                let t2 = im[l] * ti;
                let t3 = re[l] * ti;
                let t4 = im[l] * tr;
                c0r[l] += t1 - t2;
                c0i[l] += t3 + t4;
                c1r[l] += t1 + t2;
                c1i[l] += t4 - t3;
            }
        }
        for l in 0..DEMOD_LANES {
            e0[sym + l] = c0r[l] * c0r[l] + c0i[l] * c0i[l];
            e1[sym + l] = c1r[l] * c1r[l] + c1i[l] * c1i[l];
        }
        sym += DEMOD_LANES;
    }
    while sym < n_sym {
        let block = &samples[sym * sps..(sym + 1) * sps];
        let (mut c0r, mut c0i, mut c1r, mut c1i) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (i, &s) in block.iter().enumerate() {
            let t1 = s.re * wr[i];
            let t2 = s.im * wi[i];
            let t3 = s.re * wi[i];
            let t4 = s.im * wr[i];
            c0r += t1 - t2;
            c0i += t3 + t4;
            c1r += t1 + t2;
            c1i += t4 - t3;
        }
        e0[sym] = c0r * c0r + c0i * c0i;
        e1[sym] = c1r * c1r + c1i * c1i;
        sym += 1;
    }
}

/// Errors from [`FskModem::receive_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FskRxError {
    /// No preamble/sync pattern found in the buffer.
    NoFrame,
    /// Pattern found but the frame failed to parse (e.g. CRC).
    Frame(FrameError),
}

impl std::fmt::Display for FskRxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FskRxError::NoFrame => write!(f, "no frame detected"),
            FskRxError::Frame(e) => write!(f, "frame error: {e}"),
        }
    }
}

impl std::error::Error for FskRxError {}

/// The pre-blocked (PR ≤ 7) demodulator, kept verbatim as the
/// bit-exactness reference for the blocked-kernel rewrite: the equivalence
/// property tests drive this and the production modem on identical
/// samples and require identical output, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The historical per-symbol scalar matched-filter walk.
    pub struct RefFskDemod {
        params: FskParams,
        mf_zero: Vec<C64>,
        mf_one: Vec<C64>,
    }

    impl RefFskDemod {
        pub fn new(params: FskParams) -> Self {
            let sps = params.samples_per_symbol();
            let make = |f: f64| -> Vec<C64> {
                (0..sps)
                    .map(|n| C64::cis(-2.0 * PI * f * n as f64 / params.fs_hz))
                    .collect()
            };
            RefFskDemod {
                params,
                mf_zero: make(params.tone_hz(0)),
                mf_one: make(params.tone_hz(1)),
            }
        }

        fn symbol_energies(&self, symbol: &[C64]) -> (f64, f64) {
            let mut c0 = C64::ZERO;
            let mut c1 = C64::ZERO;
            for (i, &x) in symbol.iter().enumerate() {
                c0 += x * self.mf_zero[i];
                c1 += x * self.mf_one[i];
            }
            (c0.norm_sq(), c1.norm_sq())
        }

        pub fn demodulate(&self, samples: &[C64]) -> Vec<u8> {
            let sps = self.params.samples_per_symbol();
            samples
                .chunks_exact(sps)
                .map(|sym| {
                    let (e0, e1) = self.symbol_energies(sym);
                    u8::from(e1 > e0)
                })
                .collect()
        }

        pub fn demodulate_soft(&self, samples: &[C64]) -> Vec<f64> {
            let sps = self.params.samples_per_symbol();
            samples
                .chunks_exact(sps)
                .map(|sym| {
                    let (e0, e1) = self.symbol_energies(sym);
                    let total = e0 + e1;
                    if total > 0.0 {
                        (e1 - e0) / total
                    } else {
                        0.0
                    }
                })
                .collect()
        }
    }
}

/// Old-vs-new equivalence: the blocked demodulator must reproduce the
/// scalar reference bit for bit on arbitrary inputs (this is what lets
/// the golden suite stay pinned with no re-capture).
#[cfg(test)]
mod equivalence {
    use super::reference::RefFskDemod;
    use super::*;
    use proptest::prelude::*;

    fn arb_samples(max_len: usize) -> impl Strategy<Value = Vec<C64>> {
        prop::collection::vec(
            (-3.0f64..3.0, -3.0f64..3.0).prop_map(|(re, im)| C64::new(re, im)),
            0..max_len,
        )
    }

    proptest! {
        /// Hard and soft demodulation are bit-identical to the scalar
        /// reference for any sps, deviation, and sample buffer (including
        /// unaligned tails and lane remainders).
        #[test]
        fn demod_equivalence_with_scalar_reference(
            sps in 1usize..32,
            dev_idx in 0usize..4,
            samples in arb_samples(1200),
        ) {
            let deviation = [0.0f64, 12_347.0, 50e3, 149e3][dev_idx];
            let fs = 300e3;
            let params = FskParams { fs_hz: fs, bitrate: fs / sps as f64, deviation_hz: deviation };
            let modem = FskModem::new(params);
            let r = RefFskDemod::new(params);
            prop_assert_eq!(modem.demodulate(&samples), r.demodulate(&samples));
            let soft = modem.demodulate_soft(&samples);
            let soft_ref = r.demodulate_soft(&samples);
            prop_assert_eq!(soft.len(), soft_ref.len());
            for (a, b) in soft.iter().zip(&soft_ref) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// The blocked fused kernel (transpose + lane loop) is bit-identical
        /// to a plain one-symbol-at-a-time walk of the same fused
        /// expressions — pins the lane/transpose machinery directly at the
        /// kernel level, independent of the modem wrapper.
        #[test]
        fn blocked_fused_kernel_matches_single_symbol_walk(
            sps in 1usize..32,
            n_sym in 0usize..16,
            samples in arb_samples(512),
        ) {
            let fs = 300e3;
            let table: Vec<C64> = (0..sps)
                .map(|n| C64::cis(-2.0 * PI * 50e3 * n as f64 / fs))
                .collect();
            let (wr, wi): (Vec<f64>, Vec<f64>) = table.iter().map(|c| (c.re, c.im)).unzip();
            let n_sym = n_sym.min(samples.len() / sps);
            let aligned = &samples[..n_sym * sps];
            let mut e0 = vec![0.0; n_sym];
            let mut e1 = vec![0.0; n_sym];
            energies_fused(aligned, &wr, &wi, &mut e0, &mut e1);
            for (sym, chunk) in aligned.chunks_exact(sps).enumerate() {
                let (mut c0r, mut c0i, mut c1r, mut c1i) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for (i, &s) in chunk.iter().enumerate() {
                    let t1 = s.re * wr[i];
                    let t2 = s.im * wi[i];
                    let t3 = s.re * wi[i];
                    let t4 = s.im * wr[i];
                    c0r += t1 - t2;
                    c0i += t3 + t4;
                    c1r += t1 + t2;
                    c1i += t4 - t3;
                }
                prop_assert_eq!(e0[sym].to_bits(), (c0r * c0r + c0i * c0i).to_bits());
                prop_assert_eq!(e1[sym].to_bits(), (c1r * c1r + c1i * c1i).to_bits());
            }
        }
    }

    /// On the mics profile the fused energies match the reference
    /// bitwise on a real modulated frame.
    #[test]
    fn mics_profile_fused_equivalence() {
        let params = FskParams::mics_default();
        let modem = FskModem::new(params);
        let r = RefFskDemod::new(params);
        let mut prbs = crate::bits::Prbs::new(0x2D);
        let bits = prbs.bits(512);
        let sig = modem.modulate(&bits);
        assert_eq!(modem.demodulate(&sig), r.demodulate(&sig));
        for (a, b) in modem
            .demodulate_soft(&sig)
            .iter()
            .zip(&r.demodulate_soft(&sig))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{bit_error_rate, Prbs};
    use crate::packet::{FrameType, Serial};
    use hb_dsp::complex::mean_power;
    use hb_dsp::noise::white_noise;
    use hb_dsp::units::ratio_from_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn modem() -> FskModem {
        FskModem::new(FskParams::mics_default())
    }

    /// Theoretical BER of noncoherent binary FSK in AWGN,
    /// `Pb = 0.5 * exp(-Eb/N0 / 2)`, with Eb/N0 as a linear ratio.
    fn fsk_noncoherent_ber(snr_linear: f64) -> f64 {
        0.5 * (-snr_linear / 2.0).exp()
    }

    #[test]
    fn modulated_signal_is_constant_envelope() {
        let m = modem();
        let sig = m.modulate(&[0, 1, 1, 0, 1, 0, 0, 1]);
        for s in &sig {
            assert!((s.abs() - 1.0).abs() < 1e-12);
        }
        assert!((mean_power(&sig) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn modulation_is_phase_continuous() {
        let m = modem();
        let sig = m.modulate(&[0, 1, 0, 1]);
        // Max phase step anywhere must equal one of the two tone increments.
        let max_step = 2.0 * PI * 50e3 / 300e3 + 1e-9;
        for w in sig.windows(2) {
            let d = (w[1] * w[0].conj()).arg().abs();
            assert!(d <= max_step, "phase jump {d}");
        }
    }

    #[test]
    fn modulation_tracks_direct_phase_accumulator() {
        // The rotator recurrence must stay within 1e-9 of the exact
        // per-sample `cis(phase)` evaluation over long frames — close
        // enough that detector statistics are unaffected (errors sit
        // ~180 dB below the signal), while being ~5x faster. Bit-exact
        // anchoring now lives in the golden suite, which was re-captured
        // on this engine (see crates/testbed/tests/golden.rs).
        let reference = |params: FskParams, bits: &[u8]| -> Vec<C64> {
            let sps = params.samples_per_symbol();
            let mut out = Vec::with_capacity(bits.len() * sps);
            let mut phase = 0.0f64;
            for &bit in bits {
                let dphi = 2.0 * PI * params.tone_hz(bit) / params.fs_hz;
                for _ in 0..sps {
                    out.push(C64::cis(phase));
                    phase += dphi;
                    if phase > PI {
                        phase -= 2.0 * PI;
                    } else if phase < -PI {
                        phase += 2.0 * PI;
                    }
                }
            }
            out
        };
        let mut prbs = Prbs::new(0x6B);
        let bits = prbs.bits(3000);
        for params in [
            FskParams::mics_default(),
            FskParams {
                fs_hz: 300e3,
                bitrate: 12.5e3,
                deviation_hz: 12_347.0,
            },
        ] {
            let m = FskModem::new(params);
            let fast = m.modulate(&bits);
            let direct = reference(params, &bits);
            assert_eq!(fast.len(), direct.len());
            for (i, (a, b)) in fast.iter().zip(direct.iter()).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-9,
                    "sample {i} drifts: {a} vs {b} (deviation {})",
                    params.deviation_hz
                );
            }
        }
    }

    #[test]
    fn modulation_is_deterministic_across_calls() {
        // Same bits -> bit-identical waveform, every time (the oscillator
        // state is per-call, so there is no cross-call leakage).
        let m = modem();
        let mut prbs = Prbs::new(0x3C);
        let bits = prbs.bits(500);
        let a = m.modulate(&bits);
        let b = m.modulate(&bits);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn clean_roundtrip() {
        let m = modem();
        let mut prbs = Prbs::new(0x55);
        let bits = prbs.bits(400);
        let rx = m.demodulate(&m.modulate(&bits));
        assert_eq!(bits, rx);
    }

    #[test]
    fn soft_bits_sign_matches_hard_bits() {
        let m = modem();
        let bits = vec![0, 1, 1, 0, 0, 0, 1, 1, 0, 1];
        let sig = m.modulate(&bits);
        let soft = m.demodulate_soft(&sig);
        for (b, s) in bits.iter().zip(&soft) {
            if *b == 1 {
                assert!(*s > 0.5);
            } else {
                assert!(*s < -0.5);
            }
        }
    }

    #[test]
    fn ber_tracks_theory_in_awgn() {
        // Validate the demodulator against Pb = 0.5 exp(-SNR/2) for
        // noncoherent orthogonal FSK. With matched-filter detection over a
        // symbol, SNR here is Es/N0 measured in the symbol bandwidth.
        let m = modem();
        let mut rng = StdRng::seed_from_u64(1234);
        let mut prbs = Prbs::new(0x1F);
        let bits = prbs.bits(30_000);
        let sig = m.modulate(&bits);
        let sps = m.params().samples_per_symbol() as f64;

        for &snr_db in &[4.0, 8.0, 11.0] {
            // Per-sample noise power for the target Es/N0: signal power is 1,
            // symbol energy is sps; matched filter gain is sps.
            let es_n0 = ratio_from_db(snr_db);
            let noise_power = sps / es_n0;
            let noise = white_noise(&mut rng, sig.len(), noise_power);
            let noisy: Vec<C64> = sig.iter().zip(&noise).map(|(&s, &n)| s + n).collect();
            let rx = m.demodulate(&noisy);
            let ber = bit_error_rate(&bits, &rx);
            let theory = fsk_noncoherent_ber(es_n0);
            // Within a factor ~2 of theory (tones at +-50kHz with 6 sps are
            // nearly but not exactly orthogonal).
            assert!(
                ber < theory * 2.5 + 1e-4 && ber > theory * 0.3 - 1e-4,
                "snr {snr_db} dB: ber {ber} vs theory {theory}"
            );
        }
    }

    #[test]
    fn heavy_jamming_pushes_ber_to_half() {
        let m = modem();
        let mut rng = StdRng::seed_from_u64(99);
        let mut prbs = Prbs::new(0x99);
        let bits = prbs.bits(20_000);
        let sig = m.modulate(&bits);
        // Jam with white noise at +20 dB relative to the signal. The
        // matched filter's 13.8 dB processing gain claws some back, so
        // white jamming at this level leaves BER around 0.44; the shaped
        // jammer (Fig. 5) closes the rest of the gap, which the Fig. 8a
        // experiment demonstrates end to end.
        let noise = white_noise(&mut rng, sig.len(), 100.0);
        let jammed: Vec<C64> = sig.iter().zip(&noise).map(|(&s, &n)| s + n).collect();
        let rx = m.demodulate(&jammed);
        let ber = bit_error_rate(&bits, &rx);
        assert!(ber > 0.40, "ber {ber}");
        // And at +30 dB even white jamming reduces the channel to guessing.
        let noise = white_noise(&mut rng, sig.len(), 1000.0);
        let jammed: Vec<C64> = sig.iter().zip(&noise).map(|(&s, &n)| s + n).collect();
        let ber = bit_error_rate(&bits, &m.demodulate(&jammed));
        assert!((ber - 0.5).abs() < 0.03, "ber {ber}");
    }

    #[test]
    fn frame_roundtrip_through_modem() {
        let m = modem();
        let f = Frame::new(
            Serial::from_str_padded("VIRTUOSO01"),
            FrameType::Response,
            3,
            vec![0xDE, 0xAD, 0xBE, 0xEF],
        );
        let sig = m.modulate(&f.to_bits());
        let rx = m.receive_frame(&sig).unwrap();
        assert_eq!(rx, f);
    }

    #[test]
    fn frame_found_with_offset_and_noise() {
        let m = modem();
        let mut rng = StdRng::seed_from_u64(5);
        let f = Frame::new(
            Serial::from_str_padded("CONCERTO02"),
            FrameType::Command,
            1,
            vec![7; 8],
        );
        let sig = m.modulate(&f.to_bits());
        // Prepend noise-only samples at an awkward offset.
        let mut buf = white_noise(&mut rng, 451, 0.01);
        buf.extend(sig.iter().map(|&s| s + white_noise(&mut rng, 1, 0.01)[0]));
        let rx = m.receive_frame(&buf).unwrap();
        assert_eq!(rx, f);
    }

    #[test]
    fn no_frame_in_pure_noise() {
        let m = modem();
        let mut rng = StdRng::seed_from_u64(6);
        let buf = white_noise(&mut rng, 4000, 1.0);
        assert_eq!(m.receive_frame(&buf), Err(FskRxError::NoFrame));
    }

    #[test]
    fn find_frame_start_locates_sample_index() {
        let m = modem();
        let f = Frame::new(Serial([3; 10]), FrameType::Probe, 0, vec![]);
        let sig = m.modulate(&f.to_bits());
        let mut buf = vec![C64::ZERO; 300];
        buf.extend_from_slice(&sig);
        let start = m.find_frame_start(&buf, 2).unwrap();
        // Sub-symbol alignment may settle a few samples early (adjacent
        // phases also decode cleanly over a zero prefix); any alignment
        // within half a symbol of the true start is equivalent.
        let sps = m.params().samples_per_symbol() as i64;
        assert!(
            (start as i64 - 300).abs() <= sps / 2,
            "start {start} not within half a symbol of 300"
        );
        // What matters is that decoding from the reported start succeeds.
        let bits = m.demodulate(&buf[start..]);
        assert_eq!(Frame::from_bits(&bits).unwrap(), f);
    }

    #[test]
    fn durations() {
        let m = modem();
        assert!((m.duration_s(12_500) - 1.0).abs() < 1e-12);
        assert_eq!(m.duration_samples(100), 2400);
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn rejects_fractional_sps() {
        let _ = FskModem::new(FskParams {
            fs_hz: 300e3,
            bitrate: 44_100.0,
            deviation_hz: 50e3,
        })
        .params()
        .samples_per_symbol();
    }
}
