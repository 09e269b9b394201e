//! Jamming-signal generation (§6(a) of the paper).
//!
//! The jamming signal is random — "sent without modulation or coding" so
//! the information rate at any eavesdropper is pushed outside the capacity
//! region — and its power spectrum is **shaped to match the IMD's FSK
//! profile** (Fig. 5). A flat ("oblivious") jammer wastes power on
//! frequencies FSK decoding never looks at, and an adversary can strip
//! most of it with two band-pass filters around the FSK tones; matching
//! the IMD's spectral shape closes that hole.
//!
//! # What is memoized
//!
//! Deriving a shaped jammer costs a 4000-bit modulation, a Welch PSD,
//! and a 256-point FFT plan with per-bin scales, and every shield on a
//! floor needs the same one. One process-wide memo, keyed by the air
//! interface `(fs, bitrate, deviation, fft_size)`, holds each key's
//! jamming profile ([`jam_profile_for_fsk`]) and the immutable
//! [`ShapedNoise`] built from it, which every [`JamSignal::shaped_for_fsk`]
//! shares through an `Arc`. Each jammer keeps its own sample buffer and
//! power and draws from its caller's RNG, so a shared generator emits
//! exactly the samples a freshly built one would. Flat jammers
//! ([`JamSignal::flat`]) are not memoized.

use hb_dsp::complex::C64;
use hb_dsp::noise::ShapedNoise;
use hb_dsp::spectrum::welch_psd;
use hb_dsp::units::ratio_from_db;
use hb_dsp::window::Window;
use hb_phy::bits::Prbs;
use hb_phy::fsk::{FskModem, FskParams};
use rand::Rng;
use std::sync::{Arc, Mutex, OnceLock};

/// Derives the per-bin power profile of an FSK air interface by modulating
/// a long pseudo-random bit sequence and measuring its Welch PSD — the
/// in-simulation equivalent of capturing the Virtuoso's transmission and
/// plotting Fig. 4.
pub fn fsk_power_profile(params: FskParams, fft_size: usize) -> Vec<f64> {
    let modem = FskModem::new(params);
    let mut prbs = Prbs::new(0x1D5);
    let bits = prbs.bits(4000);
    let sig = modem.modulate(&bits);
    welch_psd(&sig, fft_size, Window::Hann, params.fs_hz).profile()
}

/// The *jamming* profile derived from the FSK profile: the measured PSD
/// smoothed over ~30 kHz and floored at a small fraction of the peak.
///
/// This matches the paper's Fig. 5 curve — a broad double hump over the
/// tone regions, not two needles. The width matters for the shield itself:
/// its own jamming *residual* is this same signal, and a needle-sharp
/// profile would park all residual power inside its matched filter,
/// costing ~8 dB of SINR versus the smooth profile (see the
/// `smooth_profile_protects_the_shields_own_decoder` test).
///
/// The profile is a pure function of `(params, fft_size)` but costs a
/// 4000-bit modulation plus a Welch PSD to derive, so it is memoized
/// process-wide together with its generator (see [`JamSignal`]).
pub fn jam_profile_for_fsk(params: FskParams, fft_size: usize) -> Vec<f64> {
    with_jam_entry(params, fft_size, |e| e.profile.clone())
}

type CacheKey = (u64, u64, u64, usize);

/// One memoized air interface: its jamming profile and the immutable
/// generator (FFT plan and per-bin scales) built from it.
struct JamEntry {
    key: CacheKey,
    profile: Vec<f64>,
    gen: Arc<ShapedNoise>,
}

type JamCache = Mutex<Vec<JamEntry>>;

fn cache_key(params: FskParams, fft_size: usize) -> CacheKey {
    (
        params.fs_hz.to_bits(),
        params.bitrate.to_bits(),
        params.deviation_hz.to_bits(),
        fft_size,
    )
}

/// The process-wide memo behind [`jam_profile_for_fsk`] and
/// [`JamSignal::shaped_for_fsk`].
fn jam_cache() -> &'static JamCache {
    static CACHE: OnceLock<JamCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Applies `f` to the memo entry for `(params, fft_size)`, deriving and
/// inserting it on first use.
///
/// The lock is held across the lookup *and* the insert: dropping it in
/// between let two threads computing the same key both push, so the
/// process-wide cache accumulated duplicate multi-KB entries. Serial
/// first derivation of a key is the price, and it is paid once.
fn with_jam_entry<T>(params: FskParams, fft_size: usize, f: impl FnOnce(&JamEntry) -> T) -> T {
    let key = cache_key(params, fft_size);
    let mut cache = jam_cache().lock().unwrap();
    if let Some(entry) = cache.iter().find(|e| e.key == key) {
        return f(entry);
    }
    let profile = jam_profile_for_fsk_uncached(params, fft_size);
    let gen = Arc::new(ShapedNoise::new(&profile));
    cache.push(JamEntry { key, profile, gen });
    f(cache.last().expect("just pushed"))
}

/// Number of memo entries (each one profile and one generator) held for
/// one `(params, fft_size)` key (test hook: the cache-race regression
/// test asserts concurrent callers of a fresh key insert exactly one
/// entry; key-scoped so unrelated tests inserting other keys in parallel
/// cannot perturb the count).
#[doc(hidden)]
pub fn jam_profile_cache_entries(params: FskParams, fft_size: usize) -> usize {
    let key = cache_key(params, fft_size);
    jam_cache()
        .lock()
        .unwrap()
        .iter()
        .filter(|e| e.key == key)
        .count()
}

fn jam_profile_for_fsk_uncached(params: FskParams, fft_size: usize) -> Vec<f64> {
    let raw = fsk_power_profile(params, fft_size);
    let n = raw.len();
    // Circular boxcar smoothing over ~30 kHz.
    let half = ((30e3 / params.fs_hz * n as f64) as usize / 2).max(1);
    let mut smooth = vec![0.0; n];
    for (i, v) in smooth.iter_mut().enumerate() {
        let mut acc = 0.0;
        for d in 0..=(2 * half) {
            acc += raw[(i + n + d - half) % n];
        }
        *v = acc / (2 * half + 1) as f64;
    }
    // Skirt floor at 2% of peak, as in the measured Fig. 5 curve.
    let peak = smooth.iter().cloned().fold(0.0f64, f64::max);
    for v in smooth.iter_mut() {
        *v = v.max(0.02 * peak);
    }
    smooth
}

/// A continuous generator of jamming waveform at a configured power.
///
/// The block generator is immutable and shared: every jammer shaped for
/// one air interface holds the same memoized [`ShapedNoise`], so
/// installing a shield builds no FFT plan and no bin scales. Each jammer
/// keeps its own sample buffer and draws from the caller's RNG, so
/// sharing changes no sample.
#[derive(Debug, Clone)]
pub struct JamSignal {
    gen: Arc<ShapedNoise>,
    /// Pre-generated samples not yet consumed.
    buffer: Vec<C64>,
    buffer_pos: usize,
    amplitude: f64,
}

impl JamSignal {
    /// A jammer over a block generator, at 0 dBm.
    fn with_generator(gen: Arc<ShapedNoise>) -> Self {
        JamSignal {
            gen,
            buffer: Vec::new(),
            buffer_pos: 0,
            amplitude: 1.0,
        }
    }

    /// A jammer shaped to the IMD's (smoothed) FSK profile — the paper's
    /// design, Fig. 5. The generator comes from the process-wide memo
    /// keyed by `(params, fft_size)`.
    pub fn shaped_for_fsk(params: FskParams, fft_size: usize) -> Self {
        Self::with_generator(with_jam_entry(params, fft_size, |e| Arc::clone(&e.gen)))
    }

    /// A flat-profile jammer over the whole channel (the "constant power
    /// profile" baseline of Fig. 5, used by the ablation experiments).
    pub fn flat(fft_size: usize) -> Self {
        Self::with_generator(Arc::new(ShapedNoise::flat(fft_size)))
    }

    /// Whether two jammers share one block generator (test hook: shields
    /// installed for one air interface must).
    #[doc(hidden)]
    pub fn shares_generator(&self, other: &JamSignal) -> bool {
        Arc::ptr_eq(&self.gen, &other.gen)
    }

    /// Sets the transmit power in dBm (mean sample power; 1.0 ≡ 0 dBm).
    pub fn set_power_dbm(&mut self, dbm: f64) {
        self.amplitude = ratio_from_db(dbm).sqrt();
    }

    /// Current transmit power in dBm.
    pub fn power_dbm(&self) -> f64 {
        hb_dsp::units::db_from_ratio(self.amplitude * self.amplitude)
    }

    /// Produces the next `n` samples of jamming waveform.
    pub fn next_samples<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<C64> {
        let mut out = vec![C64::ZERO; n];
        self.next_samples_into(rng, &mut out);
        out
    }

    /// Fills `out` with the next samples of jamming waveform — identical
    /// RNG consumption and output to [`JamSignal::next_samples`] of the
    /// same length, without the per-block allocation (the shield calls
    /// this once per simulation block on a pooled scratch buffer).
    pub fn next_samples_into<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [C64]) {
        let mut filled = 0usize;
        while filled < out.len() {
            if self.buffer_pos >= self.buffer.len() {
                self.gen.block_into(rng, &mut self.buffer);
                self.buffer_pos = 0;
            }
            let take = (out.len() - filled).min(self.buffer.len() - self.buffer_pos);
            for (dst, &src) in out[filled..filled + take]
                .iter_mut()
                .zip(self.buffer[self.buffer_pos..self.buffer_pos + take].iter())
            {
                *dst = src.scale(self.amplitude);
            }
            self.buffer_pos += take;
            filled += take;
        }
    }

    /// The normalized per-bin power profile this jammer emits (for the
    /// Fig. 5 comparison plot).
    pub fn profile(&self) -> Vec<f64> {
        // The mean per-bin power share of 200 generated blocks (fixed seed).
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1A6);
        let mut acc = vec![0.0; self.gen.block_len()];
        for _ in 0..200 {
            let block = self.gen.block(&mut rng);
            let spec = hb_dsp::fft::fft(&block);
            for (k, v) in spec.iter().enumerate() {
                acc[k] += v.norm_sq();
            }
        }
        let total: f64 = acc.iter().sum();
        acc.into_iter().map(|p| p / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_dsp::complex::mean_power;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> FskParams {
        FskParams::mics_default()
    }

    #[test]
    fn concurrent_profile_derivation_inserts_one_entry() {
        // Regression test for the check-then-push race: before the lock
        // was held across lookup+insert, N threads racing on a fresh key
        // could each push their own copy of the multi-KB profile. Use a
        // parameter set no other test touches so the key is cold here.
        // Half the threads ask for the profile and half for a jammer, so
        // first use through either path inserts one entry, holding one
        // profile and one generator.
        let mut p = params();
        p.deviation_hz = 41_787.0;
        assert_eq!(jam_profile_cache_entries(p, 128), 0, "key must be cold");
        let (profiles, jammers): (Vec<Vec<f64>>, Vec<JamSignal>) = std::thread::scope(|scope| {
            let profiles: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || jam_profile_for_fsk(p, 128)))
                .collect();
            let jammers: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || JamSignal::shaped_for_fsk(p, 128)))
                .collect();
            (
                profiles.into_iter().map(|h| h.join().unwrap()).collect(),
                jammers.into_iter().map(|h| h.join().unwrap()).collect(),
            )
        });
        assert_eq!(
            jam_profile_cache_entries(p, 128),
            1,
            "8 concurrent first uses of one key must insert exactly once"
        );
        for w in profiles.windows(2) {
            assert_eq!(w[0], w[1], "all callers must see the same profile");
        }
        for w in jammers.windows(2) {
            assert!(
                w[0].shares_generator(&w[1]),
                "all jammers must share one generator"
            );
        }
    }

    #[test]
    fn shared_generator_emits_the_samples_of_a_fresh_one() {
        let fresh = || {
            JamSignal::with_generator(Arc::new(ShapedNoise::new(&jam_profile_for_fsk_uncached(
                params(),
                256,
            ))))
        };
        let shared = JamSignal::shaped_for_fsk(params(), 256);
        assert!(shared.shares_generator(&JamSignal::shaped_for_fsk(params(), 256)));
        assert!(!shared.shares_generator(&fresh()));
        let draw = |mut jam: JamSignal| {
            jam.set_power_dbm(-20.0);
            let mut rng = StdRng::seed_from_u64(11);
            // Odd-sized pulls straddle the 256-sample block boundary.
            let mut bits = Vec::new();
            for n in [1usize, 300, 77, 700] {
                for v in jam.next_samples(&mut rng, n) {
                    bits.extend([v.re.to_bits(), v.im.to_bits()]);
                }
            }
            bits
        };
        assert_eq!(draw(shared), draw(fresh()));
    }

    #[test]
    fn fsk_profile_peaks_at_tones() {
        let n = 256;
        let prof = fsk_power_profile(params(), n);
        let fs = params().fs_hz;
        // Energy fraction within ±15 kHz of each tone should dominate
        // (Fig. 4: "most of the energy is concentrated around ±50 KHz").
        let near_tones: f64 = prof
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = hb_dsp::fft::bin_freq_hz(*k, n, fs);
                (f.abs() - 50e3).abs() < 15e3
            })
            .map(|(_, &p)| p)
            .sum();
        assert!(near_tones > 0.7, "tone-region fraction {near_tones}");
    }

    #[test]
    fn shaped_jammer_concentrates_power_like_imd() {
        let shaped = JamSignal::shaped_for_fsk(params(), 256);
        let prof = shaped.profile();
        let fs = params().fs_hz;
        // The smoothed hump covers roughly ±(20..80) kHz.
        let near_tones: f64 = prof
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = hb_dsp::fft::bin_freq_hz(*k, 256, fs);
                (f.abs() - 50e3).abs() < 35e3
            })
            .map(|(_, &p)| p)
            .sum();
        assert!(near_tones > 0.7, "hump-region fraction {near_tones}");
        // But it is a hump, not a needle: the exact tone bins hold well
        // under half the power.
        let at_tones: f64 = prof
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = hb_dsp::fft::bin_freq_hz(*k, 256, fs);
                (f.abs() - 50e3).abs() < 7e3
            })
            .map(|(_, &p)| p)
            .sum();
        assert!(at_tones < 0.5, "needle fraction {at_tones}");
    }

    #[test]
    fn smooth_profile_protects_the_shields_own_decoder() {
        // The design reason for smoothing: the shield decodes through its
        // own jamming *residual*. A needle profile at the FSK tones parks
        // all residual power inside the matched filter; the smooth profile
        // spreads it, buying several dB of effective SINR at equal power.
        use hb_phy::bits::{bit_error_rate, Prbs};
        use hb_phy::fsk::FskModem;
        let m = FskModem::new(params());
        let mut prbs = Prbs::new(0x2F);
        let bits = prbs.bits(8000);
        let sig = m.modulate(&bits);
        let mut rng = StdRng::seed_from_u64(5);

        let ber_with = |gen: &JamSignal, rng: &mut StdRng| {
            let mut g = gen.clone();
            g.set_power_dbm(-4.0); // SINR +4 dB
            let j = g.next_samples(rng, sig.len());
            let rx: Vec<hb_dsp::C64> = sig.iter().zip(&j).map(|(&s, &n)| s + n).collect();
            bit_error_rate(&bits, &m.demodulate(&rx))
        };
        let needle = JamSignal::with_generator(Arc::new(ShapedNoise::new(&fsk_power_profile(
            params(),
            256,
        ))));
        let smooth = JamSignal::shaped_for_fsk(params(), 256);
        let ber_needle = ber_with(&needle, &mut rng);
        let ber_smooth = ber_with(&smooth, &mut rng);
        assert!(
            ber_needle > 3.0 * ber_smooth + 0.001,
            "needle {ber_needle} vs smooth {ber_smooth}"
        );
    }

    #[test]
    fn flat_jammer_spreads_power() {
        let flat = JamSignal::flat(256);
        let prof = flat.profile();
        let max = prof.iter().cloned().fold(0.0, f64::max);
        // No bin should hold more than ~3x the average share.
        assert!(max < 3.0 / 256.0, "max bin share {max}");
    }

    #[test]
    fn power_setting_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut jam = JamSignal::shaped_for_fsk(params(), 256);
        jam.set_power_dbm(-33.5);
        let s = jam.next_samples(&mut rng, 100_000);
        let dbm = hb_dsp::units::db_from_ratio(mean_power(&s));
        assert!((dbm - (-33.5)).abs() < 0.5, "measured {dbm} dBm");
        assert!((jam.power_dbm() - (-33.5)).abs() < 1e-9);
    }

    #[test]
    fn arbitrary_chunk_sizes_are_continuous() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut jam = JamSignal::flat(64);
        jam.set_power_dbm(0.0);
        // Pull samples in odd-sized chunks; total power stays right.
        let mut all = Vec::new();
        for n in [1usize, 7, 16, 61, 128, 333] {
            all.extend(jam.next_samples(&mut rng, n));
        }
        assert_eq!(all.len(), 546);
        let p = mean_power(&all);
        assert!((p - 1.0).abs() < 0.25, "power {p}");
    }

    #[test]
    fn jamming_is_unpredictable_across_blocks() {
        // Two successive draws must be uncorrelated — the "one-time pad"
        // property (§6) depends on the jamming signal being random.
        let mut rng = StdRng::seed_from_u64(4);
        let mut jam = JamSignal::shaped_for_fsk(params(), 256);
        let a = jam.next_samples(&mut rng, 256);
        let b = jam.next_samples(&mut rng, 256);
        let corr = hb_dsp::complex::inner_product(&a, &b).abs()
            / (hb_dsp::complex::energy(&a).sqrt() * hb_dsp::complex::energy(&b).sqrt());
        assert!(corr < 0.35, "cross-block correlation {corr}");
    }
}
