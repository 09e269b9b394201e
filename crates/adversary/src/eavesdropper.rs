//! The passive eavesdropper (§3.2(a) of the paper).
//!
//! Records everything on a channel and decodes IMD transmissions with the
//! "optimal FSK decoder" \[38\] — noncoherent matched filtering. We grant
//! the adversary *perfect symbol timing* (the experiment harness tells it
//! exactly when each IMD frame started, from the ground-truth transmit
//! log): a strictly stronger adversary than one that must also recover
//! sync through jamming, so the measured BER is conservative from the
//! defender's standpoint.
//!
//! On decoding strategy choices (§3.2 discusses several):
//! * *Treat jamming as noise* — that is exactly what matched-filter
//!   detection does, and per-symbol tone correlation is also the "two
//!   band-pass filters centered on f0 and f1" attack in its optimal form:
//!   the matched filter is the narrowest possible filter around each tone.
//!   This is why the shield must shape its jamming (Fig. 5) — energy
//!   outside the tone bands is rejected by this decoder for free.
//! * *Interference cancellation / joint decoding* — impossible by the
//!   information-theoretic argument of §3.2: the jamming signal is random
//!   and uncoded, so the sum rate exceeds any capacity region; there is no
//!   structure to cancel. (We model the adversary's best attempt at
//!   structure-free cancellation: subtracting its best estimate of the
//!   jamming signal, which is the received signal itself minus the tone
//!   content — a no-op in expectation. See the ablation bench.)

use hb_channel::medium::{AntennaId, Medium, Tick};
use hb_channel::sim::Node;
use hb_dsp::complex::C64;
use hb_imd::device::TxRecord;
use hb_phy::bits::{bit_error_rate, bit_errors};
use hb_phy::fsk::{FskModem, FskParams};

/// A passive eavesdropper that records a channel.
pub struct Eavesdropper {
    antenna: AntennaId,
    channel: usize,
    modem: FskModem,
    /// Absolute tick of `recording[0]`.
    record_start: Tick,
    recording: Vec<C64>,
    recording_enabled: bool,
}

impl Eavesdropper {
    /// Creates an eavesdropper listening on `channel` via `antenna`.
    pub fn new(params: FskParams, antenna: AntennaId, channel: usize) -> Self {
        Eavesdropper {
            antenna,
            channel,
            modem: FskModem::new(params),
            record_start: 0,
            recording: Vec::new(),
            recording_enabled: true,
        }
    }

    /// The eavesdropper's antenna.
    pub fn antenna(&self) -> AntennaId {
        self.antenna
    }

    /// Pauses/resumes recording (long experiments drain between bursts).
    pub fn set_recording(&mut self, on: bool) {
        self.recording_enabled = on;
    }

    /// Clears the recording buffer (the next block recorded becomes the
    /// new buffer start).
    pub fn clear(&mut self) {
        self.recording.clear();
        self.record_start = 0;
    }

    /// Number of samples currently buffered.
    pub fn buffered(&self) -> usize {
        self.recording.len()
    }

    /// Decodes `n_bits` starting at absolute sample `start_tick` with the
    /// optimal noncoherent FSK decoder, using perfect timing knowledge.
    /// Returns `None` if the requested range is not fully buffered.
    pub fn decode_aligned(&self, start_tick: Tick, n_bits: usize) -> Option<Vec<u8>> {
        let sps = self.modem.params().samples_per_symbol();
        let from = start_tick.checked_sub(self.record_start)? as usize;
        let to = from + n_bits * sps;
        if to > self.recording.len() {
            return None;
        }
        Some(self.modem.demodulate(&self.recording[from..to]))
    }

    /// Attempts full frame recovery from a perfectly-aligned decode of a
    /// known transmission: demodulates `n_bits` starting at `start_tick`
    /// and parses them as a frame (CRC checked). `None` when the samples
    /// are unbuffered or the bits no longer form a valid frame — the
    /// leak-or-not ground truth behind the defense matrix's
    /// confidentiality metric, which asks whether the adversary walks
    /// away with the payload *bytes*, not merely a favourable BER.
    pub fn recover_frame(&self, start_tick: Tick, n_bits: usize) -> Option<hb_phy::packet::Frame> {
        let bits = self.decode_aligned(start_tick, n_bits)?;
        hb_phy::packet::Frame::from_bits(&bits).ok()
    }

    /// BER of the eavesdropper's decode of a transmission against the
    /// ground-truth bits. Returns 0.5 (guessing) if the samples are not
    /// available.
    pub fn ber_against(&self, start_tick: Tick, truth: &[u8]) -> f64 {
        match self.decode_aligned(start_tick, truth.len()) {
            Some(decoded) => bit_error_rate(truth, &decoded),
            None => 0.5,
        }
    }

    /// Scores the eavesdropper's aligned decode of every transmission in
    /// `log` against its ground-truth bits, as `(bit errors, bits)`. A
    /// transmission whose samples are not buffered counts as guessing:
    /// `(n + 1) / 2` errors on its `n` bits, the rounded form of
    /// [`ber_against`](Self::ber_against)'s 0.5.
    pub fn score(&self, log: &[TxRecord]) -> (u64, u64) {
        let mut errors = 0u64;
        let mut bits = 0u64;
        for record in log {
            let n = record.bits.len();
            errors += match self.decode_aligned(record.start_tick, n) {
                Some(decoded) => bit_errors(&record.bits, &decoded),
                None => n.div_ceil(2),
            } as u64;
            bits += n as u64;
        }
        (errors, bits)
    }

    /// Mean received power (dBm) over a tick range, if buffered.
    pub fn rssi_dbm(&self, start_tick: Tick, n_samples: usize) -> Option<f64> {
        let from = start_tick.checked_sub(self.record_start)? as usize;
        let to = from + n_samples;
        if to > self.recording.len() {
            return None;
        }
        Some(hb_phy::rssi::rssi_dbm(&self.recording[from..to]))
    }
}

impl Node for Eavesdropper {
    fn label(&self) -> &str {
        "eavesdropper"
    }

    fn produce(&mut self, _medium: &mut Medium) {}

    fn consume(&mut self, medium: &mut Medium) {
        if !self.recording_enabled {
            return;
        }
        if self.recording.is_empty() {
            self.record_start = medium.tick();
        }
        self.recording
            .extend_from_slice(medium.receive_view(self.antenna, self.channel));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_channel::geometry::Placement;
    use hb_channel::medium::MediumConfig;
    use hb_channel::txsched::TxScheduler;
    use hb_phy::bits::Prbs;

    fn setup() -> (Medium, Eavesdropper, AntennaId) {
        let mut medium = Medium::new(
            MediumConfig {
                noise_floor_dbm: -120.0,
                ..Default::default()
            },
            5,
        );
        let tx = medium.add_antenna(Placement::los("tx", 0.0, 0.0));
        let eve_ant = medium.add_antenna(Placement::los("eve", 0.2, 0.0));
        medium.set_gain(tx, eve_ant, C64::new(0.5, 0.0));
        let eve = Eavesdropper::new(FskParams::mics_default(), eve_ant, 0);
        (medium, eve, tx)
    }

    #[test]
    fn decodes_clean_transmission_perfectly() {
        let (mut medium, mut eve, tx) = setup();
        let modem = FskModem::new(FskParams::mics_default());
        let mut prbs = Prbs::new(0x71);
        let bits = prbs.bits(200);
        let start: Tick = 160; // block-aligned
        let mut sched = TxScheduler::new();
        sched.schedule(start, 0, modem.modulate(&bits));

        for _ in 0..400 {
            sched.produce(tx, &mut medium);
            eve.consume(&mut medium);
            medium.end_block();
        }
        let ber = eve.ber_against(start, &bits);
        assert_eq!(ber, 0.0, "clean channel should decode exactly");
    }

    #[test]
    fn heavy_jamming_defeats_even_perfect_timing() {
        let (mut medium, mut eve, tx) = setup();
        // Second antenna jams.
        let jammer = medium.add_antenna(Placement::los("jam", 0.1, 0.0));
        medium.set_gain(jammer, eve.antenna(), C64::new(0.5, 0.0));

        let modem = FskModem::new(FskParams::mics_default());
        let mut prbs = Prbs::new(0x13);
        let bits = prbs.bits(300);
        let start: Tick = 0;
        let mut sched = TxScheduler::new();
        sched.schedule(start, 0, modem.modulate(&bits));

        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..600 {
            sched.produce(tx, &mut medium);
            // Jam at +23 dB relative to the signal at the eavesdropper.
            let jam = hb_dsp::noise::white_noise(&mut rng, 16, 200.0);
            medium.transmit(jammer, 0, &jam);
            eve.consume(&mut medium);
            medium.end_block();
        }
        let ber = eve.ber_against(start, &bits);
        assert!((ber - 0.5).abs() < 0.07, "jammed BER {ber}");
    }

    #[test]
    fn missing_samples_count_as_guessing() {
        let (_, eve, _) = setup();
        assert_eq!(eve.ber_against(1000, &[0, 1, 0, 1]), 0.5);
    }

    /// The pre-`score` read-out every experiment used to repeat.
    fn rounded_ber_sum(eve: &Eavesdropper, log: &[TxRecord]) -> (u64, u64) {
        log.iter().fold((0, 0), |(e, b), r| {
            let ber = eve.ber_against(r.start_tick, &r.bits);
            let n = r.bits.len() as u64;
            (e + (ber * n as f64).round() as u64, b + n)
        })
    }

    #[test]
    fn score_matches_rounded_ber_sum() {
        let (mut medium, mut eve, tx) = setup();
        let jammer = medium.add_antenna(Placement::los("jam", 0.1, 0.0));
        medium.set_gain(jammer, eve.antenna(), C64::new(0.5, 0.0));
        let modem = FskModem::new(FskParams::mics_default());
        let mut prbs = Prbs::new(0x2B);
        let buffered = TxRecord {
            start_tick: 160,
            bits: prbs.bits(200),
            payload: Vec::new(),
        };
        let mut sched = TxScheduler::new();
        sched.schedule(buffered.start_tick, 0, modem.modulate(&buffered.bits));
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..400 {
            sched.produce(tx, &mut medium);
            let jam = hb_dsp::noise::white_noise(&mut rng, 16, 8.0);
            medium.transmit(jammer, 0, &jam);
            eve.consume(&mut medium);
            medium.end_block();
        }
        // Past the end of the recording: an odd-length unbuffered reply.
        let unbuffered = TxRecord {
            start_tick: 1_000_000,
            bits: prbs.bits(77),
            payload: Vec::new(),
        };

        let (errors, bits) = eve.score(std::slice::from_ref(&buffered));
        assert!(
            errors > 0 && errors < bits,
            "a partly jammed decode: {errors}/{bits}"
        );
        for log in [
            vec![buffered.clone()],
            vec![unbuffered.clone()],
            vec![buffered, unbuffered],
            Vec::new(),
        ] {
            assert_eq!(eve.score(&log), rounded_ber_sum(&eve, &log));
        }
        assert_eq!(eve.score(&[]), (0, 0));
    }

    #[test]
    fn clear_and_pause() {
        let (mut medium, mut eve, _tx) = setup();
        for _ in 0..10 {
            eve.consume(&mut medium);
            medium.end_block();
        }
        assert_eq!(eve.buffered(), 160);
        eve.clear();
        assert_eq!(eve.buffered(), 0);
        eve.set_recording(false);
        eve.consume(&mut medium);
        assert_eq!(eve.buffered(), 0);
    }

    #[test]
    fn rssi_measures_signal_level() {
        let (mut medium, mut eve, tx) = setup();
        let mut sched = TxScheduler::new();
        sched.schedule(0, 0, vec![C64::ONE; 800]);
        for _ in 0..60 {
            sched.produce(tx, &mut medium);
            eve.consume(&mut medium);
            medium.end_block();
        }
        // |0.5|^2 link: 0 dBm tx -> -6 dBm.
        let rssi = eve.rssi_dbm(0, 800).unwrap();
        assert!((rssi - (-6.0)).abs() < 0.5, "rssi {rssi}");
    }
}
