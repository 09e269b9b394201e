//! Property-based tests for the PHY layer.

use hb_phy::bits::{bit_error_rate, bits_to_bytes, bytes_to_bits};
use hb_phy::crc::{append_crc16, crc16_ccitt, verify_crc16};
use hb_phy::fsk::{FskModem, FskParams};
use hb_phy::gmsk::{GmskModem, GmskParams};
use hb_phy::packet::{identifying_sequence, Frame, FrameType, Serial, MAX_PAYLOAD};
use hb_phy::stream::{DetectorEvent, SidDetection, SidMonitor, StreamingDetector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FSK parameter sets with 24, 12 and 6 samples per symbol.
fn param_set(i: usize) -> FskParams {
    FskParams {
        fs_hz: 300e3,
        bitrate: [12.5e3, 25e3, 50e3][i % 3],
        deviation_hz: 50e3,
    }
}

/// One piece of a scripted receive stream.
enum Segment {
    /// Samples on the air (a frame, possibly cut short, or noise).
    Samples(Vec<hb_dsp::C64>),
    /// `n` samples of silence.
    Silence(usize),
    /// A detector reset.
    Reset,
}

/// A random stream for the silence equivalence test: frames (some cut off
/// mid-frame, so a lock can run into the silence), noise, and silent runs
/// both shorter than a symbol and longer than the 48-symbol sync window.
fn silence_script(rng: &mut StdRng, p: FskParams) -> Vec<Segment> {
    let sps = p.samples_per_symbol();
    let modem = FskModem::new(p);
    let mut script = Vec::new();
    for _ in 0..rng.gen_range(4..12) {
        let noise_power = hb_dsp::units::ratio_from_db(rng.gen_range(-40.0..3.0));
        script.push(match rng.gen_range(0..10) {
            0..=2 => {
                let payload = vec![rng.gen::<u8>(); rng.gen_range(0..=MAX_PAYLOAD)];
                let frame = Frame::new(
                    Serial::from_str_padded("VIRTUOSO01"),
                    FrameType::Command,
                    1,
                    payload,
                );
                let mut wave = modem.modulate(&frame.to_bits());
                if rng.gen_bool(0.5) {
                    wave.truncate(rng.gen_range(0..wave.len()));
                }
                let noise = hb_dsp::noise::white_noise(rng, wave.len(), noise_power);
                Segment::Samples(wave.iter().zip(&noise).map(|(&a, &b)| a + b).collect())
            }
            3 | 4 => {
                let n = rng.gen_range(0..600);
                Segment::Samples(hb_dsp::noise::white_noise(rng, n, noise_power))
            }
            5 | 6 => Segment::Silence(rng.gen_range(0..2 * sps)),
            7 | 8 => Segment::Silence(rng.gen_range(0..60 * sps)),
            _ => Segment::Reset,
        });
    }
    // A clean frame last, so any state the silence left behind shows.
    let tail = Frame::new(
        Serial::from_str_padded("CONCERTO02"),
        FrameType::Response,
        2,
        vec![9, 8, 7],
    );
    script.push(Segment::Samples(modem.modulate(&tail.to_bits())));
    script.push(Segment::Silence(3000));
    script
}

/// Events rendered with every float's exact value (`Debug` of an `f64`
/// round-trips, and tells `-0.0` from `0.0`).
fn render(events: &[DetectorEvent]) -> String {
    format!("{events:?}")
}

fn render_sid(d: Option<SidDetection>) -> Option<(u64, usize, u64)> {
    d.map(|d| (d.tick, d.distance, d.mean_power.to_bits()))
}

proptest! {
    /// FSK is a faithful channel at infinite SNR for any bit pattern.
    #[test]
    fn fsk_modem_identity(bits in prop::collection::vec(0u8..2, 1..300)) {
        let m = FskModem::new(FskParams::mics_default());
        prop_assert_eq!(m.demodulate(&m.modulate(&bits)), bits);
    }

    /// GMSK recovers interior bits cleanly for any pattern.
    #[test]
    fn gmsk_interior_identity(bits in prop::collection::vec(0u8..2, 8..120)) {
        let m = GmskModem::new(GmskParams {
            fs_hz: 300e3,
            bitrate: 30e3,
            bt: 0.5,
        });
        let rx = m.demodulate(&m.modulate(&bits));
        // Skip pulse-span edges.
        let ber = bit_error_rate(&bits[2..bits.len() - 2], &rx[2..bits.len() - 2]);
        prop_assert!(ber < 0.02, "ber {}", ber);
    }

    /// CRC is order-sensitive and deterministic.
    #[test]
    fn crc_deterministic(data in prop::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(crc16_ccitt(&data), crc16_ccitt(&data));
        let mut framed = data;
        append_crc16(&mut framed);
        prop_assert!(verify_crc16(&framed));
    }

    /// Any byte swap in the body breaks the CRC.
    #[test]
    fn crc_detects_swaps(
        data in prop::collection::vec(any::<u8>(), 2..64),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let a = i.index(data.len());
        let b = j.index(data.len());
        prop_assume!(a != b && data[a] != data[b]);
        let mut framed = data.clone();
        append_crc16(&mut framed);
        framed.swap(a, b);
        prop_assert!(!verify_crc16(&framed));
    }

    /// Bit packing round-trips and is length-preserving.
    #[test]
    fn bit_packing(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let bits = bytes_to_bits(&bytes);
        prop_assert_eq!(bits.len(), bytes.len() * 8);
        prop_assert_eq!(bits_to_bytes(&bits), bytes);
    }

    /// The blocked FSK demodulator is bit-identical to the textbook scalar
    /// matched-filter walk for any sps/deviation/buffer (the equivalence
    /// guarantee that keeps the golden suite pinned across the rewrite).
    #[test]
    fn fsk_demod_equivalence_with_scalar_walk(
        sps in 1usize..32,
        dev_idx in 0usize..4,
        samples in prop::collection::vec(
            (-3.0f64..3.0, -3.0f64..3.0).prop_map(|(re, im)| hb_dsp::C64::new(re, im)),
            0..1200,
        ),
    ) {
        use std::f64::consts::PI;
        let deviation = [0.0f64, 12_347.0, 50e3, 149e3][dev_idx];
        let fs = 300e3;
        let params = FskParams { fs_hz: fs, bitrate: fs / sps as f64, deviation_hz: deviation };
        let modem = FskModem::new(params);
        // Scalar reference: per symbol, correlate against both conjugated
        // tone tables in sample order, pick the larger energy.
        let make = |f: f64| -> Vec<hb_dsp::C64> {
            (0..sps).map(|n| hb_dsp::C64::cis(-2.0 * PI * f * n as f64 / fs)).collect()
        };
        let (mf0, mf1) = (make(-deviation), make(deviation));
        let mut hard = Vec::new();
        let mut soft = Vec::new();
        for sym in samples.chunks_exact(sps) {
            let mut c0 = hb_dsp::C64::ZERO;
            let mut c1 = hb_dsp::C64::ZERO;
            for (i, &x) in sym.iter().enumerate() {
                c0 += x * mf0[i];
                c1 += x * mf1[i];
            }
            let (e0, e1) = (c0.norm_sq(), c1.norm_sq());
            hard.push(u8::from(e1 > e0));
            let total = e0 + e1;
            soft.push(if total > 0.0 { (e1 - e0) / total } else { 0.0 });
        }
        prop_assert_eq!(modem.demodulate(&samples), hard);
        let got_soft = modem.demodulate_soft(&samples);
        prop_assert_eq!(got_soft.len(), soft.len());
        for (a, b) in got_soft.iter().zip(&soft) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The streaming detector finds any frame embedded in silence, at any
    /// offset and block size, and reproduces it exactly.
    #[test]
    fn streaming_detector_finds_any_frame(
        payload in prop::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD),
        serial in prop::array::uniform10(any::<u8>()),
        offset in 0usize..100,
        block in 1usize..64,
    ) {
        let m = FskModem::new(FskParams::mics_default());
        let frame = Frame::new(Serial(serial), FrameType::Command, 3, payload);
        let mut sig = vec![hb_dsp::C64::ZERO; offset];
        sig.extend(m.modulate(&frame.to_bits()));
        sig.extend(vec![hb_dsp::C64::ZERO; 3000]);

        let mut det = StreamingDetector::new(FskParams::mics_default(), 4);
        let mut found = None;
        for chunk in sig.chunks(block) {
            for e in det.push_block(chunk) {
                if let DetectorEvent::FrameDone { result, .. } = e {
                    found = Some(result);
                }
            }
        }
        prop_assert_eq!(found.unwrap().unwrap(), frame);
    }

    /// `push_silence(n)` is exactly `push_block(&[0; n])`: same events and
    /// the same state afterwards, for silent runs shorter than a symbol,
    /// runs longer than the sync window, runs that start mid-frame, resets
    /// in between, and sync tolerances on both sides of the all-zero
    /// window's distance (24 of the 48 sync bits are ones).
    #[test]
    fn push_silence_equivalence_with_zero_blocks(
        seed in any::<u64>(),
        pset in 0usize..3,
        tol_idx in 0usize..4,
        block_idx in 0usize..6,
    ) {
        let p = param_set(pset);
        let tolerance = [0usize, 4, 12, 24][tol_idx];
        let block = [1usize, 5, 16, 24, 37, 160][block_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let script = silence_script(&mut rng, p);
        let mut zeros_det = StreamingDetector::new(p, tolerance);
        let mut silent_det = StreamingDetector::new(p, tolerance);
        for seg in &script {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            match seg {
                Segment::Samples(x) => {
                    for chunk in x.chunks(block) {
                        a.extend(zeros_det.push_block(chunk));
                        b.extend(silent_det.push_block(chunk));
                    }
                }
                Segment::Silence(n) => {
                    let zeros = vec![hb_dsp::C64::ZERO; *n];
                    for chunk in zeros.chunks(block) {
                        a.extend(zeros_det.push_block(chunk));
                    }
                    if rng.gen_bool(0.5) {
                        b.extend(silent_det.push_silence(*n));
                    } else {
                        for chunk in zeros.chunks(block) {
                            b.extend(silent_det.push_silence(chunk.len()));
                        }
                    }
                }
                Segment::Reset => {
                    zeros_det.reset();
                    silent_det.reset();
                }
            }
            prop_assert_eq!(render(&a), render(&b));
            prop_assert_eq!(zeros_det.tick(), silent_det.tick());
            prop_assert_eq!(zeros_det.is_locked(), silent_det.is_locked());
        }
    }

    /// A session `SidMonitor` fed the frame detector's energies detects
    /// exactly what one running its own sweep detects, under the shield's
    /// interleavings: passive windows and own transmissions
    /// (`advance_silent`, with the detector pushing samples or silence),
    /// jam ends (`reset`), retunes (detector reset, the session role
    /// moving to a monitor that was sweeping another channel), and silent
    /// gaps of any length on every channel (none, repeated, shorter than
    /// the hold-off right after a detection, after a reset or not). A
    /// loose tolerance makes noise fire too, so the reported distances
    /// expose any differing bit.
    #[test]
    fn shared_energy_sid_monitor_equivalence(
        seed in any::<u64>(),
        pset in 0usize..3,
        block_idx in 0usize..5,
        bthresh_idx in 0usize..3,
    ) {
        let p = param_set(pset);
        let block = [1usize, 16, 24, 37, 100][block_idx];
        let bthresh = [4usize, 48, 64][bthresh_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let modem = FskModem::new(p);
        let sid = identifying_sequence(Serial::from_str_padded("VIRTUOSO01"));
        let mut session = Vec::new();
        while session.len() < 40_000 {
            let power = hb_dsp::units::ratio_from_db(rng.gen_range(-40.0..0.0));
            match rng.gen_range(0..3) {
                0 => {
                    let frame = Frame::new(
                        Serial::from_str_padded("VIRTUOSO01"),
                        FrameType::Command,
                        1,
                        vec![rng.gen(); rng.gen_range(0..=MAX_PAYLOAD)],
                    );
                    let wave = modem.modulate(&frame.to_bits());
                    let noise = hb_dsp::noise::white_noise(&mut rng, wave.len(), power);
                    session.extend(wave.iter().zip(&noise).map(|(&a, &b)| a + b));
                }
                1 => {
                    let n = rng.gen_range(0..2000);
                    session.extend(hb_dsp::noise::white_noise(&mut rng, n, power));
                }
                _ => session.extend(vec![hb_dsp::C64::ZERO; rng.gen_range(0..2000)]),
            }
        }
        let other = hb_dsp::noise::white_noise(&mut rng, session.len(), 0.01);
        let mut det = StreamingDetector::new(p, 4);
        // (own sweep, shared energies) pairs; `s` is the session pair.
        let mut pairs = [0, 1].map(|_| {
            (SidMonitor::new(p, sid.clone(), bthresh), SidMonitor::new(p, sid.clone(), bthresh))
        });
        let holdoff = (sid.len() * p.samples_per_symbol() / 2) as u64;
        let mut fired = false;
        let mut s = 0;
        for (x, y) in session.chunks(block).zip(other.chunks(block)) {
            let action = rng.gen_range(0..20);
            if action == 5 || (fired && rng.gen_bool(0.5)) {
                // Silence on every channel, the session one reset first
                // or not.
                if rng.gen_bool(0.5) {
                    pairs[s].0.reset();
                    pairs[s].1.reset();
                }
                let gap = match rng.gen_range(0..3) {
                    _ if fired => rng.gen_range(0..holdoff),
                    0 => 0,
                    1 => rng.gen_range(1..48),
                    _ => rng.gen_range(48..4000),
                };
                for _ in 0..rng.gen_range(1..=3) {
                    det.push_silence(gap as usize);
                    for (own, shared) in pairs.iter_mut() {
                        own.advance_silent(gap);
                        shared.advance_silent(gap);
                    }
                }
            }
            fired = false;
            if action == 0 {
                // Retune: the detector and the old session monitor reset.
                det.reset();
                pairs[s].0.reset();
                pairs[s].1.reset();
                s = 1 - s;
            } else if action == 1 {
                // An active jam on the session channel ended.
                pairs[s].0.reset();
                pairs[s].1.reset();
            }
            let (own, shared) = &mut pairs[s];
            match action {
                2 => {
                    det.push_silence(x.len());
                    own.advance_silent(x.len() as u64);
                    shared.advance_silent(x.len() as u64);
                }
                3 | 4 => {
                    det.push_block(x);
                    own.advance_silent(x.len() as u64);
                    shared.advance_silent(x.len() as u64);
                }
                _ => {
                    det.push_block(x);
                    let a = own.push_block(x);
                    let b = shared.push_block_shared(x, det.block_energies());
                    prop_assert_eq!(render_sid(a), render_sid(b));
                    fired = a.is_some();
                }
            }
            prop_assert_eq!(own.tick(), shared.tick());
            // The other monitor watches another channel, squelch open or not.
            let (own, shared) = &mut pairs[1 - s];
            if rng.gen_bool(0.5) {
                prop_assert_eq!(render_sid(own.push_block(y)), render_sid(shared.push_block(y)));
            } else {
                own.advance_silent(y.len() as u64);
                shared.advance_silent(y.len() as u64);
            }
        }
    }
}
