//! The IMD device model: a medium [`Node`] implementing the behaviour the
//! paper measured on the real Virtuoso/Concerto devices.
//!
//! The properties everything else is built on:
//!
//! * **Responds only when spoken to** (§2, FCC requirement): the device
//!   never initiates; it transmits a response a bounded time after
//!   decoding a valid command.
//! * **No carrier sense** (Fig. 3b): the reply is scheduled blindly into
//!   the reply window `[T1, T2]`, regardless of channel occupancy.
//! * **Checksum discard** (§3.1): frames failing CRC are dropped silently.
//!   This — combined with jamming-induced bit errors — is the entire
//!   mechanism by which the shield neutralizes unauthorized commands.
//! * **Half duplex**: while transmitting, the receiver is deaf.

use crate::battery::Battery;
use crate::commands::{Command, Response};
use crate::fence::{self, FenceState};
use crate::models::{ImdConfig, SecurityMode};
use crate::telemetry::{EcgGenerator, PatientRecord};
use crate::therapy::TherapyParams;
use crate::wakeup::{self, WakeGate};
use hb_channel::medium::{AntennaId, Medium};
use hb_channel::sim::Node;
use hb_channel::txsched::TxScheduler;
use hb_dsp::units::ratio_from_db;
use hb_phy::fsk::FskModem;
use hb_phy::packet::{Frame, FrameType};
use hb_phy::stream::{DetectorEvent, StreamingDetector};
use rand::rngs::StdRng;
use rand::Rng;

/// Counters exposed for experiments.
#[derive(Debug, Clone, Default)]
pub struct ImdStats {
    /// Valid, addressed, parseable commands executed.
    pub commands_executed: u64,
    /// Response frames transmitted.
    pub responses_sent: u64,
    /// Therapy parameter changes applied.
    pub therapy_changes: u64,
    /// Detected frames that failed CRC (jammed or corrupted).
    pub crc_failures: u64,
    /// Valid frames addressed to some other device (ignored).
    pub foreign_frames: u64,
    /// Commands whose payload was identical to the previous executed
    /// command's. Real ICDs execute duplicates blindly (there is no
    /// transaction layer); under link-layer retries every re-delivered
    /// command after a lost *reply* lands here — the degraded outcome
    /// (extra executions, extra battery) the resilience experiments
    /// quantify.
    pub duplicate_commands: u64,
    /// Addressed frames refused by the authenticated-session layer
    /// (plaintext commands, bad tags, replays, stale HELLOs). Always 0
    /// in [`SecurityMode::Open`].
    pub auth_rejects: u64,
    /// Authentic wake tokens that opened (or refreshed) the wake gate.
    pub wake_tokens_accepted: u64,
    /// Frame events that arrived while the wake gate kept the main radio
    /// off — decoded by nobody, answered by nobody, at zero energy cost.
    pub wake_dropped: u64,
}

/// Ground-truth record of one transmitted frame (omniscient experiment
/// data: the eavesdropper-BER experiments compare an adversary's decode
/// against exactly what went on the air).
#[derive(Debug, Clone)]
pub struct TxRecord {
    /// First sample tick of the transmission.
    pub start_tick: u64,
    /// The frame's on-air bits.
    pub bits: Vec<u8>,
    /// Logical plaintext payload of the reply — the ground truth for
    /// confidentiality metrics. Equals the on-air payload in
    /// [`SecurityMode::Open`]; under an authenticated session the air
    /// carries the sealed form and this field holds what it protects.
    pub payload: Vec<u8>,
}

/// The IMD device model. See the module docs.
pub struct ImdDevice {
    cfg: ImdConfig,
    antenna: AntennaId,
    modem: FskModem,
    detector: StreamingDetector,
    tx: TxScheduler,
    therapy: TherapyParams,
    patient: PatientRecord,
    battery: Battery,
    seq: u8,
    /// Payload of the last executed command (duplicate detection).
    last_cmd_payload: Option<Vec<u8>>,
    /// Authenticated-session state (`None` in [`SecurityMode::Open`]).
    fence: Option<FenceState>,
    /// Wake-up gate (`None` on stock devices).
    gate: Option<WakeGate>,
    rng: StdRng,
    /// Public experiment counters.
    pub stats: ImdStats,
    /// Ground-truth log of transmitted frames (for experiments; drain with
    /// [`ImdDevice::take_tx_log`]).
    pub tx_log: Vec<TxRecord>,
}

impl ImdDevice {
    /// Creates an IMD attached to `antenna` (which should be registered
    /// with an in-body placement).
    pub fn new(cfg: ImdConfig, antenna: AntennaId, rng: StdRng) -> Self {
        let modem = FskModem::new(cfg.fsk);
        let detector = StreamingDetector::new(cfg.fsk, 4);
        let fence = match &cfg.security {
            SecurityMode::Open => None,
            SecurityMode::Authenticated { key } => Some(FenceState::new(*key)),
        };
        let gate = cfg
            .wake
            .clone()
            .map(|w| WakeGate::new(w, cfg.serial, cfg.fsk.fs_hz));
        ImdDevice {
            cfg,
            antenna,
            modem,
            detector,
            tx: TxScheduler::new(),
            therapy: TherapyParams::nominal(),
            patient: PatientRecord::demo(),
            battery: Battery::typical_icd(),
            seq: 0,
            last_cmd_payload: None,
            fence,
            gate,
            rng,
            stats: ImdStats::default(),
            tx_log: Vec::new(),
        }
    }

    /// Drains the ground-truth transmit log.
    pub fn take_tx_log(&mut self) -> Vec<TxRecord> {
        std::mem::take(&mut self.tx_log)
    }

    /// The device's antenna.
    pub fn antenna(&self) -> AntennaId {
        self.antenna
    }

    /// The device's configuration.
    pub fn config(&self) -> &ImdConfig {
        &self.cfg
    }

    /// Current therapy parameters (for experiments to check whether an
    /// attack changed them).
    pub fn therapy(&self) -> &TherapyParams {
        &self.therapy
    }

    /// Battery state (for the depletion experiments).
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// True while the device's transmitter is on at `tick`.
    pub fn transmitting(&self, tick: u64) -> bool {
        self.tx.busy_at(tick)
    }

    /// Moves the device to a new MICS channel (the §2 rescan outcome: in a
    /// real deployment the programmer re-establishes the session on a
    /// clean channel and the implant follows). The frame detector's state
    /// is cleared but its sample clock keeps running, so reply timing
    /// stays consistent with the medium.
    pub fn retune(&mut self, channel: usize) {
        if channel == self.cfg.channel {
            return;
        }
        self.cfg.channel = channel;
        self.detector.reset();
    }

    /// Executes a parsed command against device state, producing the reply.
    fn execute(&mut self, cmd: Command) -> Response {
        match cmd {
            Command::Interrogate => Response::Status {
                model: self.cfg.model_code,
                battery_pct: self.battery.remaining_pct(),
            },
            Command::ReadTherapy => Response::Therapy(self.therapy),
            Command::SetTherapy(p) => {
                if p.validate().is_ok() {
                    self.therapy = p;
                    self.stats.therapy_changes += 1;
                    Response::Ack
                } else {
                    Response::Nak
                }
            }
            Command::ReadEcg { chunk } => {
                let ecg = EcgGenerator::new(self.therapy.rate_ppm as f64);
                Response::Data {
                    chunk,
                    bytes: ecg.chunk(chunk),
                }
            }
            Command::ReadPatient { chunk } => Response::Data {
                chunk,
                bytes: self.patient.chunk(chunk),
            },
        }
    }

    /// Handles a completed detector event.
    fn on_frame(&mut self, event: DetectorEvent) {
        let DetectorEvent::FrameDone {
            result, end_tick, ..
        } = event
        else {
            return;
        };

        // Wake gate, closed: the main radio is off. The zero-power wake
        // receiver matches authenticated tokens addressed to this device
        // and nothing else — no CRC bookkeeping, no command decode, no
        // reply, no transmit energy.
        if let Some(gate) = self.gate.as_mut() {
            if !gate.awake(end_tick) {
                if let Ok(frame) = &result {
                    if frame.serial == self.cfg.serial
                        && frame.frame_type == FrameType::Command
                        && gate.try_wake(&frame.payload, end_tick)
                    {
                        self.stats.wake_tokens_accepted += 1;
                        return;
                    }
                }
                self.stats.wake_dropped += 1;
                return;
            }
        }

        let frame = match result {
            Ok(f) => f,
            Err(_) => {
                self.stats.crc_failures += 1;
                return;
            }
        };
        if frame.serial != self.cfg.serial {
            self.stats.foreign_frames += 1;
            return;
        }
        if frame.frame_type != FrameType::Command {
            return;
        }

        // Wake tokens are gate traffic even while awake (they refresh the
        // window); never a command. Stock firmware has no gate and falls
        // through to the opcode parse, which rejects 0x40 as unknown —
        // identical outward behaviour.
        if wakeup::is_wake_payload(&frame.payload) {
            if let Some(gate) = self.gate.as_mut() {
                if gate.try_wake(&frame.payload, end_tick) {
                    self.stats.wake_tokens_accepted += 1;
                }
            }
            return;
        }

        // Authenticated sessions: HELLOs establish, everything else must
        // open under the live session. Refusals cost a Nak transmission.
        let plain: Vec<u8> = if let Some(fnc) = self.fence.as_mut() {
            if fence::is_hello(&frame.payload) {
                if fnc.on_hello(&self.cfg.serial, &frame.payload) {
                    let ack = Response::Ack.to_payload();
                    let sealed = fnc
                        .session
                        .as_mut()
                        .expect("session exists after accepted HELLO")
                        .seal(&ack);
                    self.schedule_reply(sealed, ack, end_tick);
                } else {
                    self.stats.auth_rejects += 1;
                    let nak = Response::Nak.to_payload();
                    self.schedule_reply(nak.clone(), nak, end_tick);
                }
                return;
            }
            match fnc.session.as_mut().map(|s| s.open(&frame.payload)) {
                Some(Ok(pt)) => pt,
                _ => {
                    self.stats.auth_rejects += 1;
                    let nak = Response::Nak.to_payload();
                    self.schedule_reply(nak.clone(), nak, end_tick);
                    return;
                }
            }
        } else {
            frame.payload.clone()
        };

        let Some(cmd) = Command::from_payload(&plain) else {
            return;
        };
        self.stats.commands_executed += 1;
        if self.last_cmd_payload.as_deref() == Some(&plain[..]) {
            self.stats.duplicate_commands += 1;
        }
        self.last_cmd_payload = Some(plain);
        let mut response = self.execute(cmd);
        if self.fence.is_some() {
            // Sealing costs 4 bytes of the 10-byte frame: bulk telemetry
            // chunks shrink to fit. The confidentiality tax is measured
            // (smaller chunks, more exchanges), not hidden.
            if let Response::Data { bytes, .. } = &mut response {
                bytes.truncate(hb_crypto::micro::MAX_PT - 3);
            }
        }
        let truth = response.to_payload();
        let wire = match self.fence.as_mut().and_then(|f| f.session.as_mut()) {
            Some(sess) => sess.seal(&truth),
            None => truth.clone(),
        };
        self.schedule_reply(wire, truth, end_tick);
    }

    /// Draws the reply-window delay and schedules `payload` as a Response
    /// frame ending the exchange that finished at `end_tick`. `truth` is
    /// the logical plaintext logged for the omniscient leak metrics
    /// (equal to `payload` on an open device).
    ///
    /// Per Fig. 3 the reply starts a device-specific fixed interval after
    /// the command ends; the shield only assumes it lies within [T1, T2].
    /// We draw per-response jitter inside that window around the ~3.5 ms
    /// typical latency.
    fn schedule_reply(&mut self, payload: Vec<u8>, truth: Vec<u8>, end_tick: u64) {
        let delay_s = self
            .rng
            .gen_range(self.cfg.reply.t1_s..=self.cfg.reply.t2_s);
        let delay_samples = (delay_s * self.cfg.fsk.fs_hz).round() as u64;

        self.seq = self.seq.wrapping_add(1);
        let reply = Frame::new(self.cfg.serial, FrameType::Response, self.seq, payload);
        let bits = reply.to_bits();
        let mut wave = self.modem.modulate(&bits);
        let amplitude = ratio_from_db(self.cfg.tx_power_dbm).sqrt();
        for s in wave.iter_mut() {
            *s = s.scale(amplitude);
        }
        let start_tick = end_tick + delay_samples;
        self.tx_log.push(TxRecord {
            start_tick,
            bits,
            payload: truth,
        });
        self.tx.schedule(start_tick, self.cfg.channel, wave);
        self.stats.responses_sent += 1;
    }
}

impl Node for ImdDevice {
    fn label(&self) -> &str {
        "imd"
    }

    fn produce(&mut self, medium: &mut Medium) {
        let block_s = medium.config().block_len as f64 / medium.config().fs_hz;
        self.battery.tick_baseline(block_s);
        if self.tx.produce(self.antenna, medium) {
            self.battery.spend_tx(block_s);
        }
    }

    fn consume(&mut self, medium: &mut Medium) {
        // Half duplex: while our transmitter is on, the receive path sees
        // nothing usable. Feed silence so the detector's sample clock stays
        // aligned with the medium.
        let busy = self.tx.busy_at(medium.tick());
        let events = if busy {
            self.detector.push_silence(medium.config().block_len)
        } else {
            self.detector
                .push_block(medium.receive_view(self.antenna, self.cfg.channel))
        };
        for e in events {
            self.on_frame(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ImdConfig;
    use hb_channel::geometry::Placement;
    use hb_channel::medium::MediumConfig;
    use hb_dsp::complex::C64;
    use hb_dsp::units::db_from_ratio;
    use rand::SeedableRng;

    const CH: usize = 0;

    fn setup_with(cfg: ImdConfig) -> (Medium, ImdDevice, AntennaId) {
        let mut medium = Medium::new(
            MediumConfig {
                noise_floor_dbm: -130.0,
                ..Default::default()
            },
            42,
        );
        let imd_ant = medium.add_antenna(Placement::los("imd", 0.0, 0.0).implanted());
        let prog_ant = medium.add_antenna(Placement::los("prog", 0.5, 0.0));
        // Strong symmetric link so decoding is easy in unit tests.
        medium.set_gain(imd_ant, prog_ant, C64::new(0.1, 0.0));
        medium.set_gain(prog_ant, imd_ant, C64::new(0.1, 0.0));
        let imd = ImdDevice::new(cfg, imd_ant, StdRng::seed_from_u64(7));
        (medium, imd, prog_ant)
    }

    fn setup() -> (Medium, ImdDevice, AntennaId) {
        setup_with(ImdConfig::virtuoso_icd(CH))
    }

    /// Sends a raw Command-frame payload and returns the samples received
    /// back at the programmer antenna after the command's air time.
    fn send_payload(
        medium: &mut Medium,
        imd: &mut ImdDevice,
        prog_ant: AntennaId,
        payload: Vec<u8>,
        run_blocks: u64,
    ) -> Vec<C64> {
        let modem = FskModem::new(imd.config().fsk);
        let frame = Frame::new(imd.config().serial, FrameType::Command, 9, payload);
        let wave = modem.modulate(&frame.to_bits());
        let cmd_len = wave.len();
        let mut sched = TxScheduler::new();
        sched.schedule(medium.tick(), CH, wave);
        let mut rx = Vec::new();
        for _ in 0..run_blocks {
            sched.produce(prog_ant, medium);
            imd.produce(medium);
            imd.consume(medium);
            rx.extend(medium.receive(prog_ant, CH));
            medium.end_block();
        }
        rx.split_off(cmd_len)
    }

    /// Sends `cmd` from `prog_ant` and runs until the IMD's reply (if any)
    /// has fully played out. Returns the received samples at the
    /// programmer antenna and the tick at which the command's last sample
    /// aired.
    fn run_exchange(
        medium: &mut Medium,
        imd: &mut ImdDevice,
        prog_ant: AntennaId,
        cmd: Command,
        run_blocks: u64,
    ) -> (Vec<C64>, u64) {
        let modem = FskModem::new(imd.config().fsk);
        let frame = Frame::new(imd.config().serial, FrameType::Command, 9, cmd.to_payload());
        let wave = modem.modulate(&frame.to_bits());
        let cmd_len = wave.len() as u64;
        let mut sched = TxScheduler::new();
        sched.schedule(medium.tick(), CH, wave);

        let mut rx = Vec::new();
        for _ in 0..run_blocks {
            sched.produce(prog_ant, medium);
            imd.produce(medium);
            imd.consume(medium);
            rx.extend(medium.receive(prog_ant, CH));
            medium.end_block();
        }
        (rx, cmd_len)
    }

    #[test]
    fn responds_to_interrogation_within_reply_window() {
        let (mut medium, mut imd, prog_ant) = setup();
        let (rx, cmd_len) =
            run_exchange(&mut medium, &mut imd, prog_ant, Command::Interrogate, 3_000);
        assert_eq!(imd.stats.commands_executed, 1);
        assert_eq!(imd.stats.responses_sent, 1);

        // Decode the response at the programmer.
        let modem = FskModem::new(imd.config().fsk);
        let reply_region = &rx[cmd_len as usize..];
        let frame = modem.receive_frame(reply_region).expect("reply decodes");
        assert_eq!(frame.frame_type, FrameType::Response);
        let resp = Response::from_payload(&frame.payload).unwrap();
        assert!(matches!(resp, Response::Status { .. }));

        // Reply must start T1..T2 after the command end.
        let start = modem.find_frame_start(reply_region, 4).unwrap();
        let delay_s = start as f64 / imd.config().fsk.fs_hz;
        // Allow one symbol of frame-start estimation slack plus two blocks
        // of loop latency on the upper side.
        let symbol_s = 24.0 / 300e3;
        let slack = 2.0 * 16.0 / 300e3;
        assert!(
            delay_s >= imd.config().reply.t1_s - symbol_s
                && delay_s <= imd.config().reply.t2_s + symbol_s + slack,
            "reply delay {delay_s}"
        );
    }

    #[test]
    fn ignores_frame_for_other_device() {
        let (mut medium, mut imd, prog_ant) = setup();
        let other = hb_phy::packet::Serial::from_str_padded("SOMEONEELS");
        let modem = FskModem::new(imd.config().fsk);
        let frame = Frame::new(
            other,
            FrameType::Command,
            1,
            Command::Interrogate.to_payload(),
        );
        let mut sched = TxScheduler::new();
        sched.schedule(0, CH, modem.modulate(&frame.to_bits()));
        for _ in 0..2_000 {
            sched.produce(prog_ant, &mut medium);
            imd.produce(&mut medium);
            imd.consume(&mut medium);
            medium.end_block();
        }
        assert_eq!(imd.stats.commands_executed, 0);
        assert_eq!(imd.stats.foreign_frames, 1);
        assert_eq!(imd.stats.responses_sent, 0);
    }

    #[test]
    fn therapy_change_applies_and_acks() {
        let (mut medium, mut imd, prog_ant) = setup();
        let mut p = TherapyParams::nominal();
        p.rate_ppm = 120;
        let (rx, cmd_len) = run_exchange(
            &mut medium,
            &mut imd,
            prog_ant,
            Command::SetTherapy(p),
            3_000,
        );
        assert_eq!(imd.therapy().rate_ppm, 120);
        assert_eq!(imd.stats.therapy_changes, 1);
        let modem = FskModem::new(imd.config().fsk);
        let frame = modem.receive_frame(&rx[cmd_len as usize..]).unwrap();
        assert_eq!(Response::from_payload(&frame.payload), Some(Response::Ack));
    }

    #[test]
    fn invalid_therapy_rejected_with_nak() {
        let (mut medium, mut imd, prog_ant) = setup();
        let mut p = TherapyParams::nominal();
        p.rate_ppm = 250; // out of clinical range
        let (rx, cmd_len) = run_exchange(
            &mut medium,
            &mut imd,
            prog_ant,
            Command::SetTherapy(p),
            3_000,
        );
        assert_eq!(imd.therapy().rate_ppm, 60, "therapy must not change");
        assert_eq!(imd.stats.therapy_changes, 0);
        let modem = FskModem::new(imd.config().fsk);
        let frame = modem.receive_frame(&rx[cmd_len as usize..]).unwrap();
        assert_eq!(Response::from_payload(&frame.payload), Some(Response::Nak));
    }

    #[test]
    fn corrupted_command_discarded_by_checksum() {
        let (mut medium, mut imd, prog_ant) = setup();
        let modem = FskModem::new(imd.config().fsk);
        let frame = Frame::new(
            imd.config().serial,
            FrameType::Command,
            1,
            Command::Interrogate.to_payload(),
        );
        let mut bits = frame.to_bits();
        // Flip payload bits (past the header) to emulate jamming damage.
        let n = bits.len();
        for b in bits[n - 40..n - 30].iter_mut() {
            *b ^= 1;
        }
        let mut sched = TxScheduler::new();
        sched.schedule(0, CH, modem.modulate(&bits));
        for _ in 0..3_000 {
            sched.produce(prog_ant, &mut medium);
            imd.produce(&mut medium);
            imd.consume(&mut medium);
            medium.end_block();
        }
        assert_eq!(imd.stats.commands_executed, 0);
        assert_eq!(imd.stats.crc_failures, 1);
        assert_eq!(imd.stats.responses_sent, 0);
    }

    #[test]
    fn reply_transmit_power_matches_config() {
        let (mut medium, mut imd, prog_ant) = setup();
        let (rx, cmd_len) =
            run_exchange(&mut medium, &mut imd, prog_ant, Command::Interrogate, 3_000);
        let modem = FskModem::new(imd.config().fsk);
        let region = &rx[cmd_len as usize..];
        let start = modem.find_frame_start(region, 4).unwrap();
        // Measure power over the reply body.
        let body = &region[start..start + 1000];
        let p_dbm = db_from_ratio(hb_dsp::complex::mean_power(body));
        let expected = imd.config().tx_power_dbm - 20.0; // |0.1|² link
        assert!((p_dbm - expected).abs() < 1.5, "reply power {p_dbm} dBm");
    }

    #[test]
    fn battery_drains_with_responses() {
        let (mut medium, mut imd, prog_ant) = setup();
        let before = imd.battery().radio_energy_j();
        run_exchange(&mut medium, &mut imd, prog_ant, Command::Interrogate, 3_000);
        assert!(imd.battery().radio_energy_j() > before);
    }

    #[test]
    fn authenticated_device_naks_plaintext_and_accepts_sealed() {
        use crate::fence;
        use hb_crypto::micro::MicroSession;
        let master = [0x42u8; 32];
        let mut cfg = ImdConfig::virtuoso_icd(CH);
        cfg.security = crate::models::SecurityMode::Authenticated { key: master };
        let (mut medium, mut imd, prog_ant) = setup_with(cfg);
        let modem = FskModem::new(imd.config().fsk);

        // 1. Plaintext command: refused with a plaintext Nak, not executed.
        let rx = send_payload(
            &mut medium,
            &mut imd,
            prog_ant,
            Command::Interrogate.to_payload(),
            3_000,
        );
        assert_eq!(imd.stats.commands_executed, 0);
        assert_eq!(imd.stats.auth_rejects, 1);
        let frame = modem.receive_frame(&rx).expect("nak decodes");
        assert_eq!(Response::from_payload(&frame.payload), Some(Response::Nak));

        // 2. HELLO: establishes the session; the Ack comes back sealed.
        let serial = imd.config().serial;
        let rx = send_payload(
            &mut medium,
            &mut imd,
            prog_ant,
            fence::hello_payload(&master, &serial, 1),
            3_000,
        );
        let mut prog_sess = MicroSession::programmer_side(fence::session_key(&master, 1));
        let frame = modem.receive_frame(&rx).expect("hello ack decodes");
        assert_eq!(
            Response::from_payload(&frame.payload),
            None,
            "sealed ack must not parse as plaintext"
        );
        assert_eq!(
            prog_sess.open(&frame.payload).expect("ack opens"),
            Response::Ack.to_payload()
        );

        // 3. Sealed command: executed, reply opens under the session.
        let mut cmd_sess = MicroSession::programmer_side(fence::session_key(&master, 1));
        let sealed = cmd_sess.seal(&Command::Interrogate.to_payload());
        let rx = send_payload(&mut medium, &mut imd, prog_ant, sealed, 3_000);
        assert_eq!(imd.stats.commands_executed, 1);
        let frame = modem.receive_frame(&rx).expect("sealed reply decodes");
        let pt = prog_sess.open(&frame.payload).expect("reply opens");
        assert!(matches!(
            Response::from_payload(&pt),
            Some(Response::Status { .. })
        ));
    }

    #[test]
    fn wake_gate_blocks_commands_until_token() {
        use crate::wakeup::{wake_token, WakeConfig};
        let key = [0x21u8; 32];
        let mut cfg = ImdConfig::virtuoso_icd(CH);
        cfg.wake = Some(WakeConfig::new(key));
        let (mut medium, mut imd, prog_ant) = setup_with(cfg);

        // Asleep: a valid addressed command is not decoded, not answered,
        // and costs no transmit energy.
        send_payload(
            &mut medium,
            &mut imd,
            prog_ant,
            Command::Interrogate.to_payload(),
            3_000,
        );
        assert_eq!(imd.stats.commands_executed, 0);
        assert_eq!(imd.stats.responses_sent, 0);
        assert!(imd.stats.wake_dropped >= 1);
        assert_eq!(imd.battery().radio_energy_j(), 0.0);

        // Token, then the same command inside the window: normal service.
        let serial = imd.config().serial;
        send_payload(
            &mut medium,
            &mut imd,
            prog_ant,
            wake_token(&key, &serial, 1),
            1_000,
        );
        assert_eq!(imd.stats.wake_tokens_accepted, 1);
        send_payload(
            &mut medium,
            &mut imd,
            prog_ant,
            Command::Interrogate.to_payload(),
            3_000,
        );
        assert_eq!(imd.stats.commands_executed, 1);
        assert_eq!(imd.stats.responses_sent, 1);
    }

    #[test]
    fn does_not_transmit_unprompted() {
        let (mut medium, mut imd, _) = setup();
        for _ in 0..5_000 {
            imd.produce(&mut medium);
            imd.consume(&mut medium);
            medium.end_block();
        }
        assert_eq!(imd.stats.responses_sent, 0);
        assert_eq!(imd.battery().radio_energy_j(), 0.0);
    }
}
