//! The IMD programmer: the authorized clinic device (Medtronic CareLink
//! 2090 in the paper's testbed).
//!
//! Follows FCC rules: transmits at or below the −16 dBm EIRP limit and
//! performs 10 ms listen-before-talk before opening a session (§2). In a
//! shield deployment the programmer talks to the *shield* over the
//! encrypted channel instead of directly to the IMD; this radio model is
//! used (a) for baseline programmer↔IMD sessions, (b) as the hardware an
//! adversary replays (§9: the adversary records programmer transmissions,
//! demodulates them to clean bits, and re-modulates).

use crate::commands::{Command, Response};
use hb_channel::medium::{AntennaId, Medium, Tick};
use hb_channel::sim::Node;
use hb_channel::txsched::TxScheduler;
use hb_dsp::units::ratio_from_db;
use hb_phy::fsk::{FskModem, FskParams};
use hb_phy::packet::{Frame, FrameType, Serial};
use hb_phy::rssi::EnergyDetector;
use hb_phy::stream::{DetectorEvent, StreamingDetector};

/// A response received by the programmer, with arrival metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceivedResponse {
    /// Parsed response payload.
    pub response: Response,
    /// Frame sequence number.
    pub seq: u8,
    /// Tick at which the response frame ended.
    pub end_tick: Tick,
}

/// A raw Response frame received by the programmer, before any payload
/// interpretation — what a secured exchange works from, since sealed
/// replies do not parse as plaintext [`Response`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedFrame {
    /// Frame sequence number.
    pub seq: u8,
    /// Raw payload bytes as they crossed the air.
    pub payload: Vec<u8>,
    /// Tick at which the frame ended.
    pub end_tick: Tick,
}

/// Programmer configuration.
#[derive(Debug, Clone)]
pub struct ProgrammerConfig {
    /// Transmit power, dBm (FCC limit by default).
    pub tx_power_dbm: f64,
    /// FSK parameters (must match the IMD's).
    pub fsk: FskParams,
    /// Session channel.
    pub channel: usize,
    /// CCA threshold for listen-before-talk, dBm.
    pub lbt_threshold_dbm: f64,
}

impl Default for ProgrammerConfig {
    fn default() -> Self {
        ProgrammerConfig {
            tx_power_dbm: hb_mics::fcc_eirp_limit_dbm(),
            fsk: FskParams::mics_default(),
            channel: 0,
            lbt_threshold_dbm: -90.0,
        }
    }
}

/// The programmer device model.
pub struct Programmer {
    cfg: ProgrammerConfig,
    antenna: AntennaId,
    modem: FskModem,
    detector: StreamingDetector,
    tx: TxScheduler,
    cca: EnergyDetector,
    /// Seconds of continuous quiet observed (for LBT).
    quiet_s: f64,
    seq: u8,
    /// Reusable silence block fed to the energy detector while
    /// transmitting.
    silence: Vec<hb_dsp::C64>,
    /// Responses received, in arrival order.
    pub inbox: Vec<ReceivedResponse>,
    /// Every CRC-valid Response frame, in arrival order, payload
    /// untouched (sealed replies land here and nowhere else).
    pub raw_inbox: Vec<ReceivedFrame>,
    /// Commands transmitted (count).
    pub commands_sent: u64,
}

impl Programmer {
    /// Creates a programmer attached to `antenna`.
    pub fn new(cfg: ProgrammerConfig, antenna: AntennaId) -> Self {
        let modem = FskModem::new(cfg.fsk);
        let detector = StreamingDetector::new(cfg.fsk, 4);
        let cca = EnergyDetector::new(cfg.lbt_threshold_dbm, 64);
        Programmer {
            cfg,
            antenna,
            modem,
            detector,
            tx: TxScheduler::new(),
            cca,
            quiet_s: 0.0,
            seq: 0,
            silence: Vec::new(),
            inbox: Vec::new(),
            raw_inbox: Vec::new(),
            commands_sent: 0,
        }
    }

    /// The programmer's antenna.
    pub fn antenna(&self) -> AntennaId {
        self.antenna
    }

    /// The configuration.
    pub fn config(&self) -> &ProgrammerConfig {
        &self.cfg
    }

    /// True once at least `LBT_DURATION_S` of continuous quiet has been
    /// observed on the session channel.
    pub fn channel_clear(&self) -> bool {
        self.quiet_s + 1e-12 >= hb_mics::regs::LBT_DURATION_S
    }

    /// Builds the on-air waveform for a command to `serial` (also used by
    /// the replay adversary to synthesize clean copies).
    pub fn command_waveform(&mut self, serial: Serial, cmd: Command) -> Vec<hb_dsp::C64> {
        self.seq = self.seq.wrapping_add(1);
        let frame = Frame::new(serial, FrameType::Command, self.seq, cmd.to_payload());
        let mut wave = self.modem.modulate(&frame.to_bits());
        let amplitude = ratio_from_db(self.cfg.tx_power_dbm).sqrt();
        for s in wave.iter_mut() {
            *s = s.scale(amplitude);
        }
        wave
    }

    /// Schedules a command for transmission at `start_tick` (no LBT check —
    /// callers either verified [`Programmer::channel_clear`] or are
    /// deliberately modeling rule-breaking behaviour).
    pub fn send_command_at(&mut self, start_tick: Tick, serial: Serial, cmd: Command) {
        let wave = self.command_waveform(serial, cmd);
        self.tx.schedule(start_tick, self.cfg.channel, wave);
        self.commands_sent += 1;
    }

    /// Schedules an arbitrary Command-frame payload at `start_tick` —
    /// the transmit path for handshake HELLOs, wake tokens, and sealed
    /// commands, which are not plaintext [`Command`]s.
    pub fn send_payload_at(&mut self, start_tick: Tick, serial: Serial, payload: Vec<u8>) {
        self.seq = self.seq.wrapping_add(1);
        let frame = Frame::new(serial, FrameType::Command, self.seq, payload);
        let mut wave = self.modem.modulate(&frame.to_bits());
        let amplitude = ratio_from_db(self.cfg.tx_power_dbm).sqrt();
        for s in wave.iter_mut() {
            *s = s.scale(amplitude);
        }
        self.tx.schedule(start_tick, self.cfg.channel, wave);
        self.commands_sent += 1;
    }

    /// End tick of the most recently scheduled transmission.
    pub fn tx_end_tick(&self) -> Option<Tick> {
        self.tx.end_tick()
    }

    /// True while the programmer's transmitter is on at `tick`.
    pub fn transmitting(&self, tick: Tick) -> bool {
        self.tx.busy_at(tick)
    }

    /// Drains received responses.
    pub fn take_responses(&mut self) -> Vec<ReceivedResponse> {
        std::mem::take(&mut self.inbox)
    }

    /// Drains raw received Response frames.
    pub fn take_raw(&mut self) -> Vec<ReceivedFrame> {
        std::mem::take(&mut self.raw_inbox)
    }
}

impl Node for Programmer {
    fn label(&self) -> &str {
        "programmer"
    }

    fn produce(&mut self, medium: &mut Medium) {
        self.tx.produce(self.antenna, medium);
    }

    fn consume(&mut self, medium: &mut Medium) {
        let block_len = medium.config().block_len;
        let block_s = block_len as f64 / medium.config().fs_hz;
        let busy_tx = self.tx.busy_at(medium.tick());
        // Half duplex: while transmitting, both detectors hear silence.
        let events = if busy_tx {
            if self.silence.len() != block_len {
                self.silence = vec![hb_dsp::C64::ZERO; block_len];
            }
            self.cca.push_block(&self.silence);
            self.quiet_s = 0.0;
            self.detector.push_silence(block_len)
        } else {
            let block = medium.receive_view(self.antenna, self.cfg.channel);
            // LBT bookkeeping.
            if self.cca.push_block(block) {
                self.quiet_s = 0.0;
            } else {
                self.quiet_s += block_s;
            }
            self.detector.push_block(block)
        };
        // Frame reception.
        for e in events {
            if let DetectorEvent::FrameDone {
                result: Ok(frame),
                end_tick,
                ..
            } = e
            {
                if frame.frame_type == FrameType::Response {
                    self.raw_inbox.push(ReceivedFrame {
                        seq: frame.seq,
                        payload: frame.payload.clone(),
                        end_tick,
                    });
                    if let Some(response) = Response::from_payload(&frame.payload) {
                        self.inbox.push(ReceivedResponse {
                            response,
                            seq: frame.seq,
                            end_tick,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ImdDevice;
    use crate::models::ImdConfig;
    use hb_channel::geometry::Placement;
    use hb_channel::medium::MediumConfig;
    use hb_dsp::complex::C64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Medium, ImdDevice, Programmer) {
        let mut medium = Medium::new(
            MediumConfig {
                noise_floor_dbm: -130.0,
                ..Default::default()
            },
            3,
        );
        let imd_ant = medium.add_antenna(Placement::los("imd", 0.0, 0.0).implanted());
        let prog_ant = medium.add_antenna(Placement::los("prog", 0.5, 0.0));
        medium.set_gain(imd_ant, prog_ant, C64::new(0.1, 0.0));
        medium.set_gain(prog_ant, imd_ant, C64::new(0.1, 0.0));
        let imd = ImdDevice::new(
            ImdConfig::virtuoso_icd(0),
            imd_ant,
            StdRng::seed_from_u64(5),
        );
        let prog = Programmer::new(ProgrammerConfig::default(), prog_ant);
        (medium, imd, prog)
    }

    fn run(medium: &mut Medium, imd: &mut ImdDevice, prog: &mut Programmer, blocks: u64) {
        for _ in 0..blocks {
            prog.produce(medium);
            imd.produce(medium);
            prog.consume(medium);
            imd.consume(medium);
            medium.end_block();
        }
    }

    #[test]
    fn full_interrogation_round_trip() {
        let (mut medium, mut imd, mut prog) = setup();
        // LBT first.
        run(&mut medium, &mut imd, &mut prog, 200);
        assert!(prog.channel_clear(), "quiet channel should pass LBT");

        prog.send_command_at(medium.tick(), imd.config().serial, Command::Interrogate);
        run(&mut medium, &mut imd, &mut prog, 3_000);

        let responses = prog.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].response,
            Response::Status {
                battery_pct: 91..=100,
                ..
            }
        ));
        assert_eq!(prog.commands_sent, 1);
    }

    #[test]
    fn lbt_sees_occupied_channel() {
        let (mut medium, mut imd, mut prog) = setup();
        // A third device blasts the channel continuously.
        let blocker = medium.add_antenna(Placement::los("blocker", 1.0, 0.0));
        medium.set_gain(blocker, prog.antenna(), C64::new(0.3, 0.0));
        for _ in 0..400 {
            let block = vec![C64::ONE; medium.config().block_len];
            medium.transmit(blocker, 0, &block);
            prog.produce(&mut medium);
            imd.produce(&mut medium);
            prog.consume(&mut medium);
            imd.consume(&mut medium);
            medium.end_block();
        }
        assert!(!prog.channel_clear());
    }

    #[test]
    fn repeated_interrogations_each_get_replies() {
        let (mut medium, mut imd, mut prog) = setup();
        for _ in 0..3 {
            prog.send_command_at(medium.tick(), imd.config().serial, Command::Interrogate);
            run(&mut medium, &mut imd, &mut prog, 3_000);
        }
        assert_eq!(prog.take_responses().len(), 3);
        assert_eq!(imd.stats.responses_sent, 3);
    }

    #[test]
    fn reads_patient_record_chunks() {
        let (mut medium, mut imd, mut prog) = setup();
        let record = crate::telemetry::PatientRecord::demo();
        let mut assembled = Vec::new();
        for chunk in 0..record.chunk_count() {
            prog.send_command_at(
                medium.tick(),
                imd.config().serial,
                Command::ReadPatient { chunk },
            );
            run(&mut medium, &mut imd, &mut prog, 3_000);
            let rs = prog.take_responses();
            assert_eq!(rs.len(), 1, "chunk {chunk}");
            if let Response::Data { bytes, .. } = &rs[0].response {
                assembled.extend_from_slice(bytes);
            } else {
                panic!("expected Data response");
            }
        }
        assert_eq!(assembled, record.to_bytes());
        // The plaintext patient name crossed the air — this is the
        // confidentiality problem the shield exists to solve.
        let name = b"DOE, JANE";
        assert!(assembled.windows(name.len()).any(|w| w == name));
    }
}
