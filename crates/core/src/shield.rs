//! The shield device: the paper's contribution, assembled.
//!
//! A wearable two-antenna radio placed next to the IMD that:
//!
//! * **relays** — authorized programmers talk to the shield over an
//!   encrypted channel (`hb-crypto`); the shield forwards commands to the
//!   IMD over the air and returns the responses (§4);
//! * **jams the IMD's transmissions** so eavesdroppers cannot decode them,
//!   while decoding them itself through antidote cancellation (§5, §6) —
//!   the jam window is scheduled from the IMD's reply timing (T1/T2/P),
//!   exploiting the fact that the IMD answers blindly on a fixed schedule;
//! * **jams unauthorized commands** — a wideband monitor watches every
//!   MICS channel for the protected device's identifying sequence `Sid`
//!   (within `bthresh` bit errors) and jams until the signal stops (§7).
//!   Off the session channel a per-block squelch gates the demodulator:
//!   [`Medium::squelch_open`] compares the block's mean power against
//!   `squelch_dbm`, and only an open squelch reads the samples — an idle
//!   channel costs no synthesized noise, and its [`SidMonitor`] holds no
//!   state beyond a sample clock until a block is pushed into it
//!   ([`SidMonitor::is_idle`]). While the noise floor times
//!   `53 ln 2` stays under the squelch (−96.4 dBm against the default
//!   −95 dBm), a noise-only block is closed from its keyed draws alone,
//!   with no `ln`;
//! * **guards its own transmissions** — any signal concurrent with the
//!   shield's own relay transmission triggers an immediate switch to
//!   jamming, so an adversary cannot overwrite the shield's messages (§7);
//! * **raises an alarm** when an adversarial transmission is strong enough
//!   (≥ `Pthresh`) that jamming may fail (§7(d)), and schedules a
//!   protective jam window over the IMD's potential reply.
//!
//! # The session front end
//!
//! The session channel is demodulated once per block. The frame detector
//! sweeps the samples, and the session channel's [`SidMonitor`] reuses
//! its completed energies ([`SidMonitor::push_block_shared`]), which is
//! bit-identical because each correlator's energies depend only on the
//! last `2·sps − 1` samples, and both saw the same ones. The monitor
//! runs its own correlator only during the first `2·sps − 1` samples
//! after it or the detector was reset (a silent advance, the end of a
//! jam, a retune). While the shield transmits, the
//! half-duplex receiver hears nothing: the detector takes
//! [`StreamingDetector::push_silence`], exactly a block of zeros, and the
//! monitor advances silently.

use crate::fullduplex::{CouplingConfig, FullDuplex};
use crate::jamsignal::JamSignal;
use hb_channel::geometry::Placement;
use hb_channel::medium::{AntennaId, Medium, Tick};
use hb_channel::sim::Node;
use hb_crypto::session::{SecureSession, SessionError};
use hb_dsp::complex::{mean_power, C64};
use hb_dsp::units::{db_from_ratio, ratio_from_db};
use hb_imd::commands::{Command, Response};
use hb_mics::timing::ReplyTiming;
use hb_phy::fsk::{FskModem, FskParams};
use hb_phy::packet::{identifying_sequence, Frame, FrameType, Serial};
use hb_phy::stream::{DetectorEvent, SidMonitor, StreamingDetector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// Turn-around time model: how long after a jammed signal ends the shield
/// keeps transmitting (Table 2 measures 270 ± 23 µs for the software
/// prototype; §11 estimates tens of µs for a hardware implementation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TurnaroundProfile {
    /// GNU Radio / USRP software pipeline: 270 ± 23 µs.
    Software,
    /// Dedicated hardware: 10 ± 2 µs.
    Hardware,
    /// Custom Gaussian profile.
    Custom {
        /// Mean, seconds.
        mean_s: f64,
        /// Standard deviation, seconds.
        std_s: f64,
    },
}

impl TurnaroundProfile {
    /// Draws one turn-around delay in seconds (clamped non-negative).
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (mean, std) = match *self {
            TurnaroundProfile::Software => (270e-6, 23e-6),
            TurnaroundProfile::Hardware => (10e-6, 2e-6),
            TurnaroundProfile::Custom { mean_s, std_s } => (mean_s, std_s),
        };
        (mean + hb_dsp::noise::standard_normal(rng) * std).max(0.0)
    }
}

/// Why the shield is jamming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JamReason {
    /// Covering the IMD's reply window (confidentiality, §6).
    Passive,
    /// Countering a detected unauthorized transmission (§7).
    Active,
    /// A signal appeared concurrent with the shield's own transmission.
    Concurrent,
}

/// Entries in the shield's event log.
#[derive(Debug, Clone, PartialEq)]
pub enum ShieldEventKind {
    /// The protected device's `Sid` was observed on a channel.
    SidDetected {
        /// MICS channel index.
        channel: usize,
        /// RSSI over the matched window, dBm.
        rssi_dbm: f64,
    },
    /// Jamming started on a channel.
    JamStart {
        /// MICS channel index.
        channel: usize,
        /// Trigger.
        reason: JamReason,
    },
    /// Jamming ended on a channel.
    JamEnd {
        /// MICS channel index.
        channel: usize,
    },
    /// High-powered adversarial transmission: patient-facing alarm (§7(d)).
    Alarm {
        /// RSSI that tripped the alarm, dBm.
        rssi_dbm: f64,
        /// Channel it was observed on.
        channel: usize,
    },
    /// Signal detected concurrent with the shield's own transmission.
    ConcurrentSignal {
        /// Measured excess power, dBm.
        rssi_dbm: f64,
    },
    /// An IMD frame was decoded (while jamming, via the antidote).
    ImdFrameDecoded {
        /// Whether the CRC verified.
        crc_ok: bool,
    },
    /// A relayed command was transmitted to the IMD.
    CommandSent,
    /// Channels were (re-)estimated; the resulting cancellation depth.
    ChannelEstimated {
        /// Cancellation G, dB.
        cancellation_db: f64,
    },
}

/// A timestamped shield event.
#[derive(Debug, Clone, PartialEq)]
pub struct ShieldEvent {
    /// Sample tick.
    pub tick: Tick,
    /// What happened.
    pub kind: ShieldEventKind,
}

/// A timed shield outage: the shield's transmit chain is silenced inside
/// the windows (jamming, relays, antidotes), while its receive chain —
/// detection, decoding, jam bookkeeping — keeps running. Models a fault
/// (battery brown-out, firmware watchdog, accidental unplug) in the one
/// device the paper's security argument leans on; the resilience
/// experiments quantify the exposure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSchedule {
    /// First window start, seconds.
    pub start_s: f64,
    /// Window length, seconds.
    pub len_s: f64,
    /// Repetition period, seconds (`0` means one-shot).
    pub period_s: f64,
}

impl OutageSchedule {
    /// True when `t_s` falls inside an outage window.
    pub fn contains(&self, t_s: f64) -> bool {
        if self.len_s <= 0.0 || t_s < self.start_s {
            return false;
        }
        let dt = t_s - self.start_s;
        let phase = if self.period_s > 0.0 {
            dt % self.period_s
        } else {
            dt
        };
        phase < self.len_s
    }
}

/// Aggregate counters for experiments.
#[derive(Debug, Clone, Default)]
pub struct ShieldStats {
    /// IMD frames decoded with a valid CRC (while jamming).
    pub imd_frames_ok: u64,
    /// Detected frames with CRC failures on the session channel.
    pub imd_frames_crc_fail: u64,
    /// `Sid` detections (potential unauthorized commands).
    pub sid_detections: u64,
    /// Active jamming engagements.
    pub active_jam_events: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Commands relayed to the IMD.
    pub commands_sent: u64,
    /// Cancellation depth per estimation pass, dB (Fig. 7 data).
    pub cancellation_db: Vec<f64>,
    /// Measured turn-around times, seconds (Table 2 data): jam-off delay
    /// after the jammed channel went idle.
    pub turnaround_s: Vec<f64>,
    /// Blocks spent silenced by an [`OutageSchedule`] window.
    pub outage_blocks: u64,
    /// Silenced blocks in which the shield *wanted* to jam (a passive
    /// reply window or an active engagement was due) but could not — the
    /// confidentiality/integrity exposure window of an outage.
    pub outage_exposed_blocks: u64,
    /// Fail-safe re-locks: outage windows that ended with jamming still
    /// due, where emission resumed on the first unsilenced block.
    pub outage_relocks: u64,
}

/// Shield configuration. Defaults reproduce the paper's settings.
#[derive(Debug, Clone)]
pub struct ShieldConfig {
    /// Serial of the protected IMD (defines `Sid`).
    pub protected_serial: Serial,
    /// FSK air interface shared with the IMD.
    pub fsk: FskParams,
    /// The session channel the IMD is locked to.
    pub session_channel: usize,
    /// Number of MICS channels the wideband monitor watches (§7(c)).
    pub monitored_channels: usize,
    /// Passive jamming power margin over the received IMD power, dB
    /// (+20 dB per §10.1(b)).
    pub jam_margin_db: f64,
    /// Active jamming transmit power, dBm (FCC limit per §7(d)).
    pub active_jam_power_dbm: f64,
    /// Power of the shield's own relayed command transmissions, dBm.
    pub command_tx_power_dbm: f64,
    /// Sid match tolerance in bits (`bthresh`, calibrated to 4 in §10.1(c)).
    pub bthresh: usize,
    /// Alarm threshold: adversarial RSSI at the shield that may defeat
    /// jamming, dBm. Calibrated per the Table 1 procedure (minimum
    /// successful adversarial RSSI minus a guard band) — for this
    /// testbed's geometry that lands near −36 dBm; the paper's absolute
    /// −14.5 dBm reflects its different near-field coupling (DESIGN.md).
    pub pthresh_dbm: f64,
    /// Channel-estimation accuracy, dB: the mean antidote cancellation
    /// equals this value (see `FullDuplex::estimate`).
    pub est_snr_db: f64,
    /// Probe/re-estimation interval, seconds (200 ms in the prototype).
    pub probe_interval_s: f64,
    /// Turn-around time model.
    pub turnaround: TurnaroundProfile,
    /// Antenna couplings.
    pub coupling: CouplingConfig,
    /// The protected IMD's reply timing (T1/T2/P).
    pub reply: ReplyTiming,
    /// Initial estimate of the IMD's received power at the shield, dBm
    /// (updated adaptively from decoded frames).
    pub expected_imd_rx_dbm: f64,
    /// FFT size for jam shaping.
    pub fft_size: usize,
    /// Margin above the expected jam residual for the busy/idle decision
    /// while actively jamming, dB.
    pub idle_margin_db: f64,
    /// Squelch threshold for the wideband monitor, dBm: channels below
    /// this level are not demodulated.
    pub squelch_dbm: f64,
    /// Pre-shared key for the programmer channel.
    pub session_key: [u8; 32],
    /// Timed transmit-chain outages (fault injection). `None` — the
    /// default — leaves the shield's behavior bit-identical to the
    /// outage-free engine.
    pub outage: Option<OutageSchedule>,
}

impl ShieldConfig {
    /// Paper-faithful defaults for a given protected device and channel.
    pub fn paper_defaults(protected_serial: Serial, session_channel: usize) -> Self {
        ShieldConfig {
            protected_serial,
            fsk: FskParams::mics_default(),
            session_channel,
            monitored_channels: hb_mics::N_CHANNELS,
            jam_margin_db: 20.0,
            active_jam_power_dbm: hb_mics::fcc_eirp_limit_dbm(),
            command_tx_power_dbm: hb_mics::fcc_eirp_limit_dbm(),
            bthresh: 4,
            pthresh_dbm: -39.0,
            est_snr_db: 32.0,
            probe_interval_s: 0.2,
            turnaround: TurnaroundProfile::Software,
            coupling: CouplingConfig::usrp2_prototype(),
            reply: ReplyTiming::medtronic_measured(),
            expected_imd_rx_dbm: -85.0,
            fft_size: 256,
            idle_margin_db: 8.0,
            squelch_dbm: -95.0,
            session_key: [0x42; 32],
            outage: None,
        }
    }
}

/// An in-flight transmission of the shield's own (relayed command).
struct OwnTx {
    samples: Vec<C64>,
    start_tick: Tick,
    channel: usize,
}

/// Per-channel active jamming state.
struct ActiveJam {
    /// When set, jamming stops at this tick (idle + turn-around).
    until: Option<Tick>,
    /// Tick at which the channel was last seen busy.
    last_busy: Tick,
    /// Whether the trigger exceeded Pthresh (schedules a protective
    /// passive window on exit, §7(d)).
    high_power: bool,
}

/// The shield. Implements [`Node`]; see the module docs.
pub struct Shield {
    cfg: ShieldConfig,
    jam_ant: AntennaId,
    rx_ant: AntennaId,
    fd: FullDuplex,
    jam: JamSignal,
    modem: FskModem,
    frame_detector: StreamingDetector,
    sid_monitors: Vec<SidMonitor>,
    session: SecureSession,
    own_tx: Option<OwnTx>,
    /// Passive jam window on the session channel: (start, end).
    passive_window: Option<(Tick, Tick)>,
    /// Active jams by channel. Ordered map: iteration order drives jam
    /// emission and turn-around RNG draws, so it must be deterministic
    /// across runs (a `HashMap`'s randomized order would leak into the
    /// simulation's RNG stream whenever two channels are jammed at once).
    active: BTreeMap<usize, ActiveJam>,
    next_probe_tick: Tick,
    imd_rx_dbm: f64,
    pending_commands: VecDeque<Command>,
    decoded_responses: Vec<Response>,
    sealed_responses: Vec<Vec<u8>>,
    /// Pooled scratch: one block of jamming waveform.
    scratch_jam: Vec<C64>,
    /// Pooled scratch: the matching antidote block.
    scratch_antidote: Vec<C64>,
    /// Pooled scratch: this block's (channel, jam power) emissions.
    scratch_jam_channels: Vec<(usize, f64)>,
    /// Whether the previous block was silenced by an outage window (for
    /// the fail-safe re-lock accounting).
    was_silenced: bool,
    rng: StdRng,
    /// Aggregate counters.
    pub stats: ShieldStats,
    /// Timestamped event log.
    pub events: Vec<ShieldEvent>,
}

impl Shield {
    /// Installs a shield into the medium at `position`: registers its two
    /// antennas (2 cm apart — no wavelength-scale separation needed, the
    /// point of §5), wires up the self-loop and cross couplings, and runs
    /// an initial channel estimation.
    ///
    /// Call *before* `medium.build_links` so the wired couplings are
    /// preserved.
    pub fn install(
        cfg: ShieldConfig,
        medium: &mut Medium,
        position: (f64, f64),
        seed: u64,
    ) -> Shield {
        let mut rng = StdRng::seed_from_u64(seed);
        let jam_ant = medium.add_antenna(Placement::los("shield-jam", position.0, position.1));
        let rx_ant = medium.add_antenna(Placement::los("shield-rx", position.0 + 0.02, position.1));
        let (h_self, h_jam_rec) = cfg.coupling.draw_gains(&mut rng);
        medium.set_gain(rx_ant, rx_ant, h_self);
        medium.set_gain(jam_ant, rx_ant, h_jam_rec);

        let mut fd = FullDuplex::new(h_self, h_jam_rec);
        fd.estimate(cfg.est_snr_db, &mut rng);

        let sid = identifying_sequence(cfg.protected_serial);
        let sid_monitors = (0..cfg.monitored_channels)
            .map(|_| SidMonitor::new(cfg.fsk, sid.clone(), cfg.bthresh))
            .collect();

        let mut stats = ShieldStats::default();
        stats.cancellation_db.push(fd.cancellation_db());

        let imd_rx_dbm = cfg.expected_imd_rx_dbm;
        let probe_interval = cfg.probe_interval_s;
        Shield {
            jam: JamSignal::shaped_for_fsk(cfg.fsk, cfg.fft_size),
            modem: FskModem::new(cfg.fsk),
            frame_detector: StreamingDetector::new(cfg.fsk, 4),
            sid_monitors,
            session: SecureSession::shield_side(cfg.session_key),
            own_tx: None,
            passive_window: None,
            active: BTreeMap::new(),
            next_probe_tick: (probe_interval * cfg.fsk.fs_hz) as Tick,
            imd_rx_dbm,
            pending_commands: VecDeque::new(),
            decoded_responses: Vec::new(),
            sealed_responses: Vec::new(),
            scratch_jam: Vec::new(),
            scratch_antidote: Vec::new(),
            scratch_jam_channels: Vec::new(),
            was_silenced: false,
            rng,
            stats,
            events: Vec::new(),
            fd,
            cfg,
            jam_ant,
            rx_ant,
        }
    }

    /// The shield's configuration.
    pub fn config(&self) -> &ShieldConfig {
        &self.cfg
    }

    /// The jamming antenna id.
    pub fn jam_antenna(&self) -> AntennaId {
        self.jam_ant
    }

    /// The receive antenna id.
    pub fn rx_antenna(&self) -> AntennaId {
        self.rx_ant
    }

    /// The full-duplex engine (for inspection in experiments).
    pub fn full_duplex(&self) -> &FullDuplex {
        &self.fd
    }

    /// The wideband monitor's Sid monitors, one per monitored channel (for
    /// inspection: [`SidMonitor::is_idle`] tells which hold live state).
    pub fn sid_monitors(&self) -> &[SidMonitor] {
        &self.sid_monitors
    }

    /// The jamming waveform generator (for inspection).
    pub fn jammer(&self) -> &JamSignal {
        &self.jam
    }

    /// Replaces the jamming waveform generator (ablation experiments swap
    /// in a flat-profile jammer here).
    pub fn set_jammer(&mut self, jam: JamSignal) {
        self.jam = jam;
    }

    /// Queues a command for relay to the IMD (trusted-path entry used by
    /// experiments; the authenticated path is
    /// [`Shield::relay_sealed_command`]).
    pub fn queue_command(&mut self, cmd: Command) {
        self.pending_commands.push_back(cmd);
    }

    /// Accepts an encrypted command frame from the programmer, verifies
    /// and queues it.
    pub fn relay_sealed_command(&mut self, sealed: &[u8]) -> Result<(), SessionError> {
        let plain = self.session.open_frame(sealed)?;
        let cmd = Command::from_payload(&plain).ok_or(SessionError::Malformed)?;
        self.pending_commands.push_back(cmd);
        Ok(())
    }

    /// Commands queued for relay but not yet on the air (ARQ drivers use
    /// this to avoid stacking a retransmission behind a copy that has not
    /// even started).
    pub fn pending_commands(&self) -> usize {
        self.pending_commands.len()
    }

    /// Drains decoded IMD responses (plaintext, for experiments).
    pub fn take_responses(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.decoded_responses)
    }

    /// Drains sealed (encrypted) response frames for the programmer.
    pub fn take_sealed_responses(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.sealed_responses)
    }

    /// True while the shield is jamming `channel` inside the passive
    /// reply window of its own relayed exchange — protocol-intrinsic
    /// energy a session supervisor must not mistake for interference
    /// (unlike an *active* engagement, which is triggered by foreign
    /// energy and is exactly the interference signal worth reacting to).
    pub fn passive_jamming_on(&self, channel: usize, tick: Tick) -> bool {
        channel == self.cfg.session_channel
            && self
                .passive_window
                .map(|(s, e)| tick >= s && tick < e)
                .unwrap_or(false)
    }

    /// True while a relayed command transmission is in flight.
    pub fn transmitting(&self) -> bool {
        self.own_tx.is_some()
    }

    /// True when `tick` falls inside a configured outage window.
    pub fn in_outage(&self, tick: Tick) -> bool {
        self.cfg
            .outage
            .map(|o| o.contains(tick as f64 / self.cfg.fsk.fs_hz))
            .unwrap_or(false)
    }

    /// Moves the protected session to a new MICS channel (the §2 rescan
    /// outcome, driven by the scenario's session-recovery layer). Clears
    /// the session-channel detector state and any pending passive window;
    /// the detector clocks keep running, so timing stays consistent.
    pub fn retune(&mut self, channel: usize, tick: Tick) {
        if channel == self.cfg.session_channel {
            return;
        }
        if self.passive_window.take().is_some() {
            self.log(
                tick,
                ShieldEventKind::JamEnd {
                    channel: self.cfg.session_channel,
                },
            );
        }
        self.own_tx = None;
        self.frame_detector.reset();
        self.sid_monitors[self.cfg.session_channel].reset();
        self.cfg.session_channel = channel;
    }

    fn log(&mut self, tick: Tick, kind: ShieldEventKind) {
        self.events.push(ShieldEvent { tick, kind });
    }

    /// Passive jam transmit power: places the jamming signal
    /// `jam_margin_db` above the received IMD power *at the shield's own
    /// receive antenna*, referred back through the estimated jam→receive
    /// coupling.
    fn passive_jam_tx_dbm(&self) -> f64 {
        let coupling_db = db_from_ratio(self.fd.h_jam_rec_est().norm_sq());
        (self.imd_rx_dbm + self.cfg.jam_margin_db - coupling_db).min(self.cfg.active_jam_power_dbm)
        // never exceed the FCC limit
    }

    /// Expected residual self-interference while jamming at `tx_dbm`, as
    /// observed at the receive chain (used for busy/idle decisions).
    fn expected_residual_dbm(&self, tx_dbm: f64) -> f64 {
        let residual_coupling_db = db_from_ratio(self.fd.residual_coupling().norm_sq().max(1e-30));
        tx_dbm + residual_coupling_db
    }

    /// Starts (or refreshes) active jamming on `channel`.
    fn engage_active_jam(
        &mut self,
        channel: usize,
        tick: Tick,
        high_power: bool,
        reason: JamReason,
    ) {
        if let Some(entry) = self.active.get_mut(&channel) {
            entry.until = None;
            entry.last_busy = tick;
            entry.high_power |= high_power;
            return;
        }
        // Fresh engagement: per §5, estimate the channels immediately
        // before jamming (the estimates also set the busy/idle threshold).
        self.fd.estimate(self.cfg.est_snr_db, &mut self.rng);
        let g = self.fd.cancellation_db();
        self.stats.cancellation_db.push(g);
        self.active.insert(
            channel,
            ActiveJam {
                until: None,
                last_busy: tick,
                high_power,
            },
        );
        self.stats.active_jam_events += 1;
        self.log(tick, ShieldEventKind::JamStart { channel, reason });
    }

    /// Raises the alarm for a signal of `rssi_dbm` on `channel` if it
    /// reaches `pthresh_dbm`; returns whether it did.
    fn alarm_if_high(&mut self, tick: Tick, channel: usize, rssi_dbm: f64) -> bool {
        let high = rssi_dbm >= self.cfg.pthresh_dbm;
        if high {
            self.stats.alarms += 1;
            self.log(tick, ShieldEventKind::Alarm { rssi_dbm, channel });
        }
        high
    }

    /// A `Sid` detection on `channel`: counts and logs it, raises the
    /// alarm if it is loud enough, and jams the channel.
    fn on_sid_detection(&mut self, tick: Tick, channel: usize, mean_power: f64) {
        let rssi_dbm = db_from_ratio(mean_power.max(1e-30));
        self.stats.sid_detections += 1;
        self.log(tick, ShieldEventKind::SidDetected { channel, rssi_dbm });
        let high = self.alarm_if_high(tick, channel, rssi_dbm);
        self.engage_active_jam(channel, tick, high, JamReason::Active);
    }

    /// Handles one decoded event from the session-channel frame detector.
    fn on_session_frame(&mut self, event: DetectorEvent, tick: Tick) {
        let DetectorEvent::FrameDone {
            result, mean_power, ..
        } = event
        else {
            return;
        };
        match result {
            Ok(frame) => {
                if frame.serial == self.cfg.protected_serial
                    && frame.frame_type == FrameType::Response
                {
                    self.stats.imd_frames_ok += 1;
                    self.log(tick, ShieldEventKind::ImdFrameDecoded { crc_ok: true });
                    // Adapt the IMD power estimate (slow EMA).
                    if mean_power > 0.0 {
                        let dbm = db_from_ratio(mean_power);
                        self.imd_rx_dbm = 0.9 * self.imd_rx_dbm + 0.1 * dbm;
                    }
                    if let Some(resp) = Response::from_payload(&frame.payload) {
                        let sealed = self.session.seal_frame(&resp.to_payload());
                        self.sealed_responses.push(sealed);
                        self.decoded_responses.push(resp);
                    }
                }
            }
            Err(_) => {
                self.stats.imd_frames_crc_fail += 1;
                self.log(tick, ShieldEventKind::ImdFrameDecoded { crc_ok: false });
            }
        }
    }
}

impl Node for Shield {
    fn label(&self) -> &str {
        "shield"
    }

    fn produce(&mut self, medium: &mut Medium) {
        let tick = medium.tick();
        let block_len = medium.config().block_len;

        // Timed outage: the transmit chain is down this block. Everything
        // below still runs its bookkeeping (own-tx offsets advance, jam
        // windows open and expire) so recovery resumes mid-schedule; only
        // the emissions — and the RNG draws that exist solely to shape
        // them — are suppressed. Without a configured outage this is
        // always false and the path is bit-identical to the outage-free
        // engine.
        let silenced = self.in_outage(tick);
        if silenced {
            self.stats.outage_blocks += 1;
        }

        // Periodic channel (re-)estimation — §5's 200 ms probe cycle. Skip
        // while transmitting or jamming (the paper also estimates
        // immediately before each jam; our estimates stay fresh enough at
        // the probe cadence).
        let in_passive_window = self
            .passive_window
            .map(|(s, e)| tick >= s && tick < e)
            .unwrap_or(false);
        let busy = self.own_tx.is_some() || in_passive_window || !self.active.is_empty();
        if tick >= self.next_probe_tick && !busy && !silenced {
            self.fd.estimate(self.cfg.est_snr_db, &mut self.rng);
            let g = self.fd.cancellation_db();
            self.stats.cancellation_db.push(g);
            self.log(
                tick,
                ShieldEventKind::ChannelEstimated { cancellation_db: g },
            );
            self.next_probe_tick = tick + (self.cfg.probe_interval_s * self.cfg.fsk.fs_hz) as Tick;
        }

        // Start a pending relayed command if the air is ours (and the
        // transmit chain is up). Active jams on *other* channels don't
        // gate the relay: emission is per-channel, and a session moved
        // away from a persistently jammed channel must still be usable
        // while the engagement there winds down.
        let relay_busy = self.own_tx.is_some()
            || in_passive_window
            || self.active.contains_key(&self.cfg.session_channel);
        if !relay_busy && !silenced {
            if let Some(cmd) = self.pending_commands.pop_front() {
                let frame = Frame::new(
                    self.cfg.protected_serial,
                    FrameType::Command,
                    (self.stats.commands_sent & 0xFF) as u8,
                    cmd.to_payload(),
                );
                let mut wave = self.modem.modulate(&frame.to_bits());
                let amp = ratio_from_db(self.cfg.command_tx_power_dbm).sqrt();
                for s in wave.iter_mut() {
                    *s = s.scale(amp);
                }
                self.own_tx = Some(OwnTx {
                    samples: wave,
                    start_tick: tick,
                    channel: self.cfg.session_channel,
                });
                self.stats.commands_sent += 1;
                self.log(tick, ShieldEventKind::CommandSent);
            }
        }

        // Emit this block's slice of our own transmission (plus antidote).
        // During an outage the offset still advances but nothing airs —
        // the frame goes out with a hole and fails CRC at the IMD, a
        // degraded outcome the ARQ layer sees as a timeout.
        let mut completed_tx: Option<(Tick, usize)> = None;
        if let Some(own) = &self.own_tx {
            let offset = (tick - own.start_tick) as usize;
            let end = (offset + block_len).min(own.samples.len());
            let slice = &own.samples[offset..end];
            if !silenced {
                medium.transmit(self.jam_ant, own.channel, slice);
                self.fd.antidote_into(slice, &mut self.scratch_antidote);
                medium.transmit(self.rx_ant, own.channel, &self.scratch_antidote);
            }
            if end == own.samples.len() {
                let end_tick = own.start_tick + own.samples.len() as Tick;
                completed_tx = Some((end_tick, own.channel));
            }
        }
        if let Some((end_tick, channel)) = completed_tx {
            // Transmission complete: schedule the passive jam window over
            // the IMD's reply: [end+T1, end+T1+(T2−T1)+P] (§6). Per §5,
            // the shield re-estimates its channels immediately before
            // jamming.
            self.own_tx = None;
            self.fd.estimate(self.cfg.est_snr_db, &mut self.rng);
            let g = self.fd.cancellation_db();
            self.stats.cancellation_db.push(g);
            self.log(
                tick,
                ShieldEventKind::ChannelEstimated { cancellation_db: g },
            );
            let t1 = (self.cfg.reply.t1_s * self.cfg.fsk.fs_hz) as Tick;
            let window = (self.cfg.reply.jam_window_s() * self.cfg.fsk.fs_hz) as Tick;
            self.passive_window = Some((end_tick + t1, end_tick + t1 + window));
            self.log(
                end_tick + t1,
                ShieldEventKind::JamStart {
                    channel,
                    reason: JamReason::Passive,
                },
            );
        }

        // Jam emission: passive window (session channel) and active jams.
        let mut jam_channels = std::mem::take(&mut self.scratch_jam_channels);
        jam_channels.clear();
        if let Some((s, e)) = self.passive_window {
            if tick >= s && tick < e {
                jam_channels.push((self.cfg.session_channel, self.passive_jam_tx_dbm()));
            } else if tick >= e {
                self.passive_window = None;
                self.log(
                    tick,
                    ShieldEventKind::JamEnd {
                        channel: self.cfg.session_channel,
                    },
                );
            }
        }
        for (&ch, _) in self.active.iter() {
            match jam_channels.iter_mut().find(|(c, _)| *c == ch) {
                Some(entry) => entry.1 = entry.1.max(self.cfg.active_jam_power_dbm),
                None => jam_channels.push((ch, self.cfg.active_jam_power_dbm)),
            }
        }
        if silenced {
            // Exposure accounting: jamming was due but the transmit chain
            // is down — the IMD's reply (or the adversary's frame) is on
            // the air unjammed for these blocks.
            if !jam_channels.is_empty() {
                self.stats.outage_exposed_blocks += 1;
            }
        } else {
            // Fail-safe re-lock: the outage just ended with jamming still
            // due — emission resumes this very block.
            if self.was_silenced && !jam_channels.is_empty() {
                self.stats.outage_relocks += 1;
            }
            for &(ch, power_dbm) in &jam_channels {
                self.jam.set_power_dbm(power_dbm);
                self.scratch_jam.resize(block_len, C64::ZERO);
                self.jam
                    .next_samples_into(&mut self.rng, &mut self.scratch_jam);
                self.fd
                    .antidote_into(&self.scratch_jam, &mut self.scratch_antidote);
                medium.transmit(self.rx_ant, ch, &self.scratch_antidote);
                medium.transmit(self.jam_ant, ch, &self.scratch_jam);
            }
        }
        self.was_silenced = silenced;
        self.scratch_jam_channels = jam_channels;
    }

    fn consume(&mut self, medium: &mut Medium) {
        let tick = medium.tick();
        let block_len = medium.config().block_len as u64;

        // --- Session channel ---
        let rx = medium.receive_view(self.rx_ant, self.cfg.session_channel);

        if let Some(own_channel) = self.own_tx.as_ref().map(|o| o.channel) {
            // Guarding our own transmission: anything loud concurrent with
            // it means an adversary is trying to overwrite our message.
            let expected = self.expected_residual_dbm(self.cfg.command_tx_power_dbm);
            let measured = db_from_ratio(mean_power(rx).max(1e-30));
            let threshold = expected.max(self.cfg.squelch_dbm) + self.cfg.idle_margin_db;
            if measured > threshold {
                self.own_tx = None; // abort: switch from transmission to jamming
                self.log(
                    tick,
                    ShieldEventKind::ConcurrentSignal { rssi_dbm: measured },
                );
                let high = self.alarm_if_high(tick, own_channel, measured);
                self.engage_active_jam(own_channel, tick, high, JamReason::Concurrent);
            }
            // Keep detector clocks aligned while transmitting.
            self.frame_detector.push_silence(block_len as usize);
            self.sid_monitors[self.cfg.session_channel].advance_silent(block_len);
        } else {
            // Decode IMD traffic (works while jamming, thanks to the
            // antidote).
            for e in self.frame_detector.push_block(rx) {
                self.on_session_frame(e, tick);
            }
            // Sid monitoring on the session channel — but not inside the
            // passive window, where the only Sid-bearing signal is the
            // IMD's own (already-jammed) reply. The monitor reuses the
            // frame detector's energies for these samples.
            let in_passive = self
                .passive_window
                .map(|(s, e)| tick >= s && tick < e)
                .unwrap_or(false);
            let rx = medium.receive_view(self.rx_ant, self.cfg.session_channel);
            let monitor = &mut self.sid_monitors[self.cfg.session_channel];
            if in_passive {
                monitor.advance_silent(block_len);
            } else if let Some(det) =
                monitor.push_block_shared(rx, self.frame_detector.block_energies())
            {
                self.on_sid_detection(tick, self.cfg.session_channel, det.mean_power);
            }
        }

        // --- Wideband monitor over the other channels (§7(c)) ---
        // A channel we are jamming is watched by the maintenance pass
        // below; elsewhere the squelch decides once per block, and only an
        // open squelch reads the samples.
        let squelch_power = ratio_from_db(self.cfg.squelch_dbm);
        for ch in 0..self.cfg.monitored_channels {
            if ch == self.cfg.session_channel {
                continue;
            }
            let squelch_open = !self.active.contains_key(&ch)
                && medium.squelch_open(self.rx_ant, ch, squelch_power);
            if squelch_open {
                let rx_c = medium.receive_view(self.rx_ant, ch);
                if let Some(det) = self.sid_monitors[ch].push_block(rx_c) {
                    self.on_sid_detection(tick, ch, det.mean_power);
                }
            } else {
                self.sid_monitors[ch].advance_silent(block_len);
            }
        }

        // --- Active jam maintenance: jam until the signal stops, then a
        //     turn-around delay (§7, Table 2) ---
        let mut finished: Vec<usize> = Vec::new();
        let channels: Vec<usize> = self.active.keys().copied().collect();
        for ch in channels {
            let level = db_from_ratio(medium.receive_power(self.rx_ant, ch).max(1e-30));
            let busy_threshold = self
                .expected_residual_dbm(self.cfg.active_jam_power_dbm)
                .max(self.cfg.squelch_dbm)
                + self.cfg.idle_margin_db;
            let idle_needs_deadline = {
                let entry = self.active.get(&ch).unwrap();
                level <= busy_threshold && entry.until.is_none()
            };
            let delay = if idle_needs_deadline {
                Some((self.cfg.turnaround.draw(&mut self.rng) * self.cfg.fsk.fs_hz) as Tick)
            } else {
                None
            };
            let entry = self.active.get_mut(&ch).unwrap();
            if level > busy_threshold {
                // The signal was alive somewhere in this block; reference
                // the turn-around clock to the block's end so quantization
                // does not inflate the measurement.
                entry.last_busy = tick + block_len;
                entry.until = None;
            } else if let Some(d) = delay {
                entry.until = Some(tick + d);
            }
            if let Some(until) = entry.until {
                if tick >= until {
                    finished.push(ch);
                }
            }
        }
        for ch in finished {
            let entry = self.active.remove(&ch).unwrap();
            self.log(tick, ShieldEventKind::JamEnd { channel: ch });
            self.stats
                .turnaround_s
                .push(tick.saturating_sub(entry.last_busy) as f64 / self.cfg.fsk.fs_hz);
            self.sid_monitors[ch].reset();
            // A high-powered message may have reached the IMD despite
            // jamming: cover the potential reply with a passive window
            // (§7(d)).
            if entry.high_power && ch == self.cfg.session_channel {
                let t1 = (self.cfg.reply.t1_s * self.cfg.fsk.fs_hz) as Tick;
                let window = (self.cfg.reply.jam_window_s() * self.cfg.fsk.fs_hz) as Tick;
                self.passive_window = Some((tick + t1, tick + t1 + window));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_channel::medium::MediumConfig;
    use hb_phy::packet::Serial;

    #[test]
    fn shields_of_one_air_interface_share_a_jam_generator() {
        let mut medium = Medium::new(MediumConfig::default(), 1);
        let install = |medium: &mut Medium, serial: &str, channel, x| {
            let cfg = ShieldConfig::paper_defaults(Serial::from_str_padded(serial), channel);
            Shield::install(cfg, medium, (x, 0.0), 7)
        };
        let a = install(&mut medium, "BED01", 0, 0.0);
        let mut b = install(&mut medium, "BED02", 3, 2.0);
        assert!(a.jammer().shares_generator(b.jammer()));
        b.set_jammer(JamSignal::flat(b.config().fft_size));
        assert!(!a.jammer().shares_generator(b.jammer()));
    }

    #[test]
    fn outage_schedule_windows() {
        let one_shot = OutageSchedule {
            start_s: 0.010,
            len_s: 0.005,
            period_s: 0.0,
        };
        assert!(!one_shot.contains(0.0));
        assert!(!one_shot.contains(0.0099));
        assert!(one_shot.contains(0.010));
        assert!(one_shot.contains(0.0149));
        assert!(!one_shot.contains(0.0151));
        assert!(!one_shot.contains(1.0));

        let periodic = OutageSchedule {
            start_s: 0.010,
            len_s: 0.005,
            period_s: 0.050,
        };
        assert!(periodic.contains(0.012));
        assert!(!periodic.contains(0.020));
        assert!(periodic.contains(0.062));
        assert!(!periodic.contains(0.070));

        let disabled = OutageSchedule {
            start_s: 0.0,
            len_s: 0.0,
            period_s: 0.0,
        };
        assert!(!disabled.contains(0.0));
        assert!(!disabled.contains(5.0));
    }
}
