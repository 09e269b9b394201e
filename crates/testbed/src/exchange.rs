//! The exchange driver: one block loop for every legitimate command
//! exchange, whoever carries it.
//!
//! Every experiment drives the same step of the paper: a command goes to
//! the implant and its reply comes back — over the shield's relay, over
//! the shield with link-layer ARQ and live session recovery, or over
//! whichever [`Defense`](crate::defense::Defense) stands in for the
//! shield. [`run_exchange`] is that step. An [`ExchangeDriver`] is a
//! medium [`Node`] (its own radio, if it has one, produces and consumes
//! after every other node) plus an observe-point hook that runs after
//! every node has consumed and before the block ends — the one window
//! where this block's receive view is readable without disturbing the
//! medium's sample streams.
//!
//! Two drivers live here, both over the shield:
//!
//! * [`ShieldRelay`] queues the command on the shield and drains the
//!   decoded replies; [`relay_one_exchange`](crate::experiments::relay_one_exchange)
//!   is this driver over a 60 ms window.
//! * [`ArqDriver`] runs an [`ArqTracker`] (reply timeout → deterministic
//!   backoff → bounded retries) and, alongside it, a [`SessionNegotiator`]
//!   fed with per-block levels at the shield's receive antenna. Persistent
//!   interference trips the negotiator into a rescan; when
//!   listen-before-talk clears a fresh channel, the driver retunes the
//!   shield *and* the implant onto it and carries the exchange to
//!   completion there.
//!
//! Drivers add no RNG of their own, and receiver noise is keyed per
//! (antenna, channel, block), so a driver's reads cannot perturb the
//! devices' views: runs are bit-reproducible for a given scenario seed and
//! fault plan.

use crate::scenario::Scenario;
use hb_channel::medium::{AntennaId, Medium};
use hb_channel::sim::Node;
use hb_dsp::units::db_from_ratio;
use hb_imd::arq::{ArqAction, ArqConfig, ArqTracker};
use hb_imd::commands::Command;
use hb_imd::device::ImdDevice;
use hb_mics::band::MicsChannel;
use hb_mics::session::{SessionConfig, SessionNegotiator, SessionState};
use hb_shield::shield::Shield;

/// Why an exchange could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The driver relays through the shield, and the scenario has none.
    NoShield,
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::NoShield => write!(f, "scenario has no shield to relay through"),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// Counters reported by an exchange driver. Fields a driver has no use
/// for stay zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Legitimate commands put on the air.
    pub commands_sent: u64,
    /// Authenticated (where claimed) replies delivered back.
    pub replies_delivered: u64,
    /// Session handshakes completed (fence-style defenses).
    pub handshakes_completed: u64,
    /// Wake tokens transmitted (wake-up-radio defenses).
    pub wake_tokens_sent: u64,
    /// Blocks simulated.
    pub blocks_run: u64,
    /// ARQ transmission attempts budgeted (1 on a clean exchange).
    pub attempts: u32,
    /// ARQ reply timeouts ridden out.
    pub timeouts: u32,
    /// Session-channel changes forced by persistent interference.
    pub channel_moves: u64,
    /// Full band-busy scans that had to be restarted.
    pub band_busy_rescans: u64,
    /// The implant's channel when the exchange ended.
    pub final_channel: usize,
}

/// Outcome of one exchange.
#[derive(Debug, Clone)]
pub struct ExchangeReport {
    /// Did a legitimate reply come back (authenticated, where claimed)?
    pub delivered: bool,
    /// Driver counters.
    pub stats: ExchangeStats,
}

/// Drives one legitimate exchange from inside the block loop.
pub trait ExchangeDriver: Node {
    /// Called once before the first block with the command to deliver.
    fn begin(&mut self, scenario: &mut Scenario, cmd: Command) -> Result<(), ExchangeError>;
    /// Called at the observe point of every block. Returns `true` once
    /// the exchange is over; the loop then ends after this block.
    fn observe(&mut self, scenario: &mut Scenario) -> bool;
    /// Driver counters. [`run_exchange`] fills in `blocks_run` and
    /// `final_channel`.
    fn stats(&self) -> ExchangeStats;
}

/// Runs one exchange of `cmd` under `driver`, with `extra` nodes sharing
/// the medium, for `seconds` of simulated time or until the driver
/// reports the exchange over, whichever comes first.
///
/// Each block is [`Scenario::run_block_with`]'s sequence with the driver
/// as the last node and its [`observe`](ExchangeDriver::observe) as the
/// observe hook, so a driver whose node and hook leave the medium alone
/// ([`ShieldRelay`]) is bit-identical to
/// [`Scenario::run_blocks`] over the same window. Fixed-window drivers
/// never report early and run exactly
/// [`blocks_for_duration(seconds)`](Medium::blocks_for_duration) blocks;
/// [`ArqDriver`] bounds itself, so its callers pass `f64::INFINITY`.
///
/// A reply counts as delivered when the driver's `replies_delivered` is
/// non-zero.
pub fn run_exchange(
    scenario: &mut Scenario,
    extra: &mut [&mut dyn Node],
    driver: &mut dyn ExchangeDriver,
    cmd: Command,
    seconds: f64,
) -> Result<ExchangeReport, ExchangeError> {
    driver.begin(scenario, cmd)?;
    let budget = scenario.medium.blocks_for_duration(seconds);
    let mut blocks = 0;
    while blocks < budget {
        scenario.device_phases(extra, Some(&mut *driver));
        let finished = driver.observe(scenario);
        scenario.medium.end_block();
        blocks += 1;
        if finished {
            break;
        }
    }
    let mut stats = driver.stats();
    stats.blocks_run = blocks;
    stats.final_channel = scenario.channel();
    Ok(ExchangeReport {
        delivered: stats.replies_delivered > 0,
        stats,
    })
}

/// Listen-before-talk: feeds `negotiator` this block's mean level at
/// `antenna` on `channel` — unless the energy there is our own side's
/// (`own_tx`) or the implant's reply.
pub(crate) fn listen(
    negotiator: &mut SessionNegotiator,
    medium: &mut Medium,
    imd: &ImdDevice,
    antenna: AntennaId,
    channel: usize,
    own_tx: bool,
) {
    if own_tx || imd.transmitting(medium.tick()) {
        return;
    }
    let block_s = medium.config().block_len as f64 / medium.config().fs_hz;
    negotiator.observe(
        db_from_ratio(medium.receive_power(antenna, channel)),
        block_s,
    );
}

fn shield_of(scenario: &mut Scenario, bed: usize) -> Result<&mut Shield, ExchangeError> {
    scenario.bed_mut(bed).1.ok_or(ExchangeError::NoShield)
}

/// The paper's relay: the command goes to the shield's queue, and every
/// reply the shield decodes counts as delivered. Its node and hook never
/// touch the medium.
///
/// [`Default`] relays through the protected patient's shield (bed 0);
/// [`for_bed`](Self::for_bed) through any bed's (see [`Scenario::bed`]).
#[derive(Debug, Default)]
pub struct ShieldRelay {
    bed: usize,
    stats: ExchangeStats,
}

impl ShieldRelay {
    /// A relay through bed `bed`'s shield.
    pub fn for_bed(bed: usize) -> Self {
        ShieldRelay {
            bed,
            ..ShieldRelay::default()
        }
    }
}

impl Node for ShieldRelay {
    fn label(&self) -> &str {
        "shield-relay"
    }
    fn produce(&mut self, _medium: &mut Medium) {}
    fn consume(&mut self, _medium: &mut Medium) {}
}

impl ExchangeDriver for ShieldRelay {
    fn begin(&mut self, scenario: &mut Scenario, cmd: Command) -> Result<(), ExchangeError> {
        shield_of(scenario, self.bed)?.queue_command(cmd);
        self.stats.commands_sent += 1;
        Ok(())
    }

    fn observe(&mut self, scenario: &mut Scenario) -> bool {
        if let (_, Some(shield)) = scenario.bed_mut(self.bed) {
            self.stats.replies_delivered += shield.take_responses().len() as u64;
        }
        false
    }

    fn stats(&self) -> ExchangeStats {
        self.stats.clone()
    }
}

/// Link-layer ARQ over the shield's relay, with live session recovery.
///
/// Per block, at the observe point and in order: the negotiator observes
/// the shield-side level on its channel (skipped while the shield or the
/// implant is transmitting or the shield is jamming its own reply window —
/// their energy is not interference; an *active* engagement is
/// foreign-triggered and is observed); when it re-establishes on a
/// different channel, shield and implant are retuned onto it; a decoded
/// reply completes the tracker; and the tracker is polled for the next
/// block — a `Transmit` queues the command on the shield unless a copy is
/// already pending or on the air. The poll is pure over ticks, so running
/// it here at `tick + block_len` is the same as running it before the
/// next block's devices.
///
/// The exchange ends when the tracker reports delivery or an exhausted
/// retry budget; the budget in [`ArqConfig`] bounds the run.
#[derive(Debug)]
pub struct ArqDriver {
    arq: ArqTracker,
    negotiator: SessionNegotiator,
    cmd: Command,
    stats: ExchangeStats,
}

impl ArqDriver {
    /// A driver for one exchange under `arq`, with the default session
    /// configuration.
    pub fn new(arq: ArqConfig) -> Self {
        ArqDriver {
            arq: ArqTracker::new(arq),
            // Re-anchored on the scenario's session channel by `begin`.
            negotiator: SessionNegotiator::established_on(SessionConfig::default(), MicsChannel(0)),
            cmd: Command::Interrogate,
            stats: ExchangeStats::default(),
        }
    }

    /// Polls the tracker at `tick` and acts on it. Returns `true` once the
    /// exchange is over.
    ///
    /// The tracker is polled every block so the retry budget keeps burning
    /// even while the session is down — an exchange that cannot find a
    /// usable channel must *fail*, not spin. The command itself is only
    /// queued while a session channel is held (a retransmission into a
    /// rescan would be wasted heat); a budgeted attempt with nothing on
    /// the air simply times out.
    fn poll(&mut self, shield: &mut Shield, tick: u64) -> bool {
        match self.arq.poll(tick) {
            ArqAction::Transmit { .. } => {
                if self.negotiator.established()
                    && shield.pending_commands() == 0
                    && !shield.transmitting()
                {
                    shield.queue_command(self.cmd);
                    self.stats.commands_sent += 1;
                }
                false
            }
            ArqAction::Wait => false,
            ArqAction::Done | ArqAction::Failed => true,
        }
    }
}

impl Node for ArqDriver {
    fn label(&self) -> &str {
        "arq"
    }
    fn produce(&mut self, _medium: &mut Medium) {}
    fn consume(&mut self, _medium: &mut Medium) {}
}

impl ExchangeDriver for ArqDriver {
    fn begin(&mut self, scenario: &mut Scenario, cmd: Command) -> Result<(), ExchangeError> {
        self.cmd = cmd;
        self.negotiator = SessionNegotiator::established_on(
            SessionConfig::default(),
            MicsChannel(scenario.channel()),
        );
        let tick = scenario.medium.tick();
        self.poll(shield_of(scenario, 0)?, tick);
        Ok(())
    }

    fn observe(&mut self, s: &mut Scenario) -> bool {
        let tick = s.medium.tick();
        let block_len = s.medium.config().block_len as u64;
        let Some(shield) = s.shield.as_mut() else {
            return true;
        };
        match self.negotiator.current_channel() {
            Some(ch) => {
                let own_tx = shield.transmitting() || shield.passive_jamming_on(ch.0, tick);
                listen(
                    &mut self.negotiator,
                    &mut s.medium,
                    &s.imd,
                    shield.rx_antenna(),
                    ch.0,
                    own_tx,
                );
            }
            None => {
                // Whole band busy: keep rescanning until something frees up.
                self.stats.band_busy_rescans += 1;
                self.negotiator.rescan();
            }
        }
        if let SessionState::Established { channel, .. } = *self.negotiator.state() {
            if channel.0 != s.imd.config().channel {
                shield.retune(channel.0, tick);
                s.imd.retune(channel.0);
            }
        }
        let replies = shield.take_responses().len() as u64;
        if replies > 0 {
            self.stats.replies_delivered += replies;
            self.arq.on_delivered();
        }
        self.poll(shield, tick + block_len)
    }

    fn stats(&self) -> ExchangeStats {
        ExchangeStats {
            attempts: self.arq.stats.attempts,
            timeouts: self.arq.stats.timeouts,
            channel_moves: self.negotiator.interference_moves,
            ..self.stats.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioBuilder, ScenarioConfig};
    use hb_channel::fault::FaultPlan;

    fn arq_report(cfg: ScenarioConfig, arq: ArqConfig) -> Result<ExchangeReport, ExchangeError> {
        let mut s = ScenarioBuilder::new(cfg).build();
        run_exchange(
            &mut s,
            &mut [],
            &mut ArqDriver::new(arq),
            Command::Interrogate,
            f64::INFINITY,
        )
    }

    #[test]
    fn clean_channel_delivers_first_try() {
        let report = arq_report(ScenarioConfig::paper(41), ArqConfig::default()).unwrap();
        assert!(report.delivered, "clean exchange must deliver");
        assert_eq!(report.stats.attempts, 1);
        assert_eq!(report.stats.timeouts, 0);
        assert_eq!(report.stats.channel_moves, 0);
        assert_eq!(report.stats.final_channel, 0);
    }

    #[test]
    fn no_shield_is_an_error_not_a_panic() {
        let drivers: [&mut dyn ExchangeDriver; 2] = [
            &mut ShieldRelay::default(),
            &mut ArqDriver::new(ArqConfig::default()),
        ];
        for driver in drivers {
            let mut s = ScenarioBuilder::new(ScenarioConfig::paper_no_shield(41)).build();
            let err =
                run_exchange(&mut s, &mut [], driver, Command::Interrogate, 0.060).unwrap_err();
            assert_eq!(err, ExchangeError::NoShield);
            assert!(err.to_string().contains("no shield"));
            assert_eq!(s.medium.tick(), 0, "no block may run");
        }
    }

    #[test]
    fn storm_on_session_channel_forces_move_and_delivery() {
        // A permanent impulse-noise storm parked on channel 0 (and only
        // channel 0): the negotiator must abandon it, LBT must clear a
        // quiet channel, and the exchange must complete there.
        let mut cfg = ScenarioConfig::paper(43);
        cfg.fault = FaultPlan {
            storm_start_prob: 1.0,
            storm_len_blocks: u32::MAX,
            storm_power_dbm: -60.0,
            storm_channel_mask: 1, // channel 0 only
            ..FaultPlan::none()
        };
        let report = arq_report(cfg, ArqConfig::default()).unwrap();
        assert!(
            report.delivered,
            "exchange must recover onto a clean channel"
        );
        let stats = report.stats;
        assert!(
            stats.channel_moves >= 1,
            "storm must force a channel change"
        );
        assert_ne!(
            stats.final_channel, 0,
            "must not finish on the stormy channel"
        );
        assert!(
            stats.timeouts >= 1,
            "the storm must cost at least one attempt"
        );
    }

    #[test]
    fn retry_budget_bounds_the_run() {
        // Storm over the whole band: nothing to move to, every attempt
        // times out, and the driver must end undelivered rather than loop
        // forever.
        let mut cfg = ScenarioConfig::paper(47);
        cfg.fault = FaultPlan {
            storm_start_prob: 1.0,
            storm_len_blocks: u32::MAX,
            storm_power_dbm: -50.0,
            storm_channel_mask: u16::MAX,
            ..FaultPlan::none()
        };
        let arq = ArqConfig {
            max_retries: 2,
            ..ArqConfig::default()
        };
        let report = arq_report(cfg, arq).unwrap();
        assert!(!report.delivered);
        assert_eq!(report.stats.attempts, 3);
    }
}
