//! The forged-command attack: one code path for every active-attack
//! experiment.
//!
//! The paper's active-attack results (§10.3, Figs. 11–13, Table 1) are
//! all one experiment, and the battery, mobile, hospital-floor,
//! resilience and defense-matrix extensions reuse it: a programmer-class
//! radio at some placement forges commands at the implant's serial, and
//! the caller reads whether the implant obeyed, replied, or made the
//! shield raise its alarm. [`Attack`] is that experiment; [`AttackGoal`]
//! and [`AttackOutcome`] name what it tries and what it got.
//!
//! # Wiring order
//!
//! The caller hands over a [`ScenarioBuilder`] that already holds
//! everything else — the shield, extra patients, a defense's own
//! antennas. [`Attack::run`] and [`Attack::run_exchange`] then:
//!
//! 1. add the attacker antenna **last**, and build;
//! 2. queue every forgery at the implant's serial, on the session channel
//!    unless [`Attack::channel`] says otherwise, at its tick offset from
//!    the build tick;
//! 3. run for [`Attack::seconds`], either bare
//!    ([`Scenario::run_seconds`]) or under a legitimate `Interrogate`
//!    exchange ([`run_exchange`] with the caller's driver).
//!
//! The order is what keeps results bit-exact. `build` draws every link's
//! shadowing and phase pair by pair in antenna order from one stream, so
//! an antenna's index fixes which draws each link gets. Every pinned
//! result was captured with the attacker added after all other antennas;
//! adding it anywhere else redraws the whole floor.

use crate::exchange::{run_exchange, ExchangeDriver, ExchangeReport};
use crate::layout::Location;
use crate::scenario::{Scenario, ScenarioBuilder};
use hb_adversary::active::{ActiveAttacker, AttackerConfig};
use hb_channel::geometry::Placement;
use hb_channel::medium::{MediumConfig, Tick};
use hb_channel::sim::Node;
use hb_imd::commands::Command;
use hb_imd::therapy::TherapyParams;

/// What a single attack attempt is trying to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackGoal {
    /// Trigger a reply (depletes the battery; leaks data).
    ElicitReply,
    /// Change therapy parameters.
    ChangeTherapy,
}

impl AttackGoal {
    /// The command forged for this goal.
    pub fn command(self) -> Command {
        match self {
            AttackGoal::ElicitReply => Command::Interrogate,
            AttackGoal::ChangeTherapy => forged_therapy(),
        }
    }
}

/// Outcome of one attack attempt.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackOutcome {
    /// The IMD executed the command / replied.
    pub success: bool,
    /// The shield raised an alarm (always false when absent).
    pub alarm: bool,
    /// The shield engaged active jamming.
    pub jammed: bool,
}

impl AttackOutcome {
    /// Reads the outcome of an attack toward `goal` off its scenario:
    /// success is a reply sent or a therapy changed, as the goal wants.
    pub fn of(goal: AttackGoal, scenario: &Scenario) -> Self {
        let imd = &scenario.imd.stats;
        let (alarm, jammed) = scenario
            .shield
            .as_ref()
            .map(|s| (s.stats.alarms > 0, s.stats.active_jam_events > 0))
            .unwrap_or((false, false));
        AttackOutcome {
            success: match goal {
                AttackGoal::ElicitReply => imd.responses_sent > 0,
                AttackGoal::ChangeTherapy => imd.therapy_changes > 0,
            },
            alarm,
            jammed,
        }
    }
}

/// The forged therapy programming: a dangerous but in-range pacing rate.
pub fn forged_therapy() -> Command {
    let mut p = TherapyParams::nominal();
    p.rate_ppm = 150;
    Command::SetTherapy(p)
}

/// The usual fire offset: four blocks after the build, which gives the
/// shield a little idle time (its probe cycle) before the frame.
pub const FIRE_TICK: Tick = 64;

/// The tick offset of the first block boundary at least `seconds` after
/// the build tick.
pub fn ticks_after(seconds: f64) -> Tick {
    let medium = MediumConfig::default();
    medium.blocks_for_duration(seconds) * medium.block_len as Tick
}

/// The attacker's placement at numbered Fig. 6 location `index`.
pub fn at_location(index: usize) -> Placement {
    Location::paper(index).placement("attacker")
}

/// One forged-command attack: who forges, from where, what, when, and
/// for how long.
pub struct Attack<'a> {
    /// The forging radio.
    pub attacker: &'a AttackerConfig,
    /// Where its antenna stands.
    pub placement: Placement,
    /// The forged frames: (tick offset from the build tick, command).
    pub forgeries: &'a [(Tick, Command)],
    /// The channel the frames go out on; `None` is the session channel.
    pub channel: Option<usize>,
    /// Simulated air time, seconds.
    pub seconds: f64,
}

impl<'a> Attack<'a> {
    /// An attack on the session channel.
    pub fn new(
        attacker: &'a AttackerConfig,
        placement: Placement,
        forgeries: &'a [(Tick, Command)],
        seconds: f64,
    ) -> Self {
        Attack {
            attacker,
            placement,
            forgeries,
            channel: None,
            seconds,
        }
    }

    /// Adds the attacker antenna last, builds, and queues the forgeries.
    fn arm(self, mut builder: ScenarioBuilder) -> (Scenario, ActiveAttacker) {
        let antenna = builder.add_at(self.placement);
        let scenario = builder.build();
        let mut attacker = ActiveAttacker::new(self.attacker.clone(), antenna);
        let serial = scenario.imd.config().serial;
        let channel = self.channel.unwrap_or_else(|| scenario.channel());
        let start = scenario.medium.tick();
        for &(offset, cmd) in self.forgeries {
            attacker.send_forged_command(start + offset, channel, serial, cmd);
        }
        (scenario, attacker)
    }

    /// Runs the attack alone on the air and returns the scenario.
    pub fn run(self, builder: ScenarioBuilder) -> Scenario {
        let seconds = self.seconds;
        let (mut scenario, mut attacker) = self.arm(builder);
        scenario.run_seconds(&mut [&mut attacker as &mut dyn Node], seconds);
        scenario
    }

    /// Runs the attack during a legitimate `Interrogate` exchange under
    /// `driver` and returns the scenario with the exchange's report.
    pub fn run_exchange(
        self,
        builder: ScenarioBuilder,
        driver: &mut dyn ExchangeDriver,
    ) -> (Scenario, ExchangeReport) {
        let seconds = self.seconds;
        let (mut scenario, mut attacker) = self.arm(builder);
        let report = run_exchange(
            &mut scenario,
            &mut [&mut attacker as &mut dyn Node],
            driver,
            Command::Interrogate,
            seconds,
        )
        // Invariant: each defense's `configure` keeps what its driver
        // needs (the shield, for the shield relay).
        .expect("a defended scenario carries its driver's relay path");
        (scenario, report)
    }
}
