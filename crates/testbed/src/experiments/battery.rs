//! Extension experiment: quantifying the battery-depletion attack.
//!
//! Figs. 11/13 report whether a forced reply *happens*; this experiment
//! puts numbers on what the paper's motivation says is at stake —
//! "commands … to trigger the IMD to transmit unnecessarily, depleting
//! its battery" (§3.2). We measure the radio energy a sustained
//! interrogation attack burns and convert it to days of device lifetime,
//! with and without the shield.

use crate::attack::{self, Attack, FIRE_TICK};
use crate::parallel;
use crate::report::{Artifact, Series};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::AttackerConfig;
use hb_channel::medium::Tick;
use hb_imd::commands::Command;

use super::Effort;

/// Result of the battery-attack quantification.
#[derive(Debug, Clone)]
pub struct BatteryResult {
    /// Radio energy per elicited reply, joules.
    pub energy_per_reply_j: f64,
    /// Replies per simulated second of sustained attack, shield absent.
    pub replies_per_s_absent: f64,
    /// Same with the shield present (should be ~0).
    pub replies_per_s_present: f64,
    /// Projected lifetime lost per day of sustained attack, in days,
    /// shield absent.
    pub lifetime_lost_days_per_day: f64,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Sustains an interrogation attack for `seconds` of simulated time and
/// counts elicited replies plus radio energy burned.
fn sustained_attack(shield_on: bool, seconds: f64, seed: u64) -> (u64, f64) {
    let cfg = ScenarioConfig {
        shield_enabled: shield_on,
        ..ScenarioConfig::paper(seed)
    };
    // One interrogation every 60 ms — as fast as command + reply allow.
    let period = attack::ticks_after(0.060);
    let n = (seconds / 0.060).ceil() as u64;
    let forgeries: Vec<(Tick, Command)> = (0..n)
        .map(|i| (FIRE_TICK + i * period, Command::Interrogate))
        .collect();
    let attacker = AttackerConfig::commercial_programmer();
    let scenario = Attack::new(
        &attacker,
        attack::at_location(2),
        &forgeries,
        seconds + 0.06,
    )
    .run(ScenarioBuilder::new(cfg));
    (
        scenario.imd.stats.responses_sent,
        scenario.imd.battery().radio_energy_j(),
    )
}

/// Runs the quantification.
pub fn run(effort: Effort, seed: u64) -> BatteryResult {
    let seconds = (effort.attempts_per_location as f64 * 0.12).max(0.5);
    let arms = [(false, seed), (true, seed ^ 0x77)];
    let runs = parallel::parallel_map(&arms, |_, &(shield_on, s)| {
        sustained_attack(shield_on, seconds, s)
    });
    let ((replies_absent, energy_absent), (replies_present, _)) = (runs[0], runs[1]);

    let energy_per_reply = if replies_absent > 0 {
        energy_absent / replies_absent as f64
    } else {
        0.0
    };
    let replies_per_s_absent = replies_absent as f64 / seconds;
    let replies_per_s_present = replies_present as f64 / seconds;

    // A day of sustained attack vs the battery's baseline budget.
    let battery = hb_imd::battery::Battery::typical_icd();
    let joules_per_day = replies_per_s_absent * energy_per_reply * 86_400.0;
    let baseline_life_s = battery.remaining_lifetime_s();
    let lost_fraction = joules_per_day / 20_000.0; // capacity
    let lifetime_lost_days = lost_fraction * baseline_life_s / 86_400.0;

    let mut artifact = Artifact::new(
        "Extension: battery depletion",
        "Radio energy and lifetime cost of a sustained interrogation attack",
    );
    artifact.push_series(Series::new(
        "replies/s (0 = shield absent, 1 = present)",
        vec![(0.0, replies_per_s_absent), (1.0, replies_per_s_present)],
    ));
    artifact.note(format!(
        "{:.1} forced replies/s without the shield ({:.2} mJ radio energy each); \
         a day of sustained attack burns ~{:.0} days of device lifetime",
        replies_per_s_absent,
        energy_per_reply * 1e3,
        lifetime_lost_days,
    ));
    artifact.note(format!(
        "with the shield: {replies_per_s_present:.2} replies/s — the attack is starved"
    ));
    BatteryResult {
        energy_per_reply_j: energy_per_reply,
        replies_per_s_absent,
        replies_per_s_present,
        lifetime_lost_days_per_day: lifetime_lost_days,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct BatteryExperiment;

impl crate::experiments::registry::Experiment for BatteryExperiment {
    fn name(&self) -> &'static str {
        "battery"
    }
    fn reproduces(&self) -> &'static str {
        "Extension — quantified battery-depletion attack"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shield_starves_the_depletion_attack() {
        let r = run(Effort::tiny(), 3);
        assert!(
            r.replies_per_s_absent > 5.0,
            "sustained attack should force many replies ({}/s)",
            r.replies_per_s_absent
        );
        assert_eq!(
            r.replies_per_s_present, 0.0,
            "shield must prevent forced replies"
        );
        assert!(r.energy_per_reply_j > 0.0);
        assert!(r.lifetime_lost_days_per_day > 1.0);
    }
}
