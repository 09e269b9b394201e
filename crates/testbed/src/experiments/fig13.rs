//! Figure 13: the high-powered adversary — success probability with the
//! shield absent/present, and the shield's alarm probability, across all
//! 18 locations.
//!
//! §10.3(b): custom hardware at 100× the shield's power (+20 dB over FCC).
//! Paper: without the shield it succeeds out to 27 m (location 13)
//! including non-line-of-sight; with the shield, only from nearby
//! line-of-sight locations (< 5 m, locations 1–4, with location 5 at 0.1);
//! whenever it succeeds despite the shield, the shield raises an alarm.

use crate::attack::AttackGoal;
use crate::report::{Artifact, Series};
use hb_adversary::active::AttackerConfig;

use super::fig11::attack_once;
use super::Effort;

/// Result of the Fig. 13 experiment.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// (location, P\[success\]) with the shield absent.
    pub absent: Vec<(usize, f64)>,
    /// (location, P\[success\]) with the shield present.
    pub present: Vec<(usize, f64)>,
    /// (location, P\[alarm\]) with the shield present.
    pub alarm: Vec<(usize, f64)>,
    /// Fraction of shield-present successes that also raised an alarm
    /// (the paper's key safety property: 1.0).
    pub alarm_coverage_of_successes: f64,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Runs the 18-location sweep with the 100× attacker.
pub fn run(effort: Effort, seed: u64) -> Fig13Result {
    let cfg = AttackerConfig::high_power_custom();
    // One task per location (both arms, all attempts); per-attempt seeds
    // derive from (seed, location, attempt) alone, so the sweep is
    // thread-count-invariant. Totals aggregate in location order.
    let per_loc: Vec<(usize, usize, usize, usize)> = crate::parallel::parallel_map_n(18, |i| {
        let loc = i + 1;
        let mut s_abs = 0usize;
        let mut s_pres = 0usize;
        let mut s_alarm = 0usize;
        let mut s_alarmed_success = 0usize;
        for a in 0..effort.attempts_per_location {
            let sd = seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add((loc * 4096 + a) as u64);
            if attack_once(loc, false, &cfg, AttackGoal::ChangeTherapy, sd).success {
                s_abs += 1;
            }
            let on = attack_once(loc, true, &cfg, AttackGoal::ChangeTherapy, sd ^ 0xF00D);
            if on.success {
                s_pres += 1;
                if on.alarm {
                    s_alarmed_success += 1;
                }
            }
            if on.alarm {
                s_alarm += 1;
            }
        }
        (s_abs, s_pres, s_alarm, s_alarmed_success)
    });
    let mut absent = Vec::new();
    let mut present = Vec::new();
    let mut alarm = Vec::new();
    let mut successes_with_shield = 0usize;
    let mut alarmed_successes = 0usize;
    for (i, &(s_abs, s_pres, s_alarm, s_alarmed_success)) in per_loc.iter().enumerate() {
        let loc = i + 1;
        let n = effort.attempts_per_location as f64;
        absent.push((loc, s_abs as f64 / n));
        present.push((loc, s_pres as f64 / n));
        alarm.push((loc, s_alarm as f64 / n));
        successes_with_shield += s_pres;
        alarmed_successes += s_alarmed_success;
    }

    let coverage = if successes_with_shield > 0 {
        alarmed_successes as f64 / successes_with_shield as f64
    } else {
        1.0
    };

    let mut artifact = Artifact::new(
        "Figure 13",
        "High-powered (100x) adversary: success probability and shield alarm, by location",
    );
    artifact.push_series(Series::new(
        "IMD responds, shield absent",
        absent.iter().map(|&(l, p)| (l as f64, p)).collect(),
    ));
    artifact.push_series(Series::new(
        "IMD responds, shield present",
        present.iter().map(|&(l, p)| (l as f64, p)).collect(),
    ));
    artifact.push_series(Series::new(
        "shield raises alarm",
        alarm.iter().map(|&(l, p)| (l as f64, p)).collect(),
    ));
    let absent_range = absent.iter().filter(|&&(_, p)| p > 0.5).count();
    let present_range = present.iter().filter(|&&(_, p)| p > 0.5).count();
    artifact.note(format!(
        "shield absent: majority-success at {absent_range} locations (paper: 13, out to 27 m); \
         shield present: {present_range} (paper: 4, all LOS < 5 m)"
    ));
    artifact.note(format!(
        "alarm covered {:.0}% of successful attacks (paper: 100%)",
        coverage * 100.0
    ));
    Fig13Result {
        absent,
        present,
        alarm,
        alarm_coverage_of_successes: coverage,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct Fig13Experiment;

impl crate::experiments::registry::Experiment for Fig13Experiment {
    fn name(&self) -> &'static str {
        "fig13"
    }
    fn reproduces(&self) -> &'static str {
        "Fig. 13 — 100x-power adversary + alarm"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_power_beats_shield_up_close_with_alarm() {
        let cfg = AttackerConfig::high_power_custom();
        let mut wins = 0;
        let mut alarms_on_wins = 0;
        for s in 0..4 {
            let on = attack_once(1, true, &cfg, AttackGoal::ChangeTherapy, 500 + s);
            if on.success {
                wins += 1;
                if on.alarm {
                    alarms_on_wins += 1;
                }
            }
        }
        assert!(
            wins >= 3,
            "100x attacker should usually win at 20 cm ({wins}/4)"
        );
        assert_eq!(alarms_on_wins, wins, "every success must trigger the alarm");
    }

    #[test]
    fn high_power_blocked_at_medium_range_with_shield() {
        let cfg = AttackerConfig::high_power_custom();
        let mut wins = 0;
        for s in 0..3 {
            // Location 7 is 13 m: well past the ~5 m crossover.
            if attack_once(7, true, &cfg, AttackGoal::ChangeTherapy, 900 + s).success {
                wins += 1;
            }
        }
        assert_eq!(wins, 0, "100x attacker must fail at 13 m with shield on");
    }

    #[test]
    fn high_power_reaches_27m_without_shield() {
        let cfg = AttackerConfig::high_power_custom();
        let mut wins = 0;
        for s in 0..3 {
            if attack_once(13, false, &cfg, AttackGoal::ChangeTherapy, 1300 + s).success {
                wins += 1;
            }
        }
        assert!(
            wins >= 2,
            "100x attacker should reach 27 m LOS with no shield ({wins}/3)"
        );
    }
}
