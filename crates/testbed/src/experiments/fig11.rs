//! Figure 11: the battery-depletion attack — probability that an
//! unauthorized command elicits an IMD reply, by location, with the shield
//! absent vs present.
//!
//! §10.3(a): the adversary uses a commercial IMD programmer (FCC-compliant
//! power) and replays recorded commands. Paper: without the shield the
//! attack succeeds out to 14 m (location 8, success 0.59, with locations
//! 6–7 at 0.94/0.77); with the shield it fails everywhere, even at 20 cm.

use crate::attack::{self, Attack, AttackGoal, AttackOutcome, FIRE_TICK};
use crate::report::{Artifact, Series};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::AttackerConfig;
use hb_channel::geometry::Placement;

use super::Effort;

/// Runs one attack attempt from numbered location `location` and reports
/// the outcome.
///
/// A fresh scenario is built per attempt (fresh shadowing), which is what
/// turns marginal locations into fractional success probabilities.
pub fn attack_once(
    location: usize,
    shield_on: bool,
    attacker_cfg: &AttackerConfig,
    goal: AttackGoal,
    seed: u64,
) -> AttackOutcome {
    let placement = attack::at_location(location);
    attack_once_at(placement, shield_on, attacker_cfg, goal, seed)
}

/// [`attack_once`] from an arbitrary placement — the mobile-adversary
/// sweep walks the attacker through positions that are not numbered
/// Fig. 6 locations. One forgery of the goal's command at
/// [`FIRE_TICK`]; 90 ms covers the command (~20 ms), the reply window
/// and the jam tails.
pub fn attack_once_at(
    placement: Placement,
    shield_on: bool,
    attacker_cfg: &AttackerConfig,
    goal: AttackGoal,
    seed: u64,
) -> AttackOutcome {
    let cfg = ScenarioConfig {
        shield_enabled: shield_on,
        ..ScenarioConfig::pooled(seed)
    };
    let forgery = [(FIRE_TICK, goal.command())];
    let scenario =
        Attack::new(attacker_cfg, placement, &forgery, 0.090).run(ScenarioBuilder::new(cfg));
    AttackOutcome::of(goal, &scenario)
}

/// Success probability over `attempts` fresh scenarios.
pub fn success_probability(
    location: usize,
    shield_on: bool,
    attacker_cfg: &AttackerConfig,
    goal: AttackGoal,
    attempts: usize,
    seed: u64,
) -> f64 {
    let mut successes = 0usize;
    for a in 0..attempts {
        let s = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add((location * 1000 + a) as u64);
        if attack_once(location, shield_on, attacker_cfg, goal, s).success {
            successes += 1;
        }
    }
    successes as f64 / attempts as f64
}

/// Adaptive success-probability estimate on `workers` workers: one
/// attack attempt per trial, grown in deterministic rounds until the
/// Wilson interval reaches the effort's half-width target — capped at the
/// effort's attempt budget, so the degenerate arms (success ≈ 0 or ≈ 1,
/// whose intervals tighten slowly) cost no more than the fixed-sample
/// sweep. Location sweeps fan out across locations and run each arm
/// single-worker.
pub fn success_probability_ci_with(
    workers: usize,
    location: usize,
    shield_on: bool,
    attacker_cfg: &AttackerConfig,
    goal: AttackGoal,
    effort: &super::Effort,
    seed: u64,
) -> crate::montecarlo::Estimate {
    let cfg = crate::montecarlo::McConfig::from_effort(effort)
        .with_max_trials(effort.attempts_per_location);
    crate::montecarlo::adaptive_proportion_with(workers, &cfg, seed, |s| {
        (
            attack_once(location, shield_on, attacker_cfg, goal, s).success as u64,
            1,
        )
    })
}

/// Result of the Fig. 11 experiment.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// (location, P[IMD replies]) with the shield absent.
    pub absent: Vec<(usize, f64)>,
    /// Same with the shield present.
    pub present: Vec<(usize, f64)>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Runs locations 1..=14 (as in the paper's figure), both arms. Locations
/// fan out on the sweep runner; per-attempt seeds are derived from
/// `(seed, location, attempt)` inside `success_probability`, so results
/// are identical at any thread count.
pub fn run(effort: Effort, seed: u64) -> Fig11Result {
    let cfg = AttackerConfig::commercial_programmer();
    let arms: Vec<(f64, f64)> = crate::parallel::parallel_map_n(14, |i| {
        let arm = |shield_on: bool, seed: u64| {
            let goal = AttackGoal::ElicitReply;
            success_probability(
                i + 1,
                shield_on,
                &cfg,
                goal,
                effort.attempts_per_location,
                seed,
            )
        };
        (arm(false, seed), arm(true, seed ^ 0xABCD))
    });
    let mut absent = Vec::new();
    let mut present = Vec::new();
    for (i, &(off, on)) in arms.iter().enumerate() {
        absent.push((i + 1, off));
        present.push((i + 1, on));
    }
    let mut artifact = Artifact::new(
        "Figure 11",
        "P(IMD replies to unauthorized command) by location — battery-depletion attack at FCC power",
    );
    artifact.push_series(Series::new(
        "shield absent",
        absent.iter().map(|&(l, p)| (l as f64, p)).collect(),
    ));
    artifact.push_series(Series::new(
        "shield present",
        present.iter().map(|&(l, p)| (l as f64, p)).collect(),
    ));
    let max_present = present.iter().map(|&(_, p)| p).fold(0.0, f64::max);
    let range_absent = absent.iter().filter(|&&(_, p)| p > 0.5).count();
    artifact.note(format!(
        "shield absent: success at {range_absent} of 14 locations (paper: 8, up to 14 m); \
         shield present: max success {max_present:.2} (paper: 0 everywhere)"
    ));
    Fig11Result {
        absent,
        present,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct Fig11Experiment;

impl crate::experiments::registry::Experiment for Fig11Experiment {
    fn name(&self) -> &'static str {
        "fig11"
    }
    fn reproduces(&self) -> &'static str {
        "Fig. 11 — battery-depletion attack success probability"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_attack_succeeds_without_shield_and_fails_with() {
        let cfg = AttackerConfig::commercial_programmer();
        let off = attack_once(1, false, &cfg, AttackGoal::ElicitReply, 1);
        assert!(off.success, "20 cm attack must succeed with no shield");
        let mut on_successes = 0;
        for s in 0..3 {
            let on = attack_once(1, true, &cfg, AttackGoal::ElicitReply, 100 + s);
            assert!(on.jammed, "shield must engage jamming");
            if on.success {
                on_successes += 1;
            }
        }
        assert_eq!(on_successes, 0, "shield must block the FCC-power attack");
    }

    #[test]
    fn far_attack_fails_even_without_shield() {
        let cfg = AttackerConfig::commercial_programmer();
        let far = attack_once(18, false, &cfg, AttackGoal::ElicitReply, 5);
        assert!(!far.success, "30 m NLOS attack at FCC power must fail");
    }
}
