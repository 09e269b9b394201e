//! Extension scenario: a **mobile adversary** walking a path through the
//! Fig. 6 layout.
//!
//! The paper's Figs. 11–13 sample 18 fixed locations; a realistic
//! adversary *moves* — entering through the far non-line-of-sight corner,
//! crossing the room, and ending at the paper's 20 cm near position. This
//! sweep samples that walk at uniform waypoints and, at each, measures
//! the battery-depletion attack (commercial-programmer power, as in
//! Fig. 11) with the shield absent and present, plus how often the shield
//! engages active jamming — i.e. where along the walk the attack starts
//! landing and where the shield starts reacting.
//!
//! This module is registry-only: every waypoint attack is Fig. 11's
//! attempt ([`fig11::attack_once_at`], one [`crate::attack::Attack`])
//! from an interpolated placement — no bespoke runner machinery.

use crate::attack::AttackGoal;
use crate::report::{Artifact, Series};
use hb_adversary::active::AttackerConfig;
use hb_channel::geometry::Placement;

use super::fig11;
use super::registry::{EvalCtx, Experiment};
use super::Effort;

/// Number of waypoints sampled along the walk.
pub const WAYPOINTS: usize = 10;

/// One waypoint of the walk.
#[derive(Debug, Clone, Copy)]
pub struct Waypoint {
    /// Distance walked from the start of the path, meters.
    pub walked_m: f64,
    /// Position in the room plane, meters.
    pub position_m: (f64, f64),
    /// Whether the spot has line of sight to the patient (the far end of
    /// the walk starts behind the NLOS corner, like locations 14–18).
    pub line_of_sight: bool,
}

impl Waypoint {
    /// Straight-line distance to the patient at the origin.
    pub fn distance_m(&self) -> f64 {
        (self.position_m.0.powi(2) + self.position_m.1.powi(2)).sqrt()
    }

    /// The channel-model placement for this waypoint.
    pub fn placement(&self, label: &str) -> Placement {
        if self.line_of_sight {
            Placement::los(label, self.position_m.0, self.position_m.1)
        } else {
            Placement::nlos(label, self.position_m.0, self.position_m.1)
        }
    }
}

/// The walk: from the NLOS far corner (27 m out, like locations 14–18)
/// diagonally across the room to the 20 cm near position of location 1.
/// Line of sight opens up once the adversary rounds the corner at ~14 m
/// (the Fig. 11 FCC-power range limit, for easy cross-reading).
pub fn path(n: usize) -> Vec<Waypoint> {
    let (x0, y0) = (25.0f64, 10.0f64);
    let (x1, y1) = (0.2f64, 0.0f64);
    let total = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1).max(1) as f64;
            let position_m = (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t);
            let mut w = Waypoint {
                walked_m: total * t,
                position_m,
                line_of_sight: false,
            };
            w.line_of_sight = w.distance_m() < 14.0;
            w
        })
        .collect()
}

/// Result of the mobile-adversary sweep.
#[derive(Debug, Clone)]
pub struct MobileResult {
    /// Per-waypoint rows: (distance to patient m, P\[success\] shield
    /// absent, P\[success\] shield present, P\[shield engages jamming\]).
    pub rows: Vec<(f64, f64, f64, f64)>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Runs the walk. Waypoints fan out on the sweep runner; per-attempt
/// seeds derive from `(seed, waypoint, attempt)` before the fan-out, so
/// the sweep is thread-count-invariant.
pub fn run(effort: Effort, seed: u64) -> MobileResult {
    let cfg = AttackerConfig::commercial_programmer();
    let waypoints = path(WAYPOINTS);
    let rows: Vec<(f64, f64, f64, f64)> = crate::parallel::parallel_map(&waypoints, |w, wp| {
        let attempt = |shield_on: bool, sd: u64| {
            let goal = AttackGoal::ElicitReply;
            fig11::attack_once_at(wp.placement("walker"), shield_on, &cfg, goal, sd)
        };
        let mut s_abs = 0usize;
        let mut s_pres = 0usize;
        let mut jams = 0usize;
        for a in 0..effort.attempts_per_location {
            let sd = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((w * 4096 + a) as u64);
            if attempt(false, sd).success {
                s_abs += 1;
            }
            let on = attempt(true, sd ^ 0xBEEF);
            if on.success {
                s_pres += 1;
            }
            if on.jammed {
                jams += 1;
            }
        }
        let n = effort.attempts_per_location as f64;
        (
            wp.distance_m(),
            s_abs as f64 / n,
            s_pres as f64 / n,
            jams as f64 / n,
        )
    });

    let mut artifact = Artifact::new(
        "Extension: mobile adversary",
        "Battery-depletion attack along a walk from the NLOS far corner to 20 cm",
    );
    artifact.push_series(Series::new(
        "P(success), shield absent, vs distance (m)",
        rows.iter().map(|&(d, p, _, _)| (d, p)).collect(),
    ));
    artifact.push_series(Series::new(
        "P(success), shield present, vs distance (m)",
        rows.iter().map(|&(d, _, p, _)| (d, p)).collect(),
    ));
    artifact.push_series(Series::new(
        "P(shield engages jamming) vs distance (m)",
        rows.iter().map(|&(d, _, _, j)| (d, j)).collect(),
    ));
    // Rows run far -> near, so the first majority-success row is the
    // farthest point of the walk where the attack starts landing.
    let crossover = rows
        .iter()
        .find(|&&(_, p_abs, _, _)| p_abs > 0.5)
        .map(|&(d, _, _, _)| d);
    let max_present = rows.iter().map(|&(_, _, p, _)| p).fold(0.0, f64::max);
    artifact.note(format!(
        "shield absent: the walker's attack starts landing at {} (Fig. 11 puts the FCC-power limit at 14 m)",
        crossover.map_or("no waypoint".to_string(), |d| format!("{d:.1} m")),
    ));
    artifact.note(format!(
        "shield present: max success along the whole walk {max_present:.2} (paper: 0 everywhere)"
    ));
    MobileResult { rows, artifact }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct MobileExperiment;

impl Experiment for MobileExperiment {
    fn name(&self) -> &'static str {
        "mobile-adversary"
    }
    fn reproduces(&self) -> &'static str {
        "Extension — adversary walking a path through the Fig. 6 layout"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_walks_from_nlos_far_to_los_near() {
        let p = path(WAYPOINTS);
        assert_eq!(p.len(), WAYPOINTS);
        assert!(p.first().unwrap().distance_m() > 20.0);
        assert!(!p.first().unwrap().line_of_sight);
        assert!(p.last().unwrap().distance_m() < 0.3);
        assert!(p.last().unwrap().line_of_sight);
        // Monotone approach.
        for pair in p.windows(2) {
            assert!(pair[1].distance_m() < pair[0].distance_m());
        }
    }

    #[test]
    fn walk_endpoints_behave_like_fig11() {
        let cfg = AttackerConfig::commercial_programmer();
        let p = path(WAYPOINTS);
        // At the end of the walk (20 cm): lands without the shield, is
        // jammed with it.
        let near = p.last().unwrap();
        let off = fig11::attack_once_at(
            near.placement("walker"),
            false,
            &cfg,
            AttackGoal::ElicitReply,
            2,
        );
        assert!(off.success, "20 cm attack must succeed with no shield");
        let on = fig11::attack_once_at(
            near.placement("walker"),
            true,
            &cfg,
            AttackGoal::ElicitReply,
            2,
        );
        assert!(!on.success, "shield must block the FCC-power walker");
        assert!(on.jammed, "shield must engage jamming at 20 cm");
        // At the start (27+ m NLOS): fails even without the shield.
        let far = p.first().unwrap();
        let far_off = fig11::attack_once_at(
            far.placement("walker"),
            false,
            &cfg,
            AttackGoal::ElicitReply,
            3,
        );
        assert!(!far_off.success, "28 m NLOS FCC-power attack must fail");
    }
}
