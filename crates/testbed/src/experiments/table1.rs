//! Table 1: calibrating `Pthresh` — the adversarial RSSI at the shield
//! that elicits an IMD response despite jamming.
//!
//! §10.1(c): fix the adversary at location 1, sweep its transmit power,
//! and record the RSSI at the shield's receive antenna for every attempt
//! that succeeded in triggering the IMD. The alarm threshold is then set
//! 3 dB below the minimum successful RSSI. Paper values: min −11.1 dBm,
//! average −4.5 dBm, σ 3.5 dBm (absolute values depend on the testbed's
//! near-field coupling; ours differ by a fixed offset — see DESIGN.md —
//! while the procedure and the min/avg/σ structure reproduce).

use crate::attack::{self, Attack, FIRE_TICK};
use crate::parallel;
use crate::report::{stat_table, Artifact, Series};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::AttackerConfig;
use hb_dsp::stats::RunningStats;
use hb_dsp::units::db_from_ratio;
use hb_imd::commands::Command;
use hb_phy::fsk::FskParams;

use super::Effort;

/// Result of the Table 1 calibration.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// RSSI (dBm, at the shield) of every successful trigger.
    pub successful_rssi_dbm: Vec<f64>,
    /// Minimum successful RSSI (Pthresh before the 3 dB guard).
    pub min_dbm: f64,
    /// Mean successful RSSI.
    pub avg_dbm: f64,
    /// Standard deviation.
    pub std_dbm: f64,
    /// The recommended alarm threshold: min − 3 dB.
    pub recommended_pthresh_dbm: f64,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// One attempt at a given adversary power; returns `Some(rssi at shield)`
/// if the IMD responded despite jamming.
pub fn attempt(tx_power_dbm: f64, seed: u64) -> Option<f64> {
    let attacker = AttackerConfig {
        tx_power_dbm,
        fsk: FskParams::mics_default(),
    };
    let forgery = [(FIRE_TICK, Command::Interrogate)];
    let scenario = Attack::new(&attacker, attack::at_location(1), &forgery, 0.090)
        .run(ScenarioBuilder::new(ScenarioConfig::paper(seed)));

    if scenario.imd.stats.responses_sent > 0 {
        // Ground-truth RSSI at the shield's receive antenna from the
        // attacker's, which the attack adds last.
        let atk_ant = scenario.medium.antenna_count() - 1;
        let shield = scenario.shield.as_ref().unwrap();
        let gain = scenario.medium.gain(atk_ant, shield.rx_antenna());
        Some(tx_power_dbm + db_from_ratio(gain.norm_sq()))
    } else {
        None
    }
}

/// Runs the power sweep.
pub fn run(effort: Effort, seed: u64) -> Table1Result {
    // Sweep from below the success threshold to well above it: every
    // (power, rep) attempt with its seed, in sweep order.
    let reps = (effort.runs / 20).max(2);
    let mut attempts = Vec::new();
    let mut p = -12.0;
    while p <= 14.0 {
        for r in 0..reps {
            let s = seed.wrapping_add((p * 10.0) as i64 as u64 ^ (r as u64) << 33);
            attempts.push((p, s));
        }
        p += 2.0;
    }
    let rssi: Vec<f64> = parallel::parallel_map(&attempts, |_, &(p, s)| attempt(p, s))
        .into_iter()
        .flatten()
        .collect();
    let mut stats = RunningStats::new();
    for &v in &rssi {
        stats.push(v);
    }
    let (min, avg, std) = if stats.count() > 0 {
        (stats.min(), stats.mean(), stats.std_dev())
    } else {
        (f64::NAN, f64::NAN, f64::NAN)
    };
    let mut artifact = Artifact::new(
        "Table 1",
        "Pthresh: adversarial RSSI at the shield that elicits IMD responses despite jamming",
    );
    artifact.push_series(Series::new(
        "successful-trigger RSSI (dBm), in sweep order",
        rssi.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect(),
    ));
    artifact.note(stat_table(
        "Adversary RSSI that elicits IMD response:",
        &[
            ("Minimum (dBm)", min),
            ("Average (dBm)", avg),
            ("Std deviation (dB)", std),
        ],
    ));
    artifact.note(format!(
        "paper: min -11.1 / avg -4.5 / std 3.5 dBm; Pthresh set 3 dB below min -> {:.1} dBm",
        min - 3.0
    ));
    Table1Result {
        successful_rssi_dbm: rssi,
        min_dbm: min,
        avg_dbm: avg,
        std_dbm: std,
        recommended_pthresh_dbm: min - 3.0,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct Table1Experiment;

impl crate::experiments::registry::Experiment for Table1Experiment {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn reproduces(&self) -> &'static str {
        "Table 1 — Pthresh calibration"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_adversary_fails_strong_succeeds() {
        // Well below the threshold: jamming wins.
        assert!(attempt(-20.0, 3).is_none());
        // Far above it: capture at the IMD despite jamming.
        let rssi = attempt(10.0, 3);
        assert!(rssi.is_some(), "a +10 dBm adversary at 20 cm must win");
        // RSSI at shield ≈ tx − 27 dB near-field floor.
        let v = rssi.unwrap();
        assert!((v - (10.0 - 27.0)).abs() < 4.0, "rssi {v}");
    }
}
