//! Figure 8: the core trade-off — eavesdropper BER (a) and shield packet
//! loss (b) as functions of jamming power relative to the received IMD
//! power.
//!
//! §10.1(b): at +20 dB the eavesdropper's BER reaches ~50% while the
//! shield's PER stays ≤ 0.2% — establishing the operating point used by
//! every other experiment.

use crate::montecarlo::{self, Estimate, McConfig};
use crate::report::{Artifact, Series};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use hb_adversary::eavesdropper::Eavesdropper;

use super::{eavesdrop_exchanges, Effort};

/// Exchanges per adaptive Monte-Carlo trial task. Each trial builds a
/// *fresh* scenario (fresh shadowing/noise draws), so trials are the
/// independent unit the Wilson interval assumes — unlike a long run
/// inside one scenario, whose draws share the same shadowing realization.
const PACKETS_PER_TRIAL: usize = 2;

/// Result of the Fig. 8 sweep.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// (relative jam power dB, eavesdropper BER point estimate).
    pub ber_curve: Vec<(f64, f64)>,
    /// (relative jam power dB, shield PER point estimate).
    pub per_curve: Vec<(f64, f64)>,
    /// (relative jam power dB, eavesdropper BER estimate with CI).
    pub ber_est: Vec<(f64, Estimate)>,
    /// (relative jam power dB, shield PER estimate with CI).
    pub per_est: Vec<(f64, Estimate)>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// One adaptive trial at `margin_db`: a fresh scenario from the derived
/// seed, [`PACKETS_PER_TRIAL`] exchanges, raw counts out —
/// `[(bit_errors, bits), (frames_lost, frames_sent)]` for the engine to
/// pool.
fn margin_trial(margin_db: f64, seed: u64) -> [(u64, u64); 2] {
    let mut cfg = ScenarioConfig::paper(seed);
    cfg.jam_margin_db = Some(margin_db);
    let mut builder = ScenarioBuilder::new(cfg);
    let eve_ant = builder.add_at_location(1, "eavesdropper");
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let tally = eavesdrop_exchanges(&mut scenario, &mut eve, 0, PACKETS_PER_TRIAL);
    let decoded = scenario.shield.as_ref().unwrap().stats.imd_frames_ok;
    let lost = tally.replies.saturating_sub(decoded);
    [(tally.errors, tally.bits), (lost, tally.replies)]
}

/// Runs one margin point adaptively: trials of `PACKETS_PER_TRIAL`
/// exchanges grow in deterministic rounds until both the BER and PER
/// Wilson intervals reach the effort's half-width target (or its trial
/// cap). Returns `(BER estimate, PER estimate)`.
pub fn run_margin_point_ci(margin_db: f64, effort: &Effort, seed: u64) -> (Estimate, Estimate) {
    run_margin_point_ci_with(crate::parallel::threads(), margin_db, effort, seed)
}

/// [`run_margin_point_ci`] with an explicit worker count: [`run`] fans
/// out across margins and runs each point's inner loop single-worker.
pub fn run_margin_point_ci_with(
    workers: usize,
    margin_db: f64,
    effort: &Effort,
    seed: u64,
) -> (Estimate, Estimate) {
    let cfg = McConfig::from_effort(effort);
    let run =
        montecarlo::adaptive_proportions_with(workers, &cfg, seed, |s| margin_trial(margin_db, s));
    (run.estimates[0], run.estimates[1])
}

/// Runs the full sweep of relative jamming powers (0..=25 dB) through the
/// adaptive Monte-Carlo engine. Sweep points fan out in parallel with
/// per-point master seeds derived before the fan-out (each point's
/// adaptive loop then runs single-worker), so results are identical at
/// any thread count.
pub fn run(effort: Effort, seed: u64) -> Fig8Result {
    let margins = [0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0];
    let points = crate::parallel::parallel_map(&margins, |i, &m| {
        run_margin_point_ci_with(1, m, &effort, montecarlo::trial_seed(seed, i as u64))
    });
    let mut ber_est = Vec::new();
    let mut per_est = Vec::new();
    for (&m, &(ber, per)) in margins.iter().zip(points.iter()) {
        ber_est.push((m, ber));
        per_est.push((m, per));
    }
    let ber_curve: Vec<(f64, f64)> = ber_est.iter().map(|&(m, e)| (m, e.mean)).collect();
    let per_curve: Vec<(f64, f64)> = per_est.iter().map(|&(m, e)| (m, e.mean)).collect();

    let mut artifact = Artifact::new(
        "Figure 8",
        "Eavesdropper BER (a) and shield PER (b) vs jamming power relative to the IMD's received power",
    );
    artifact.push_series(Series::from_estimates("(a) BER at the adversary", &ber_est));
    artifact.push_series(Series::from_estimates(
        "(b) packet loss at the shield",
        &per_est,
    ));
    let at20 = ber_est
        .iter()
        .zip(per_est.iter())
        .find(|((m, _), _)| (*m - 20.0).abs() < 0.1);
    if let Some((&(_, ber), &(_, per))) = at20 {
        artifact.note(format!(
            "at +20 dB: adversary BER {:.3} [{:.3}, {:.3}] over {} bits (paper: ~0.5); \
             shield PER {:.4} [{:.4}, {:.4}] over {} frames (paper: 0.002)",
            ber.mean, ber.ci_lo, ber.ci_hi, ber.n, per.mean, per.ci_lo, per.ci_hi, per.n
        ));
    }
    Fig8Result {
        ber_curve,
        per_curve,
        ber_est,
        per_est,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct Fig8Experiment;

impl crate::experiments::registry::Experiment for Fig8Experiment {
    fn name(&self) -> &'static str {
        "fig8"
    }
    fn reproduces(&self) -> &'static str {
        "Fig. 8 — eavesdropper BER / shield PER vs jam power"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_effort(half_width: f64, cap: usize) -> Effort {
        Effort {
            ci_half_width: half_width,
            mc_max_trials: cap,
            ..Effort::tiny()
        }
    }

    /// One end-to-end point at the paper's +20 dB operating point,
    /// through the adaptive engine: the assertion is on the *confidence
    /// interval*, not a small-sample point estimate, so it holds for any
    /// seed (`HB_TEST_SEED` sweeps it in CI). The bounds are the same
    /// ones the old point-estimate test used — CI form strengthens them.
    #[test]
    fn at_20db_adversary_guesses_and_shield_decodes() {
        let (ber, per) =
            run_margin_point_ci(20.0, &test_effort(0.04, 64), super::super::test_seed(7));
        assert!(
            ber.within(0.42, 0.58),
            "eavesdropper BER CI must sit inside 0.5±0.08: {ber:?}"
        );
        assert!(per.below(0.2), "shield PER CI must stay below 0.2: {per:?}");
    }

    #[test]
    fn at_0db_adversary_does_much_better() {
        // The Fig. 8a shape: BER rises monotonically with jamming power and
        // saturates at 0.5 by +20 dB. (Our curve starts higher than the
        // paper's ~0.05 because the shield's body-contact coupling gives
        // the eavesdropper relatively more jamming at equal margin — see
        // EXPERIMENTS.md.) CI form: the intervals themselves must be
        // separated by the old 0.1 point-estimate gap.
        let seed = super::super::test_seed(11);
        let effort = test_effort(0.01, 128);
        let (ber0, _) = run_margin_point_ci(0.0, &effort, seed);
        let (ber20, _) = run_margin_point_ci(20.0, &effort, seed ^ 0x20);
        assert!(
            ber0.ci_hi < ber20.ci_lo - 0.1,
            "BER CI at 0 dB ({ber0:?}) must sit 0.1 below the CI at 20 dB ({ber20:?})"
        );
        assert!(
            ber20.within(0.42, 0.58),
            "BER CI at 20 dB must sit inside 0.5±0.08: {ber20:?}"
        );
    }

    /// Prints high-precision estimates across seeds — run by hand when
    /// recalibrating the bounds above (`cargo test -p hb_testbed
    /// calibrate_fig8 -- --ignored --nocapture`).
    #[test]
    #[ignore = "calibration helper, not a regression test"]
    fn calibrate_fig8() {
        for seed in [1u64, 2, 3] {
            let effort = test_effort(0.01, 512);
            let (ber0, per0) = run_margin_point_ci(0.0, &effort, seed);
            let (ber20, per20) = run_margin_point_ci(20.0, &effort, seed);
            println!("seed {seed}: 0dB ber {ber0:?} per {per0:?}");
            println!("seed {seed}: 20dB ber {ber20:?} per {per20:?}");
        }
    }
}
