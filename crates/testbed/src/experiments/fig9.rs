//! Figure 9: CDF of the eavesdropper's BER over all 18 locations.
//!
//! §10.2: the shield repeatedly triggers the IMD and jams the replies; an
//! eavesdropper at each Fig. 6 location decodes with the optimal FSK
//! decoder. Paper result: BER ≈ 50% at *every* location — the variance of
//! the CDF is low because the adversary's SINR is location-independent
//! (Eq. 7).

use crate::montecarlo::{self, Estimate, McConfig};
use crate::report::{Artifact, Series};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use hb_adversary::eavesdropper::Eavesdropper;
use hb_dsp::stats::Cdf;

use super::{eavesdrop_exchanges, Effort};

/// Exchanges per adaptive trial (fresh scenario per trial — see
/// [`super::fig8`]).
const PACKETS_PER_TRIAL: usize = 2;

/// Result of the Fig. 9 experiment.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Per-location mean BER, indexed by location number.
    pub ber_per_location: Vec<(usize, f64)>,
    /// Per-location BER estimates with confidence intervals.
    pub ber_ci: Vec<(usize, Estimate)>,
    /// The pooled CDF.
    pub cdf: Cdf,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// One adaptive trial at `location`: a fresh scenario from the derived
/// seed (fresh shadowing; IMD model alternates by seed parity, pooling
/// both devices as the paper does), [`PACKETS_PER_TRIAL`] exchanges,
/// `(bit_errors, bits)` out.
fn location_trial(location: usize, seed: u64) -> (u64, u64) {
    let mut builder = ScenarioBuilder::new(ScenarioConfig::pooled(seed));
    let eve_ant = builder.add_at_location(location, "eavesdropper");
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let tally = eavesdrop_exchanges(&mut scenario, &mut eve, 0, PACKETS_PER_TRIAL);
    (tally.errors, tally.bits)
}

/// Adaptive BER estimate at one location: trials grow in deterministic
/// rounds until the Wilson interval reaches the effort's half-width
/// target (or its trial cap).
pub fn ber_at_location_ci(location: usize, effort: &Effort, seed: u64) -> Estimate {
    ber_at_location_ci_with(crate::parallel::threads(), location, effort, seed)
}

/// [`ber_at_location_ci`] with an explicit worker count ([`run`] fans out
/// across locations and runs each location's loop single-worker).
pub fn ber_at_location_ci_with(
    workers: usize,
    location: usize,
    effort: &Effort,
    seed: u64,
) -> Estimate {
    let cfg = McConfig::from_effort(effort);
    montecarlo::adaptive_proportion_with(workers, &cfg, seed, |s| location_trial(location, s))
}

/// Runs the 18-location sweep through the adaptive engine. Locations run
/// in parallel on the sweep runner; each location's master seed derives
/// from `(seed, location)` before the fan-out and its adaptive loop runs
/// single-worker, so the results are identical at any thread count.
pub fn run(effort: Effort, seed: u64) -> Fig9Result {
    let ber_ci: Vec<(usize, Estimate)> = crate::parallel::parallel_map_n(18, |i| {
        let loc = i + 1;
        let est =
            ber_at_location_ci_with(1, loc, &effort, montecarlo::trial_seed(seed, loc as u64));
        (loc, est)
    });
    let per_loc: Vec<(usize, f64)> = ber_ci.iter().map(|&(l, e)| (l, e.mean)).collect();
    let cdf = Cdf::from_samples(per_loc.iter().map(|&(_, b)| b).collect());
    let mut artifact = Artifact::new(
        "Figure 9",
        "CDF of an eavesdropper's BER over all 18 locations (jamming at +20 dB)",
    );
    artifact.push_series(Series::new("BER CDF", cdf.points()));
    artifact.push_series(Series::from_estimates(
        "BER by location",
        &ber_ci
            .iter()
            .map(|&(l, e)| (l as f64, e))
            .collect::<Vec<_>>(),
    ));
    let max_hw = ber_ci
        .iter()
        .map(|&(_, e)| e.half_width())
        .fold(0.0, f64::max);
    artifact.note(format!(
        "BER range {:.3}..{:.3}, median {:.3}, max CI half-width {:.3} \
         (paper: ~0.5 at all locations, low variance)",
        cdf.min(),
        cdf.max(),
        cdf.median(),
        max_hw
    ));
    Fig9Result {
        ber_per_location: per_loc,
        ber_ci,
        cdf,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct Fig9Experiment;

impl crate::experiments::registry::Experiment for Fig9Experiment {
    fn name(&self) -> &'static str {
        "fig9"
    }
    fn reproduces(&self) -> &'static str {
        "Fig. 9 — eavesdropper BER CDF over all 18 locations"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_and_far_locations_both_guess() {
        // Location independence (Eq. 7): 20 cm and 27 m eavesdroppers see
        // the same ~50% BER. Adaptive CI form of the old ±0.1 bound: the
        // whole interval must sit inside it, for any `HB_TEST_SEED`.
        let seed = super::super::test_seed(3);
        let effort = Effort {
            ci_half_width: 0.03,
            mc_max_trials: 64,
            ..Effort::tiny()
        };
        let near = ber_at_location_ci(1, &effort, seed);
        let far = ber_at_location_ci(13, &effort, seed ^ 0x0D);
        assert!(near.within(0.4, 0.6), "near BER CI {near:?}");
        assert!(far.within(0.4, 0.6), "far BER CI {far:?}");
    }
}
