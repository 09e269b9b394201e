//! The experiment registry: every reproduced figure, table, ablation, and
//! scenario as a first-class [`Experiment`] value behind one engine.
//!
//! Before this registry existed, each experiment module hand-rolled its
//! own `run(effort, seed)` entry point and a hand-written evaluation
//! driver wired them up one macro call at a time; adding a scenario meant
//! touching four places. Now a scenario is one `impl Experiment` plus one
//! line in [`REGISTRY`], and every driver — the `hb_eval` CLI, the
//! registry tests — walks the same list.
//!
//! The engine owns the cross-cutting concerns:
//!
//! * **Effort scaling** — [`EvalCtx`] carries one [`Effort`] preset; an
//!   experiment never re-interprets sizing on its own (callers pick a
//!   preset or defer to [`Experiment::default_effort`]).
//! * **Seed derivation** — [`EvalCtx::seed`] is the single master seed;
//!   experiments derive every per-task seed from it *before* any
//!   fan-out, which is what keeps results bit-identical at any thread
//!   count (see [`crate::parallel`]).
//! * **Artifact plumbing** — [`run_one`] runs an experiment and pairs the
//!   [`Artifact`] with its canonical `results/` file stem
//!   ([`file_stem`]), so every driver names output files identically.

use super::{ablation, battery, defense_matrix, fig10, fig11, fig12, fig13};
use super::{fig3, fig4, fig5, fig7, fig8, fig9};
use super::{hospital, mobile, resilience, table1, table2, ward, Effort};
use crate::checkpoint::{self, RunCtl, RunHealth};
use crate::report::Artifact;
use std::sync::Arc;

/// The canonical default master seed shared by every driver
/// (`hb_eval` and the registry tests): SIGCOMM'11 started August 15, 2011.
pub const DEFAULT_SEED: u64 = 20110815;

/// Everything an experiment needs to run: the effort preset and the
/// master seed all per-task seeds derive from.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx {
    /// Sample-count preset.
    pub effort: Effort,
    /// Master seed; two runs with the same `(effort, seed)` produce
    /// bit-identical artifacts at any thread count.
    pub seed: u64,
}

impl EvalCtx {
    /// Creates a context.
    pub fn new(effort: Effort, seed: u64) -> Self {
        EvalCtx { effort, seed }
    }
}

/// A registered experiment: one reproduced figure/table/ablation or an
/// extension scenario.
///
/// Implementations are zero-sized entry structs living next to the code
/// they run; the engine only ever sees this interface.
pub trait Experiment: Sync {
    /// Registry name: unique, kebab-case, stable across PRs (it is the
    /// CLI argument and part of the results file contract).
    fn name(&self) -> &'static str;

    /// What this experiment reproduces, for `--list` output and docs
    /// (paper section/figure, or the extension it quantifies).
    fn reproduces(&self) -> &'static str;

    /// The effort preset used when the caller does not pick one.
    /// Experiments whose runtime does not scale with sampling (pure
    /// spectral measurements) override this to [`Effort::tiny`].
    fn default_effort(&self) -> Effort {
        Effort::quick()
    }

    /// Runs the experiment and renders its artifact.
    fn run(&self, ctx: &EvalCtx) -> Artifact;
}

/// Every experiment, in the canonical evaluation order (the order
/// `hb_eval --all` runs and reports them): the paper's figures and tables
/// first, then the ablations, then the extension scenarios.
pub static REGISTRY: &[&dyn Experiment] = &[
    &fig3::Fig3Experiment,
    &fig4::Fig4Experiment,
    &fig5::Fig5Experiment,
    &fig7::Fig7Experiment,
    &fig8::Fig8Experiment,
    &fig9::Fig9Experiment,
    &fig10::Fig10Experiment,
    &fig11::Fig11Experiment,
    &fig12::Fig12Experiment,
    &fig13::Fig13Experiment,
    &table1::Table1Experiment,
    &table2::Table2Experiment,
    &ablation::JamShapeExperiment,
    &ablation::CancellationExperiment,
    &ablation::TurnaroundExperiment,
    &ablation::WearabilityExperiment,
    &ablation::RobustnessExperiment,
    &battery::BatteryExperiment,
    &ward::WardExperiment,
    &hospital::HospitalFloorExperiment,
    &mobile::MobileExperiment,
    &crate::crosstraffic::CrossTrafficExperiment,
    &resilience::ResilienceExperiment,
    &defense_matrix::DefenseMatrixExperiment,
];

/// The full registry, in canonical order.
pub fn registry() -> &'static [&'static dyn Experiment] {
    REGISTRY
}

/// Looks up an experiment by registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

/// Runs one experiment and returns its artifact together with the
/// canonical `results/` file stem (shared by every driver, so CSV and
/// JSON artifacts always land under the same names).
pub fn run_one(exp: &dyn Experiment, ctx: &EvalCtx) -> (Artifact, String) {
    let artifact = exp.run(ctx);
    let stem = file_stem(&artifact.id);
    (artifact, stem)
}

/// [`run_one`] under a crash-safe run control: installs `ctl` as the
/// process's active [`RunCtl`] for the duration of the run (the adaptive
/// Monte-Carlo engine picks it up for journaling, resume, quarantine,
/// and the deadline), then stamps the resulting health onto the artifact
/// — but only when the run was degraded or truncated, so healthy
/// artifacts stay byte-identical to [`run_one`]'s.
pub fn run_one_with(
    exp: &dyn Experiment,
    ctx: &EvalCtx,
    ctl: &Arc<RunCtl>,
) -> (Artifact, String, RunHealth) {
    let mut artifact = {
        let _guard = checkpoint::install(ctl.clone());
        exp.run(ctx)
    };
    let health = ctl.health();
    if health.flagged() {
        artifact.health = Some(health);
    }
    let stem = file_stem(&artifact.id);
    (artifact, stem, health)
}

/// The `results/` file stem for an artifact id: lowercased, spaces to
/// underscores, colons dropped (`"Figure 8"` → `"figure_8"`,
/// `"Ablation: jam shaping"` → `"ablation_jam_shaping"`).
pub fn file_stem(id: &str) -> String {
    id.to_lowercase().replace(' ', "_").replace(':', "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_resolves_names_and_rejects_unknown() {
        assert_eq!(find("fig9").unwrap().name(), "fig9");
        assert_eq!(find("ward-multi-imd").unwrap().name(), "ward-multi-imd");
        assert!(find("fig9 ").is_none());
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn file_stems_match_the_historical_results_layout() {
        assert_eq!(file_stem("Figure 8"), "figure_8");
        assert_eq!(file_stem("Table 1"), "table_1");
        assert_eq!(file_stem("Ablation: jam shaping"), "ablation_jam_shaping");
        assert_eq!(
            file_stem("Extension: battery depletion"),
            "extension_battery_depletion"
        );
    }

    #[test]
    fn registry_is_in_canonical_evaluation_order() {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
        assert_eq!(&names[..3], &["fig3", "fig4", "fig5"]);
        assert_eq!(names[10], "table1");
        assert_eq!(*names.last().unwrap(), "defense-matrix");
    }
}
