//! Registry coverage: the experiment registry is the single source of
//! truth for every driver (`hb_eval`, CI), so these
//! tests pin its invariants — every experiment module registered exactly
//! once, stable kebab-case names, and a working `run` for each entry.

use hb_testbed::experiments::registry::{self, EvalCtx};
use hb_testbed::experiments::Effort;

/// Every module's expected registry name; one entry per experiment
/// module (the five ablations are distinct experiments of one module).
const EXPECTED: &[&str] = &[
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table1",
    "table2",
    "ablation-jam-shape",
    "ablation-cancellation",
    "ablation-turnaround",
    "ablation-wearability",
    "ablation-rf",
    "battery",
    "ward-multi-imd",
    "ward-hospital-floor",
    "mobile-adversary",
    "crosstraffic",
    "resilience-matrix",
    "defense-matrix",
];

fn is_kebab_case(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with('-')
        && !s.ends_with('-')
        && !s.contains("--")
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

#[test]
fn every_module_registered_exactly_once() {
    let names: Vec<&str> = registry::registry().iter().map(|e| e.name()).collect();
    for expected in EXPECTED {
        assert_eq!(
            names.iter().filter(|n| *n == expected).count(),
            1,
            "experiment '{expected}' must be registered exactly once"
        );
    }
    assert_eq!(
        names.len(),
        EXPECTED.len(),
        "unexpected registry entries: {names:?}"
    );
    assert!(
        names.len() >= 24,
        "the registry must keep all ported, ablation, and extension experiments"
    );
}

#[test]
fn names_are_unique_kebab_case_and_resolvable() {
    let mut seen = std::collections::BTreeSet::new();
    for e in registry::registry() {
        assert!(
            is_kebab_case(e.name()),
            "name '{}' is not kebab-case",
            e.name()
        );
        assert!(seen.insert(e.name()), "duplicate name '{}'", e.name());
        assert!(
            !e.reproduces().is_empty(),
            "'{}' needs a reproduces() description",
            e.name()
        );
        assert_eq!(
            registry::find(e.name()).map(|f| f.name()),
            Some(e.name()),
            "find() must resolve '{}'",
            e.name()
        );
    }
}

#[test]
fn default_efforts_are_sane() {
    for e in registry::registry() {
        let eff = e.default_effort();
        assert!(
            eff == Effort::quick() || eff == Effort::full() || eff == Effort::tiny(),
            "'{}' default_effort must be a named preset",
            e.name()
        );
    }
}

/// Every registry entry runs end to end at tiny effort and produces a
/// non-empty artifact (id, at least one series, at least one point).
/// This is the pipeline pin for `hb_eval --all`: a silently-broken
/// experiment fails here before it ships an empty artifact.
#[test]
fn every_entry_runs_at_tiny_effort() {
    let ctx = EvalCtx::new(Effort::tiny(), 424242);
    for e in registry::registry() {
        let (artifact, stem) = registry::run_one(*e, &ctx);
        assert!(
            !artifact.id.is_empty() && !artifact.caption.is_empty(),
            "'{}' artifact must carry an id and caption",
            e.name()
        );
        assert!(
            !artifact.series.is_empty(),
            "'{}' artifact must have at least one series",
            e.name()
        );
        assert!(
            artifact.series.iter().any(|s| !s.points.is_empty()),
            "'{}' artifact must have data points",
            e.name()
        );
        assert!(
            !stem.is_empty() && !stem.contains(' ') && !stem.contains(':'),
            "'{}' file stem '{stem}' must be path-safe",
            e.name()
        );
        // The machine-readable export of a real run stays parseable-ish:
        // no NaN/Inf leak past the null mapping.
        let json = artifact.to_json();
        assert!(
            !json.contains("NaN") && !json.contains("inf"),
            "'{}' JSON must map non-finite values to null",
            e.name()
        );
    }
}
