//! # hb-testbed — the evaluation harness
//!
//! Reconstructs the paper's testbed (Fig. 6) in simulation and reproduces
//! every table and figure of the evaluation (§10–§11):
//!
//! * [`layout`] — the 18 adversary locations, shield and IMD placements.
//! * [`scenario`] — scenario assembly with the calibrated channel model.
//! * [`experiments`] — one module per table/figure, plus ablations and
//!   extension scenarios, all behind the
//!   [`experiments::registry::Experiment`] trait and its static registry.
//! * [`exchange`] — the one exchange driver: [`exchange::run_exchange`]
//!   carries a command to the implant and its reply back under any
//!   [`exchange::ExchangeDriver`] — the shield relay, link-layer ARQ
//!   (timeout/backoff/bounded retries) with live MICS session recovery
//!   onto a clean channel, or a defense's own driver.
//! * [`attack`] — the one forged-command attack: an
//!   [`attack::Attack`] adds the attacker antenna last, queues forged
//!   commands at the implant's serial and runs, bare or during a
//!   legitimate exchange. Every active-attack experiment goes through it.
//! * [`defense`] — the defense matrix: alternative IMD-security
//!   protocols (the paper's shield, IMDfence-style in-device sessions,
//!   zero-power wake-up gating) behind one [`defense::Defense`] trait so
//!   the full adversary suite runs against each; each installs the
//!   exchange driver its protocol needs.
//! * [`montecarlo`] — the adaptive sampling engine: grows trial counts in
//!   deterministic rounds until Wilson/bootstrap confidence intervals hit
//!   a target half-width (the statistical experiments ride it).
//! * [`checkpoint`] — the crash-safe run layer: integrity-checked
//!   journals the engine checkpoints after every round (interrupted runs
//!   resume bit-identically), per-trial panic quarantine, deadlines, and
//!   the `HB_FAULT` fault-injection harness.
//! * [`report`] — paper-style rendering plus CSV and JSON export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod checkpoint;
pub mod crosstraffic;
pub mod defense;
pub mod exchange;
pub mod experiments;
pub mod layout;
pub mod montecarlo;
pub mod parallel;
pub mod report;
pub mod scenario;

pub use checkpoint::{RunCtl, RunHealth};
pub use defense::{Defense, DefenseClaims};
pub use exchange::{
    run_exchange, ArqDriver, ExchangeDriver, ExchangeError, ExchangeReport, ExchangeStats,
    ShieldRelay,
};
pub use experiments::registry::{EvalCtx, Experiment};
pub use experiments::Effort;
pub use layout::Fig6Layout;
pub use montecarlo::{Estimate, McConfig};
pub use parallel::threads as parallel_threads;
pub use scenario::{Scenario, ScenarioBuilder, ScenarioConfig};
