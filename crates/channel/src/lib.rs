//! # hb-channel — wireless channel simulation
//!
//! Replaces the paper's physical testbed with a faithful complex-baseband
//! channel model:
//!
//! * [`geometry`] — planar placements with line-of-sight and in-body flags.
//! * [`pathloss`] — the calibrated indoor MICS model: free-space segment,
//!   indoor breakpoint, near-field coupling floor, NLOS penalty, lognormal
//!   shadowing, and the in-body loss term `L_body` of §6(b).
//! * [`fading`] — Rayleigh/Rician link gains.
//! * [`fault`] — deterministic channel fault injection: seeded burst
//!   gain dropouts, impulse-noise storms, and timed shield-outage
//!   schedules, drawn from a dedicated RNG stream.
//! * [`medium`] — the block-stepped shared medium: linear mixing of
//!   concurrent transmissions with per-link complex gains plus receiver
//!   noise, with explicit wired-coupling overrides for the shield's
//!   full-duplex receive antenna.
//! * [`sim`] — the two-phase (produce/consume) poll loop executive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fading;
pub mod fault;
pub mod geometry;
pub mod medium;
pub mod pathloss;
pub mod sim;
pub mod txsched;

pub use fault::FaultPlan;
pub use geometry::{Placement, Point};
pub use medium::{AntennaId, Medium, MediumConfig, Tick};
pub use pathloss::PathlossModel;
pub use sim::Node;
pub use txsched::TxScheduler;
