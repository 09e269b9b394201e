//! Deterministic channel fault injection.
//!
//! The paper's testbed lives in a clean lab; real wards don't. A
//! [`FaultPlan`] arms the medium with seeded adversity — burst packet
//! loss modeled as deep gain dropouts, impulse-noise storms pinned to
//! chosen MICS channels, and timed shield outages (consumed by the
//! shield model, not the medium) — so the session layer's retry and
//! rescan machinery can be stressed reproducibly.
//!
//! # Determinism contract
//!
//! Faults draw from a **dedicated RNG stream**, never from the medium's
//! main stream:
//!
//! * With the default (inactive) plan the medium constructs no fault
//!   state and consumes **zero** extra draws anywhere — every receive
//!   is bit-identical to the fault-free engine. The equivalence
//!   proptests pin this the same way PR 8 pinned `−∞ ≡ dense`.
//! * With an active plan, the per-block hazard draws happen exactly
//!   once per block (in [`Medium::end_block`](crate::Medium::end_block)
//!   and at construction), never per receive, so the fault schedule is
//!   a pure function of `(plan, seed, block index)` — independent of
//!   how many antennas receive, in what order, or on how many threads.
//!
//! The storm's noise fill draws per affected receive, but from that
//! receive slot's keyed noise stream (after its floor and impulse draws),
//! so the hazard stream keeps exactly two draws per block and the main
//! stream (link fading) is untouched even when faults fire.

/// A deterministic schedule of channel adversity. `Copy` on purpose so
/// it rides along inside `MediumConfig` and scenario configs.
///
/// All rates are per simulation block. The inactive default injects
/// nothing and costs nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-block probability that a gain-dropout burst starts. During a
    /// burst every staged transmission is attenuated by
    /// [`dropout_depth_db`](FaultPlan::dropout_depth_db) at the mixture
    /// (receiver noise is untouched), modeling a deep fade / antenna
    /// detune that takes the whole link budget down for a few blocks —
    /// the channel-level cause of burst packet loss.
    pub dropout_start_prob: f64,
    /// Dropout burst length, blocks.
    pub dropout_len_blocks: u32,
    /// Dropout depth, dB (signal-to-noise loss during the burst).
    pub dropout_depth_db: f64,
    /// Per-block probability that an impulse-noise storm starts. During
    /// a storm, extra white noise at
    /// [`storm_power_dbm`](FaultPlan::storm_power_dbm) is added to every
    /// receive on the channels selected by
    /// [`storm_channel_mask`](FaultPlan::storm_channel_mask) — persistent
    /// interference that raises CCA/LBT readings and drowns frames,
    /// the stimulus for a MICS channel rescan.
    pub storm_start_prob: f64,
    /// Storm length, blocks.
    pub storm_len_blocks: u32,
    /// Storm noise power, dBm per channel.
    pub storm_power_dbm: f64,
    /// Bit `c` selects MICS channel `c` for storm noise.
    pub storm_channel_mask: u16,
    /// First shield outage start, seconds. The medium ignores these
    /// three fields; the scenario layer forwards them to the shield,
    /// which silences its own emissions (jamming and relays) inside the
    /// windows. Kept on the plan so one struct describes the whole
    /// adversity schedule.
    pub outage_start_s: f64,
    /// Shield outage length, seconds (`0` disables outages).
    pub outage_len_s: f64,
    /// Outage repetition period, seconds (`0` means one-shot).
    pub outage_period_s: f64,
}

impl FaultPlan {
    /// The inactive plan: nothing is injected, no fault state is
    /// allocated, and the engine is bit-for-bit the fault-free engine.
    pub const fn none() -> Self {
        FaultPlan {
            dropout_start_prob: 0.0,
            dropout_len_blocks: 0,
            dropout_depth_db: 0.0,
            storm_start_prob: 0.0,
            storm_len_blocks: 0,
            storm_power_dbm: f64::NEG_INFINITY,
            storm_channel_mask: 0,
            outage_start_s: 0.0,
            outage_len_s: 0.0,
            outage_period_s: 0.0,
        }
    }

    /// True when the plan can perturb the *medium* (dropouts or storms).
    /// Outages alone don't arm the medium — they act on the shield.
    pub fn perturbs_medium(&self) -> bool {
        self.dropout_start_prob > 0.0 || self.storm_start_prob > 0.0
    }

    /// True when the plan schedules shield outages.
    pub fn has_outages(&self) -> bool {
        self.outage_len_s > 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert_eq!(p, FaultPlan::none());
        assert!(!p.perturbs_medium());
        assert!(!p.has_outages());
    }

    #[test]
    fn activity_flags_track_fields() {
        let dropouts = FaultPlan {
            dropout_start_prob: 1e-3,
            dropout_len_blocks: 8,
            dropout_depth_db: 30.0,
            ..FaultPlan::none()
        };
        assert!(dropouts.perturbs_medium());
        assert!(!dropouts.has_outages());

        let outages = FaultPlan {
            outage_start_s: 0.010,
            outage_len_s: 0.005,
            ..FaultPlan::none()
        };
        assert!(!outages.perturbs_medium());
        assert!(outages.has_outages());
    }
}
