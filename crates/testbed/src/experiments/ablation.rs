//! Ablations of the shield's design choices (beyond the paper's own
//! figures, as called out in DESIGN.md):
//!
//! * **Shaped vs flat jamming** — Fig. 5 argues shaping matters; this
//!   ablation measures it end to end: eavesdropper BER at equal jamming
//!   power under both jammers.
//! * **Cancellation sweep** — how shield PER degrades as the achievable
//!   cancellation `G` shrinks (the SINR gap of Eq. 9 in action).
//! * **Turn-around profile** — software (270 µs) vs hardware (10 µs)
//!   implementation, measured at the jam-release point.

use crate::attack::{self, Attack, FIRE_TICK};
use crate::montecarlo::{self, Estimate, McConfig};
use crate::report::{Artifact, Series};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::AttackerConfig;
use hb_adversary::eavesdropper::Eavesdropper;
use hb_imd::commands::Command;
use hb_shield::jamsignal::JamSignal;

use super::{eavesdrop_exchanges, relay_one_exchange, Effort};

/// Exchanges per adaptive trial (fresh scenario per trial — see
/// [`super::fig8`]).
const PACKETS_PER_TRIAL: usize = 2;

/// Shaped-vs-flat end-to-end result.
#[derive(Debug, Clone)]
pub struct JamShapeAblation {
    /// Eavesdropper BER under the shaped jammer (point estimate).
    pub ber_shaped: f64,
    /// Eavesdropper BER under the flat jammer at the same power.
    pub ber_flat: f64,
    /// BER estimate with CI, shaped jammer.
    pub shaped_est: Estimate,
    /// BER estimate with CI, flat jammer.
    pub flat_est: Estimate,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// One adaptive trial of the shaped-vs-flat measurement: eavesdropper
/// bit errors at location 1 with the given jammer, over a fresh scenario
/// from the derived seed, [`PACKETS_PER_TRIAL`] exchanges.
///
/// Runs at a reduced +8 dB jamming margin: at the full +20 dB operating
/// point *both* jammers saturate the eavesdropper at BER ≈ 0.5, hiding
/// the difference; the shaping advantage is a power-budget argument and
/// shows at the margin where power is scarce.
fn jam_trial(flat: bool, seed: u64) -> (u64, u64) {
    let mut cfg = ScenarioConfig::paper(seed);
    cfg.jam_margin_db = Some(8.0);
    let mut builder = ScenarioBuilder::new(cfg);
    let eve_ant = builder.add_at_location(1, "eve");
    let mut scenario = builder.build();
    if flat {
        let fft = scenario.shield.as_ref().unwrap().config().fft_size;
        scenario
            .shield
            .as_mut()
            .unwrap()
            .set_jammer(JamSignal::flat(fft));
    }
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let tally = eavesdrop_exchanges(&mut scenario, &mut eve, 0, PACKETS_PER_TRIAL);
    (tally.errors, tally.bits)
}

/// Runs the shaped-vs-flat ablation through the adaptive engine (both
/// arms in parallel, per-arm master seeds derived before the fan-out,
/// inner loops single-worker).
pub fn jam_shape(effort: Effort, seed: u64) -> JamShapeAblation {
    let cfg = McConfig::from_effort(&effort);
    let arms: Vec<Estimate> = crate::parallel::parallel_map(&[false, true], |i, &flat| {
        montecarlo::adaptive_proportion_with(1, &cfg, montecarlo::trial_seed(seed, i as u64), |s| {
            jam_trial(flat, s)
        })
    });
    let (shaped_est, flat_est) = (arms[0], arms[1]);
    let (ber_shaped, ber_flat) = (shaped_est.mean, flat_est.mean);
    let mut artifact = Artifact::new(
        "Ablation: jam shaping",
        "Eavesdropper BER at location 1, equal jamming power",
    );
    artifact.push_series(Series::from_estimates(
        "BER (0 = flat profile, 1 = shaped)",
        &[(0.0, flat_est), (1.0, shaped_est)],
    ));
    artifact.note(format!(
        "shaped {ber_shaped:.3} [{:.3}, {:.3}] vs flat {ber_flat:.3} [{:.3}, {:.3}]: \
         matching the IMD's spectrum concentrates jamming where the matched filter \
         listens (§6(a))",
        shaped_est.ci_lo, shaped_est.ci_hi, flat_est.ci_lo, flat_est.ci_hi
    ));
    JamShapeAblation {
        ber_shaped,
        ber_flat,
        shaped_est,
        flat_est,
        artifact,
    }
}

/// Cancellation-sweep result.
#[derive(Debug, Clone)]
pub struct CancellationAblation {
    /// (mean cancellation dB, shield packet loss).
    pub per_vs_g: Vec<(f64, f64)>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Sweeps the achievable cancellation and measures shield PER (sweep
/// points in parallel, seeds pre-derived per point).
pub fn cancellation_sweep(effort: Effort, seed: u64) -> CancellationAblation {
    let gs = [20.0, 24.0, 28.0, 32.0, 38.0];
    let per_vs_g: Vec<(f64, f64)> = crate::parallel::parallel_map(&gs, |i, &g| {
        // A fn-pointer tweak keyed off a thread-local would be clumsy;
        // instead rebuild with a custom config through the tweak hook.
        fn set20(c: &mut hb_shield::shield::ShieldConfig) {
            c.est_snr_db = 20.0;
        }
        fn set24(c: &mut hb_shield::shield::ShieldConfig) {
            c.est_snr_db = 24.0;
        }
        fn set28(c: &mut hb_shield::shield::ShieldConfig) {
            c.est_snr_db = 28.0;
        }
        fn set32(c: &mut hb_shield::shield::ShieldConfig) {
            c.est_snr_db = 32.0;
        }
        fn set38(c: &mut hb_shield::shield::ShieldConfig) {
            c.est_snr_db = 38.0;
        }
        let tweak: fn(&mut hb_shield::shield::ShieldConfig) = match i {
            0 => set20,
            1 => set24,
            2 => set28,
            3 => set32,
            _ => set38,
        };
        let mut cfg = ScenarioConfig::paper(seed.wrapping_add(i as u64 * 37));
        cfg.shield_tweak = Some(tweak);
        let mut scenario = ScenarioBuilder::new(cfg).build();
        for _ in 0..effort.packets_per_location {
            relay_one_exchange(&mut scenario, &mut [], Command::Interrogate);
        }
        let sent = scenario.imd.stats.responses_sent.max(1);
        let ok = scenario.shield.as_ref().unwrap().stats.imd_frames_ok;
        (g, 1.0 - ok as f64 / sent as f64)
    });
    let mut artifact = Artifact::new(
        "Ablation: cancellation depth",
        "Shield packet loss vs achievable antidote cancellation G",
    );
    artifact.push_series(Series::new("PER vs G (dB)", per_vs_g.clone()));
    artifact.note(
        "Eq. 9 in action: SINR_S = SINR_A + G; with the +20 dB jamming margin, \
         the shield needs roughly G > 26 dB to keep PER near zero",
    );
    CancellationAblation { per_vs_g, artifact }
}

/// Turn-around comparison result.
#[derive(Debug, Clone)]
pub struct TurnaroundAblation {
    /// Mean measured turn-around, software profile, seconds.
    pub software_s: f64,
    /// Mean measured turn-around, hardware profile, seconds.
    pub hardware_s: f64,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Compares the software (GNU Radio, 270 µs) and hardware (~10 µs)
/// turn-around profiles at the jam-release point (§11 argues a hardware
/// implementation would free the channel an order of magnitude faster).
pub fn turnaround(effort: Effort, seed: u64) -> TurnaroundAblation {
    fn set_hw(c: &mut hb_shield::shield::ShieldConfig) {
        c.turnaround = hb_shield::shield::TurnaroundProfile::Hardware;
    }
    let mut means = Vec::new();
    for hw in [false, true] {
        let mut cfg = ScenarioConfig::paper(seed.wrapping_add(hw as u64));
        if hw {
            cfg.shield_tweak = Some(set_hw);
        }
        let reps = effort.attempts_per_location.max(3);
        // Repetitions fan out; aggregation stays in repetition order.
        let attacker = AttackerConfig::commercial_programmer();
        let forgery = [(FIRE_TICK, Command::Interrogate)];
        let samples: Vec<Vec<f64>> = crate::parallel::parallel_map_n(reps, |r| {
            let mut c = cfg.clone();
            c.seed = cfg.seed.wrapping_add(r as u64 * 131);
            let scenario = Attack::new(&attacker, attack::at_location(1), &forgery, 0.08)
                .run(ScenarioBuilder::new(c));
            scenario.shield.as_ref().unwrap().stats.turnaround_s.clone()
        });
        let mut acc = 0.0;
        let mut n = 0usize;
        for rep in &samples {
            for &t in rep {
                acc += t;
                n += 1;
            }
        }
        means.push(if n > 0 { acc / n as f64 } else { f64::NAN });
    }
    let mut artifact = Artifact::new(
        "Ablation: turn-around",
        "Jam-release delay after the adversary stops: software vs hardware profile",
    );
    artifact.push_series(Series::new(
        "mean turn-around seconds (0 = software, 1 = hardware)",
        vec![(0.0, means[0]), (1.0, means[1])],
    ));
    artifact.note(format!(
        "software {:.0} µs vs hardware {:.0} µs (paper: 270 µs measured;          'tens of microseconds' projected for hardware)",
        means[0] * 1e6,
        means[1] * 1e6
    ));
    TurnaroundAblation {
        software_s: means[0],
        hardware_s: means[1],
        artifact,
    }
}

/// Wearability sweep result.
#[derive(Debug, Clone)]
pub struct WearabilityAblation {
    /// (shield distance m, shield PER, eavesdropper BER at location 1).
    pub rows: Vec<(f64, f64, f64)>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Sweeps where the shield is worn relative to the implant. The paper's
/// wearability argument (§3.2) requires the shield well inside half a
/// wavelength (37.5 cm); this sweep confirms protection is insensitive to
/// the exact wearing position in that range.
pub fn wearability(effort: Effort, seed: u64) -> WearabilityAblation {
    let distances = [0.10, 0.25, 0.35];
    let rows: Vec<(f64, f64, f64)> = crate::parallel::parallel_map(&distances, |i, &d| {
        // The layout's shield offset is fixed; emulate other wearing
        // distances by scaling the contact coupling with free-space delta
        // (a few dB across this range — the coupling floor dominates).
        let extra_db = 20.0 * (d / 0.25f64).log10().max(-6.0);
        let mut cfg = ScenarioConfig::paper(seed.wrapping_add(i as u64 * 97));
        cfg.shield_body_coupling_db = 21.0 + extra_db;
        let mut builder = ScenarioBuilder::new(cfg);
        let eve_ant = builder.add_at_location(1, "eve");
        let mut scenario = builder.build();
        let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
        let tally = eavesdrop_exchanges(&mut scenario, &mut eve, 0, effort.packets_per_location);
        let sent = scenario.imd.stats.responses_sent.max(1);
        let ok = scenario.shield.as_ref().unwrap().stats.imd_frames_ok;
        (d, 1.0 - ok as f64 / sent as f64, tally.ber())
    });
    let mut artifact = Artifact::new(
        "Ablation: wearability",
        "Protection vs shield wearing distance (all well under half a wavelength)",
    );
    artifact.push_series(Series::new(
        "shield PER vs distance (m)",
        rows.iter().map(|&(d, per, _)| (d, per)).collect(),
    ));
    artifact.push_series(Series::new(
        "eavesdropper BER vs distance (m)",
        rows.iter().map(|&(d, _, ber)| (d, ber)).collect(),
    ));
    artifact.note(
        "confidentiality and reliability hold across realistic wearing positions —          the basis of the necklace/brooch form factor (§3.2)",
    );
    WearabilityAblation { rows, artifact }
}

/// RF-impairment robustness result.
#[derive(Debug, Clone)]
pub struct RobustnessAblation {
    /// Shield packet loss under clean conditions.
    pub per_clean: f64,
    /// Shield packet loss with a 2 kHz IMD oscillator offset and 5%
    /// impulsive-interference blocks at −95 dBm (10 dB below the IMD's
    /// received level; uncoded telemetry frames have no FEC, so impulses
    /// *above* the signal level inevitably cost whole frames — on real
    /// hardware as much as here).
    pub per_impaired: f64,
    /// Eavesdropper BER under the impaired conditions (must stay ~0.5).
    pub ber_impaired: f64,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Stress-tests the shield against RF impairments the paper's analysis
/// waves at but the hardware certainly experienced: oscillator offset
/// between the IMD and the shield (§6(a)'s CFO compensation note) and
/// impulsive interference. Protection must degrade gracefully, not
/// collapse.
pub fn robustness(effort: Effort, seed: u64) -> RobustnessAblation {
    let measure = |impaired: bool, seed: u64| -> (f64, f64) {
        let mut builder = ScenarioBuilder::new(ScenarioConfig::paper(seed));
        let eve_ant = builder.add_at_location(1, "eve");
        let mut scenario = builder.build();
        if impaired {
            let imd_ant = scenario.imd.antenna();
            scenario.medium.set_cfo_hz(imd_ant, 2e3);
            scenario.medium.set_impulse_noise(0.05, -95.0);
        }
        let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
        let tally = eavesdrop_exchanges(&mut scenario, &mut eve, 0, effort.packets_per_location);
        let sent = scenario.imd.stats.responses_sent.max(1);
        let ok = scenario.shield.as_ref().unwrap().stats.imd_frames_ok;
        (1.0 - ok as f64 / sent as f64, tally.ber())
    };
    let arms = crate::parallel::parallel_map(&[false, true], |_, &impaired| {
        measure(impaired, if impaired { seed ^ 0x1CE } else { seed })
    });
    let (per_clean, _) = arms[0];
    let (per_impaired, ber_impaired) = arms[1];

    let mut artifact = Artifact::new(
        "Ablation: RF impairments",
        "Shield PER and eavesdropper BER under CFO (2 kHz) + impulsive interference",
    );
    artifact.push_series(Series::new(
        "shield PER (0 = clean, 1 = impaired)",
        vec![(0.0, per_clean), (1.0, per_impaired)],
    ));
    artifact.note(format!(
        "PER clean {per_clean:.3} -> impaired {per_impaired:.3}; eavesdropper BER stays {ber_impaired:.3}"
    ));
    RobustnessAblation {
        per_clean,
        per_impaired,
        ber_impaired,
        artifact,
    }
}

use crate::experiments::registry::{EvalCtx, Experiment};

/// Registry entry: [`jam_shape`] as a first-class experiment.
pub struct JamShapeExperiment;

impl Experiment for JamShapeExperiment {
    fn name(&self) -> &'static str {
        "ablation-jam-shape"
    }
    fn reproduces(&self) -> &'static str {
        "Ablation — shaped vs flat jamming, end-to-end BER"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        jam_shape(ctx.effort, ctx.seed).artifact
    }
}

/// Registry entry: [`cancellation_sweep`] as a first-class experiment.
pub struct CancellationExperiment;

impl Experiment for CancellationExperiment {
    fn name(&self) -> &'static str {
        "ablation-cancellation"
    }
    fn reproduces(&self) -> &'static str {
        "Ablation — shield PER vs cancellation depth G"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        cancellation_sweep(ctx.effort, ctx.seed).artifact
    }
}

/// Registry entry: [`turnaround`] as a first-class experiment.
pub struct TurnaroundExperiment;

impl Experiment for TurnaroundExperiment {
    fn name(&self) -> &'static str {
        "ablation-turnaround"
    }
    fn reproduces(&self) -> &'static str {
        "Ablation — software vs hardware turn-around"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        turnaround(ctx.effort, ctx.seed).artifact
    }
}

/// Registry entry: [`wearability`] as a first-class experiment.
pub struct WearabilityExperiment;

impl Experiment for WearabilityExperiment {
    fn name(&self) -> &'static str {
        "ablation-wearability"
    }
    fn reproduces(&self) -> &'static str {
        "Ablation — protection vs shield wearing distance"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        wearability(ctx.effort, ctx.seed).artifact
    }
}

/// Registry entry: [`robustness`] as a first-class experiment.
pub struct RobustnessExperiment;

impl Experiment for RobustnessExperiment {
    fn name(&self) -> &'static str {
        "ablation-rf"
    }
    fn reproduces(&self) -> &'static str {
        "Ablation — robustness to CFO + impulsive interference"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        robustness(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_jamming_is_weaker_against_matched_filter() {
        // CI form of the old point-estimate test, for any `HB_TEST_SEED`:
        // the arms' intervals must separate (the data exclude "shaping
        // buys nothing"), the old 0.05 point-estimate gap must hold at a
        // 10x larger sample (calibrated true gap ~0.08, scenario-level
        // noise ~0.009 at this sizing: a >3-sigma margin), and the shaped
        // arm's interval must sit inside the old ±0.1 band around 0.5.
        let r = jam_shape(
            Effort {
                ci_half_width: 0.006,
                mc_max_trials: 64,
                ..Effort::tiny()
            },
            super::super::test_seed(19),
        );
        assert!(
            r.shaped_est.ci_lo > r.flat_est.ci_hi,
            "shaped CI {:?} must separate from flat CI {:?}",
            r.shaped_est,
            r.flat_est
        );
        assert!(
            r.ber_shaped > r.ber_flat + 0.05,
            "shaped {} should beat flat {} by 0.05",
            r.ber_shaped,
            r.ber_flat
        );
        assert!(
            r.shaped_est.within(0.4, 0.6),
            "shaped BER CI must sit inside 0.5±0.1: {:?}",
            r.shaped_est
        );
    }

    /// Prints high-precision estimates across seeds — run by hand when
    /// recalibrating the bounds above (`cargo test -p hb_testbed
    /// calibrate_jam_shape -- --ignored --nocapture`).
    #[test]
    #[ignore = "calibration helper, not a regression test"]
    fn calibrate_jam_shape() {
        use crate::montecarlo::trial_seed;
        for seed in [1u64, 2, 3] {
            for flat in [false, true] {
                let bers: Vec<f64> = (0..128)
                    .map(|i| {
                        let (e, t) = jam_trial(flat, trial_seed(seed ^ flat as u64, i));
                        e as f64 / t.max(1) as f64
                    })
                    .collect();
                let n = bers.len() as f64;
                let mean = bers.iter().sum::<f64>() / n;
                let var = bers.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (n - 1.0);
                println!(
                    "seed {seed} flat={flat}: per-trial mean {mean:.4} std {:.4}",
                    var.sqrt()
                );
            }
        }
    }

    #[test]
    fn hardware_turnaround_is_order_of_magnitude_faster() {
        let r = turnaround(Effort::tiny(), 41);
        assert!(
            r.software_s > 5.0 * r.hardware_s,
            "software {} vs hardware {}",
            r.software_s,
            r.hardware_s
        );
    }

    #[test]
    fn protection_insensitive_to_wearing_distance() {
        let r = wearability(
            Effort {
                packets_per_location: 5,
                ..Effort::tiny()
            },
            43,
        );
        for &(d, per, ber) in &r.rows {
            assert!(per < 0.4, "PER {per} at {d} m");
            assert!((ber - 0.5).abs() < 0.12, "BER {ber} at {d} m");
        }
    }

    #[test]
    fn shield_survives_rf_impairments() {
        let r = robustness(
            Effort {
                packets_per_location: 6,
                ..Effort::tiny()
            },
            47,
        );
        assert!(
            r.per_impaired < 0.5,
            "impairments must not collapse the relay (PER {})",
            r.per_impaired
        );
        assert!(
            (r.ber_impaired - 0.5).abs() < 0.1,
            "confidentiality must hold under impairments (BER {})",
            r.ber_impaired
        );
    }

    #[test]
    fn low_cancellation_breaks_the_shield() {
        let r = cancellation_sweep(
            Effort {
                packets_per_location: 5,
                ..Effort::tiny()
            },
            23,
        );
        let per_low = r.per_vs_g.first().unwrap().1;
        let per_high = r.per_vs_g.last().unwrap().1;
        assert!(
            per_low > per_high + 0.3,
            "PER at G=20 ({per_low}) should far exceed PER at G=38 ({per_high})"
        );
        assert!(per_high < 0.2);
    }
}
