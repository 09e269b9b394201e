//! Cross-defense conformance suite: every [`Defense`] in the matrix is
//! held to the same contract, with each security assertion made exactly
//! where the defense claims it ([`DefenseClaims`]) and nowhere else.
//!
//! * **Determinism** — a defended exchange is bit-for-bit reproducible
//!   (transmit log, stats, battery energy), and pooled Monte-Carlo
//!   estimates over defended trials are identical at 1 and 4 workers.
//! * **Authentication** — for every defense claiming
//!   `authenticates_commands`, the forged-command success interval over
//!   ~80 fresh scenarios excludes everything above 0.05.
//! * **Drain gating** — for every defense claiming `gates_battery_drain`,
//!   a 16-command drain burst leaves the implant's radio energy bounded
//!   (bounds sized from the `calibrate_defense_*` truth printers across
//!   seeds, not one lucky stream).
//! * **Legacy equivalence** — [`ShieldDefense`] behind the trait is
//!   *bitwise* identical to the seed engine's relay path — a queued
//!   command and a raw `Scenario::run_blocks` window (proptest over seeds
//!   and eavesdropper positions), which is why the golden suite needs no
//!   re-capture.

use hb_adversary::eavesdropper::Eavesdropper;
use hb_channel::sim::Node;
use hb_imd::commands::Command;
use hb_testbed::defense::{Defense, ShieldDefense, DEFENSES};
use hb_testbed::exchange::{run_exchange, ExchangeStats};
use hb_testbed::experiments::defense_matrix::{trial, Adversary};
use hb_testbed::experiments::test_seed;
use hb_testbed::montecarlo::{self, McConfig};
use hb_testbed::scenario::ScenarioBuilder;
use proptest::prelude::*;

mod common;
use common::{defended_config, exchange_fingerprint, fingerprint_of, Fingerprint};

/// One forged-therapy attempt against a defended exchange: the
/// defense-matrix forger row (commercial programmer at 20 cm, fired after
/// the legitimate exchange settles). True iff therapy changed.
fn forge_once(defense: &dyn Defense, seed: u64) -> bool {
    trial(Adversary::Forger, defense, seed).attack.0 > 0
}

/// One 16-command drain burst against a defended exchange: the
/// defense-matrix drain row. Returns the implant's radio energy in mJ.
fn drain_energy_mj(defense: &dyn Defense, seed: u64) -> f64 {
    trial(Adversary::Drain, defense, seed).energy_mj
}

#[test]
fn every_defense_delivers_a_clean_exchange() {
    for defense in DEFENSES {
        for s in 0..3u64 {
            let fp = exchange_fingerprint(defense, test_seed(41) ^ s);
            assert!(
                fp.delivered,
                "{} must deliver on a clean channel (seed offset {s})",
                defense.name()
            );
        }
    }
}

#[test]
fn defended_exchanges_are_bit_for_bit_reproducible() {
    for defense in DEFENSES {
        let seed = test_seed(43);
        let a = exchange_fingerprint(defense, seed);
        let b = exchange_fingerprint(defense, seed);
        assert_eq!(a, b, "{} exchange must be deterministic", defense.name());
    }
}

#[test]
fn pooled_estimates_match_across_worker_counts() {
    // The defense-matrix cells ride the adaptive engine; its 1-worker and
    // 4-worker pooled counts over defended trials must agree exactly.
    let seed = test_seed(47);
    for defense in DEFENSES {
        let mc = McConfig {
            initial_trials: 8,
            max_trials: 8,
            target_half_width: 0.01,
            z: hb_dsp::stats::Z_95,
            bootstrap_resamples: 50,
        };
        let one = montecarlo::adaptive_proportion_with(1, &mc, seed, |s| {
            (forge_once(defense, s) as u64, 1)
        });
        let four = montecarlo::adaptive_proportion_with(4, &mc, seed, |s| {
            (forge_once(defense, s) as u64, 1)
        });
        assert_eq!(
            one,
            four,
            "{}: pooled estimate must not depend on worker count",
            defense.name()
        );
    }
}

#[test]
fn auth_claiming_defenses_bound_forged_success_below_5_percent() {
    // Wilson 95% upper bound at 0 successes needs ~80 trials to drop
    // under 0.05 — never assert a rate bound the sample cannot support.
    let seed = test_seed(53);
    for defense in DEFENSES {
        if !defense.claims().authenticates_commands {
            continue;
        }
        let mc = McConfig {
            initial_trials: 80,
            max_trials: 80,
            target_half_width: 0.01,
            z: hb_dsp::stats::Z_95,
            bootstrap_resamples: 50,
        };
        let est =
            montecarlo::adaptive_proportion_with(hb_testbed::parallel_threads(), &mc, seed, |s| {
                (forge_once(defense, s) as u64, 1)
            });
        assert!(
            est.below(0.05),
            "{} claims command authentication; forged success {est:?} must exclude 0.05",
            defense.name()
        );
    }
}

#[test]
fn drain_gating_defenses_bound_the_energy_bill() {
    // Truth from calibrate_defense_drain_energy across seeds: shield
    // ~0.48 mJ (the burst is starved), wake-up ~1.93 mJ (a few in-window
    // replies, then the gate closes), IMDfence ~8.17 mJ (a Nak per
    // refusal — it does NOT claim drain gating). Bounds sit 50%+ above
    // the observed ceiling but far below the non-gating defense.
    let seed = test_seed(59);
    let ungated: f64 = DEFENSES
        .iter()
        .filter(|d| !d.claims().gates_battery_drain)
        .map(|d| drain_energy_mj(*d, seed))
        .fold(f64::INFINITY, f64::min);
    for defense in DEFENSES {
        if !defense.claims().gates_battery_drain {
            continue;
        }
        for s in 0..3u64 {
            let mj = drain_energy_mj(defense, seed ^ s);
            assert!(
                mj < 3.0,
                "{} claims drain gating; 16-command burst cost {mj:.3} mJ",
                defense.name()
            );
            assert!(
                mj < ungated / 2.0,
                "{} ({mj:.3} mJ) must spend well under the cheapest \
                 non-gating defense ({ungated:.3} mJ)",
                defense.name()
            );
        }
    }
}

/// Drives the seed engine's relay path with no exchange driver at all:
/// identical scenario construction, the command queued on the shield by
/// hand, then a raw `Scenario::run_blocks` over the 60 ms relay window —
/// the exact engine the golden suite pins.
fn legacy_fingerprint(seed: u64, eve_location: usize) -> Fingerprint {
    let cfg = defended_config(&ShieldDefense, seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let eve_ant = builder.add_at_location(eve_location, "eve");
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let shield = scenario.shield.as_mut().expect("shield present");
    shield.queue_command(Command::Interrogate);
    let blocks = scenario.medium.blocks_for_duration(0.060);
    scenario.run_blocks(&mut [&mut eve as &mut dyn Node], blocks);
    let delivered = !scenario
        .shield
        .as_mut()
        .expect("shield present")
        .take_responses()
        .is_empty();
    fingerprint_of(&mut scenario, delivered, ExchangeStats::default())
}

/// Same exchange through the [`ShieldDefense`] driver.
fn shield_driver_fingerprint(seed: u64, eve_location: usize) -> Fingerprint {
    let cfg = defended_config(&ShieldDefense, seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let mut driver = ShieldDefense.install(&mut builder);
    let eve_ant = builder.add_at_location(eve_location, "eve");
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let report = run_exchange(
        &mut scenario,
        &mut [&mut eve as &mut dyn Node],
        driver.as_mut(),
        Command::Interrogate,
        0.060,
    )
    .unwrap();
    fingerprint_of(&mut scenario, report.delivered, ExchangeStats::default())
}

proptest! {
    /// The bit-identity contract: ShieldDefense behind the trait, driven
    /// by `run_exchange`, produces the exact transmit log, stats, battery
    /// energy, medium clock and delivery verdict of the seed engine — for
    /// any seed and any eavesdropper position. This is the proof that no
    /// golden artifact needs re-capture.
    #[test]
    fn shield_defense_is_bitwise_equivalent_to_legacy(
        seed in 0u64..5_000,
        eve_location in 1usize..=18,
    ) {
        let legacy = legacy_fingerprint(seed, eve_location);
        let driven = shield_driver_fingerprint(seed, eve_location);
        prop_assert_eq!(legacy, driven);
    }
}
