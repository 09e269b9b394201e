//! Smoke tests: every experiment module runs end to end at tiny effort
//! and reproduces its headline property. This pins the `hb_eval --all`
//! pipeline — if any experiment silently breaks, these fail first.

use heartbeats::testbed::experiments::{self, Effort};

const SEED: u64 = 424242;

#[test]
fn fig3_smoke() {
    let r = experiments::fig3::run(Effort::tiny(), SEED);
    assert!(!r.latency_quiet_s.is_empty() && !r.latency_busy_s.is_empty());
}

#[test]
fn fig4_smoke() {
    let r = experiments::fig4::run(Effort::tiny(), SEED);
    assert!(r.tone_energy_fraction > 0.8);
}

#[test]
fn fig5_smoke() {
    let r = experiments::fig5::run(Effort::tiny(), SEED);
    assert!(r.tone_band_advantage_db > 2.0);
}

#[test]
fn fig7_smoke() {
    let r = experiments::fig7::run(Effort::tiny(), SEED);
    assert!((r.cancellation_db.mean() - 32.0).abs() < 5.0);
}

#[test]
fn fig9_single_location_smoke() {
    // 4 Monte-Carlo trials of 2 packets: enough samples that the BER
    // estimate clears the ±0.1 bound with margin (grow rather than
    // loosen — ROADMAP). A zero half-width target runs to the cap.
    let effort = Effort {
        ci_half_width: 0.0,
        mc_max_trials: 4,
        ..Effort::tiny()
    };
    let ber = experiments::fig9::ber_at_location_ci_with(1, 5, &effort, SEED).mean;
    assert!((ber - 0.5).abs() < 0.1, "BER {ber}");
}

#[test]
fn fig10_smoke() {
    let (sent, decoded) = experiments::fig10::one_run(5, SEED);
    assert_eq!(sent, 5);
    assert!(decoded >= 4);
}

#[test]
fn fig8_smoke() {
    let r = experiments::fig8::run(Effort::tiny(), SEED);
    assert_eq!(r.ber_curve.len(), 11);
    assert_eq!(r.per_curve.len(), 11);
    for &(_, ber) in &r.ber_curve {
        assert!((0.0..=1.0).contains(&ber), "BER {ber} out of range");
    }
    // The trade-off's endpoints: more jamming hurts the eavesdropper.
    let first = r.ber_curve.first().unwrap().1;
    let last = r.ber_curve.last().unwrap().1;
    assert!(
        last >= first,
        "BER must not fall as jam power rises ({first} -> {last})"
    );
}

#[test]
fn fig9_smoke() {
    let r = experiments::fig9::run(Effort::tiny(), SEED);
    assert!(!r.ber_per_location.is_empty());
    for &(loc, ber) in &r.ber_per_location {
        assert!(
            (0.0..=1.0).contains(&ber),
            "location {loc}: BER {ber} out of range"
        );
    }
}

#[test]
fn fig11_smoke() {
    let r = experiments::fig11::run(Effort::tiny(), SEED);
    assert!(!r.absent.is_empty() && r.absent.len() == r.present.len());
    let p_absent: f64 = r.absent.iter().map(|&(_, p)| p).sum();
    let p_present: f64 = r.present.iter().map(|&(_, p)| p).sum();
    assert!(
        p_present <= p_absent,
        "shield must not increase attack success ({p_present} vs {p_absent})"
    );
}

#[test]
fn fig12_smoke() {
    let r = experiments::fig12::run(Effort::tiny(), SEED);
    assert!(!r.absent.is_empty() && r.absent.len() == r.present.len());
    let p_present: f64 = r.present.iter().map(|&(_, p)| p).sum();
    assert!(
        p_present == 0.0,
        "therapy changes must never succeed through the shield (sum {p_present})"
    );
}

#[test]
fn fig13_smoke() {
    let r = experiments::fig13::run(Effort::tiny(), SEED);
    assert!(!r.present.is_empty());
    assert!((0.0..=1.0).contains(&r.alarm_coverage_of_successes));
}

#[test]
fn table1_smoke() {
    let r = experiments::table1::run(Effort::tiny(), SEED);
    assert!(!r.successful_rssi_dbm.is_empty());
    assert!(r.min_dbm <= r.avg_dbm);
    assert!(r.std_dbm >= 0.0);
    assert!(
        r.recommended_pthresh_dbm <= r.min_dbm,
        "Pthresh {} must sit below the weakest legitimate reply {}",
        r.recommended_pthresh_dbm,
        r.min_dbm
    );
}

#[test]
fn ablation_smoke() {
    let jam = experiments::ablation::jam_shape(Effort::tiny(), SEED);
    assert!(
        jam.ber_shaped >= jam.ber_flat - 0.05,
        "shaped jamming ({}) must not trail flat jamming ({}) at equal power",
        jam.ber_shaped,
        jam.ber_flat
    );
    let sweep = experiments::ablation::cancellation_sweep(Effort::tiny(), SEED);
    assert!(!sweep.per_vs_g.is_empty());
    let ta = experiments::ablation::turnaround(Effort::tiny(), SEED);
    assert!(ta.hardware_s <= ta.software_s);
    let wear = experiments::ablation::wearability(Effort::tiny(), SEED);
    assert!(!wear.rows.is_empty());
    let rob = experiments::ablation::robustness(Effort::tiny(), SEED);
    assert!((0.0..=1.0).contains(&rob.per_clean));
    assert!((0.0..=1.0).contains(&rob.per_impaired));
}

#[test]
fn table2_smoke() {
    let r = experiments::table2::run(Effort::tiny(), SEED);
    assert_eq!(r.cross_jammed, 0);
    assert_eq!(r.imd_jammed, r.imd_sent);
}

#[test]
fn battery_smoke() {
    let r = experiments::battery::run(Effort::tiny(), SEED);
    assert!(r.replies_per_s_absent > r.replies_per_s_present);
}

#[test]
fn ward_smoke() {
    let r = experiments::ward::run(
        Effort {
            packets_per_location: 2,
            ..Effort::tiny()
        },
        SEED,
    );
    assert_eq!(r.rows.len(), 4);
    for row in &r.rows {
        // Staggered ward access must beat (or tie) the collided deadlock.
        assert!(
            row.per_a_staggered.max(row.per_b_staggered) <= row.per_collided,
            "staggered access must not lose more packets than collided at {} m",
            row.separation_m
        );
    }
}

#[test]
fn mobile_smoke() {
    let r = experiments::mobile::run(Effort::tiny(), SEED);
    assert_eq!(r.rows.len(), experiments::mobile::WAYPOINTS);
    let p_absent: f64 = r.rows.iter().map(|&(_, p, _, _)| p).sum();
    let p_present: f64 = r.rows.iter().map(|&(_, _, p, _)| p).sum();
    assert!(
        p_present <= p_absent,
        "shield must not increase the walker's success ({p_present} vs {p_absent})"
    );
}
