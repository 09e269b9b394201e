//! Golden determinism tests: pin exact experiment outputs for fixed seeds.
//!
//! The values below pin the engine's numerics — the RNG stream, the mixing
//! arithmetic, the modulation oscillator — bit-identically, at any thread
//! count. They are the refactor-safety net the ROADMAP asks for: any
//! unintended numeric change shows up here as a hard failure rather than a
//! silent drift in the statistical experiments.
//!
//! # Re-pin policy
//!
//! Goldens are re-captured **only** for deliberate engine-numeric changes
//! (a new RNG-consumption pattern, a different noise transform, an
//! oscillator swap) — one re-pin per such PR, called out in its
//! description. They are **never** re-pinned to make a statistical
//! experiment meet a paper bound: if a statistical test trips after a
//! legitimate re-pin, grow its sample count and keep the asserted bound
//! unchanged (ROADMAP, "known-flaky area").
//!
//! To re-capture, run
//!
//! ```text
//! HB_BLESS=1 cargo test -p hb_testbed --test golden -- --nocapture
//! ```
//!
//! which prints ready-to-paste `const GOLDEN_…` lines instead of failing;
//! paste them over the constants at the bottom of this file.
//!
//! The constants have been re-pinned twice:
//!
//! 1. from the seed engine's per-sample Box–Muller stream to batched
//!    paired Box–Muller noise and phase-recurrence oscillators;
//! 2. to receiver noise keyed per (antenna, channel, block), which is
//!    read-order independent, with the shield's idle monitored channels
//!    squelched from `Medium::receive_power` instead of synthesized. The
//!    Fig. 8/9 pins moved onto the Monte-Carlo (`_ci`) entry points at
//!    [`golden_effort`] at the same time.

use hb_adversary::active::AttackerConfig;
use hb_channel::geometry::Placement;
use hb_channel::medium::{Medium, MediumConfig};
use hb_dsp::checksum::fnv1a64;
use hb_dsp::complex::C64;
use hb_imd::arq::ArqConfig;
use hb_imd::commands::Command;
use hb_testbed::attack::AttackGoal;
use hb_testbed::defense::DEFENSES;
use hb_testbed::exchange::{run_exchange, ArqDriver};
use hb_testbed::experiments::fig11::success_probability;
use hb_testbed::experiments::registry::{self, EvalCtx, DEFAULT_SEED};
use hb_testbed::experiments::{fig8, fig9, resilience, Effort};
use hb_testbed::scenario::{ScenarioBuilder, ScenarioConfig};

mod common;

/// Exact-equality helper for the canonical pin of each constant. With
/// `HB_BLESS=1` it prints a ready-to-paste `const` line and skips the
/// assertion (re-capture mode); otherwise any mismatch also prints the
/// measured value, so a one-off diff is easy to inspect. Each `GOLDEN_*`
/// constant must flow through this from exactly one call site, so a bless
/// run emits each line once; secondary cross-checks of the same constant
/// use [`assert_matches_golden`].
fn assert_bits(const_name: &str, measured: f64, expected: f64) {
    if std::env::var_os("HB_BLESS").is_some() {
        println!("const {const_name}: f64 = {measured:?};");
        return;
    }
    println!(
        "golden {const_name}: measured {measured:?} (bits {:#x})",
        measured.to_bits()
    );
    assert!(
        measured.to_bits() == expected.to_bits(),
        "{const_name}: measured {measured:?} != golden {expected:?} \
         (deliberate numerics change? re-capture with HB_BLESS=1, see header)"
    );
}

/// Like [`assert_bits`] but for *secondary* checks that re-pin a constant
/// from another path (e.g. the thread-count-invariance sweep): in bless
/// mode it prints a comment, not a pasteable `const` line, so re-capture
/// output never contains duplicate or syntactically invalid definitions.
fn assert_matches_golden(label: &str, measured: f64, expected: f64) {
    if std::env::var_os("HB_BLESS").is_some() {
        println!("// cross-check {label}: {measured:?}");
        return;
    }
    println!(
        "golden {label}: measured {measured:?} (bits {:#x})",
        measured.to_bits()
    );
    assert!(
        measured.to_bits() == expected.to_bits(),
        "{label}: measured {measured:?} != golden {expected:?} \
         (deliberate numerics change? re-capture with HB_BLESS=1, see header)"
    );
}

/// The fixed effort of the Monte-Carlo pins: a half-width target of zero
/// is never met, so every point runs to its cap of 4 trials (8 exchanges)
/// whatever the estimates do.
fn golden_effort() -> Effort {
    Effort {
        ci_half_width: 0.0,
        mc_max_trials: 4,
        ..Effort::tiny()
    }
}

/// One Fig. 8 margin point, single-worker: (BER mean, PER mean).
fn fig8_point(margin_db: f64, seed: u64) -> (f64, f64) {
    let (ber, per) = fig8::run_margin_point_ci_with(1, margin_db, &golden_effort(), seed);
    (ber.mean, per.mean)
}

/// One Fig. 9 location, single-worker: the BER mean.
fn fig9_location(location: usize, seed: u64) -> f64 {
    fig9::ber_at_location_ci_with(1, location, &golden_effort(), seed).mean
}

#[test]
fn golden_fig8_operating_point() {
    // The paper's +20 dB operating point: adversary guesses, shield decodes.
    let (ber, per) = fig8_point(20.0, 7);
    assert_bits("GOLDEN_FIG8_20DB_BER", ber, GOLDEN_FIG8_20DB_BER);
    assert_bits("GOLDEN_FIG8_20DB_PER", per, GOLDEN_FIG8_20DB_PER);
}

#[test]
fn golden_fig8_low_margin() {
    let (ber, per) = fig8_point(0.0, 11);
    assert_bits("GOLDEN_FIG8_0DB_BER", ber, GOLDEN_FIG8_0DB_BER);
    assert_bits("GOLDEN_FIG8_0DB_PER", per, GOLDEN_FIG8_0DB_PER);
}

#[test]
fn golden_fig9_locations() {
    let near = fig9_location(1, 3);
    let far = fig9_location(13, 16);
    assert_bits("GOLDEN_FIG9_LOC1_BER", near, GOLDEN_FIG9_LOC1_BER);
    assert_bits("GOLDEN_FIG9_LOC13_BER", far, GOLDEN_FIG9_LOC13_BER);
}

#[test]
fn golden_fig11_success_counts() {
    // Location 7 is marginal for the FCC-power attacker: fractional success
    // probability, so the exact fraction pins every layer from the channel
    // draw to the IMD state machine.
    let cfg = AttackerConfig::commercial_programmer();
    let absent = success_probability(7, false, &cfg, AttackGoal::ElicitReply, 3, 5);
    let present = success_probability(7, true, &cfg, AttackGoal::ElicitReply, 3, 5);
    assert_bits("GOLDEN_FIG11_LOC7_ABSENT", absent, GOLDEN_FIG11_LOC7_ABSENT);
    assert_bits(
        "GOLDEN_FIG11_LOC7_PRESENT",
        present,
        GOLDEN_FIG11_LOC7_PRESENT,
    );
}

#[test]
fn golden_medium_mixing_checksum() {
    // Engine-level golden: a medium with noise, two staged transmissions,
    // a CFO-rotated link and impulse noise enabled. The accumulated
    // receive checksum pins the RNG stream, the gain table, the CFO
    // rotation and the impulse path bit-for-bit.
    let mut m = Medium::new(MediumConfig::default(), 0xC0FFEE);
    let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
    let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
    let c = m.add_antenna(Placement::los("c", 2.0, 0.0));
    m.set_gain(a, c, C64::new(0.5, -0.25));
    m.set_gain(b, c, C64::new(0.125, 0.5));
    m.set_gain(a, b, C64::new(0.0, 1.0));
    m.set_cfo_hz(a, 1500.0);
    m.set_noise_floor_dbm(c, -80.0);
    m.set_impulse_noise(0.3, -70.0);

    let tone: Vec<C64> = (0..16).map(|i| C64::new(1.0, i as f64 * 0.1)).collect();
    let mut acc = C64::ZERO;
    let mut acc_pow = 0.0;
    for blk in 0..400u64 {
        if blk % 3 != 2 {
            m.transmit(a, 0, &tone);
        }
        if blk % 2 == 0 {
            m.transmit(b, 0, &tone[..7.min(tone.len())]);
        }
        // Repeat receives within the block must be identical (cached).
        let y1: Vec<C64> = m.receive(c, 0);
        let y2: Vec<C64> = m.receive(c, 0);
        assert_eq!(y1, y2, "cache must be idempotent within a block");
        let yb: Vec<C64> = m.receive(b, 0);
        for (s, t) in y1.iter().zip(yb.iter()) {
            acc += *s + *t;
            acc_pow += s.norm_sq() + t.norm_sq();
        }
        m.end_block();
    }
    assert_bits("GOLDEN_MEDIUM_ACC_RE", acc.re, GOLDEN_MEDIUM_ACC_RE);
    assert_bits("GOLDEN_MEDIUM_ACC_IM", acc.im, GOLDEN_MEDIUM_ACC_IM);
    assert_bits("GOLDEN_MEDIUM_ACC_POW", acc_pow, GOLDEN_MEDIUM_ACC_POW);
}

#[test]
fn golden_sweep_is_thread_count_invariant() {
    // The same location sweep, executed strictly sequentially and on four
    // worker threads, must produce bit-identical results: determinism is
    // carried by the pre-derived per-task seeds, not by scheduling. The
    // sequential arm also re-pins two of the hardcoded goldens above.
    let locations = [1usize, 7, 13, 18];
    let task = |loc: usize| {
        let seed = if loc == 1 { 3 } else { 16 };
        fig9_location(loc, seed)
    };
    let sequential = hb_testbed::parallel::parallel_map_with(1, &locations, |_, &l| task(l));
    let threaded = hb_testbed::parallel::parallel_map_with(4, &locations, |_, &l| task(l));
    for (i, (s, t)) in sequential.iter().zip(threaded.iter()).enumerate() {
        assert!(
            s.to_bits() == t.to_bits(),
            "location {}: sequential {s:?} != threaded {t:?}",
            locations[i]
        );
    }
    assert_matches_golden(
        "GOLDEN_FIG9_LOC1_BER (sweep, 1 thread)",
        sequential[0],
        GOLDEN_FIG9_LOC1_BER,
    );
    assert_matches_golden(
        "GOLDEN_FIG9_LOC13_BER (sweep, 4 threads)",
        threaded[2],
        GOLDEN_FIG9_LOC13_BER,
    );
}

/// Exact-equality pin for a non-float golden. With `HB_BLESS=1` it prints
/// a ready-to-paste `const` line of type `ty` instead of asserting.
fn assert_pinned<T: PartialEq + std::fmt::Debug>(
    const_name: &str,
    ty: &str,
    measured: T,
    expected: T,
) {
    if std::env::var_os("HB_BLESS").is_some() {
        println!("const {const_name}: {ty} = {measured:?};");
        return;
    }
    assert!(
        measured == expected,
        "{const_name}: measured {measured:?} != golden {expected:?} \
         (deliberate numerics change? re-capture with HB_BLESS=1, see header)"
    );
}

#[test]
fn golden_arq_exchange_under_faults() {
    // The ARQ driver at the resilience matrix's heaviest fault intensity:
    // burst fades cost attempts, so the pin covers timeout, backoff and
    // retransmission timing as well as the delivery itself.
    let measured: Vec<(bool, u32, u32, u64, usize, u64)> = [1u64, 2, 4]
        .into_iter()
        .map(|seed| {
            let mut cfg = ScenarioConfig::paper(seed);
            cfg.fault = resilience::fault_plan(1.0);
            let mut scenario = ScenarioBuilder::new(cfg).build();
            let report = run_exchange(
                &mut scenario,
                &mut [],
                &mut ArqDriver::new(ArqConfig::default()),
                Command::Interrogate,
                f64::INFINITY,
            )
            .unwrap();
            let stats = report.stats;
            (
                report.delivered,
                stats.attempts,
                stats.timeouts,
                stats.blocks_run,
                stats.final_channel,
                scenario.imd.battery().radio_energy_j().to_bits(),
            )
        })
        .collect();
    assert_pinned(
        "GOLDEN_ARQ_FAULTY",
        "[(bool, u32, u32, u64, usize, u64); 3]",
        measured.as_slice(),
        GOLDEN_ARQ_FAULTY.as_slice(),
    );
}

#[test]
fn golden_defended_exchanges() {
    // One clean exchange per defense, fingerprinted as in the conformance
    // suite: transmit-log digest, implant counters, driver counters,
    // radio energy, end tick and delivery.
    let measured: Vec<common::Pin> = DEFENSES
        .iter()
        .map(|d| common::exchange_fingerprint(*d, 41).pin())
        .collect();
    assert_pinned(
        "GOLDEN_DEFENDED_EXCHANGES",
        "[common::Pin; 3]",
        measured.as_slice(),
        GOLDEN_DEFENDED_EXCHANGES.as_slice(),
    );
}

#[test]
fn golden_attack_artifacts() {
    // Every experiment built on the forged-command attack, at tiny effort
    // and the default seed: the digest of the JSON artifact pins each
    // location, arm, defense and fault cell the experiment reports.
    let ctx = EvalCtx::new(Effort::tiny(), DEFAULT_SEED);
    let measured: Vec<(&str, u64)> = GOLDEN_ATTACK_ARTIFACTS
        .iter()
        .map(|&(name, _)| {
            let exp = registry::find(name).expect("registered experiment");
            let artifact = registry::run_one(exp, &ctx).0;
            (name, fnv1a64(artifact.to_json().as_bytes()))
        })
        .collect();
    assert_pinned(
        "GOLDEN_ATTACK_ARTIFACTS",
        "[(&str, u64); 10]",
        measured.as_slice(),
        GOLDEN_ATTACK_ARTIFACTS.as_slice(),
    );
}

#[test]
fn golden_eavesdrop_artifacts() {
    // Every experiment that scores an eavesdropper (or reads the shield's
    // jam intervals), at tiny effort and the default seed: the digest of
    // the JSON artifact pins each margin, location, arm and bed it reports.
    let ctx = EvalCtx::new(Effort::tiny(), DEFAULT_SEED);
    let measured: Vec<(&str, u64)> = GOLDEN_EAVESDROP_ARTIFACTS
        .iter()
        .map(|&(name, _)| {
            let exp = registry::find(name).expect("registered experiment");
            let artifact = registry::run_one(exp, &ctx).0;
            (name, fnv1a64(artifact.to_json().as_bytes()))
        })
        .collect();
    assert_pinned(
        "GOLDEN_EAVESDROP_ARTIFACTS",
        "[(&str, u64); 8]",
        measured.as_slice(),
        GOLDEN_EAVESDROP_ARTIFACTS.as_slice(),
    );
}

// --- Golden values, captured with HB_BLESS=1 on the keyed-noise engine
// (per-slot noise streams, per-block shield squelch) ---

const GOLDEN_FIG8_20DB_BER: f64 = 0.495625;
const GOLDEN_FIG8_20DB_PER: f64 = 0.0;
const GOLDEN_FIG8_0DB_BER: f64 = 0.345625;
const GOLDEN_FIG8_0DB_PER: f64 = 0.0;
const GOLDEN_FIG9_LOC1_BER: f64 = 0.4925;
const GOLDEN_FIG9_LOC13_BER: f64 = 0.504375;
const GOLDEN_FIG11_LOC7_ABSENT: f64 = 1.0;
const GOLDEN_FIG11_LOC7_PRESENT: f64 = 0.0;
const GOLDEN_MEDIUM_ACC_RE: f64 = -36.954170640264024;
const GOLDEN_MEDIUM_ACC_IM: f64 = 758.3838295527918;
const GOLDEN_MEDIUM_ACC_POW: f64 = 10372.848928109199;

// --- Exchange-driver pins: the ARQ driver under faults and one clean
// exchange per defense ---

const GOLDEN_ARQ_FAULTY: [(bool, u32, u32, u64, usize, u64); 3] = [
    (true, 4, 3, 5333, 0, 4562023175217470068),
    (true, 1, 0, 640, 0, 4557519575590099453),
    (true, 2, 1, 1949, 0, 4562023175217470068),
];
const GOLDEN_DEFENDED_EXCHANGES: [common::Pin; 3] = [
    (
        9411201845637451913,
        1,
        (1, 1, 0, 0, 0, 0),
        [1, 1, 0, 0, 2250],
        4557519575590099453,
        36000,
        true,
    ),
    (
        4275919380731507934,
        2,
        (1, 2, 0, 0, 0, 0),
        [1, 1, 1, 0, 2250],
        4562616065101214106,
        36000,
        true,
    ),
    (
        2640760401444115939,
        1,
        (1, 1, 0, 0, 1, 0),
        [1, 1, 0, 1, 2250],
        4557519575590099453,
        36000,
        true,
    ),
];

// --- Artifact pins: FNV-1a of `to_json()` at `Effort::tiny()` and
// `DEFAULT_SEED` for every experiment that forges commands ---

const GOLDEN_ATTACK_ARTIFACTS: [(&str, u64); 10] = [
    ("fig11", 11052476528276628273),
    ("fig12", 8754496350963369751),
    ("fig13", 14697535580459276412),
    ("table1", 15731519824367622309),
    ("battery", 7377454438839270950),
    ("ablation-turnaround", 13600908580662842633),
    ("mobile-adversary", 6060087943624196476),
    ("resilience-matrix", 9859763623165011733),
    ("defense-matrix", 16251994186595438884),
    ("ward-hospital-floor", 17810978970688082819),
];

// --- Artifact pins: FNV-1a of `to_json()` at `Effort::tiny()` and
// `DEFAULT_SEED` for every experiment that scores an eavesdropper or reads
// the shield's jam intervals ---

const GOLDEN_EAVESDROP_ARTIFACTS: [(&str, u64); 8] = [
    ("fig8", 13247362211363459231),
    ("fig9", 2999650410976034812),
    ("ablation-jam-shape", 13762740109948973361),
    ("ablation-wearability", 6297841388234183377),
    ("ablation-rf", 7363901856741834851),
    ("ward-multi-imd", 11060369070122834813),
    ("table2", 11752217645483346040),
    ("crosstraffic", 6267554934367165755),
];
