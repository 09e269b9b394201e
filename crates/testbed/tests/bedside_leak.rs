//! Named regressions for the near-field bedside leak (ROADMAP item 1).
//!
//! Each case rebuilds one `hospital-floor` benchmark attack op from
//! library calls: the floor from its seed, an attacker antenna at the
//! primary patient's bedside, and a commercial programmer forging
//! `Interrogate` at the primary implant's serial. With the shield on, the
//! implant must not reply. On the floors below it does, so the cases are
//! ignored until item 1 closes the leak. Run them with
//! `cargo test --release -p hb_testbed --test bedside_leak -- --ignored`.

use hb_adversary::active::{ActiveAttacker, AttackerConfig};
use hb_channel::geometry::Placement;
use hb_channel::sim::Node;
use hb_imd::commands::Command;
use hb_testbed::experiments::hospital::bench_floor_scenario;
use hb_testbed::scenario::ScenarioConfig;

/// Air time of one bedside forgery.
const ATTACK_S: f64 = 0.090;

/// Replies the shielded primary implant sends to a bedside forgery on the
/// floor built from `floor_seed`.
fn bedside_forgery_replies(floor_seed: u64) -> u64 {
    let mut s = bench_floor_scenario(floor_seed);
    let attacker_ant = s.medium.add_antenna(Placement::los("attacker", 0.3, 0.5));
    let paper = ScenarioConfig::paper(floor_seed);
    s.medium.build_links(&paper.pathloss, paper.fading);
    let mut attacker = ActiveAttacker::new(AttackerConfig::commercial_programmer(), attacker_ant);
    let start = s.medium.tick() + 64;
    let serial = s.imd.config().serial;
    attacker.send_forged_command(start, s.channel(), serial, Command::Interrogate);
    let blocks = s.medium.blocks_for_duration(ATTACK_S);
    s.run_blocks(&mut [&mut attacker as &mut dyn Node], blocks);
    s.imd.stats.responses_sent
}

/// hbbench `hospital-floor`, seed 2, op 194.
#[test]
#[ignore = "ROADMAP item 1: near-field bedside leak"]
fn bedside_forgery_floor_seed_2_op_194_draws_no_reply() {
    assert_eq!(bedside_forgery_replies(0x29ad_b05d_9236_76ed), 0);
}

/// hbbench `hospital-floor`, seed 10, op 254.
#[test]
#[ignore = "ROADMAP item 1: near-field bedside leak"]
fn bedside_forgery_floor_seed_10_op_254_draws_no_reply() {
    assert_eq!(bedside_forgery_replies(0xf339_d4a6_378b_175a), 0);
}
