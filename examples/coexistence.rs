//! Coexistence with the band's primary users (§11): the shield must not
//! jam meteorological radiosonde traffic sharing the MICS band, while
//! still jamming every packet addressed to its IMD from the same spot.
//!
//! Run with: `cargo run --release --example coexistence`

use heartbeats::adversary::active::{ActiveAttacker, AttackerConfig};
use heartbeats::channel::sim::Node;
use heartbeats::imd::commands::Command;
use heartbeats::testbed::crosstraffic::{jam_intervals, overlaps, CrossTrafficNode};
use heartbeats::testbed::scenario::{ScenarioBuilder, ScenarioConfig};

fn main() {
    println!("== coexistence: radiosonde cross-traffic vs IMD-addressed packets ==\n");

    let mut builder = ScenarioBuilder::new(ScenarioConfig::paper(33));
    let node_ant = builder.add_at_location(4, "mixed-transmitter");
    let mut scenario = builder.build();
    let channel = scenario.channel();
    let serial = scenario.imd.config().serial;

    // A Vaisala-style GMSK radiosonde packet…
    let mut sonde = CrossTrafficNode::new(node_ant, heartbeats::mics::fcc_eirp_limit_dbm());
    sonde.send_packet(64, channel, 80);
    let sonde_interval = (64, sonde.last_end().unwrap());

    // …followed by an unauthorized IMD command from the same antenna.
    let mut attacker = ActiveAttacker::new(AttackerConfig::commercial_programmer(), node_ant);
    let cmd_start = sonde_interval.1 + 3000;
    attacker.send_forged_command(cmd_start, channel, serial, Command::Interrogate);
    let cmd_interval = (cmd_start, attacker.last_tx_end().unwrap());

    scenario.run_seconds(
        &mut [&mut sonde as &mut dyn Node, &mut attacker as &mut dyn Node],
        0.12,
    );

    // Reconstruct the shield's jamming intervals from its event log.
    let shield = scenario.shield.as_ref().unwrap();
    let jams = jam_intervals(&shield.events, channel);
    let sonde_jammed = jams.iter().any(|&j| overlaps(j, sonde_interval));
    let cmd_jammed = jams.iter().any(|&j| overlaps(j, cmd_interval));

    println!(
        "radiosonde packet   {:>7}..{:<7} jammed: {}",
        sonde_interval.0,
        sonde_interval.1,
        if sonde_jammed {
            "YES (bug!)"
        } else {
            "no — primary user left alone"
        }
    );
    println!(
        "IMD-addressed cmd   {:>7}..{:<7} jammed: {}",
        cmd_interval.0,
        cmd_interval.1,
        if cmd_jammed {
            "yes — command neutralized"
        } else {
            "NO (bug!)"
        }
    );
    println!(
        "IMD executed {} unauthorized commands",
        scenario.imd.stats.commands_executed
    );
    if let Some(&t) = shield.stats.turnaround_s.first() {
        println!(
            "turn-around after the adversary stopped: {:.0} µs (paper: 270 ± 23 µs, software)",
            t * 1e6
        );
    }
    println!("\nThe shield keys on the IMD's 128-bit identifying sequence, so GMSK");
    println!("telemetry — a different modulation with no Sid — never trips it (§7(a), §11).");
}
