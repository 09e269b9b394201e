//! Table 2: coexistence with legitimate users of the band.
//!
//! §11: a transmitter alternates between (a) GMSK radiosonde packets not
//! intended for the IMD and (b) unauthorized IMD commands. Paper result:
//! the shield jammed **zero** cross-traffic packets and **all** detected
//! IMD-addressed packets, and took 270 ± 23 µs (software) to stop jamming
//! after the adversary's signal ended.

use crate::crosstraffic::{jam_intervals, overlaps, CrossTrafficNode};
use crate::parallel;
use crate::report::{stat_table, Artifact, Series};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::{ActiveAttacker, AttackerConfig};
use hb_channel::sim::Node;
use hb_dsp::stats::RunningStats;
use hb_imd::commands::Command;

use super::Effort;

/// Result of the Table 2 experiment.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Cross-traffic packets transmitted / jammed.
    pub cross_sent: usize,
    /// Cross-traffic packets the shield jammed (must be 0).
    pub cross_jammed: usize,
    /// IMD-addressed packets transmitted / jammed.
    pub imd_sent: usize,
    /// IMD-addressed packets the shield jammed.
    pub imd_jammed: usize,
    /// Turn-around times, seconds.
    pub turnaround_mean_s: f64,
    /// Turn-around standard deviation, seconds.
    pub turnaround_std_s: f64,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// One alternating pair from one location: whether the shield jammed the
/// radiosonde packet and the IMD-addressed command, and its turn-around
/// times.
struct PairOutcome {
    cross_jammed: bool,
    imd_jammed: bool,
    turnaround_s: Vec<f64>,
}

/// Sends one radiosonde packet, then one IMD-addressed command, from Fig. 6
/// location `loc` on a scenario seeded `s`.
fn alternating_pair(loc: usize, s: u64) -> PairOutcome {
    let mut builder = ScenarioBuilder::new(ScenarioConfig::paper(s));
    let node_ant = builder.add_at_location(loc, "mixed-tx");
    let mut scenario = builder.build();
    let channel = scenario.channel();
    let serial = scenario.imd.config().serial;

    // One radiosonde packet…
    let mut sonde = CrossTrafficNode::new(node_ant, hb_mics::fcc_eirp_limit_dbm());
    sonde.send_packet(64, channel, 60);
    let sonde_end = sonde.last_end().unwrap();
    // …then one IMD-addressed command from the same spot.
    let mut attacker = ActiveAttacker::new(AttackerConfig::commercial_programmer(), node_ant);
    let cmd_start = sonde_end + scenario.medium.blocks_for_duration(0.005) * 16;
    attacker.send_forged_command(cmd_start, channel, serial, Command::Interrogate);
    let cmd_interval = (cmd_start, attacker.last_tx_end().unwrap());

    scenario.run_seconds(
        &mut [&mut sonde as &mut dyn Node, &mut attacker as &mut dyn Node],
        0.120,
    );

    let shield = scenario.shield.as_ref().unwrap();
    let jams = jam_intervals(&shield.events, channel);
    let jammed = |interval| jams.iter().any(|&j| overlaps(j, interval));
    PairOutcome {
        cross_jammed: jammed((64, sonde_end)),
        imd_jammed: jammed(cmd_interval),
        turnaround_s: shield.stats.turnaround_s.clone(),
    }
}

/// Runs the alternating cross-traffic / attack-traffic sequence from a set
/// of locations. The pairs run as tasks of one [`parallel::parallel_map`],
/// each on its own pre-derived seed, and fold in sweep order.
pub fn run(effort: Effort, seed: u64) -> Table2Result {
    let pairs = (effort.attempts_per_location / 2).max(2);
    let locations = [1usize, 4, 8, 13];
    let tasks: Vec<(usize, u64)> = locations
        .iter()
        .enumerate()
        .flat_map(|(li, &loc)| {
            (0..pairs).map(move |p| (loc, seed.wrapping_add((li * 1000 + p) as u64 * 7919)))
        })
        .collect();
    let outcomes = parallel::parallel_map(&tasks, |_, &(loc, s)| alternating_pair(loc, s));

    let (cross_sent, imd_sent) = (outcomes.len(), outcomes.len());
    let cross_jammed = outcomes.iter().filter(|o| o.cross_jammed).count();
    let imd_jammed = outcomes.iter().filter(|o| o.imd_jammed).count();
    let mut turnaround = RunningStats::new();
    for &t in outcomes.iter().flat_map(|o| &o.turnaround_s) {
        turnaround.push(t);
    }

    let mut artifact = Artifact::new(
        "Table 2",
        "Coexistence: jamming behaviour with radiosonde cross-traffic, and turn-around time",
    );
    artifact.push_series(Series::new(
        "probability of jamming",
        vec![
            (0.0, cross_jammed as f64 / cross_sent.max(1) as f64),
            (1.0, imd_jammed as f64 / imd_sent.max(1) as f64),
        ],
    ));
    artifact.note(stat_table(
        "Jamming probability (x=0 cross-traffic, x=1 IMD-addressed):",
        &[
            (
                "Cross-traffic",
                cross_jammed as f64 / cross_sent.max(1) as f64,
            ),
            (
                "Packets that trigger IMD",
                imd_jammed as f64 / imd_sent.max(1) as f64,
            ),
        ],
    ));
    artifact.note(format!(
        "turn-around {:.0} ± {:.0} µs over {} jam events (paper: 270 ± 23 µs)",
        turnaround.mean() * 1e6,
        turnaround.std_dev() * 1e6,
        turnaround.count()
    ));
    Table2Result {
        cross_sent,
        cross_jammed,
        imd_sent,
        imd_jammed,
        turnaround_mean_s: turnaround.mean(),
        turnaround_std_s: turnaround.std_dev(),
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct Table2Experiment;

impl crate::experiments::registry::Experiment for Table2Experiment {
    fn name(&self) -> &'static str {
        "table2"
    }
    fn reproduces(&self) -> &'static str {
        "Table 2 — coexistence + turn-around time"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_traffic_never_jammed_commands_always() {
        let r = run(Effort::tiny(), 77);
        assert_eq!(r.cross_jammed, 0, "shield jammed legitimate cross-traffic");
        assert_eq!(
            r.imd_jammed, r.imd_sent,
            "shield missed IMD-addressed packets"
        );
        // Software turn-around ≈ 270 µs (plus one block of detection
        // latency).
        assert!(
            r.turnaround_mean_s > 150e-6 && r.turnaround_mean_s < 500e-6,
            "turnaround {} µs",
            r.turnaround_mean_s * 1e6
        );
    }
}
