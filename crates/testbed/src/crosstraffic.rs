//! Legitimate cross-traffic: a meteorological radiosonde transmitter,
//! and the §11 coexistence experiment built on it.
//!
//! §11: meteorological aids are the *primary* users of the 402–405 MHz
//! band; the shield must never jam them. The paper models them after the
//! Vaisala RS92-AGP digital radiosonde, which uses GMSK — so do we. The
//! [`CrossTrafficExperiment`] quantifies the selectivity claim from the
//! `coexistence` example as a registry experiment: a radiosonde packet
//! and an IMD-addressed forged command air from the *same* antenna at
//! several Fig. 6 locations; the shield must jam every command and no
//! telemetry.

use crate::experiments::registry::{EvalCtx, Experiment};
use crate::experiments::Effort;
use crate::montecarlo::trial_seed;
use crate::report::{Artifact, Series};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::{ActiveAttacker, AttackerConfig};
use hb_channel::medium::{AntennaId, Medium, Tick};
use hb_channel::sim::Node;
use hb_channel::txsched::TxScheduler;
use hb_dsp::units::ratio_from_db;
use hb_phy::bits::Prbs;
use hb_phy::gmsk::{GmskModem, GmskParams};
use hb_shield::shield::{ShieldEvent, ShieldEventKind};

/// A radiosonde-style GMSK transmitter.
pub struct CrossTrafficNode {
    antenna: AntennaId,
    modem: GmskModem,
    tx: TxScheduler,
    tx_power_dbm: f64,
    prbs: Prbs,
    /// Ground-truth (start, end, channel) of each packet sent.
    pub tx_log: Vec<(Tick, Tick, usize)>,
}

impl CrossTrafficNode {
    /// Creates a radiosonde transmitter on `antenna` at `tx_power_dbm`.
    pub fn new(antenna: AntennaId, tx_power_dbm: f64) -> Self {
        CrossTrafficNode {
            antenna,
            modem: GmskModem::new(GmskParams::radiosonde_rs92()),
            tx: TxScheduler::new(),
            tx_power_dbm,
            prbs: Prbs::new(0x155),
            tx_log: Vec::new(),
        }
    }

    /// Schedules one telemetry packet of `n_bits` at `start_tick`.
    pub fn send_packet(&mut self, start_tick: Tick, channel: usize, n_bits: usize) {
        let bits = self.prbs.bits(n_bits);
        let mut wave = self.modem.modulate(&bits);
        let amp = ratio_from_db(self.tx_power_dbm).sqrt();
        for s in wave.iter_mut() {
            *s = s.scale(amp);
        }
        let end = start_tick + wave.len() as Tick;
        self.tx.schedule(start_tick, channel, wave);
        self.tx_log.push((start_tick, end, channel));
    }

    /// End tick of the most recent packet.
    pub fn last_end(&self) -> Option<Tick> {
        self.tx_log.last().map(|&(_, e, _)| e)
    }

    /// The transmitter's antenna.
    pub fn antenna(&self) -> AntennaId {
        self.antenna
    }
}

impl Node for CrossTrafficNode {
    fn label(&self) -> &str {
        "radiosonde"
    }

    fn produce(&mut self, medium: &mut Medium) {
        self.tx.produce(self.antenna, medium);
    }

    fn consume(&mut self, _medium: &mut Medium) {}
}

/// One coexistence repetition at `location`: a GMSK radiosonde packet,
/// then a forged IMD command from the same antenna. Returns
/// `(sonde_jammed, command_jammed)` from the shield's event log — the
/// paper's selectivity claim is `(false, true)`.
fn coexistence_once(location: usize, seed: u64) -> (bool, bool) {
    let mut builder = ScenarioBuilder::new(ScenarioConfig::paper(seed));
    let node_ant = builder.add_at_location(location, "mixed-transmitter");
    let mut scenario = builder.build();
    let channel = scenario.channel();
    let serial = scenario.imd.config().serial;

    let mut sonde = CrossTrafficNode::new(node_ant, hb_mics::fcc_eirp_limit_dbm());
    sonde.send_packet(64, channel, 80);
    let sonde_interval = (64, sonde.last_end().unwrap());

    let mut attacker = ActiveAttacker::new(AttackerConfig::commercial_programmer(), node_ant);
    let cmd_start = sonde_interval.1 + 3000;
    attacker.send_forged_command(
        cmd_start,
        channel,
        serial,
        hb_imd::commands::Command::Interrogate,
    );
    let cmd_interval = (cmd_start, attacker.last_tx_end().unwrap());

    scenario.run_seconds(
        &mut [&mut sonde as &mut dyn Node, &mut attacker as &mut dyn Node],
        0.12,
    );

    let jams = jam_intervals(&scenario.shield.as_ref().unwrap().events, channel);
    let jammed = |interval| jams.iter().any(|&j| overlaps(j, interval));
    (jammed(sonde_interval), jammed(cmd_interval))
}

/// The shield's jamming intervals `(start, end)` on `channel`, in the
/// order its event log closes them; a jam still on when the log ends
/// runs to `Tick::MAX`.
pub fn jam_intervals(events: &[ShieldEvent], channel: usize) -> Vec<(Tick, Tick)> {
    let mut open: Option<Tick> = None;
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            ShieldEventKind::JamStart { channel: ch, .. } if ch == channel => {
                open = open.or(Some(e.tick));
            }
            ShieldEventKind::JamEnd { channel: ch } if ch == channel => {
                if let Some(start) = open.take() {
                    out.push((start, e.tick));
                }
            }
            _ => {}
        }
    }
    out.extend(open.map(|start| (start, Tick::MAX)));
    out
}

/// Whether the half-open tick intervals `a` and `b` overlap.
pub fn overlaps(a: (Tick, Tick), b: (Tick, Tick)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// Locations the coexistence sweep samples: adjacent to the patient,
/// mid-room, and across the room (Fig. 6 numbering).
const COEX_LOCATIONS: [usize; 3] = [2, 4, 7];

/// Runs the §11 coexistence sweep: per location, the fraction of
/// radiosonde packets jammed (must be 0) and of IMD-addressed commands
/// jammed (must be 1), over effort-scaled repetitions with fresh
/// channel realizations.
pub fn run(effort: Effort, seed: u64) -> Artifact {
    let reps = (effort.runs / 8).clamp(2, 8);
    let rows = crate::parallel::parallel_map(&COEX_LOCATIONS, |li, &loc| {
        let mut sonde_jams = 0u64;
        let mut cmd_jams = 0u64;
        for r in 0..reps {
            let s = trial_seed(seed, (li * 1024 + r) as u64);
            let (sonde_jammed, cmd_jammed) = coexistence_once(loc, s);
            sonde_jams += sonde_jammed as u64;
            cmd_jams += cmd_jammed as u64;
        }
        (
            loc,
            sonde_jams as f64 / reps as f64,
            cmd_jams as f64 / reps as f64,
        )
    });

    let mut artifact = Artifact::new(
        "Extension: cross-traffic coexistence",
        "§11 — radiosonde telemetry vs IMD-addressed commands from the same antenna",
    );
    artifact.push_series(Series::new(
        "radiosonde packets jammed (fraction)",
        rows.iter().map(|&(l, s, _)| (l as f64, s)).collect(),
    ));
    artifact.push_series(Series::new(
        "IMD-addressed commands jammed (fraction)",
        rows.iter().map(|&(l, _, c)| (l as f64, c)).collect(),
    ));
    let worst_sonde = rows.iter().map(|&(_, s, _)| s).fold(0.0, f64::max);
    let worst_cmd = rows.iter().map(|&(_, _, c)| c).fold(1.0, f64::min);
    artifact.note(format!(
        "{} repetitions per location; worst-case sonde jam fraction {:.3} \
         (paper: 0 — GMSK carries no Sid, §7(a)), worst-case command jam \
         fraction {:.3} (paper: 1)",
        reps, worst_sonde, worst_cmd
    ));
    artifact
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct CrossTrafficExperiment;

impl Experiment for CrossTrafficExperiment {
    fn name(&self) -> &'static str {
        "crosstraffic"
    }
    fn reproduces(&self) -> &'static str {
        "§11 — coexistence: primary-user telemetry untouched, IMD-addressed commands jammed"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_channel::geometry::Placement;
    use hb_channel::medium::MediumConfig;
    use hb_dsp::units::db_from_ratio;

    #[test]
    fn packet_airs_at_configured_power() {
        let mut m = Medium::new(
            MediumConfig {
                noise_floor_dbm: -150.0,
                ..Default::default()
            },
            4,
        );
        let tx = m.add_antenna(Placement::los("sonde", 0.0, 0.0));
        let rx = m.add_antenna(Placement::los("rx", 1.0, 0.0));
        m.set_gain(tx, rx, hb_dsp::C64::ONE);
        let mut sonde = CrossTrafficNode::new(tx, -16.0);
        sonde.send_packet(0, 0, 100);
        let mut acc = Vec::new();
        for _ in 0..200 {
            sonde.produce(&mut m);
            acc.extend(m.receive(rx, 0));
            m.end_block();
        }
        let body = &acc[100..3000];
        let p = db_from_ratio(hb_dsp::complex::mean_power(body));
        assert!((p - (-16.0)).abs() < 0.5, "on-air {p} dBm");
        assert_eq!(sonde.tx_log.len(), 1);
    }

    #[test]
    fn shield_is_selective_about_what_it_jams() {
        // The §11 selectivity claim at the example's location and seed:
        // the GMSK radiosonde packet airs untouched, the IMD-addressed
        // command from the very same antenna is jammed.
        let (sonde_jammed, cmd_jammed) = coexistence_once(4, 33);
        assert!(!sonde_jammed, "primary-user telemetry must not be jammed");
        assert!(cmd_jammed, "the forged IMD command must be jammed");
    }
}
