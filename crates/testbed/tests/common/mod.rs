//! Helpers shared by the defense conformance suite and the golden pins:
//! the defended scenario configuration and the exchange fingerprint.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use hb_imd::commands::Command;
use hb_testbed::defense::Defense;
use hb_testbed::exchange::{run_exchange, ExchangeStats};
use hb_testbed::scenario::{Scenario, ScenarioBuilder, ScenarioConfig};

/// Paper config with the usual model pooling and the defense's edits.
pub fn defended_config(defense: &dyn Defense, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::pooled(seed);
    defense.configure(&mut cfg);
    cfg
}

/// Everything observable about one defended exchange, in comparable form.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub tx: Vec<(u64, Vec<u8>, Vec<u8>)>,
    pub stats: (u64, u64, u64, u64, u64, u64),
    pub defense: ExchangeStats,
    pub energy_bits: u64,
    pub end_tick: u64,
    pub delivered: bool,
}

/// The pinnable summary of a [`Fingerprint`]: an FNV-1a digest and the
/// length of the transmit log, the implant counters, the driver counters
/// (commands sent, replies delivered, handshakes, wake tokens, blocks),
/// the radio-energy bits, the end tick and the delivery verdict.
pub type Pin = (
    u64,
    usize,
    (u64, u64, u64, u64, u64, u64),
    [u64; 5],
    u64,
    u64,
    bool,
);

impl Fingerprint {
    pub fn pin(&self) -> Pin {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (tick, bits, payload) in &self.tx {
            eat(&tick.to_le_bytes());
            eat(bits);
            eat(payload);
        }
        let d = &self.defense;
        (
            h,
            self.tx.len(),
            self.stats,
            [
                d.commands_sent,
                d.replies_delivered,
                d.handshakes_completed,
                d.wake_tokens_sent,
                d.blocks_run,
            ],
            self.energy_bits,
            self.end_tick,
            self.delivered,
        )
    }
}

/// Runs one clean defended `Interrogate` exchange and fingerprints it.
pub fn exchange_fingerprint(defense: &dyn Defense, seed: u64) -> Fingerprint {
    let cfg = defended_config(defense, seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let mut driver = defense.install(&mut builder);
    let mut scenario = builder.build();
    let report = run_exchange(
        &mut scenario,
        &mut [],
        driver.as_mut(),
        Command::Interrogate,
        0.120,
    )
    .unwrap();
    fingerprint_of(&mut scenario, report.delivered, report.stats)
}

pub fn fingerprint_of(
    scenario: &mut Scenario,
    delivered: bool,
    defense: ExchangeStats,
) -> Fingerprint {
    let tx = scenario
        .imd
        .take_tx_log()
        .into_iter()
        .map(|r| (r.start_tick, r.bits, r.payload))
        .collect();
    let s = &scenario.imd.stats;
    Fingerprint {
        tx,
        stats: (
            s.commands_executed,
            s.responses_sent,
            s.therapy_changes,
            s.auth_rejects,
            s.wake_tokens_accepted,
            s.wake_dropped,
        ),
        defense,
        energy_bits: scenario.imd.battery().radio_energy_j().to_bits(),
        end_tick: scenario.medium.tick(),
        delivered,
    }
}
