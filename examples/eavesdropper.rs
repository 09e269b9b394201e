//! The confidentiality scenario of §6/§10.2: a passive eavesdropper 20 cm
//! from the patient tries to read the IMD's telemetry — first without the
//! shield (everything leaks, including the patient's name), then with it
//! (the eavesdropper is reduced to coin-flipping).
//!
//! Run with: `cargo run --release --example eavesdropper`

use heartbeats::adversary::eavesdropper::Eavesdropper;
use heartbeats::channel::sim::Node;
use heartbeats::imd::commands::Command;
use heartbeats::imd::programmer::{Programmer, ProgrammerConfig};
use heartbeats::phy::bits::bits_to_bytes;
use heartbeats::testbed::experiments::relay_one_exchange;
use heartbeats::testbed::scenario::{ScenarioBuilder, ScenarioConfig};

fn main() {
    println!("== a passive eavesdropper at 20 cm ==\n");
    without_shield();
    with_shield();
}

/// No shield: a bare programmer↔IMD session, overheard.
fn without_shield() {
    let mut builder = ScenarioBuilder::new(ScenarioConfig::paper_no_shield(11));
    let prog_ant = builder.add_at_location(2, "programmer");
    let eve_ant = builder.add_at_location(1, "eavesdropper");
    let mut scenario = builder.build();
    let channel = scenario.channel();
    let serial = scenario.imd.config().serial;

    let mut prog = Programmer::new(
        ProgrammerConfig {
            channel,
            ..Default::default()
        },
        prog_ant,
    );
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, channel);

    // The clinic reads the patient record over the air.
    let record = heartbeats::imd::telemetry::PatientRecord::demo();
    let mut leaked = Vec::new();
    for chunk in 0..record.chunk_count() {
        prog.send_command_at(
            scenario.medium.tick(),
            serial,
            Command::ReadPatient { chunk },
        );
        scenario.run_seconds(
            &mut [&mut prog as &mut dyn Node, &mut eve as &mut dyn Node],
            0.06,
        );
        // The eavesdropper decodes each reply with perfect timing.
        for rec in scenario.imd.take_tx_log() {
            if let Some(bits) = eve.decode_aligned(rec.start_tick, rec.bits.len()) {
                let whole = bits_to_bytes(&bits[..bits.len() - bits.len() % 8]);
                // Skip the air-frame overhead and the Data response header
                // (opcode + chunk index); drop the trailing CRC.
                if whole.len() > 24 {
                    leaked.extend_from_slice(&whole[23..whole.len() - 2]);
                }
            }
        }
        eve.clear();
    }
    let printable: String = leaked
        .iter()
        .map(|&b| {
            if b.is_ascii_graphic() || b == b' ' {
                b as char
            } else {
                '.'
            }
        })
        .collect();
    println!("shield ABSENT:  eavesdropper reconstructed payload bytes:");
    println!("   {printable}");
    println!("   (the patient's record crossed the air in cleartext)\n");
}

/// With the shield: same telemetry, now jammed on the air.
fn with_shield() {
    let mut builder = ScenarioBuilder::new(ScenarioConfig::paper(11));
    let eve_ant = builder.add_at_location(1, "eavesdropper");
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());

    let record = heartbeats::imd::telemetry::PatientRecord::demo();
    let mut errors = 0u64;
    let mut total = 0u64;
    for chunk in 0..record.chunk_count() {
        relay_one_exchange(
            &mut scenario,
            &mut [&mut eve],
            Command::ReadPatient { chunk },
        );
        let (e, b) = eve.score(&scenario.imd.take_tx_log());
        errors += e;
        total += b;
        eve.clear();
    }
    println!(
        "shield PRESENT: eavesdropper BER = {:.3} over {} bits — indistinguishable from guessing",
        errors as f64 / total as f64,
        total
    );
    let shield = scenario.shield.as_ref().unwrap();
    println!(
        "   meanwhile the shield itself decoded {}/{} of the jammed replies",
        shield.stats.imd_frames_ok, scenario.imd.stats.responses_sent
    );
}
