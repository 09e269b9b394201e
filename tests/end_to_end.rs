//! Cross-crate integration tests: the paper's headline claims, executed
//! end to end through the public facade API.

use heartbeats::adversary::active::{ActiveAttacker, AttackerConfig};
use heartbeats::adversary::eavesdropper::Eavesdropper;
use heartbeats::channel::sim::Node;
use heartbeats::crypto::session::SecureSession;
use heartbeats::imd::commands::{Command, Response};
use heartbeats::testbed::attack::{self, Attack, AttackGoal, AttackOutcome, FIRE_TICK};
use heartbeats::testbed::experiments::relay_one_exchange;
use heartbeats::testbed::scenario::{ScenarioBuilder, ScenarioConfig};

/// §4 + §10.2: the complete secure path — programmer seals a command, the
/// shield relays it, jams the reply, decodes it, and seals it back — while
/// a nearby eavesdropper learns nothing.
#[test]
fn full_secure_relay_with_eavesdropper() {
    let mut builder = ScenarioBuilder::new(ScenarioConfig::paper(101));
    let eve_ant = builder.add_at_location(1, "eve");
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());

    let key = scenario.shield.as_ref().unwrap().config().session_key;
    let mut programmer = SecureSession::programmer_side(key);

    let mut got_status = false;
    let mut errors = 0u64;
    let mut total = 0u64;
    for _ in 0..6 {
        let sealed = programmer.seal_frame(&Command::Interrogate.to_payload());
        scenario
            .shield
            .as_mut()
            .unwrap()
            .relay_sealed_command(&sealed)
            .unwrap();
        scenario.run_seconds(&mut [&mut eve as &mut dyn Node], 0.060);

        for frame in scenario.shield.as_mut().unwrap().take_sealed_responses() {
            let plain = programmer.open_frame(&frame).unwrap();
            if matches!(
                Response::from_payload(&plain),
                Some(Response::Status { .. })
            ) {
                got_status = true;
            }
        }
        let (e, b) = eve.score(&scenario.imd.take_tx_log());
        errors += e;
        total += b;
        eve.clear();
    }
    assert!(got_status, "programmer must receive an authentic Status");
    let ber = errors as f64 / total as f64;
    assert!(
        (ber - 0.5).abs() < 0.1,
        "eavesdropper BER {ber} must be ~0.5 while the relay works"
    );
}

/// §3.1 inalterability premise: the IMD itself is stock — the shield never
/// requires any change to it. Here the same unmodified device is used with
/// and without a shield.
#[test]
fn same_imd_with_and_without_shield() {
    // Without a shield: a legitimate programmer session works directly.
    let mut builder = ScenarioBuilder::new(ScenarioConfig::paper_no_shield(55));
    let prog_ant = builder.add_at_location(2, "programmer");
    let mut scenario = builder.build();
    let channel = scenario.channel();
    let serial = scenario.imd.config().serial;
    let mut prog = heartbeats::imd::programmer::Programmer::new(
        heartbeats::imd::programmer::ProgrammerConfig {
            channel,
            ..Default::default()
        },
        prog_ant,
    );
    prog.send_command_at(0, serial, Command::Interrogate);
    scenario.run_seconds(&mut [&mut prog as &mut dyn Node], 0.06);
    assert_eq!(prog.take_responses().len(), 1);

    // With a shield: same device model, now reachable only via the relay.
    let mut scenario2 = ScenarioBuilder::new(ScenarioConfig::paper(55)).build();
    relay_one_exchange(&mut scenario2, &mut [], Command::Interrogate);
    assert_eq!(scenario2.imd.stats.commands_executed, 1);
}

/// §10.3: the protection matrix — FCC-power attacks blocked everywhere,
/// 100× attacks only succeed up close and always with the alarm.
#[test]
fn protection_matrix() {
    let fcc = AttackerConfig::commercial_programmer();
    let hot = AttackerConfig::high_power_custom();

    let run = |loc: usize, shield: bool, cfg: &AttackerConfig, seed: u64| {
        let scfg = ScenarioConfig {
            shield_enabled: shield,
            ..ScenarioConfig::paper(seed)
        };
        let goal = AttackGoal::ElicitReply;
        let forgery = [(FIRE_TICK, goal.command())];
        let scenario = Attack::new(cfg, attack::at_location(loc), &forgery, 0.09)
            .run(ScenarioBuilder::new(scfg));
        let outcome = AttackOutcome::of(goal, &scenario);
        (outcome.success, outcome.alarm)
    };

    // FCC power, 20 cm: works without shield, blocked with it.
    assert!(run(1, false, &fcc, 1).0);
    assert!(!run(1, true, &fcc, 1).0);
    // 100x power, 20 cm: beats the shield — but the alarm rings.
    let (replied, alarm) = run(1, true, &hot, 2);
    assert!(replied, "100x at 20 cm should capture the IMD");
    assert!(alarm, "every high-power success must raise the alarm");
    // 100x power, 13 m: shield wins.
    assert!(!run(7, true, &hot, 3).0);
}

/// §7: an adversary trying to alter the *shield's own* transmission makes
/// the shield switch from transmitting to jamming.
#[test]
fn concurrent_transmission_triggers_jamming() {
    let mut builder = ScenarioBuilder::new(ScenarioConfig::paper(88));
    let atk_ant = builder.add_at_location(1, "atk");
    let mut scenario = builder.build();
    let mut atk = ActiveAttacker::new(AttackerConfig::high_power_custom(), atk_ant);

    // Queue a relayed command, then blast energy over it mid-flight.
    scenario
        .shield
        .as_mut()
        .unwrap()
        .queue_command(Command::Interrogate);
    let ch = scenario.channel();
    atk.inject_waveform(800, ch, vec![hb_dsp::C64::ONE; 3000]);
    scenario.run_seconds(&mut [&mut atk as &mut dyn Node], 0.09);

    let shield = scenario.shield.as_ref().unwrap();
    let concurrent = shield.events.iter().any(|e| {
        matches!(
            e.kind,
            heartbeats::shield::shield::ShieldEventKind::ConcurrentSignal { .. }
        )
    });
    assert!(concurrent, "shield must detect the concurrent signal");
    assert!(
        shield.stats.active_jam_events > 0,
        "shield must switch from transmission to jamming"
    );
    // The garbled/aborted command must not have reached the IMD intact.
    assert_eq!(scenario.imd.stats.commands_executed, 0);
}

/// §7(c): the wideband monitor watches every MICS channel, not just the
/// session channel. A forged command on another channel opens that
/// channel's per-block squelch, its `Sid` is detected there, and the
/// shield jams that channel.
#[test]
fn off_session_channel_command_is_jammed() {
    use heartbeats::shield::shield::{JamReason, ShieldEventKind};
    let cfg = ScenarioConfig::paper(77);
    let ch = cfg.channel + 3;
    let fcc = AttackerConfig::commercial_programmer();
    let forgery = [(FIRE_TICK, Command::Interrogate)];
    let scenario = Attack {
        channel: Some(ch),
        ..Attack::new(&fcc, attack::at_location(2), &forgery, 0.05)
    }
    .run(ScenarioBuilder::new(cfg));

    let shield = scenario.shield.as_ref().unwrap();
    let detected = shield
        .events
        .iter()
        .any(|e| matches!(e.kind, ShieldEventKind::SidDetected { channel, .. } if channel == ch));
    let jammed = shield.events.iter().any(|e| {
        matches!(
            e.kind,
            ShieldEventKind::JamStart { channel, reason: JamReason::Active } if channel == ch
        )
    });
    assert!(detected, "Sid on channel {ch} must be detected");
    assert!(jammed, "channel {ch} must be actively jammed");
}

/// The encrypted channel rejects replays end to end (an adversary
/// re-sending a captured sealed command gets nowhere).
#[test]
fn sealed_command_replay_is_rejected() {
    let mut scenario = ScenarioBuilder::new(ScenarioConfig::paper(99)).build();
    let key = scenario.shield.as_ref().unwrap().config().session_key;
    let mut programmer = SecureSession::programmer_side(key);

    let sealed = programmer.seal_frame(&Command::Interrogate.to_payload());
    let shield = scenario.shield.as_mut().unwrap();
    shield.relay_sealed_command(&sealed).unwrap();
    // Replay of the identical ciphertext must fail.
    assert!(shield.relay_sealed_command(&sealed).is_err());
    // And a bit-flipped forgery must fail too.
    let mut forged = sealed.clone();
    let n = forged.len();
    forged[n - 1] ^= 1;
    assert!(shield.relay_sealed_command(&forged).is_err());
}
