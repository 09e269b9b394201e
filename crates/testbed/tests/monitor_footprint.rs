//! The wideband monitor's footprint (§7(c)): a shield watches every MICS
//! channel, but a channel whose squelch never opens holds no Sid-monitor
//! state, only a sample clock. On the hospital floor that is 9 of every
//! shield's 10 channels.

use hb_adversary::active::AttackerConfig;
use hb_imd::commands::Command;
use hb_shield::shield::Shield;
use hb_testbed::attack::{self, Attack, FIRE_TICK};
use hb_testbed::experiments::hospital::bench_floor_scenario;
use hb_testbed::scenario::{ScenarioBuilder, ScenarioConfig};

/// The monitored channels whose Sid monitor holds live state.
fn live_channels(shield: &Shield) -> Vec<usize> {
    let monitors = shield.sid_monitors();
    (0..monitors.len())
        .filter(|&ch| !monitors[ch].is_idle())
        .collect()
}

#[test]
fn idle_floor_channels_hold_no_monitor_state() {
    let mut s = bench_floor_scenario(3);
    s.run_blocks(&mut [], 300);
    let shields = s.shield.iter().chain(s.patients.iter().map(|p| &p.shield));
    let mut count = 0;
    for shield in shields {
        let session = shield.config().session_channel;
        assert_eq!(shield.sid_monitors().len(), 10, "all ten MICS channels");
        assert_eq!(
            live_channels(shield),
            vec![session],
            "session channel {session}"
        );
        count += 1;
    }
    assert_eq!(count, 50);
}

#[test]
fn off_session_forgery_makes_its_channel_live() {
    let cfg = ScenarioConfig::paper(77);
    let session = cfg.channel;
    let ch = session + 3;
    let fcc = AttackerConfig::commercial_programmer();
    let forgery = [(FIRE_TICK, Command::Interrogate)];
    // Stop mid-frame, while the forgery is still on the air.
    let scenario = Attack {
        channel: Some(ch),
        ..Attack::new(&fcc, attack::at_location(2), &forgery, 0.004)
    }
    .run(ScenarioBuilder::new(cfg));
    let shield = scenario.shield.as_ref().unwrap();
    let mut expected = vec![session, ch];
    expected.sort_unstable();
    assert_eq!(live_channels(shield), expected);
}
