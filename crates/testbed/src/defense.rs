//! The defense abstraction: alternative IMD-security protocols behind
//! one trait, so the full adversary suite can run against each.
//!
//! The paper's shield is one point in the design space — an external,
//! physical-layer defense. The literature's sharpest contrasts are
//! protocol-layer sessions in the implant's own firmware (IMDfence) and
//! energy-layer wake-up gating (zero-power wake-up radios). A
//! [`Defense`] packages everything a scenario needs to run one of them:
//!
//! * [`Defense::configure`] edits the [`ScenarioConfig`] (shield on/off,
//!   firmware security mode, wake gate) before the builder starts;
//! * [`Defense::install`] adds the defense's antennas (an authorized
//!   programmer, say) to the [`ScenarioBuilder`] and returns the
//!   [`ExchangeDriver`] that carries the legitimate exchange under
//!   [`run_exchange`](crate::exchange::run_exchange);
//! * [`Defense::claims`] states what the defense is supposed to deliver,
//!   so the cross-defense conformance suite can assert each claim
//!   exactly where it is made and nowhere else.
//!
//! [`ShieldDefense`] installs the plain [`ShieldRelay`] driver and is
//! therefore **bit-identical** to the seed engine's relay path: it adds
//! no antennas (the RNG draw order at build time is untouched), and its
//! driver only drains shield state (no medium reads, no RNG) — proven by
//! an equivalence proptest in `tests/defense.rs`, which is why the golden
//! suite needs no re-capture.

use crate::exchange::{listen, ExchangeDriver, ExchangeError, ExchangeStats, ShieldRelay};
use crate::scenario::{Scenario, ScenarioBuilder, ScenarioConfig};
use hb_channel::geometry::Placement;
use hb_channel::medium::Medium;
use hb_channel::sim::Node;
use hb_crypto::micro::MicroSession;
use hb_imd::commands::{Command, Response};
use hb_imd::fence;
use hb_imd::models::SecurityMode;
use hb_imd::programmer::{Programmer, ProgrammerConfig};
use hb_imd::wakeup::{self, WakeConfig};
use hb_mics::band::MicsChannel;
use hb_mics::session::{SessionConfig, SessionNegotiator};
use hb_phy::packet::Serial;

/// What a defense claims to provide. The conformance suite asserts each
/// claim against the matching adversary — and asserts nothing where no
/// claim is made (a wake-up radio does not pretend to stop forgery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseClaims {
    /// Forged commands are not executed by the implant.
    pub authenticates_commands: bool,
    /// A passive eavesdropper does not recover reply plaintext.
    pub encrypts_telemetry: bool,
    /// Unauthorized traffic cannot make the implant spend reply energy
    /// indefinitely.
    pub gates_battery_drain: bool,
}

/// One IMD-security protocol, installable into any scenario.
pub trait Defense: Sync {
    /// Registry-style kebab-case name.
    fn name(&self) -> &'static str;
    /// What this defense claims to provide.
    fn claims(&self) -> DefenseClaims;
    /// Edits the scenario configuration before building (shield on/off,
    /// firmware mode, wake gate). Must not touch fields it does not own.
    fn configure(&self, cfg: &mut ScenarioConfig);
    /// Installs the defense's antennas into the builder and returns the
    /// driver of its legitimate exchange.
    fn install(&self, builder: &mut ScenarioBuilder) -> Box<dyn ExchangeDriver>;
}

/// The defenses the matrix compares, in canonical order.
pub static DEFENSES: [&dyn Defense; 3] = [&ShieldDefense, &ImdFenceDefense, &WakeupRadioDefense];

// ---------------------------------------------------------------------------
// Shield
// ---------------------------------------------------------------------------

/// The paper's shield, behind the trait: configuration is untouched
/// (paper defaults already wear the shield), no antennas are added, and
/// the driver is the plain [`ShieldRelay`].
pub struct ShieldDefense;

impl Defense for ShieldDefense {
    fn name(&self) -> &'static str {
        "shield"
    }

    fn claims(&self) -> DefenseClaims {
        DefenseClaims {
            authenticates_commands: true,
            encrypts_telemetry: true,
            gates_battery_drain: true,
        }
    }

    fn configure(&self, _cfg: &mut ScenarioConfig) {}

    fn install(&self, _builder: &mut ScenarioBuilder) -> Box<dyn ExchangeDriver> {
        Box::new(ShieldRelay::default())
    }
}

// ---------------------------------------------------------------------------
// Authorized programmer (IMDfence and wake-up radio)
// ---------------------------------------------------------------------------

/// Where the authorized programmer stands: the paper's baseline
/// programmer distance (Fig. 6's 30 cm bedside position).
const PROGRAMMER_POSITION_M: (f64, f64) = (0.3, 0.0);

/// Ticks of guard space between protocol steps (1 ms at 300 kHz) — the
/// receiver needs its frame fully processed before the next one starts.
const STEP_GUARD_TICKS: u64 = 300;

/// The shield-less defenses' driver: an authorized [`Programmer`] at the
/// bedside that performs listen-before-talk (via a [`SessionNegotiator`]
/// parked on the session channel) and then runs the defense's protocol.
struct ProgrammerDriver {
    prog: Programmer,
    serial: Serial,
    negotiator: SessionNegotiator,
    cmd: Command,
    protocol: Protocol,
    stats: ExchangeStats,
}

/// Where a programmer-driven exchange stands.
enum Protocol {
    /// IMDfence: sealed HELLO handshake, then the sealed command.
    Fence(FencePhase),
    /// Wake-up radio: wake token, then the plaintext command.
    Wake(WakePhase),
}

enum FencePhase {
    AwaitChannel,
    HelloSent(MicroSession),
    CmdSent(MicroSession),
    Done,
}

enum WakePhase {
    AwaitChannel,
    TokenSent {
        /// End tick of the token burst, captured at schedule time (the
        /// scheduler forgets bursts once they have played out).
        token_end: u64,
    },
    CmdSent,
    Done,
}

impl ProgrammerDriver {
    /// Places the programmer antenna (`label`) in the builder and returns
    /// the driver, listening on the scenario's session channel.
    fn install(builder: &mut ScenarioBuilder, label: &str, protocol: Protocol) -> Box<Self> {
        let channel = builder.config().channel;
        let serial = builder.config().imd_model.config(channel).serial;
        let antenna = builder.add_at(Placement::los(
            label,
            PROGRAMMER_POSITION_M.0,
            PROGRAMMER_POSITION_M.1,
        ));
        let prog = Programmer::new(
            ProgrammerConfig {
                channel,
                ..ProgrammerConfig::default()
            },
            antenna,
        );
        Box::new(ProgrammerDriver {
            prog,
            serial,
            negotiator: SessionNegotiator::scanning_from(
                SessionConfig::default(),
                MicsChannel(channel),
            ),
            cmd: Command::Interrogate,
            protocol,
            stats: ExchangeStats::default(),
        })
    }

    /// One IMDfence step; `next` is the first tick of the next block.
    fn fence_step(&mut self, phase: FencePhase, next: u64) -> FencePhase {
        match phase {
            FencePhase::AwaitChannel if self.negotiator.established() => {
                let hello = fence::hello_payload(&FENCE_MASTER_KEY, &self.serial, 1);
                self.prog.send_payload_at(next, self.serial, hello);
                FencePhase::HelloSent(MicroSession::programmer_side(fence::session_key(
                    &FENCE_MASTER_KEY,
                    1,
                )))
            }
            FencePhase::HelloSent(mut sess) => {
                for frame in self.prog.take_raw() {
                    if let Ok(pt) = sess.open(&frame.payload) {
                        if Response::from_payload(&pt) == Some(Response::Ack) {
                            self.stats.handshakes_completed += 1;
                            let sealed = sess.seal(&self.cmd.to_payload());
                            self.prog
                                .send_payload_at(next + STEP_GUARD_TICKS, self.serial, sealed);
                            self.stats.commands_sent += 1;
                            return FencePhase::CmdSent(sess);
                        }
                    }
                }
                FencePhase::HelloSent(sess)
            }
            FencePhase::CmdSent(mut sess) => {
                for frame in self.prog.take_raw() {
                    if let Ok(pt) = sess.open(&frame.payload) {
                        if Response::from_payload(&pt).is_some() {
                            self.stats.replies_delivered += 1;
                            return FencePhase::Done;
                        }
                    }
                }
                FencePhase::CmdSent(sess)
            }
            FencePhase::Done => {
                self.prog.take_raw();
                FencePhase::Done
            }
            phase @ FencePhase::AwaitChannel => phase,
        }
    }

    /// One wake-up-radio step at `tick`; `next` is the first tick of the
    /// next block.
    fn wake_step(&mut self, phase: WakePhase, tick: u64, next: u64) -> WakePhase {
        match phase {
            WakePhase::AwaitChannel if self.negotiator.established() => {
                let token = wakeup::wake_token(&WAKE_KEY, &self.serial, 1);
                self.prog.send_payload_at(next, self.serial, token);
                self.stats.wake_tokens_sent += 1;
                WakePhase::TokenSent {
                    // Invariant: the token was scheduled on the line above.
                    token_end: self.prog.tx_end_tick().expect("token just scheduled"),
                }
            }
            // Once the token has fully aired (plus a guard for the gate to
            // process it), send the command in the open window. Stock
            // plaintext from here on.
            WakePhase::TokenSent { token_end } if tick >= token_end + STEP_GUARD_TICKS => {
                self.prog.send_command_at(next, self.serial, self.cmd);
                self.stats.commands_sent += 1;
                WakePhase::CmdSent
            }
            WakePhase::CmdSent => {
                let delivered = !self.prog.take_responses().is_empty();
                self.prog.take_raw();
                if delivered {
                    self.stats.replies_delivered += 1;
                    WakePhase::Done
                } else {
                    WakePhase::CmdSent
                }
            }
            WakePhase::Done => {
                self.prog.take_responses();
                self.prog.take_raw();
                WakePhase::Done
            }
            phase => phase,
        }
    }
}

impl Node for ProgrammerDriver {
    fn label(&self) -> &str {
        "defense-programmer"
    }
    fn produce(&mut self, medium: &mut Medium) {
        self.prog.produce(medium);
    }
    fn consume(&mut self, medium: &mut Medium) {
        self.prog.consume(medium);
    }
}

impl ExchangeDriver for ProgrammerDriver {
    fn begin(&mut self, _scenario: &mut Scenario, cmd: Command) -> Result<(), ExchangeError> {
        self.cmd = cmd;
        Ok(())
    }

    fn observe(&mut self, s: &mut Scenario) -> bool {
        let tick = s.medium.tick();
        let next = tick + s.medium.config().block_len as u64;
        let channel = s.channel();
        listen(
            &mut self.negotiator,
            &mut s.medium,
            &s.imd,
            self.prog.antenna(),
            channel,
            self.prog.transmitting(tick),
        );
        self.protocol = match std::mem::replace(&mut self.protocol, Protocol::Wake(WakePhase::Done))
        {
            Protocol::Fence(phase) => Protocol::Fence(self.fence_step(phase, next)),
            Protocol::Wake(phase) => Protocol::Wake(self.wake_step(phase, tick, next)),
        };
        false
    }

    fn stats(&self) -> ExchangeStats {
        self.stats.clone()
    }
}

// ---------------------------------------------------------------------------
// IMDfence
// ---------------------------------------------------------------------------

/// Master key shared by IMDfence firmware and authorized programmers.
/// Fixed across trials: the security of the scheme is in the protocol,
/// not in hiding the simulation's key material.
pub const FENCE_MASTER_KEY: [u8; 32] = [0xF3; 32];

/// IMDfence-style protocol security in the implant's own firmware: no
/// shield at all. The scenario's device runs
/// [`SecurityMode::Authenticated`], an authorized [`Programmer`] node
/// performs listen-before-talk (via an [`SessionNegotiator`] parked on
/// the session channel), a HELLO handshake derives a per-session key,
/// and the command and reply cross the air sealed under
/// [`hb_crypto::micro`]. An eavesdropper sees ciphertext; a forger gets
/// Nak'd; but every refusal *costs the implant a transmission* — the
/// battery-drain exposure the matrix quantifies — and under jamming
/// there is no relay to fall back on, so availability degrades.
pub struct ImdFenceDefense;

impl Defense for ImdFenceDefense {
    fn name(&self) -> &'static str {
        "imdfence"
    }

    fn claims(&self) -> DefenseClaims {
        DefenseClaims {
            authenticates_commands: true,
            encrypts_telemetry: true,
            gates_battery_drain: false,
        }
    }

    fn configure(&self, cfg: &mut ScenarioConfig) {
        cfg.shield_enabled = false;
        cfg.imd_security = SecurityMode::Authenticated {
            key: FENCE_MASTER_KEY,
        };
    }

    fn install(&self, builder: &mut ScenarioBuilder) -> Box<dyn ExchangeDriver> {
        ProgrammerDriver::install(
            builder,
            "fence-prog",
            Protocol::Fence(FencePhase::AwaitChannel),
        )
    }
}

// ---------------------------------------------------------------------------
// Wake-up radio
// ---------------------------------------------------------------------------

/// Key shared by the wake-up receiver and authorized programmers.
pub const WAKE_KEY: [u8; 32] = [0x57; 32];

/// Zero-power wake-up gating: no shield, stock (plaintext) firmware, but
/// the implant's main radio stays off until an authenticated wake token
/// arrives ([`hb_imd::wakeup`]). Battery-drain traffic is ignored for
/// free while the gate is closed; once an authorized session opens the
/// window, the air carries plaintext — eavesdropping and in-window
/// forgery are explicitly *not* claimed.
pub struct WakeupRadioDefense;

impl Defense for WakeupRadioDefense {
    fn name(&self) -> &'static str {
        "wakeup-radio"
    }

    fn claims(&self) -> DefenseClaims {
        DefenseClaims {
            authenticates_commands: false,
            encrypts_telemetry: false,
            gates_battery_drain: true,
        }
    }

    fn configure(&self, cfg: &mut ScenarioConfig) {
        cfg.shield_enabled = false;
        cfg.imd_wake = Some(WakeConfig::new(WAKE_KEY));
    }

    fn install(&self, builder: &mut ScenarioBuilder) -> Box<dyn ExchangeDriver> {
        ProgrammerDriver::install(
            builder,
            "wake-prog",
            Protocol::Wake(WakePhase::AwaitChannel),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{run_exchange, ExchangeReport};

    fn run_clean(defense: &dyn Defense, seed: u64, seconds: f64) -> (ExchangeReport, Scenario) {
        let mut cfg = ScenarioConfig::paper(seed);
        defense.configure(&mut cfg);
        let mut builder = ScenarioBuilder::new(cfg);
        let mut driver = defense.install(&mut builder);
        let mut scenario = builder.build();
        let report = run_exchange(
            &mut scenario,
            &mut [],
            driver.as_mut(),
            Command::Interrogate,
            seconds,
        )
        .unwrap();
        (report, scenario)
    }

    #[test]
    fn every_defense_delivers_on_a_clean_channel() {
        for d in DEFENSES {
            let (report, _) = run_clean(d, 11, 0.120);
            assert!(report.delivered, "{} must deliver", d.name());
            assert!(report.stats.commands_sent >= 1, "{}", d.name());
            assert!(report.stats.replies_delivered >= 1, "{}", d.name());
        }
    }

    #[test]
    fn fence_exchange_is_sealed_end_to_end() {
        let (report, scenario) = run_clean(&ImdFenceDefense, 13, 0.120);
        assert!(report.delivered);
        assert_eq!(report.stats.handshakes_completed, 1);
        // The device executed exactly the one sealed command and refused
        // nothing (the HELLO is not a command).
        assert_eq!(scenario.imd.stats.commands_executed, 1);
        assert_eq!(scenario.imd.stats.auth_rejects, 0);
    }

    #[test]
    fn wakeup_exchange_spends_a_token() {
        let (report, scenario) = run_clean(&WakeupRadioDefense, 17, 0.120);
        assert!(report.delivered);
        assert_eq!(report.stats.wake_tokens_sent, 1);
        assert_eq!(scenario.imd.stats.wake_tokens_accepted, 1);
        assert_eq!(scenario.imd.stats.commands_executed, 1);
    }

    #[test]
    fn claims_are_distinct_and_names_kebab() {
        let mut names = Vec::new();
        for d in DEFENSES {
            assert!(d.name().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            names.push(d.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DEFENSES.len());
    }
}
