//! # heartbeats — "They Can Hear Your Heartbeats" in Rust
//!
//! A full reproduction of Gollakota et al., *"They Can Hear Your
//! Heartbeats: Non-Invasive Security for Implantable Medical Devices"*
//! (SIGCOMM 2011), built on a simulated MICS-band physical layer.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`dsp`] — complex-baseband DSP (FFT, tone correlator, shaped noise, spectra).
//! * [`phy`] — FSK/GMSK modems, framing, streaming detection.
//! * [`channel`] — pathloss/fading models and the shared medium.
//! * [`mics`] — the 402–405 MHz band plan and FCC rules.
//! * [`crypto`] — the ChaCha20-Poly1305 programmer channel.
//! * [`imd`] — Virtuoso/Concerto device models and the programmer.
//! * [`shield`] — **the contribution**: the jammer-cum-receiver shield.
//! * [`adversary`] — eavesdroppers and active attackers.
//! * [`testbed`] — the Fig. 6 testbed and every experiment of §10–§11.
//!
//! ## Quickstart
//!
//! ```
//! use heartbeats::testbed::scenario::{ScenarioBuilder, ScenarioConfig};
//! use heartbeats::imd::commands::Command;
//!
//! // Build the paper's testbed: an implanted ICD with a shield worn over it.
//! let mut scenario = ScenarioBuilder::new(ScenarioConfig::paper(42)).build();
//!
//! // Relay interrogations through the shield; it jams the replies on the
//! // air while decoding them itself. (A few exchanges, because the
//! // shield's packet loss is small but not zero — that is Fig. 10.)
//! let delivered = (0..3)
//!     .filter(|_| {
//!         heartbeats::testbed::experiments::relay_one_exchange(
//!             &mut scenario, &mut [], Command::Interrogate)
//!         .delivered
//!     })
//!     .count();
//! assert!(delivered >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hb_adversary as adversary;
pub use hb_channel as channel;
pub use hb_crypto as crypto;
pub use hb_dsp as dsp;
pub use hb_imd as imd;
pub use hb_mics as mics;
pub use hb_phy as phy;
pub use hb_shield as shield;
pub use hb_testbed as testbed;
