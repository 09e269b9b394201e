//! # hb-shield — the shield: non-invasive security for IMDs
//!
//! The primary contribution of *"They Can Hear Your Heartbeats"*
//! (SIGCOMM 2011), reproduced in simulation:
//!
//! * [`fullduplex`] — the jammer-cum-receiver (Eqs. 1–5): antidote-based
//!   cancellation that needs no antenna separation, so the shield can be a
//!   small wearable device.
//! * [`jamsignal`] — random jamming shaped to the IMD's FSK power profile
//!   (Fig. 5), making band-pass filtering attacks useless.
//! * [`shield`] — the device itself: encrypted programmer relay, passive
//!   jam windows over IMD replies, wideband `Sid` monitoring with
//!   jam-until-idle, own-transmission guarding, and the `Pthresh` alarm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fullduplex;
pub mod jamsignal;
pub mod shield;

pub use fullduplex::{CouplingConfig, FullDuplex};
pub use jamsignal::JamSignal;
pub use shield::{
    JamReason, Shield, ShieldConfig, ShieldEvent, ShieldEventKind, ShieldStats, TurnaroundProfile,
};
