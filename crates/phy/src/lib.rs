//! # hb-phy — physical-layer modems and framing
//!
//! The air interfaces of the *heartbeats* workspace:
//!
//! * [`fsk`] — phase-continuous binary FSK with noncoherent matched-filter
//!   demodulation: the IMD air interface (Fig. 4 of the paper) and the
//!   eavesdropper's "optimal FSK decoder".
//! * [`gmsk`] — GMSK modem modeling the Vaisala radiosonde cross-traffic of
//!   the coexistence experiment (§11).
//! * [`packet`] — the IMD air-frame format: preamble, sync, 10-byte serial,
//!   CRC-16 (the checksum whose failure makes jammed commands harmless).
//! * [`matcher`] — the sliding `Sid` identifying-sequence matcher with
//!   `bthresh` tolerance (§7's active-protection trigger).
//! * [`stream`] — continuous block-at-a-time detection: the streaming
//!   frame detector and Sid monitor, both riding the sliding-window tone
//!   correlator in `hb_dsp::correlator`.
//! * [`rssi`] — RSSI estimation and energy-based carrier sensing
//!   (listen-before-talk, Pthresh alarm measurements).
//! * [`bits`], [`crc`] — bit manipulation and checksums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod crc;
pub mod fsk;
pub mod gmsk;
pub mod matcher;
pub mod packet;
pub mod rssi;
pub mod stream;

pub use fsk::{FskModem, FskParams};
pub use matcher::SidMatcher;
pub use packet::{identifying_sequence, Frame, FrameError, FrameType, Serial};
pub use stream::{BlockEnergies, DetectorEvent, SidDetection, SidMonitor, StreamingDetector};
