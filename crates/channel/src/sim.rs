//! The simulation executive: a poll-based, two-phase block loop.
//!
//! Following the smoltcp idiom, devices are *polled*: the executive never
//! calls into a device except at well-defined points, and devices never
//! block. Each simulation block:
//!
//! 1. **produce** — every node stages its transmissions for the block (the
//!    medium rejects staging after mixing begins, so ordering bugs panic
//!    loudly rather than corrupting results);
//! 2. **consume** — every node receives the mixed waveform and updates its
//!    state machine, to act on it in the *next* block.
//!
//! The block loops live with the scenarios that own the devices
//! (`Scenario::run_blocks` and `run_exchange` in `hb-testbed`); this
//! module defines the [`Node`] trait they poll.

use crate::medium::Medium;

/// A device attached to the medium.
pub trait Node {
    /// Short name for traces and error messages.
    fn label(&self) -> &str;

    /// Phase 1: stage this block's transmissions (may stage none).
    fn produce(&mut self, medium: &mut Medium);

    /// Phase 2: receive this block's mixed waveform and update state.
    fn consume(&mut self, medium: &mut Medium);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Placement;
    use crate::medium::{AntennaId, MediumConfig};
    use hb_dsp::complex::{mean_power, C64};

    /// A node that transmits a constant tone for a fixed number of blocks.
    struct Beacon {
        antenna: AntennaId,
        blocks_left: u64,
        produced: u64,
    }

    impl Node for Beacon {
        fn label(&self) -> &str {
            "beacon"
        }
        fn produce(&mut self, medium: &mut Medium) {
            if self.blocks_left > 0 {
                let block = vec![C64::ONE; medium.config().block_len];
                medium.transmit(self.antenna, 0, &block);
                self.blocks_left -= 1;
                self.produced += 1;
            }
        }
        fn consume(&mut self, _medium: &mut Medium) {}
    }

    /// A node that accumulates received power.
    struct PowerMeter {
        antenna: AntennaId,
        total: f64,
        blocks: u64,
    }

    impl Node for PowerMeter {
        fn label(&self) -> &str {
            "meter"
        }
        fn produce(&mut self, _medium: &mut Medium) {}
        fn consume(&mut self, medium: &mut Medium) {
            let y = medium.receive(self.antenna, 0);
            self.total += mean_power(&y);
            self.blocks += 1;
        }
    }

    #[test]
    fn two_phase_loop_delivers_power() {
        let cfg = MediumConfig {
            noise_floor_dbm: -200.0,
            ..Default::default()
        };
        let mut medium = Medium::new(cfg, 1);
        let a = medium.add_antenna(Placement::los("tx", 0.0, 0.0));
        let b = medium.add_antenna(Placement::los("rx", 1.0, 0.0));
        medium.set_gain(a, b, C64::new(0.5, 0.0));

        let mut beacon = Beacon {
            antenna: a,
            blocks_left: 10,
            produced: 0,
        };
        let mut meter = PowerMeter {
            antenna: b,
            total: 0.0,
            blocks: 0,
        };
        for _ in 0..20 {
            for node in [&mut beacon as &mut dyn Node, &mut meter] {
                node.produce(&mut medium);
            }
            for node in [&mut beacon as &mut dyn Node, &mut meter] {
                node.consume(&mut medium);
            }
            medium.end_block();
        }

        assert_eq!(beacon.produced, 10);
        assert_eq!(meter.blocks, 20);
        // 10 blocks at |0.5|^2 = 0.25, 10 silent blocks.
        assert!((meter.total - 2.5).abs() < 1e-9, "total {}", meter.total);
        assert_eq!(medium.block_index(), 20);
    }
}
