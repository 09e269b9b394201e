//! The shared wireless medium: a sample-level, block-stepped simulation of
//! concurrent transmissions at complex baseband.
//!
//! This module replaces the paper's physical testbed (USRP radios in a
//! room). Its model is exactly the one the paper's analysis assumes:
//! *"the wireless channel creates linear combinations of concurrently
//! transmitted signals"* (§6). Every receive antenna observes
//!
//! ```text
//! y_rx[t] = Σ_tx H(tx→rx) · x_tx[t]  +  n_rx[t]
//! ```
//!
//! with complex link gains `H` derived from the pathloss/fading models (or
//! set explicitly for wired couplings like the shield's self-loop `Hself`)
//! and white Gaussian receiver noise at each antenna's noise floor.
//!
//! Time advances in fixed-size blocks (default 16 samples ≈ 53 µs at
//! 300 kHz). Each block has two phases: first every device *stages* its
//! transmissions, then every device *receives* the mixed waveform. The
//! one-block reaction latency this imposes is physical — real receivers
//! also process in buffers. Mid-packet reactions (the shield's
//! detect-then-jam) happen at block granularity.
//!
//! The 3 MHz MICS band is modeled as `n_channels` independent 300 kHz
//! channels — the per-channel-filter front end of §7(c). A transmission is
//! tagged with its channel; receivers subscribe per channel.
//!
//! # Sparse propagation (pathloss culling)
//!
//! The gain matrix stays dense, but the *work* is sparse: each receiver
//! keeps an audibility row (its neighbor list) and a pair is skipped
//! whenever its gain power lands below the receiver's noise floor times
//! the configured [`MediumConfig::cull_margin_db`]. A culled pair's
//! contribution is below the floor *by construction* (for a 0 dBm-or-
//! quieter transmitter; pick the margin from the loudest transmitter in
//! the scenario), so hospital-floor scenarios with 100+ devices pay per
//! audible pair, not per antenna pair. A transmitter audible at no
//! receiver is not even staged.
//!
//! **Cull invariant**: at the default margin of `−∞` the threshold is
//! exactly zero, nothing is ever culled, and the engine is bit-for-bit
//! the dense engine — the golden suite pins this. Audibility rows are
//! maintained incrementally: setting one gain updates one entry; moving
//! one antenna ([`Medium::move_antenna`]) re-draws and re-checks only the
//! pairs touching that antenna (its own row plus one entry per other
//! row), never the full matrix.
//!
//! # Receiver noise (keyed, read-order independent)
//!
//! Every receive slot — one (rx antenna, channel, block) — draws its noise
//! from its own generator, seeded by a SplitMix64-style mix of
//! `(medium seed, rx, channel, block index)`. From that stream a view
//! takes, in a fixed order: the floor noise (two uniforms per sample),
//! the impulse-interference decision and burst, then the fault storm's
//! burst. The medium's main RNG keeps only build-time draws
//! ([`Medium::build_links`], [`Medium::move_antenna`],
//! [`Medium::fork_rng`]).
//!
//! So a view's samples do not depend on which views were read before it,
//! or whether they were read at all. That is what lets
//! [`Medium::receive_power`] answer a noise-only slot — nothing audible
//! staged on the channel, no burst — from the key's radius uniforms alone
//! (`floor · Σ(−ln u₁ᵢ)/block_len`), without synthesizing the block, and
//! lets [`Medium::squelch_open`] close a squelch on such a slot from the
//! same draws without even the `ln`.

use crate::fading::{Fading, MAX_FADING_UNIFORMS};
use crate::fault::FaultPlan;
use crate::geometry::Placement;
use crate::pathloss::{LinkLoss, PathlossModel};
use hb_dsp::complex::{mean_power, C64};
use hb_dsp::noise::{normal_uniforms, white_noise_into, NoiseSource};
use hb_dsp::units::ratio_from_db;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifies one antenna registered with the medium.
pub type AntennaId = usize;

/// A sample-count timestamp.
pub type Tick = u64;

/// Medium configuration.
#[derive(Debug, Clone, Copy)]
pub struct MediumConfig {
    /// Per-channel complex baseband sample rate, Hz.
    pub fs_hz: f64,
    /// Samples per simulation block.
    pub block_len: usize,
    /// Number of 300 kHz MICS channels simulated.
    pub n_channels: usize,
    /// Default receiver noise floor, dBm (thermal + noise figure over one
    /// channel bandwidth). Per-antenna overrides available.
    pub noise_floor_dbm: f64,
    /// Pathloss-culling margin, dB. A (tx, rx) pair is *culled* — skipped
    /// by staging and the receive mixture — when its gain power satisfies
    /// `|H|² < noise_floor(rx) · 10^(margin/10)`: the pair would deliver a
    /// 0 dBm transmission at `margin` dB below the receiver's own noise
    /// floor. Choose `margin ≤ −(loudest tx power in dBm)` and every
    /// culled contribution is guaranteed sub-floor. The default `−∞`
    /// makes the threshold exactly zero: nothing is culled and the engine
    /// is bit-for-bit the dense engine.
    pub cull_margin_db: f64,
    /// Deterministic fault schedule (see [`crate::fault`]). The inactive
    /// default allocates no fault state and draws nothing: the engine is
    /// bit-for-bit the fault-free engine. An active plan draws from its
    /// own RNG stream, never from the medium's main stream.
    pub fault: FaultPlan,
}

impl MediumConfig {
    /// Converts a duration in seconds to whole blocks (rounding up).
    pub fn blocks_for_duration(&self, seconds: f64) -> u64 {
        let samples = seconds * self.fs_hz;
        (samples / self.block_len as f64).ceil() as u64
    }
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            fs_hz: 300e3,
            block_len: 16,
            // FCC divides the 3 MHz MICS band into 10 channels (§2).
            n_channels: 10,
            // Thermal floor of a 300 kHz channel (-119 dBm) plus a 7 dB
            // receiver noise figure.
            noise_floor_dbm: -112.0,
            // Dense by default: culling is opt-in per scenario.
            cull_margin_db: f64::NEG_INFINITY,
            // Fault-free by default: adversity is opt-in per scenario.
            fault: FaultPlan::none(),
        }
    }
}

/// One pooled staging slot: the buffer is `block_len` long and reused
/// across blocks, so steady-state staging performs no heap allocation.
struct StagedTx {
    tx: AntennaId,
    channel: usize,
    samples: Vec<C64>,
}

/// One pooled receive-cache slot for an (antenna, channel) pair.
#[derive(Default)]
struct RxSlot {
    buf: Vec<C64>,
    /// True once this block's mixture has been computed into `buf`.
    valid: bool,
}

/// Runtime state of an armed [`FaultPlan`]: the dedicated hazard stream
/// plus the per-block burst counters. Present only when the plan perturbs
/// the medium — the fault-free engine allocates none of this and draws
/// nothing extra anywhere.
struct FaultState {
    plan: FaultPlan,
    /// Dedicated hazard stream: exactly two draws per block. Storm noise
    /// itself comes from the receive slot's keyed stream.
    rng: StdRng,
    /// Blocks remaining in the current gain-dropout burst (counting the
    /// current block).
    dropout_left: u32,
    /// Blocks remaining in the current impulse-noise storm.
    storm_left: u32,
    /// Amplitude scale applied to every staged transmission during a
    /// dropout (`10^(-depth/20)`), precomputed.
    dropout_amp: f64,
    /// Storm noise power, linear.
    storm_power: f64,
}

impl FaultState {
    fn new(plan: FaultPlan, seed: u64) -> Self {
        let mut s = FaultState {
            plan,
            // Fixed derivation: the fault stream is a pure function of the
            // medium seed, disjoint from the main stream seeded by `seed`
            // itself.
            rng: StdRng::seed_from_u64(seed ^ 0xFA_0175_EEDC_A5E5),
            dropout_left: 0,
            storm_left: 0,
            dropout_amp: ratio_from_db(-plan.dropout_depth_db).sqrt(),
            storm_power: ratio_from_db(plan.storm_power_dbm),
        };
        s.advance();
        s
    }

    /// Rolls the hazard dice for one block: exactly two draws regardless
    /// of burst state, so the fault schedule is a pure function of
    /// `(plan, seed, block index)` — independent of receive order, count,
    /// or thread layout. A burst in progress runs down before a new one
    /// can start (the block after a burst never starts another).
    fn advance(&mut self) {
        let d: f64 = self.rng.gen();
        let s: f64 = self.rng.gen();
        if self.dropout_left > 0 {
            self.dropout_left -= 1;
        } else if d < self.plan.dropout_start_prob {
            self.dropout_left = self.plan.dropout_len_blocks;
        }
        if self.storm_left > 0 {
            self.storm_left -= 1;
        } else if s < self.plan.storm_start_prob {
            self.storm_left = self.plan.storm_len_blocks;
        }
    }
}

/// Provenance of one directed gain entry: who wrote it decides whether
/// [`Medium::build_links`] may draw it and [`Medium::move_antenna`] may
/// re-draw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GainState {
    /// Never written; zero gain. `build_links` will draw it.
    Unset,
    /// Drawn from the pathloss/fading models; `move_antenna` re-draws it
    /// when either endpoint moves.
    Drawn,
    /// Set explicitly ([`Medium::set_gain`]) — a wired coupling like the
    /// shield's self-loop. Preserved by `build_links` and `move_antenna`.
    Explicit,
}

/// Pairs one [`Medium::build_links`] chunk draws before it computes
/// their gains (its scratch lives on the stack: 64 × 72 bytes).
const LINK_CHUNK: usize = 64;

/// The build-stream uniforms of one link draw.
#[derive(Clone, Copy, Default)]
struct LinkUniforms {
    /// The shadowing normal's `u1` and `u2` ([`normal_uniforms`]).
    shadow: [f64; 2],
    /// The fading's ([`Fading::draw_uniforms`]; unused entries zero).
    fade: [f64; MAX_FADING_UNIFORMS],
}

impl LinkUniforms {
    /// Draws one link's uniforms from the build stream: the shadowing
    /// pair, then the fading's.
    fn draw(rng: &mut StdRng, fading: Fading) -> Self {
        let shadow = normal_uniforms(rng);
        let mut fade = [0.0; MAX_FADING_UNIFORMS];
        fading.draw_uniforms(rng, &mut fade);
        LinkUniforms { shadow, fade }
    }

    /// The link's gain: shadowed pathloss amplitude times the fading
    /// draw. Pure, so [`Medium::build_links`] can draw a chunk's uniforms
    /// first and transform them after.
    fn gain(&self, loss: &LinkLoss, fading: Fading, a: &Placement, b: &Placement) -> C64 {
        let [u1, u2] = self.shadow;
        let loss_db = loss.shadowed_loss_db(a, b, u1, u2);
        let amplitude = ratio_from_db(-loss_db).sqrt();
        fading.from_uniforms(&self.fade).scale(amplitude)
    }
}

/// Audibility bookkeeping counters — how much cull state was recomputed.
/// The mobility tests pin the invalidation scope with these: moving one
/// antenna must cost O(n) pair updates and no full-row rebuilds, while a
/// noise-floor change rebuilds exactly the affected receiver's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CullStats {
    /// Full per-receiver audibility-row recomputations (noise-floor
    /// changes, antenna registration).
    pub rows_rebuilt: u64,
    /// Single-pair audibility updates (gain writes: `set_gain`,
    /// `build_links`, `move_antenna`).
    pub pair_updates: u64,
    /// Currently audible (tx, rx) pairs.
    pub audible_pairs: usize,
    /// All (tx, rx) pairs (`n²`).
    pub total_pairs: usize,
}

/// The shared medium. See the module docs for the model.
///
/// Steady-state performance: all per-block state (staged transmissions,
/// receive caches, scratch buffers) lives in pools that are recycled by
/// [`Medium::end_block`], the link gains are a dense `n×n` matrix with
/// per-receiver audibility rows on top (see the module docs on pathloss
/// culling), and the borrowing receive path ([`Medium::receive_view`])
/// returns cache views — a block step performs **zero heap allocations**
/// once the pools are warm.
///
/// The three pair matrices use a row stride of at least `n`: registering
/// an antenna grows the stride ahead of `n` (see [`Medium::add_antenna`]),
/// so registering `n` antennas copies O(n²) entries in total, and
/// [`Medium::build_links`] compacts the stride back to exactly `n`.
pub struct Medium {
    cfg: MediumConfig,
    placements: Vec<Placement>,
    /// Per-antenna noise floor, linear power (1.0 ≡ 0 dBm).
    noise_floor: Vec<f64>,
    /// Per-antenna oscillator offset, Hz (transmissions rotate at this
    /// rate relative to the nominal carrier).
    cfo_hz: Vec<f64>,
    /// True once any antenna has a non-zero oscillator offset (fast-path
    /// gate for the per-sample rotation).
    any_cfo: bool,
    /// Impulsive interference: (probability per block, power linear).
    impulse: Option<(f64, f64)>,
    /// Armed fault-injection state; `None` whenever the configured plan
    /// cannot perturb the medium.
    fault: Option<FaultState>,
    /// Row stride of the pair matrices (`≥ n`; exactly `n` after
    /// [`Medium::build_links`]). Entries past column `n − 1` of a row, and
    /// rows past `n − 1`, hold the defaults (zero, unset, inaudible).
    stride: usize,
    /// Antenna count when [`Medium::build_links`] last compacted the pair
    /// matrices (0 before the first build): the stride grows by an eighth
    /// of the antennas registered since.
    compacted: usize,
    /// Directed link gains, dense row-major: `gains[tx * stride + rx]` is
    /// the gain from `tx`'s transmitter to `rx`'s receiver. Reciprocal by
    /// construction unless overridden.
    gains: Vec<C64>,
    /// Provenance of `gains[i]` (an explicit zero is remembered so
    /// [`Medium::build_links`] won't redraw it; only drawn gains are
    /// re-drawn by [`Medium::move_antenna`]).
    gain_state: Vec<GainState>,
    /// Per-receiver neighbor rows, rx-major: `audible[rx * stride + tx]`
    /// is true iff the pair clears `rx`'s cull threshold. All-true at the
    /// default `−∞` margin. Maintained incrementally by every gain write.
    audible: Vec<bool>,
    /// Per-transmitter count of receivers that can hear it; staging skips
    /// a transmitter nobody can hear (only possible at a finite margin).
    tx_audible: Vec<u32>,
    /// Per-receiver cull threshold, linear power:
    /// `noise_floor[rx] · 10^(cull_margin_db/10)` (zero at `−∞`).
    cull_threshold: Vec<f64>,
    /// Linear cull ratio `10^(cull_margin_db/10)`, precomputed.
    cull_ratio: f64,
    /// Stats: full audibility-row recomputations.
    cull_rows_rebuilt: u64,
    /// Stats: single-pair audibility updates.
    cull_pair_updates: u64,
    block_index: u64,
    /// Staging pool; the first `staged_len` entries are this block's.
    staged: Vec<StagedTx>,
    staged_len: usize,
    /// Per-channel index into `staged`, in staging order.
    staged_by_channel: Vec<Vec<u32>>,
    /// Receive cache, dense: slot `rx * n_channels + channel`.
    rx_slots: Vec<RxSlot>,
    /// Slots computed this block (cleared cheaply by `end_block`).
    dirty_slots: Vec<u32>,
    /// Scratch for the impulse-noise burst.
    impulse_scratch: Vec<C64>,
    /// Scratch: a noise-only slot's radius draws (see `quiet_radii`).
    radii: Vec<u64>,
    /// Per-block cache of CFO rotator phasors, keyed by the bit pattern of
    /// the relative offset `Δf`: every link sharing a `Δf` reuses the same
    /// per-sample phasors instead of recomputing `C64::cis` per sample.
    /// Pooled: only the first `cfo_phasors_len` entries are this block's;
    /// `end_block` rewinds the counter and the buffers are refilled in
    /// place, so CFO-impaired scenarios stay allocation-free too.
    cfo_phasors: Vec<(u64, Vec<C64>)>,
    cfo_phasors_len: usize,
    /// Set once any receive happens in the block; staging is then frozen.
    receiving: bool,
    /// Build-time stream: link shadowing/fading and [`Medium::fork_rng`].
    /// Receiver noise never draws from it (see the module docs).
    rng: StdRng,
    /// The construction seed, mixed into every receive slot's noise key.
    seed: u64,
}

impl Medium {
    /// Creates an empty medium.
    pub fn new(cfg: MediumConfig, seed: u64) -> Self {
        assert!(cfg.block_len > 0 && cfg.n_channels > 0);
        Medium {
            cfg,
            placements: Vec::new(),
            noise_floor: Vec::new(),
            cfo_hz: Vec::new(),
            any_cfo: false,
            impulse: None,
            fault: cfg
                .fault
                .perturbs_medium()
                .then(|| FaultState::new(cfg.fault, seed)),
            stride: 0,
            compacted: 0,
            gains: Vec::new(),
            gain_state: Vec::new(),
            audible: Vec::new(),
            tx_audible: Vec::new(),
            cull_threshold: Vec::new(),
            cull_ratio: ratio_from_db(cfg.cull_margin_db),
            cull_rows_rebuilt: 0,
            cull_pair_updates: 0,
            block_index: 0,
            staged: Vec::new(),
            staged_len: 0,
            staged_by_channel: vec![Vec::new(); cfg.n_channels],
            rx_slots: Vec::new(),
            dirty_slots: Vec::new(),
            impulse_scratch: vec![C64::ZERO; cfg.block_len],
            radii: Vec::with_capacity(cfg.block_len),
            cfo_phasors: Vec::new(),
            cfo_phasors_len: 0,
            receiving: false,
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MediumConfig {
        &self.cfg
    }

    /// Registers an antenna at a placement; returns its id.
    ///
    /// When the pair matrices are full, their stride grows by an eighth of
    /// the antennas registered since the last [`Medium::build_links`] (at
    /// least by one). Registering `n` antennas on a fresh medium thus
    /// copies O(n²) entries in total instead of O(n³), while one antenna
    /// added to a built medium (an adversary joining a floor) grows the
    /// stride by exactly one and holds no spare rows. The small factor
    /// bounds the growth's transient (old plus new matrix): building the
    /// 150-antenna floor never holds more than the one-row re-layout it
    /// replaced.
    pub fn add_antenna(&mut self, placement: Placement) -> AntennaId {
        self.placements.push(placement);
        let floor = ratio_from_db(self.cfg.noise_floor_dbm);
        self.noise_floor.push(floor);
        self.cull_threshold.push(floor * self.cull_ratio);
        self.cfo_hz.push(0.0);
        self.tx_audible.push(0);
        let n = self.placements.len();
        if n > self.stride {
            self.restride(n - 1, n + (n - self.compacted) / 8);
        }
        // The new pairs (all-zero gains, already in place as defaults):
        // the new receiver's row, plus the new transmitter's entry in
        // every existing row.
        self.rebuild_audible_row(n - 1);
        for rx in 0..n - 1 {
            self.update_membership(n - 1, rx);
        }
        for _ in 0..self.cfg.n_channels {
            self.rx_slots.push(RxSlot::default());
        }
        n - 1
    }

    /// Moves the first `rows` rows and columns of the pair matrices to a
    /// new row stride; every other entry of the new matrices holds its
    /// default. `gains` is tx-major, `audible` is rx-major (each
    /// receiver's neighbor row is contiguous).
    fn restride(&mut self, rows: usize, stride: usize) {
        let old = self.stride;
        restride_matrix(&mut self.gains, old, stride, rows, C64::ZERO);
        restride_matrix(&mut self.gain_state, old, stride, rows, GainState::Unset);
        restride_matrix(&mut self.audible, old, stride, rows, false);
        self.stride = stride;
    }

    /// Index of `(row, col)` in the pair matrices.
    fn pair(&self, row: AntennaId, col: AntennaId) -> usize {
        row * self.stride + col
    }

    /// Recomputes one pair's audibility from its gain and the receiver's
    /// cull threshold, keeping the per-transmitter counts consistent.
    fn update_membership(&mut self, tx: AntennaId, rx: AntennaId) {
        let aud = self.gains[self.pair(tx, rx)].norm_sq() >= self.cull_threshold[rx];
        let i = self.pair(rx, tx);
        let slot = &mut self.audible[i];
        if *slot != aud {
            *slot = aud;
            if aud {
                self.tx_audible[tx] += 1;
            } else {
                self.tx_audible[tx] -= 1;
            }
        }
    }

    /// Recomputes a receiver's whole audibility row (noise-floor change,
    /// antenna registration).
    fn rebuild_audible_row(&mut self, rx: AntennaId) {
        for tx in 0..self.placements.len() {
            self.update_membership(tx, rx);
        }
        self.cull_rows_rebuilt += 1;
    }

    /// Audibility bookkeeping counters and the current audible-pair count.
    pub fn cull_stats(&self) -> CullStats {
        let n = self.placements.len();
        CullStats {
            rows_rebuilt: self.cull_rows_rebuilt,
            pair_updates: self.cull_pair_updates,
            // Padding entries are always false.
            audible_pairs: self.audible.iter().filter(|&&a| a).count(),
            total_pairs: n * n,
        }
    }

    /// Whether the (tx, rx) pair clears `rx`'s cull threshold (always
    /// true at the default `−∞` margin).
    pub fn pair_audible(&self, tx: AntennaId, rx: AntennaId) -> bool {
        let n = self.placements.len();
        assert!(tx < n && rx < n, "unknown antenna pair ({tx}, {rx})");
        self.audible[self.pair(rx, tx)]
    }

    /// Sets an antenna's oscillator offset, Hz. Its transmissions rotate
    /// at this rate relative to the nominal carrier — receivers with a
    /// different offset see the difference as a carrier frequency offset
    /// (§6(a) of the paper notes the shield compensates for the CFO
    /// between its RF chain and the IMD's).
    pub fn set_cfo_hz(&mut self, a: AntennaId, hz: f64) {
        self.cfo_hz[a] = hz;
        self.any_cfo = self.cfo_hz.iter().any(|&f| f != 0.0);
    }

    /// Enables impulsive interference: with probability `prob`, a receiver
    /// sees an extra white burst at `power_dbm` for one block. The burst
    /// decision is drawn **independently per (receiver, channel, block)**
    /// from that slot's keyed noise stream — impulsive interference is a
    /// local phenomenon (a microwave oven near one antenna, an ISM
    /// neighbour near another), so no two receivers share a burst. A
    /// fault-injection hook for robustness experiments.
    pub fn set_impulse_noise(&mut self, prob: f64, power_dbm: f64) {
        assert!((0.0..=1.0).contains(&prob));
        self.impulse = Some((prob, ratio_from_db(power_dbm)));
    }

    /// Number of registered antennas.
    pub fn antenna_count(&self) -> usize {
        self.placements.len()
    }

    /// The placement of an antenna.
    pub fn placement(&self, a: AntennaId) -> &Placement {
        &self.placements[a]
    }

    /// Overrides an antenna's noise floor in dBm. Rebuilds that
    /// receiver's audibility row (its cull threshold moved).
    pub fn set_noise_floor_dbm(&mut self, a: AntennaId, dbm: f64) {
        self.noise_floor[a] = ratio_from_db(dbm);
        self.cull_threshold[a] = self.noise_floor[a] * self.cull_ratio;
        self.rebuild_audible_row(a);
    }

    /// Computes link gains for every antenna pair from a pathloss model and
    /// fading statistics (reciprocal: `H(a→b) = H(b→a)`). Self-links stay
    /// absent (zero) unless set explicitly with [`Medium::set_gain`] — a
    /// normal antenna does not hear itself through the air model; the
    /// shield's receive-antenna self-loop is a wired coupling set by its
    /// device model.
    ///
    /// Call after all antennas are registered; explicit gains set *before*
    /// this call are preserved. Compacts the pair matrices to a stride of
    /// exactly `n`, so a built medium holds `n²` entries per matrix.
    ///
    /// Pairs `(a, b)`, `a < b`, are drawn in row-major order, each taking
    /// its uniforms from the build stream in a fixed order: the shadowing
    /// normal's `u1` (clamped) and `u2`, then the fading's (1 for `None`,
    /// 4 for `Rayleigh`, 5 for `Rician`). The pass works in chunks of
    /// `LINK_CHUNK` (64) pairs: it draws a chunk's uniforms, then turns them
    /// into gains with the model's invariants computed once
    /// ([`LinkLoss`]), then writes them, so the scratch is a fixed stack
    /// array and the gains are those of a per-pair draw. Pairs among antennas present
    /// at the previous build were all settled then (drawn, or skipped for
    /// an explicit direction), so only pairs touching a newer antenna are
    /// visited: building a built medium plus one antenna visits `n − 1`
    /// pairs.
    pub fn build_links(&mut self, model: &PathlossModel, fading: Fading) {
        let n = self.placements.len();
        let loss = LinkLoss::new(model);
        let mut chunk = [(0, 0, LinkUniforms::default()); LINK_CHUNK];
        let mut len = 0;
        for a in 0..n {
            for b in (a + 1).max(self.compacted)..n {
                if self.gain_state[self.pair(a, b)] != GainState::Unset
                    || self.gain_state[self.pair(b, a)] != GainState::Unset
                {
                    continue;
                }
                chunk[len] = (a, b, LinkUniforms::draw(&mut self.rng, fading));
                len += 1;
                if len == LINK_CHUNK {
                    self.write_links(&loss, fading, &chunk);
                    len = 0;
                }
            }
        }
        self.write_links(&loss, fading, &chunk[..len]);
        if self.stride != n {
            self.restride(n, n);
        }
        self.compacted = n;
    }

    /// The second and third steps of a [`Medium::build_links`] chunk: the
    /// pure gain math over every drawn pair, then the reciprocal writes.
    fn write_links(
        &mut self,
        loss: &LinkLoss,
        fading: Fading,
        chunk: &[(AntennaId, AntennaId, LinkUniforms)],
    ) {
        let mut gains = [C64::ZERO; LINK_CHUNK];
        for (gain, (a, b, u)) in gains.iter_mut().zip(chunk) {
            *gain = u.gain(loss, fading, &self.placements[*a], &self.placements[*b]);
        }
        for (&(a, b, _), &gain) in chunk.iter().zip(&gains) {
            self.write_gain(a, b, gain, GainState::Drawn);
            self.write_gain(b, a, gain, GainState::Drawn);
        }
    }

    /// Draws one shadowed, faded link gain between two placements: the
    /// same uniforms, in the same order, and the same math as a pair of
    /// [`Medium::build_links`].
    fn draw_link(&mut self, loss: &LinkLoss, fading: Fading, a: AntennaId, b: AntennaId) -> C64 {
        LinkUniforms::draw(&mut self.rng, fading).gain(
            loss,
            fading,
            &self.placements[a],
            &self.placements[b],
        )
    }

    /// Writes one directed gain with its provenance and updates the pair's
    /// audibility.
    fn write_gain(&mut self, tx: AntennaId, rx: AntennaId, gain: C64, state: GainState) {
        let i = self.pair(tx, rx);
        self.gains[i] = gain;
        self.gain_state[i] = state;
        self.update_membership(tx, rx);
        self.cull_pair_updates += 1;
    }

    /// Sets a directed link gain explicitly (used for the shield's wired
    /// self-loop `Hself` and the jam→receive antenna coupling `Hjam→rec`).
    pub fn set_gain(&mut self, tx: AntennaId, rx: AntennaId, gain: C64) {
        let n = self.placements.len();
        assert!(tx < n && rx < n, "unknown antenna pair ({tx}, {rx})");
        self.write_gain(tx, rx, gain, GainState::Explicit);
    }

    /// Moves an antenna to a new placement and re-draws the *drawn* link
    /// gains touching it from the pathloss/fading models (fresh shadowing,
    /// reciprocal, in deterministic id order). Explicit wired couplings
    /// are preserved; pairs `build_links` never drew stay absent.
    ///
    /// Invalidation is row-scoped: only the moved antenna's own audibility
    /// row and its single entry in every other receiver's row are
    /// re-checked — O(n) pair updates, no full-matrix rebuild (pinned by
    /// [`Medium::cull_stats`]-based tests).
    pub fn move_antenna(
        &mut self,
        a: AntennaId,
        placement: Placement,
        model: &PathlossModel,
        fading: Fading,
    ) {
        let n = self.placements.len();
        assert!(a < n, "unknown antenna {a}");
        self.placements[a] = placement;
        let loss = LinkLoss::new(model);
        for b in 0..n {
            if b == a {
                continue;
            }
            let ab = self.gain_state[self.pair(a, b)] == GainState::Drawn;
            let ba = self.gain_state[self.pair(b, a)] == GainState::Drawn;
            if !(ab || ba) {
                continue;
            }
            let gain = self.draw_link(&loss, fading, a, b);
            if ab {
                self.write_gain(a, b, gain, GainState::Drawn);
            }
            if ba {
                self.write_gain(b, a, gain, GainState::Drawn);
            }
        }
    }

    /// The current gain from `tx` to `rx` (zero if no link).
    pub fn gain(&self, tx: AntennaId, rx: AntennaId) -> C64 {
        let n = self.placements.len();
        assert!(tx < n && rx < n, "unknown antenna pair ({tx}, {rx})");
        self.gains[self.pair(tx, rx)]
    }

    /// Current block index.
    pub fn block_index(&self) -> u64 {
        self.block_index
    }

    /// Current time in samples (start of the current block).
    pub fn tick(&self) -> Tick {
        self.block_index * self.cfg.block_len as u64
    }

    /// Current time in seconds (start of the current block).
    pub fn time_s(&self) -> f64 {
        self.tick() as f64 / self.cfg.fs_hz
    }

    /// Converts a duration in seconds to whole blocks (rounding up).
    pub fn blocks_for_duration(&self, seconds: f64) -> u64 {
        self.cfg.blocks_for_duration(seconds)
    }

    /// Stages a transmission for the current block. `samples` must not
    /// exceed the block length; shorter bursts are zero-padded (a packet's
    /// final partial block).
    ///
    /// # Panics
    /// Panics if called after any receive in the same block, if the channel
    /// is out of range, or if the burst exceeds the block length.
    pub fn transmit(&mut self, tx: AntennaId, channel: usize, samples: &[C64]) {
        assert!(
            !self.receiving,
            "transmit after receive in the same block: stage all transmissions first"
        );
        assert!(
            channel < self.cfg.n_channels,
            "channel {channel} out of range"
        );
        assert!(
            samples.len() <= self.cfg.block_len,
            "burst of {} exceeds block length {}",
            samples.len(),
            self.cfg.block_len
        );
        assert!(tx < self.placements.len(), "unknown antenna {tx}");
        // Sparse fast path: a transmitter audible at no receiver cannot
        // contribute to any mixture — skip the staging copy entirely.
        // Impossible at the default −∞ margin (every pair is audible,
        // including zero-gain ones), so the dense observer semantics of
        // `channel_active`/`staged_power` are unchanged there.
        if self.tx_audible[tx] == 0 {
            return;
        }
        let idx = self.staged_len;
        if idx == self.staged.len() {
            self.staged.push(StagedTx {
                tx,
                channel,
                samples: vec![C64::ZERO; self.cfg.block_len],
            });
        }
        let slot = &mut self.staged[idx];
        slot.tx = tx;
        slot.channel = channel;
        slot.samples[..samples.len()].copy_from_slice(samples);
        slot.samples[samples.len()..].fill(C64::ZERO);
        self.staged_by_channel[channel].push(idx as u32);
        self.staged_len = idx + 1;
    }

    /// Receives the current block at an antenna on a channel: the
    /// gain-weighted sum of all staged transmissions plus receiver noise.
    /// Idempotent within a block (the same noise is returned on repeat
    /// calls). Freezes staging for the rest of the block.
    ///
    /// Allocating compatibility wrapper around [`Medium::receive_view`];
    /// hot paths should use the view (or copy out of it) instead.
    pub fn receive(&mut self, rx: AntennaId, channel: usize) -> Vec<C64> {
        self.receive_view(rx, channel).to_vec()
    }

    /// Borrowing receive: identical semantics to [`Medium::receive`], but
    /// returns a view into the block's pooled receive cache. The first call
    /// for an (antenna, channel) computes the mixture in place; repeat
    /// calls within the block return the same buffer without copying. Zero
    /// heap allocations in steady state.
    ///
    /// The noise comes from the slot's own keyed stream (see the module
    /// docs), so the samples are the same whatever other views were read
    /// this block, and in whatever order.
    pub fn receive_view(&mut self, rx: AntennaId, channel: usize) -> &[C64] {
        assert!(
            channel < self.cfg.n_channels,
            "channel {channel} out of range"
        );
        assert!(rx < self.placements.len(), "unknown antenna {rx}");
        self.receiving = true;
        let (n, stride) = (self.placements.len(), self.stride);
        let block_len = self.cfg.block_len;
        let slot_idx = rx * self.cfg.n_channels + channel;
        if self.rx_slots[slot_idx].valid {
            return &self.rx_slots[slot_idx].buf;
        }
        let mut rng = self.noise_rng(rx, channel);
        let storm = self.storm_power(channel);
        let slot = &mut self.rx_slots[slot_idx];
        slot.buf.resize(block_len, C64::ZERO);
        let buf = &mut slot.buf[..];
        // The slot's keyed stream, in its fixed order: floor noise, the
        // impulse decision and burst (see `set_impulse_noise`), the storm
        // burst.
        white_noise_into(&mut rng, buf, self.noise_floor[rx]);
        if let Some((prob, power)) = self.impulse {
            if rng.gen::<f64>() < prob {
                white_noise_into(&mut rng, &mut self.impulse_scratch, power);
                for (v, &n) in buf.iter_mut().zip(self.impulse_scratch.iter()) {
                    *v += n;
                }
            }
        }
        if let Some(power) = storm {
            white_noise_into(&mut rng, &mut self.impulse_scratch, power);
            for (v, &n) in buf.iter_mut().zip(self.impulse_scratch.iter()) {
                *v += n;
            }
        }
        // Gain-dropout fault: one real amplitude scale on every staged
        // contribution this block. Receiver noise is untouched, so a
        // dropout is a pure SNR loss; scaling every transmitter equally
        // preserves linear-combination identities (the shield's antidote
        // still cancels its own jamming exactly).
        let fault_amp = match &self.fault {
            Some(f) if f.dropout_left > 0 => f.dropout_amp,
            _ => 1.0,
        };
        let block_start = self.block_index * block_len as u64;
        let audible = &self.audible[rx * stride..rx * stride + n];
        for &staged_idx in &self.staged_by_channel[channel] {
            let tx = &self.staged[staged_idx as usize];
            // Sparse skip: the pair is below the receiver's cull
            // threshold (never taken at the −∞ margin, where the
            // audibility row is all-true).
            if !audible[tx.tx] {
                continue;
            }
            let g = self.gains[tx.tx * stride + rx];
            if g == C64::ZERO {
                continue;
            }
            // Fault-free (and out-of-burst) blocks take the untouched
            // gain — bit-identical to the engine without fault support.
            let g = if fault_amp != 1.0 {
                g.scale(fault_amp)
            } else {
                g
            };
            // Relative oscillator rotation between transmitter and receiver.
            let dcfo = if self.any_cfo {
                self.cfo_hz[tx.tx] - self.cfo_hz[rx]
            } else {
                0.0
            };
            if dcfo == 0.0 {
                mac_scaled(buf, &tx.samples, g);
            } else {
                // Per-block rotator phasors, shared by every link with the
                // same relative offset. Filled by a phase-recurrence
                // oscillator: one `cis` for the block's start phase, then
                // a complex multiply per sample (within an ulp of the
                // direct per-sample `cis`; the golden suite pins the
                // recurrence engine).
                let key = dcfo.to_bits();
                let cached = self.cfo_phasors[..self.cfo_phasors_len]
                    .iter()
                    .position(|(k, _)| *k == key);
                let pos = match cached {
                    Some(p) => p,
                    None => {
                        let w = std::f64::consts::TAU * dcfo / self.cfg.fs_hz;
                        if self.cfo_phasors_len == self.cfo_phasors.len() {
                            self.cfo_phasors.push((key, Vec::new()));
                        }
                        let entry = &mut self.cfo_phasors[self.cfo_phasors_len];
                        entry.0 = key;
                        entry.1.clear();
                        let mut osc = hb_dsp::osc::Rotator::new(w * block_start as f64, w);
                        entry.1.extend((0..block_len).map(|_| osc.next()));
                        self.cfo_phasors_len += 1;
                        self.cfo_phasors_len - 1
                    }
                };
                let phasors = &self.cfo_phasors[pos].1;
                mac_scaled_rotated(buf, &tx.samples, phasors, g);
            }
        }
        slot.valid = true;
        self.dirty_slots.push(slot_idx as u32);
        &self.rx_slots[slot_idx].buf
    }

    /// The mean power of the view [`Medium::receive_view`] returns for
    /// `(rx, channel)` this block. Freezes staging like a receive.
    ///
    /// On a *noise-only* slot — no staged transmission on `channel` is
    /// audible at `rx` with a non-zero gain, no impulse burst fires for
    /// the slot's key and no storm covers the channel — it is computed
    /// from the key's radius uniforms ([`NoiseSource::draw_radii`],
    /// [`NoiseSource::mean_power_of_radii`]): no buffer, no `sqrt`/`sincos`,
    /// and the same bits whether or not the view was already
    /// materialized. It matches `mean_power(receive_view)` to within 1e-9
    /// relative. Any other slot returns exactly that.
    pub fn receive_power(&mut self, rx: AntennaId, channel: usize) -> f64 {
        if self.quiet_radii(rx, channel) {
            return NoiseSource::new(self.noise_floor[rx]).mean_power_of_radii(&self.radii);
        }
        mean_power(self.receive_view(rx, channel))
    }

    /// A squelch decision: exactly `receive_power(rx, channel) >
    /// threshold` (linear power, 1.0 ≡ 0 dBm), usually without the `ln`.
    /// Freezes staging like a receive.
    ///
    /// A radius uniform is `u = k·2⁻⁵³` for the draw's top 53 bits `k`, so
    /// when no `k` is zero every `u ≥ 2⁻⁵³`, each `−ln u ≤ 53 ln 2`, and a
    /// noise-only slot's power is at most `floor · 53 ln 2`. When that
    /// bound (with a `1e-6` relative guard, far above the fold's ~1e-15
    /// rounding) is below `threshold`, the squelch is closed after the
    /// slot's draws and the bit test alone. At the default −112 dBm floor
    /// the bound is −96.4 dBm, under the shield's −95 dBm squelch. Any
    /// other slot or threshold computes `receive_power`.
    pub fn squelch_open(&mut self, rx: AntennaId, channel: usize, threshold: f64) -> bool {
        if self.quiet_radii(rx, channel) {
            let floor = self.noise_floor[rx];
            let bound = floor * 53.0 * std::f64::consts::LN_2 * (1.0 + 1e-6);
            if bound < threshold && self.radii.iter().all(|&r| r >> 11 != 0) {
                return false;
            }
            return NoiseSource::new(floor).mean_power_of_radii(&self.radii) > threshold;
        }
        mean_power(self.receive_view(rx, channel)) > threshold
    }

    /// The noise-only test and draws behind [`Medium::receive_power`] and
    /// [`Medium::squelch_open`]. A slot is noise-only when no staged
    /// transmission on `channel` reaches `rx` with a non-zero gain, no
    /// storm covers the channel and no impulse burst fires for its key.
    /// For such a slot this leaves the key's radius draws in `self.radii`
    /// and returns true; otherwise it returns false. Freezes staging.
    fn quiet_radii(&mut self, rx: AntennaId, channel: usize) -> bool {
        assert!(
            channel < self.cfg.n_channels,
            "channel {channel} out of range"
        );
        assert!(rx < self.placements.len(), "unknown antenna {rx}");
        self.receiving = true;
        if self.storm_power(channel).is_some() || self.signal_audible(rx, channel) {
            return false;
        }
        let mut rng = self.noise_rng(rx, channel);
        self.radii.clear();
        NoiseSource::draw_radii(&mut rng, self.cfg.block_len, &mut self.radii);
        !self
            .impulse
            .is_some_and(|(prob, _)| rng.gen::<f64>() < prob)
    }

    /// True when some staged transmission on `channel` reaches `rx`: the
    /// pair is audible and its gain is non-zero (the mixture loop's skip
    /// conditions, negated).
    fn signal_audible(&self, rx: AntennaId, channel: usize) -> bool {
        let (n, stride) = (self.placements.len(), self.stride);
        let audible = &self.audible[rx * stride..rx * stride + n];
        self.staged_by_channel[channel].iter().any(|&i| {
            let tx = self.staged[i as usize].tx;
            audible[tx] && self.gains[tx * stride + rx] != C64::ZERO
        })
    }

    /// The storm's noise power on `channel` this block, if a storm is
    /// active and its mask covers the channel.
    fn storm_power(&self, channel: usize) -> Option<f64> {
        self.fault
            .as_ref()
            .filter(|f| {
                f.storm_left > 0 && channel < 16 && (f.plan.storm_channel_mask >> channel) & 1 == 1
            })
            .map(|f| f.storm_power)
    }

    /// The keyed noise stream of receive slot `(rx, channel)` in the
    /// current block.
    fn noise_rng(&self, rx: AntennaId, channel: usize) -> StdRng {
        StdRng::seed_from_u64(noise_key(
            self.seed,
            rx as u64,
            channel as u64,
            self.block_index,
        ))
    }

    /// True if any transmission is staged on `channel` this block
    /// (omniscient view — used by tests and by the observer harness, not by
    /// in-world devices). At a finite cull margin, transmitters audible at
    /// no receiver are never staged and so don't count.
    pub fn channel_active(&self, channel: usize) -> bool {
        !self.staged_by_channel[channel].is_empty()
    }

    /// Total staged transmit power on a channel this block (omniscient
    /// debugging/observer view). Like [`Medium::channel_active`], excludes
    /// transmitters culled everywhere.
    pub fn staged_power(&self, channel: usize) -> f64 {
        self.staged_by_channel[channel]
            .iter()
            .map(|&i| hb_dsp::complex::mean_power(&self.staged[i as usize].samples))
            .sum()
    }

    /// Finishes the block: recycles the staging and receive-cache pools,
    /// advances time. No heap is released — the pools are reused by the
    /// next block.
    pub fn end_block(&mut self) {
        self.staged_len = 0;
        for list in self.staged_by_channel.iter_mut() {
            list.clear();
        }
        for &slot in &self.dirty_slots {
            self.rx_slots[slot as usize].valid = false;
        }
        self.dirty_slots.clear();
        self.cfo_phasors_len = 0;
        self.receiving = false;
        self.block_index += 1;
        // Roll the fault hazards for the new block — once per block, here,
        // never in the receive path (see the [`crate::fault`] determinism
        // contract).
        if let Some(f) = self.fault.as_mut() {
            f.advance();
        }
    }

    /// True while a gain-dropout burst is active this block. Observer
    /// view for tests and experiments; always false without an armed
    /// fault plan.
    pub fn fault_dropout_active(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.dropout_left > 0)
    }

    /// True while an impulse-noise storm is active this block (on the
    /// plan's masked channels). Always false without an armed fault plan.
    pub fn fault_storm_active(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.storm_left > 0)
    }

    /// Direct access to the medium's build-time RNG (for device models
    /// that want to derive seeds deterministically from the scenario
    /// seed).
    pub fn fork_rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.rng.gen())
    }
}

/// The noise key of one receive slot: a chain of SplitMix64 finalizers over
/// `(seed, rx, channel, block)`, in the spirit of the Monte-Carlo engine's
/// `trial_seed`. Each step is a bijection of the running state, so slots
/// differing in any coordinate get decorrelated seeds; the domain constant
/// keeps the keys apart from the main stream, which is seeded by `seed`.
fn noise_key(seed: u64, rx: u64, channel: u64, block: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let z = mix(seed ^ 0x6E01_5E5E_ED00_0001);
    mix(mix(mix(z ^ rx) ^ channel) ^ block)
}

/// Re-lays a square matrix stored with row stride `old` at row stride
/// `stride`, keeping its first `rows` rows and columns; the buffer ends
/// with exactly `stride²` entries.
///
/// Growing (`rows ≤ old < stride`) copies into a fresh matrix whose other
/// entries are `fill`. Growing the old block in place instead (a heap
/// `realloc`) fragmented glibc's arena and raised hbbench
/// `hospital-floor`'s peak RSS by about 0.75 MiB; fresh blocks, like the
/// per-call matrices before them, did not. Compacting (`rows == stride <
/// old`) moves rows first to last, so no row is overwritten before it has
/// moved, and shrinks the block in place.
fn restride_matrix<T: Copy>(m: &mut Vec<T>, old: usize, stride: usize, rows: usize, fill: T) {
    if stride > old {
        let mut grown = vec![fill; stride * stride];
        for r in 0..rows {
            grown[r * stride..r * stride + rows].copy_from_slice(&m[r * old..r * old + rows]);
        }
        *m = grown;
    } else {
        debug_assert_eq!(rows, stride, "compaction keeps every row");
        for r in 0..rows {
            m.copy_within(r * old..r * old + rows, r * stride);
        }
        m.truncate(stride * stride);
        m.shrink_to_fit();
    }
}

/// Accumulates one surviving pair into the mixture: `dst[i] += src[i]·g`.
///
/// Standalone and `#[inline(never)]` on purpose: with `&mut`/`&` slice parameters the optimizer knows `dst`
/// and `src` cannot alias and keeps the accumulation in registers;
/// inlined into the `&mut self` receive path it would re-derive both
/// from `self` and emit per-iteration alias checks instead. Identical
/// arithmetic and order to the historical in-place loop — bit-exact.
#[inline(never)]
fn mac_scaled(dst: &mut [C64], src: &[C64], g: C64) {
    for (v, &s) in dst.iter_mut().zip(src.iter()) {
        *v += s * g;
    }
}

/// [`mac_scaled`] with a per-sample CFO rotation: `dst[i] += src[i]·g·r[i]`.
#[inline(never)]
fn mac_scaled_rotated(dst: &mut [C64], src: &[C64], rot: &[C64], g: C64) {
    for ((v, &s), &r) in dst.iter_mut().zip(src.iter()).zip(rot.iter()) {
        *v += s * g * r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_dsp::complex::mean_power;
    use hb_dsp::units::db_from_ratio;

    fn quiet_medium() -> Medium {
        let cfg = MediumConfig {
            noise_floor_dbm: -200.0, // effectively noiseless for exact checks
            ..MediumConfig::default()
        };
        Medium::new(cfg, 7)
    }

    #[test]
    fn receive_is_gain_weighted_sum() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        let c = m.add_antenna(Placement::los("c", 2.0, 0.0));
        m.set_gain(a, c, C64::new(0.5, 0.0));
        m.set_gain(b, c, C64::new(0.0, 0.25));

        let xa = vec![C64::ONE; 16];
        let xb = vec![C64::new(2.0, 0.0); 16];
        m.transmit(a, 0, &xa);
        m.transmit(b, 0, &xb);
        let y = m.receive(c, 0);
        for s in &y {
            assert!((*s - C64::new(0.5, 0.5)).abs() < 1e-9);
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        m.set_gain(a, b, C64::ONE);
        m.transmit(a, 3, &vec![C64::ONE; 16]);
        let y0 = m.receive(b, 0);
        let y3 = m.receive(b, 3);
        assert!(mean_power(&y0) < 1e-12, "channel 0 should be silent");
        assert!((mean_power(&y3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_link_means_no_signal() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        let y = m.receive(b, 0);
        assert!(mean_power(&y) < 1e-12);
    }

    #[test]
    fn self_loop_only_when_set() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        assert!(mean_power(&m.receive(a, 0)) < 1e-12);
        m.end_block();
        m.set_gain(a, a, C64::new(0.7, 0.0));
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        let y = m.receive(a, 0);
        assert!((mean_power(&y) - 0.49).abs() < 1e-9);
    }

    #[test]
    fn receive_is_idempotent_within_block() {
        let cfg = MediumConfig::default(); // real noise floor
        let mut m = Medium::new(cfg, 9);
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        m.set_gain(a, b, C64::ONE);
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        let y1 = m.receive(b, 0);
        let y2 = m.receive(b, 0);
        assert_eq!(y1, y2, "same block, same noise");
        m.end_block();
        let y3 = m.receive(b, 0);
        assert_ne!(y1, y3, "new block, fresh noise");
    }

    #[test]
    #[should_panic(expected = "transmit after receive")]
    fn staging_frozen_after_receive() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let _ = m.receive(a, 0);
        m.transmit(a, 0, &vec![C64::ONE; 16]);
    }

    #[test]
    fn short_burst_zero_padded() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        m.set_gain(a, b, C64::ONE);
        m.transmit(a, 0, &[C64::ONE; 4]);
        let y = m.receive(b, 0);
        // Tolerances sized above the -200 dBm residual noise floor.
        assert!((y[3] - C64::ONE).abs() < 1e-6);
        assert!(y[4].abs() < 1e-6);
    }

    #[test]
    fn noise_floor_level_is_respected() {
        let mut m = Medium::new(MediumConfig::default(), 11);
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        m.set_noise_floor_dbm(a, -50.0);
        let mut acc = 0.0;
        let blocks = 2000;
        for _ in 0..blocks {
            let y = m.receive(a, 0);
            acc += mean_power(&y);
            m.end_block();
        }
        let dbm = db_from_ratio(acc / blocks as f64);
        assert!((dbm - (-50.0)).abs() < 0.3, "floor {dbm}");
    }

    #[test]
    fn build_links_uses_pathloss() {
        let mut m = Medium::new(
            MediumConfig {
                noise_floor_dbm: -200.0,
                ..Default::default()
            },
            13,
        );
        let model = PathlossModel::free_space(403.5e6);
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 10.0, 0.0));
        m.build_links(&model, Fading::None);
        let g = m.gain(a, b);
        // Free space at 10 m, 403.5 MHz: ~44.6 dB.
        let loss_db = -db_from_ratio(g.norm_sq());
        assert!((loss_db - 44.6).abs() < 0.2, "loss {loss_db}");
        // Reciprocity.
        assert_eq!(m.gain(a, b), m.gain(b, a));
        // Self gain remains zero.
        assert_eq!(m.gain(a, a), C64::ZERO);
    }

    #[test]
    fn build_links_preserves_explicit_gains() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 0.01, 0.0));
        let wired = C64::new(0.9, 0.0);
        m.set_gain(a, b, wired);
        m.set_gain(b, a, wired);
        m.build_links(&PathlossModel::mics_indoor(), Fading::None);
        assert_eq!(m.gain(a, b), wired);
    }

    #[test]
    fn tick_and_time_advance() {
        let mut m = quiet_medium();
        assert_eq!(m.tick(), 0);
        m.end_block();
        m.end_block();
        assert_eq!(m.block_index(), 2);
        assert_eq!(m.tick(), 32);
        assert!((m.time_s() - 32.0 / 300e3).abs() < 1e-15);
        assert_eq!(m.blocks_for_duration(1e-3), 19); // 300 samples / 16
    }

    #[test]
    fn cfo_rotates_transmissions_continuously() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        m.set_gain(a, b, C64::ONE);
        m.set_cfo_hz(a, 3e3);
        // Transmit a constant; receive a rotating phasor whose rate matches
        // the offset, continuous across blocks.
        let mut rx = Vec::new();
        for _ in 0..8 {
            m.transmit(a, 0, &vec![C64::ONE; 16]);
            rx.extend(m.receive(b, 0));
            m.end_block();
        }
        let est = hb_dsp::cfo::estimate_cfo(&rx, m.config().fs_hz);
        assert!((est - 3e3).abs() < 20.0, "estimated CFO {est}");
        // Equal offsets on both ends cancel.
        m.set_cfo_hz(b, 3e3);
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        let y = m.receive(b, 0);
        for s in &y {
            assert!((s.arg()).abs() < 0.2, "residual rotation {}", s.arg());
        }
    }

    #[test]
    fn impulse_noise_raises_average_floor() {
        let mut m = Medium::new(
            MediumConfig {
                noise_floor_dbm: -112.0,
                ..Default::default()
            },
            21,
        );
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        m.set_impulse_noise(0.25, -60.0);
        let mut hot_blocks = 0;
        let blocks = 2000;
        for _ in 0..blocks {
            let y = m.receive(a, 0);
            if mean_power(&y) > ratio_from_db(-70.0) {
                hot_blocks += 1;
            }
            m.end_block();
        }
        let rate = hot_blocks as f64 / blocks as f64;
        assert!((rate - 0.25).abs() < 0.05, "impulse rate {rate}");
    }

    #[test]
    fn impulse_noise_is_independent_per_receiver() {
        // Two receivers, same block: burst decisions are drawn per
        // (receiver, channel, block), so within one block one antenna can
        // be hit while the other is quiet. Pin that: over many blocks all
        // four hit/quiet combinations must occur.
        let mut m = Medium::new(
            MediumConfig {
                noise_floor_dbm: -112.0,
                ..Default::default()
            },
            31,
        );
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        m.set_impulse_noise(0.5, -60.0);
        let hot = |y: &[C64]| mean_power(y) > ratio_from_db(-70.0);
        let mut combos = [0usize; 4];
        for _ in 0..400 {
            let ha = hot(&m.receive(a, 0));
            let hb = hot(&m.receive(b, 0));
            combos[usize::from(ha) * 2 + usize::from(hb)] += 1;
            m.end_block();
        }
        assert!(
            combos.iter().all(|&c| c > 0),
            "all hit/quiet combinations must occur (independent draws): {combos:?}"
        );
        // And the marginal rate at each antenna tracks the probability.
        let rate_a = (combos[2] + combos[3]) as f64 / 400.0;
        let rate_b = (combos[1] + combos[3]) as f64 / 400.0;
        assert!((rate_a - 0.5).abs() < 0.1, "rate at a: {rate_a}");
        assert!((rate_b - 0.5).abs() < 0.1, "rate at b: {rate_b}");
    }

    #[test]
    fn repeat_receive_borrows_the_same_buffer() {
        // The cache-hit path must not copy: both views alias the same
        // pooled slot.
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        m.transmit(a, 0, &[C64::ONE; 16]);
        let p1 = m.receive_view(a, 0).as_ptr();
        let p2 = m.receive_view(a, 0).as_ptr();
        assert_eq!(p1, p2, "repeat receive must return the cached buffer");
        m.end_block();
        // Next block recycles the same pooled allocation.
        let p3 = m.receive_view(a, 0).as_ptr();
        assert_eq!(p1, p3, "pool must be recycled across blocks");
    }

    #[test]
    fn observer_helpers() {
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        assert!(!m.channel_active(0));
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        assert!(m.channel_active(0));
        assert!(!m.channel_active(1));
        assert!((m.staged_power(0) - 1.0).abs() < 1e-12);
    }

    /// Noise floor −100 dBm, cull margin 0 dB: pairs below −100 dB of
    /// gain power are culled.
    fn culling_medium() -> Medium {
        let cfg = MediumConfig {
            noise_floor_dbm: -100.0,
            cull_margin_db: 0.0,
            ..MediumConfig::default()
        };
        Medium::new(cfg, 7)
    }

    #[test]
    fn finite_margin_culls_sub_floor_pairs() {
        let mut m = culling_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        let c = m.add_antenna(Placement::los("c", 2.0, 0.0));
        // a→b comfortably above the threshold; a→c 10 dB below it.
        m.set_gain(a, b, C64::new(ratio_from_db(-40.0).sqrt(), 0.0));
        m.set_gain(a, c, C64::new(ratio_from_db(-110.0).sqrt(), 0.0));
        assert!(m.pair_audible(a, b));
        assert!(!m.pair_audible(a, c));
        // The culled pair contributes nothing: c hears only its own noise.
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        let quiet: Vec<C64> = {
            // A twin medium with no staged tx, same seed: identical noise.
            let mut t = culling_medium();
            t.add_antenna(Placement::los("a", 0.0, 0.0));
            t.add_antenna(Placement::los("b", 1.0, 0.0));
            let c2 = t.add_antenna(Placement::los("c", 2.0, 0.0));
            t.receive(c2, 0)
        };
        let y = m.receive(c, 0);
        assert_eq!(y, quiet, "culled pair must add nothing to the mixture");
    }

    #[test]
    fn inaudible_everywhere_is_not_staged() {
        let mut m = culling_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        // No gains at all: with a finite margin every zero-gain pair is
        // culled, so `a` is audible nowhere and staging skips it.
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        assert!(!m.channel_active(0), "culled-everywhere tx must not stage");
        assert_eq!(m.staged_power(0), 0.0);
        // Give it one audible listener and it stages again.
        m.end_block();
        m.set_gain(a, b, C64::ONE);
        m.transmit(a, 0, &vec![C64::ONE; 16]);
        assert!(m.channel_active(0));
        assert!((m.staged_power(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn neg_inf_margin_keeps_zero_gain_pairs_audible() {
        // The dense invariant: at −∞ the threshold is exactly zero, so
        // even an unlinked pair is "audible" and observer semantics match
        // the dense engine (`observer_helpers` relies on this).
        let mut m = quiet_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        assert!(m.pair_audible(a, b));
        assert!(m.pair_audible(a, a));
        let stats = m.cull_stats();
        assert_eq!(stats.audible_pairs, stats.total_pairs);
    }

    #[test]
    fn noise_floor_change_rebuilds_that_row() {
        let mut m = culling_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        // −95 dB of gain power: audible at a −100 dBm floor (margin 0)…
        m.set_gain(a, b, C64::new(ratio_from_db(-95.0).sqrt(), 0.0));
        assert!(m.pair_audible(a, b));
        // …culled once b's floor is raised to −90 dBm.
        let rows_before = m.cull_stats().rows_rebuilt;
        m.set_noise_floor_dbm(b, -90.0);
        assert!(!m.pair_audible(a, b));
        assert_eq!(m.cull_stats().rows_rebuilt, rows_before + 1);
    }

    #[test]
    fn move_antenna_redraws_drawn_and_preserves_explicit() {
        let mut m = culling_medium();
        let a = m.add_antenna(Placement::los("a", 0.0, 0.0));
        let b = m.add_antenna(Placement::los("b", 1.0, 0.0));
        let c = m.add_antenna(Placement::los("c", 2.0, 0.0));
        let wired = C64::new(0.9, 0.0);
        m.set_gain(a, b, wired);
        m.set_gain(b, a, wired);
        m.build_links(&PathlossModel::mics_indoor(), Fading::None);
        let g_ac = m.gain(a, c);
        let g_bc = m.gain(b, c);
        assert_ne!(g_ac, C64::ZERO);
        // Move a: its drawn links (a↔c) redraw, its explicit links (a↔b)
        // and untouched links (b↔c) are preserved.
        m.move_antenna(
            a,
            Placement::los("a", 5.0, 0.0),
            &PathlossModel::mics_indoor(),
            Fading::None,
        );
        assert_eq!(m.gain(a, b), wired);
        assert_eq!(m.gain(b, a), wired);
        assert_eq!(m.gain(b, c), g_bc);
        assert_ne!(m.gain(a, c), g_ac, "drawn link must redraw on move");
        assert_eq!(m.gain(a, c), m.gain(c, a), "redraw stays reciprocal");
    }

    /// The three pair matrices hold exactly `n × n` entries, with no
    /// spare capacity, at row stride `n`.
    fn assert_compact(m: &Medium) {
        let n = m.antenna_count();
        assert_eq!(m.stride, n);
        assert_eq!((m.gains.len(), m.gains.capacity()), (n * n, n * n));
        assert_eq!(
            (m.gain_state.len(), m.gain_state.capacity()),
            (n * n, n * n)
        );
        assert_eq!((m.audible.len(), m.audible.capacity()), (n * n, n * n));
    }

    #[test]
    fn build_links_leaves_exactly_n_squared_storage() {
        let model = PathlossModel::mics_indoor();
        let mut m = culling_medium();
        for i in 0..40 {
            m.add_antenna(Placement::los("x", i as f64, 0.0));
        }
        assert!(m.stride > 40, "registration grows the stride ahead of n");
        m.build_links(&model, Fading::Rayleigh);
        assert_compact(&m);
        // An antenna joining a built medium (an adversary at a bedside)
        // grows the stride by one; building again compacts it.
        let gains: Vec<C64> = (0..40).map(|rx| m.gain(3, rx)).collect();
        let adversary = m.add_antenna(Placement::los("adversary", 0.3, 0.5));
        assert_eq!(m.stride, 41);
        m.build_links(&model, Fading::Rayleigh);
        assert_compact(&m);
        assert_eq!((0..40).map(|rx| m.gain(3, rx)).collect::<Vec<_>>(), gains);
        assert_ne!(m.gain(adversary, 3), C64::ZERO);
        assert_eq!(m.gain(adversary, 3), m.gain(3, adversary));
    }

    #[test]
    fn move_antenna_invalidation_is_row_scoped() {
        let mut m = culling_medium();
        for i in 0..8 {
            m.add_antenna(Placement::los("x", i as f64, 0.0));
        }
        m.build_links(&PathlossModel::mics_indoor(), Fading::None);
        let before = m.cull_stats();
        m.move_antenna(
            3,
            Placement::los("x", 3.0, 4.0),
            &PathlossModel::mics_indoor(),
            Fading::None,
        );
        let after = m.cull_stats();
        let n = m.antenna_count() as u64;
        assert_eq!(
            after.rows_rebuilt, before.rows_rebuilt,
            "a move must not trigger full row rebuilds"
        );
        assert!(
            after.pair_updates - before.pair_updates <= 2 * (n - 1),
            "a move must touch at most the moved antenna's row and column: {} updates",
            after.pair_updates - before.pair_updates
        );
        // Audibility stays semantically consistent after the incremental
        // update: every pair's flag matches a from-scratch evaluation.
        for tx in 0..m.antenna_count() {
            for rx in 0..m.antenna_count() {
                let expect = m.gain(tx, rx).norm_sq() >= ratio_from_db(-100.0);
                assert_eq!(m.pair_audible(tx, rx), expect, "pair ({tx}, {rx})");
            }
        }
    }
}
