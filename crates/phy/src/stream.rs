//! Streaming frame detection: block-at-a-time FSK demodulation with
//! continuous sync search and frame assembly.
//!
//! Real receivers do not see tidy, pre-aligned sample buffers; they watch
//! the channel continuously. [`StreamingDetector`] consumes sample blocks
//! as the medium produces them and emits events when it finds and finishes
//! frames. It tracks the tone energies of every sub-symbol alignment
//! ("phase"), demodulates a bit stream per phase, and runs a
//! sync-pattern matcher on each stream. When a pattern hits, the detector
//! locks onto that phase, collects the frame's bits (using the length
//! field to know when to stop), and emits the parse result — including CRC
//! failures, which is exactly what an IMD sees when the shield jams a
//! command addressed to it.
//!
//! # The two-stage pipeline
//!
//! Both [`StreamingDetector`] and [`SidMonitor`] split each `push_block`
//! call into two stages around the shared
//! [`hb_dsp::correlator::SlidingToneCorrelator`] kernel:
//!
//! * **Stage (a), hot** — the whole input block flows through the
//!   sliding-window tone correlator. With `sps` samples per symbol,
//!   exactly one phase completes a symbol per sample, and its window is
//!   the last `sps` samples, so one running sum per tone gives every
//!   phase's energies `(e0, e1)` at O(1) cost per sample (see the
//!   correlator's module docs). They land in per-block scratch buffers.
//! * **Stage (b), cold** — a per-symbol walk over the scratch runs
//!   everything with state-machine branches: bit decisions, margin
//!   tracking, sync matching, phase arbitration, lock/frame collection.
//!
//! **The stage (a) invariant:** the energies are a pure function of the
//! sample stream since the last reset. No detector state (lock,
//! candidates, matchers) feeds back into the correlator, and its output
//! does not depend on how the stream is chunked into blocks. Each energy
//! depends on the last `2·sps − 1` samples only (the window plus the
//! updates since the correlator's once-per-symbol re-anchor), which the
//! two shortcuts below build on. The energies are not bit-identical to a
//! per-phase matched-filter sweep, only equal to round-off, so a near-tie
//! bit decision can differ. The per-phase sweep detectors stay under
//! `#[cfg(test)]` as `reference`: the equivalence property tests require
//! the same events (ticks, frames and power values bit for bit) from
//! both on noisy frames at every chunking.
//!
//! # Phase-arbitration rules
//!
//! Several adjacent phases can match the sync pattern within tolerance.
//! When the first one fires, a one-symbol **arbitration window** opens;
//! phases firing inside it become candidates (each remembering the bits
//! it demodulated after its own match). When the window closes, the
//! winner is chosen by (1) lowest sync Hamming distance, then (2) highest
//! summed tone-energy separation `Σ|e1−e0|` over the sync window, then
//! (3) earliest fire (the sort is stable, so ties keep registration
//! order). Only then does the detector lock and report
//! [`DetectorEvent::SyncFound`].
//!
//! # Silence: [`StreamingDetector::push_silence`]
//!
//! A half-duplex radio hears nothing while its own transmitter is on, but
//! its detector clock must keep running. `push_silence(n)` is defined as
//! exactly `push_block(&[C64::ZERO; n])`, and is cheaper in two steps
//! that each follow from the zero input:
//!
//! 1. The first `2·sps − 1` samples of a silent run go through both
//!    stages as usual: the energies emitted there still depend on samples
//!    from before the run.
//! 2. After `2·sps − 1` silent samples the correlator's ring holds only
//!    zeros and its window sums were re-anchored on them; a zero sample
//!    adds only `±0` products, so both sums stay `±0` and every energy is
//!    exactly `0.0` (the sign of a zero never survives the squares or the
//!    next non-zero addend). Stage (a) is skipped and stage (b) walks zero
//!    energies. The skipped samples would only have written zeros over
//!    zeros, so the correlator's state is the same as after the full run.
//!
//! Only `push_silence` extends a silent run; `push_block` and `reset` end
//! it, even when the block happens to be all zeros.
//!
//! # Shared energies: [`SidMonitor::push_block_shared`]
//!
//! The shield runs a [`StreamingDetector`] and a [`SidMonitor`] on the
//! same session-channel samples, with the same tones. Since every energy
//! depends only on the last `2·sps − 1` samples (counting samples before
//! a reset as zeros), two correlators fed the same samples emit
//! bit-identical energies once both have seen `2·sps − 1` samples since
//! their last resets. The monitor can therefore take the detector's
//! energies ([`StreamingDetector::block_energies`]) instead of running
//! its own correlator; only the first `2·sps − 1` samples after a reset
//! of either one (the monitor's `advance_silent`/`reset`, the detector's
//! `reset`) run the monitor's own. Both paths share one stage (b).
//!
//! # One matcher per detector
//!
//! Every phase runs the same sync pattern. [`StreamingDetector::new`]
//! packs the 48-bit preamble + sync pattern into one [`SidMatcher`] and
//! clones it into each of the `sps` phases, and a [`SidMonitor`] keeps
//! its packed Sid matcher as the template its live state clones. A
//! matcher is a few machine words with no heap, so a clone is a copy.

use crate::fsk::FskParams;
use crate::matcher::SidMatcher;
use crate::packet::{Frame, FrameError, MAX_PAYLOAD, OVERHEAD, PREAMBLE, SYNC_WORD};
use hb_dsp::complex::C64;
use hb_dsp::correlator::SlidingToneCorrelator;

/// Bits in the preamble + sync prefix.
const SYNC_BITS: usize = (PREAMBLE.len() + SYNC_WORD.len()) * 8;
/// Bit offset of the length field within the frame.
const LEN_FIELD_BIT: usize = (PREAMBLE.len() + SYNC_WORD.len() + 10 + 1 + 1) * 8;

/// The sliding-window tone correlator over `params`' two tones — exactly
/// the stage (a) [`StreamingDetector`] and [`SidMonitor`] run. Public so
/// benchmarks (`perf_report`'s `detector_sweep_24k`) time the same filter
/// the production detectors use rather than rebuilding the tone
/// convention by hand.
pub fn detection_correlator(params: FskParams) -> SlidingToneCorrelator {
    SlidingToneCorrelator::new(params.samples_per_symbol(), params.tone_hz(0), params.fs_hz)
}

/// An event from the streaming detector.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorEvent {
    /// The sync pattern matched; a frame is being collected.
    SyncFound {
        /// Sample tick of the (estimated) first preamble sample.
        start_tick: u64,
    },
    /// A complete frame was collected and parsed.
    FrameDone {
        /// Parse result; `Err(BadCrc)` is the jammed-command case.
        result: Result<Frame, FrameError>,
        /// Sample tick of the frame's first sample.
        start_tick: u64,
        /// Sample tick just past the frame's last sample.
        end_tick: u64,
        /// Mean received power over the frame (1.0 ≡ 0 dBm).
        mean_power: f64,
    },
}

/// Per-alignment demodulation state (cold path: touched once per completed
/// symbol; the per-sample tone energies come from the shared
/// [`SlidingToneCorrelator`]).
#[derive(Debug, Clone)]
struct PhaseState {
    /// Sync matcher over this phase's bit stream.
    matcher: SidMatcher,
    /// Tone-energy separation |e1−e0| of the last `SYNC_BITS` symbols
    /// (fixed ring buffer): a correctly aligned phase maximizes this, so
    /// it arbitrates ties between equal-distance sync candidates.
    margins: Vec<f64>,
    /// Ring head — index of the oldest margin once the ring is full.
    head: usize,
    /// Entries filled so far (saturates at `SYNC_BITS`).
    filled: usize,
    margin_sum: f64,
}

impl PhaseState {
    fn new(matcher: SidMatcher) -> Self {
        PhaseState {
            matcher,
            margins: vec![0.0; SYNC_BITS],
            head: 0,
            filled: 0,
            margin_sum: 0.0,
        }
    }

    /// Adds `m` to the rolling window: the sum gains `m` first, then loses
    /// the evicted oldest entry — the same floating-point order the
    /// historical `VecDeque` implementation used, so the sum stays
    /// bit-identical. A non-finite sum is recomputed from the ring: an
    /// evicted `inf` leaves `inf − inf`, which would poison the sum for
    /// good. Finite input never takes that branch.
    fn push_margin(&mut self, m: f64) {
        self.margin_sum += m;
        if self.filled < SYNC_BITS {
            self.margins[self.filled] = m;
            self.filled += 1;
        } else {
            self.margin_sum -= self.margins[self.head];
            self.margins[self.head] = m;
            self.head = if self.head + 1 == SYNC_BITS {
                0
            } else {
                self.head + 1
            };
        }
        if !self.margin_sum.is_finite() {
            self.margin_sum = self.margins[..self.filled].iter().sum();
        }
    }

    fn clear_margins(&mut self) {
        self.head = 0;
        self.filled = 0;
        self.margin_sum = 0.0;
    }
}

/// Frame-collection state once a sync has matched.
#[derive(Debug, Clone)]
struct LockState {
    phase: usize,
    start_tick: u64,
    /// All frame bits collected so far, including the sync prefix.
    bits: Vec<u8>,
    /// Total expected bits once the length field is readable.
    total_bits: Option<usize>,
    power_sum: f64,
    power_samples: u64,
}

/// A sync-match candidate awaiting phase arbitration.
///
/// Several adjacent sub-symbol phases can match the sync pattern within
/// tolerance (especially with interference in the run-up to a frame);
/// locking onto the first one risks a half-symbol misalignment that
/// corrupts the whole frame. Candidates are therefore collected for one
/// symbol period and the **lowest-distance** phase wins — the streaming
/// equivalent of the offline decoder's search over all alignments. (The
/// full tie-break order is in the module docs.)
#[derive(Debug, Clone)]
struct Candidate {
    phase: usize,
    distance: usize,
    /// Summed tone-energy separation over the sync window (higher =
    /// better aligned).
    quality: f64,
    fire_tick: u64,
    /// Bits this phase produced since (and excluding) its sync match.
    bits_since: Vec<u8>,
}

/// Streaming FSK frame detector. See the module docs.
///
/// # Example
///
/// ```
/// use hb_dsp::complex::C64;
/// use hb_phy::fsk::{FskModem, FskParams};
/// use hb_phy::packet::{Frame, FrameType, Serial};
/// use hb_phy::stream::{DetectorEvent, StreamingDetector};
///
/// let params = FskParams::mics_default();
/// let frame = Frame::new(
///     Serial::from_str_padded("VIRTUOSO01"),
///     FrameType::Command,
///     1,
///     vec![1, 2],
/// );
/// let mut sig = vec![C64::ZERO; 100]; // leading silence
/// sig.extend(FskModem::new(params).modulate(&frame.to_bits()));
/// sig.extend(vec![C64::ZERO; 200]);
///
/// let mut det = StreamingDetector::new(params, 4);
/// let mut decoded = None;
/// // Blocks arrive one at a time, exactly as the medium produces them.
/// for block in sig.chunks(16) {
///     for event in det.push_block(block) {
///         if let DetectorEvent::FrameDone { result, .. } = event {
///             decoded = Some(result.expect("clean channel"));
///         }
///     }
/// }
/// assert_eq!(decoded.unwrap(), frame);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    params: FskParams,
    /// Stage (a): the sliding-window tone correlator.
    corr: SlidingToneCorrelator,
    phases: Vec<PhaseState>,
    lock: Option<LockState>,
    /// Pending candidate window: (deadline tick, candidates).
    pending: Option<(u64, Vec<Candidate>)>,
    sync_errors_allowed: usize,
    next_tick: u64,
    /// Per-block scratch: completed-symbol tone energies from stage (a),
    /// one `(e0, e1)` pair per consumed sample.
    e0: Vec<f64>,
    e1: Vec<f64>,
    /// Tick of the first sample behind `e0`/`e1`.
    energies_tick: u64,
    /// Leading `e0`/`e1` entries whose symbols began before the last reset.
    energies_partial: usize,
    /// Samples consumed since the last reset (saturating).
    since_reset: u64,
    /// Consecutive samples of the current `push_silence` run.
    silent_run: u64,
    /// Pooled zero samples for the silent paths.
    zeros: Vec<C64>,
}

impl StreamingDetector {
    /// Creates a detector for the given FSK parameters, tolerating up to
    /// `sync_errors_allowed` bit errors in the preamble + sync pattern.
    pub fn new(params: FskParams, sync_errors_allowed: usize) -> Self {
        let sps = params.samples_per_symbol();
        let mut pattern = Vec::with_capacity(SYNC_BITS);
        pattern.extend_from_slice(&crate::bits::bytes_to_bits(&PREAMBLE));
        pattern.extend_from_slice(&crate::bits::bytes_to_bits(&SYNC_WORD));
        let matcher = SidMatcher::new(pattern, sync_errors_allowed);
        let phases = (0..sps).map(|_| PhaseState::new(matcher.clone())).collect();
        StreamingDetector {
            corr: detection_correlator(params),
            params,
            phases,
            lock: None,
            pending: None,
            sync_errors_allowed,
            next_tick: 0,
            e0: Vec::new(),
            e1: Vec::new(),
            energies_tick: 0,
            energies_partial: 0,
            since_reset: 0,
            silent_run: 0,
            zeros: Vec::new(),
        }
    }

    /// The modem parameters in use.
    pub fn params(&self) -> &FskParams {
        &self.params
    }

    /// True while a frame is being collected.
    pub fn is_locked(&self) -> bool {
        self.lock.is_some()
    }

    /// Abandons any in-progress frame and clears all matchers.
    pub fn reset(&mut self) {
        self.lock = None;
        self.pending = None;
        self.corr.reset();
        for p in self.phases.iter_mut() {
            p.matcher.reset();
            p.clear_margins();
        }
        self.since_reset = 0;
        self.silent_run = 0;
    }

    /// Consumes one block of samples (which must directly follow the
    /// previous block) and returns any events it produced.
    pub fn push_block(&mut self, samples: &[C64]) -> Vec<DetectorEvent> {
        self.silent_run = 0;
        let mut events = Vec::new();
        self.correlate(samples);
        self.walk(samples, &mut events);
        events
    }

    /// Consumes `n` zero samples: exactly `push_block(&[C64::ZERO; n])`,
    /// events and all later output included, at a fraction of the cost
    /// once the silent run is long (see the module docs). This is the
    /// receive path of a half-duplex radio while its own transmitter is
    /// on.
    pub fn push_silence(&mut self, n: usize) -> Vec<DetectorEvent> {
        let settled = self.corr.memory() as u64;
        let mut events = Vec::new();
        let mut zeros = std::mem::take(&mut self.zeros);
        zeros.resize(zeros.len().max(n), C64::ZERO);
        // Energies emitted in the first `2·sps − 1` samples of the run
        // still depend on earlier samples.
        let head = n.min(settled.saturating_sub(self.silent_run) as usize);
        if head > 0 {
            self.correlate(&zeros[..head]);
            self.walk(&zeros[..head], &mut events);
        }
        // After that the ring and both window sums are ±0: the energies
        // are exactly zero.
        let rest = n - head;
        if rest > 0 {
            self.e0.clear();
            self.e1.clear();
            self.e0.resize(rest, 0.0);
            self.e1.resize(rest, 0.0);
            self.mark_energies(rest);
            self.walk(&zeros[..rest], &mut events);
        }
        self.silent_run += n as u64;
        self.zeros = zeros;
        // Silence leaves no block energies to share.
        self.e0.clear();
        self.e1.clear();
        self.energies_tick = self.next_tick;
        self.energies_partial = 0;
        events
    }

    /// The completed-symbol energies of the last [`Self::push_block`]
    /// (empty after [`Self::push_silence`]), for a [`SidMonitor`] on the
    /// same samples: see [`SidMonitor::push_block_shared`].
    pub fn block_energies(&self) -> BlockEnergies<'_> {
        BlockEnergies {
            start_tick: self.energies_tick,
            partial: self.energies_partial,
            e0: &self.e0,
            e1: &self.e1,
        }
    }

    /// Stage (a) — hot: the sliding-window correlator over the whole
    /// block, emitting one completed `(e0, e1)` pair per sample.
    fn correlate(&mut self, samples: &[C64]) {
        let sps = self.corr.sps();
        self.e0.clear();
        self.e1.clear();
        let base0 = (self.next_tick % sps as u64) as usize;
        self.corr
            .process_block(samples, base0, &mut self.e0, &mut self.e1);
        self.mark_energies(samples.len());
    }

    /// Records where the `n` fresh scratch energies sit in the stream.
    fn mark_energies(&mut self, n: usize) {
        let settled = self.corr.memory() as u64;
        self.energies_tick = self.next_tick;
        self.energies_partial = settled.saturating_sub(self.since_reset).min(n as u64) as usize;
        self.since_reset = self.since_reset.saturating_add(n as u64);
    }

    /// Stage (b) — cold: per completed symbol, in tick order, over the
    /// scratch energies of `samples`.
    fn walk(&mut self, samples: &[C64], events: &mut Vec<DetectorEvent>) {
        let sps = self.phases.len();
        // The scratch buffers move out of `self` for the walk so the zip
        // borrows cleanly (and elides every bounds check).
        let e0s = std::mem::take(&mut self.e0);
        let e1s = std::mem::take(&mut self.e1);
        let mut p = (self.next_tick % sps as u64) as usize;
        for ((&s, &e0), &e1) in samples.iter().zip(e0s.iter()).zip(e1s.iter()) {
            let tick = self.next_tick;
            self.next_tick += 1;

            if let Some(lock) = self.lock.as_mut() {
                lock.power_sum += s.norm_sq();
                lock.power_samples += 1;
            }

            let mut frame_completed = false;
            // The phase whose symbol completed on this sample.
            p = if p + 1 == sps { 0 } else { p + 1 };
            {
                let st = &mut self.phases[p];
                let bit = u8::from(e1 > e0);
                st.push_margin((e1 - e0).abs());

                match self.lock.as_mut() {
                    Some(lock) if lock.phase == p => {
                        lock.bits.push(bit);
                        // Read the length field as soon as available.
                        if lock.total_bits.is_none() && lock.bits.len() >= LEN_FIELD_BIT + 16 {
                            let mut len = 0usize;
                            for i in 0..16 {
                                len = (len << 1) | lock.bits[LEN_FIELD_BIT + i] as usize;
                            }
                            if len > MAX_PAYLOAD {
                                // Garbled length: cap at the maximum
                                // frame so the attempt terminates; the
                                // CRC will reject it.
                                len = MAX_PAYLOAD;
                            }
                            lock.total_bits = Some((OVERHEAD + len) * 8);
                        }
                        if let Some(total) = lock.total_bits {
                            if lock.bits.len() >= total {
                                let lock = self.lock.take().unwrap();
                                let result = Frame::from_bits(&lock.bits);
                                events.push(DetectorEvent::FrameDone {
                                    result,
                                    start_tick: lock.start_tick,
                                    end_tick: tick + 1,
                                    mean_power: if lock.power_samples > 0 {
                                        lock.power_sum / lock.power_samples as f64
                                    } else {
                                        0.0
                                    },
                                });
                                // One frame at a time: restart the scan
                                // (matchers reset after this sample's
                                // phase sweep completes).
                                frame_completed = true;
                            }
                        }
                    }
                    Some(_) => {
                        // Another phase holds the lock; stay quiet.
                    }
                    None => {
                        let fired = st.matcher.push(bit);
                        match self.pending.as_mut() {
                            Some((_, candidates)) => {
                                // Feed bits to existing candidates on
                                // this phase; register a new candidate
                                // if this phase just fired.
                                for c in candidates.iter_mut() {
                                    if c.phase == p && c.fire_tick < tick {
                                        c.bits_since.push(bit);
                                    }
                                }
                                if fired && !candidates.iter().any(|c| c.phase == p) {
                                    candidates.push(Candidate {
                                        phase: p,
                                        distance: st.matcher.current_distance(),
                                        quality: st.margin_sum,
                                        fire_tick: tick,
                                        bits_since: Vec::new(),
                                    });
                                }
                            }
                            None => {
                                if fired {
                                    // Open a one-symbol arbitration
                                    // window for competing phases.
                                    self.pending = Some((
                                        tick + sps as u64,
                                        vec![Candidate {
                                            phase: p,
                                            distance: st.matcher.current_distance(),
                                            quality: st.margin_sum,
                                            fire_tick: tick,
                                            bits_since: Vec::new(),
                                        }],
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            if frame_completed {
                for q in self.phases.iter_mut() {
                    q.matcher.reset();
                }
                self.pending = None;
            }
            // Close the candidate window: lock the lowest-distance phase
            // (ties broken by earliest fire).
            if let Some((deadline, _)) = self.pending {
                if tick + 1 >= deadline && self.lock.is_none() {
                    let (_, mut candidates) = self.pending.take().unwrap();
                    // Lowest sync distance wins; ties go to the phase with
                    // the cleanest tone separation over the sync window.
                    candidates.sort_by(|a, b| {
                        a.distance
                            .cmp(&b.distance)
                            .then(b.quality.total_cmp(&a.quality))
                    });
                    let winner = candidates.into_iter().next().unwrap();
                    let start_tick =
                        (winner.fire_tick + 1).saturating_sub((SYNC_BITS * sps) as u64);
                    let mut bits = Vec::with_capacity(SYNC_BITS + winner.bits_since.len());
                    bits.extend_from_slice(&crate::bits::bytes_to_bits(&PREAMBLE));
                    bits.extend_from_slice(&crate::bits::bytes_to_bits(&SYNC_WORD));
                    bits.extend_from_slice(&winner.bits_since);
                    self.lock = Some(LockState {
                        phase: winner.phase,
                        start_tick,
                        bits,
                        total_bits: None,
                        power_sum: 0.0,
                        power_samples: 0,
                    });
                    events.push(DetectorEvent::SyncFound { start_tick });
                }
            }
        }
        self.e0 = e0s;
        self.e1 = e1s;
    }

    /// The configured sync-pattern bit-error tolerance.
    pub fn sync_errors_allowed(&self) -> usize {
        self.sync_errors_allowed
    }

    /// The detector's current absolute sample tick.
    pub fn tick(&self) -> u64 {
        self.next_tick
    }
}

/// A [`StreamingDetector`]'s completed-symbol energies for its last block
/// (see [`StreamingDetector::block_energies`]). Only the detector makes
/// one, so a [`SidMonitor`] can trust where they sit in the stream.
#[derive(Debug, Clone, Copy)]
pub struct BlockEnergies<'a> {
    /// Tick of the block's first sample.
    start_tick: u64,
    /// Leading entries emitted within `2·sps − 1` samples of the
    /// detector's last reset (energies no other correlator shares).
    partial: usize,
    /// Tone-0 energy of the symbol each sample completes.
    e0: &'a [f64],
    /// Tone-1 energy of the symbol each sample completes.
    e1: &'a [f64],
}

/// A detection from [`SidMonitor::push_block`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SidDetection {
    /// Tick at which the pattern's last bit finished (detection instant).
    pub tick: u64,
    /// Hamming distance of the matched window from the pattern.
    pub distance: usize,
    /// Mean received power over the pattern window (1.0 ≡ 0 dBm).
    pub mean_power: f64,
}

/// Streaming identifying-sequence monitor: the shield's active-protection
/// trigger (§7 of the paper).
///
/// Unlike [`StreamingDetector`], this never assembles frames — it watches
/// the bit stream at every sub-symbol alignment and fires the moment the
/// last `m` bits match `Sid` within `bthresh` errors, reporting the RSSI
/// over the matched window (the quantity compared against `Pthresh` for
/// the high-power alarm).
///
/// Stage (a) is the same [`SlidingToneCorrelator`] the detector uses (see
/// the module docs for the two-stage pipeline); only the cold stage
/// differs — a rolling RSSI window and one [`SidMatcher`] per phase
/// instead of frame assembly.
///
/// # Idle and live
///
/// The monitor is a sample clock plus an optional live state (correlator,
/// matchers, RSSI window). [`SidMonitor::advance_silent`] drops the live
/// state and the next pushed block builds a fresh one, so a monitor that
/// only ever skips silence — the shield's wideband monitor on a channel
/// nobody transmits on — holds no per-sample state at all
/// ([`SidMonitor::is_idle`]). A fresh live state is exactly the all-zero
/// state the silence leaves behind, so dropping it changes no output.
#[derive(Debug, Clone)]
pub struct SidMonitor {
    params: FskParams,
    /// A freshly built matcher, cloned into every phase of a new live state.
    matcher: SidMatcher,
    sps: usize,
    next_tick: u64,
    /// Refractory: suppress duplicate detections (adjacent phases matching
    /// the same transmission) until this tick.
    holdoff_until: u64,
    /// Everything that depends on the samples; `None` while idle.
    live: Option<LiveSid>,
    /// Per-block scratch: completed-symbol tone energies from stage (a).
    e0: Vec<f64>,
    e1: Vec<f64>,
}

/// The sample-dependent part of a [`SidMonitor`], built on the first block
/// pushed after construction or a silent advance.
#[derive(Debug, Clone)]
struct LiveSid {
    /// Stage (a): the sliding-window tone correlator.
    corr: SlidingToneCorrelator,
    matchers: Vec<SidMatcher>,
    /// Rolling power window covering one Sid length of samples.
    power_window: Vec<f64>,
    power_head: usize,
    power_sum: f64,
    /// Samples consumed since the correlator was last reset (saturating).
    since_reset: u64,
    /// True while the own correlator has seen every sample since its last
    /// reset; shared energies end that until the next reset.
    corr_current: bool,
}

impl LiveSid {
    fn new(params: FskParams, matcher: &SidMatcher) -> Self {
        let sps = params.samples_per_symbol();
        LiveSid {
            corr: detection_correlator(params),
            matchers: vec![matcher.clone(); sps],
            power_window: vec![0.0; matcher.pattern_len() * sps],
            power_head: 0,
            power_sum: 0.0,
            since_reset: 0,
            corr_current: true,
        }
    }
}

impl SidMonitor {
    /// Creates a monitor for `sid` (bit pattern) tolerating `bthresh`
    /// errors. It starts idle.
    pub fn new(params: FskParams, sid: Vec<u8>, bthresh: usize) -> Self {
        SidMonitor {
            params,
            matcher: SidMatcher::new(sid, bthresh),
            sps: params.samples_per_symbol(),
            next_tick: 0,
            holdoff_until: 0,
            live: None,
            e0: Vec::new(),
            e1: Vec::new(),
        }
    }

    /// Consumes one block; returns the first detection in it, if any.
    pub fn push_block(&mut self, samples: &[C64]) -> Option<SidDetection> {
        self.push(samples, None)
    }

    /// [`SidMonitor::push_block`] on the samples a [`StreamingDetector`]
    /// with the same FSK parameters has just consumed, reusing its
    /// completed energies instead of correlating: bit-identical, because
    /// both correlators' energies depend only on the last `2·sps − 1`
    /// samples (see the module docs). Only the first `2·sps − 1` samples
    /// after a reset of either side run this monitor's own correlator.
    ///
    /// # Panics
    /// Panics if `shared` does not cover exactly `samples` at this
    /// monitor's tick, or if the own correlator is needed after shared energies
    /// were used without a [`SidMonitor::reset`] in between.
    pub fn push_block_shared(
        &mut self,
        samples: &[C64],
        shared: BlockEnergies<'_>,
    ) -> Option<SidDetection> {
        self.push(samples, Some(shared))
    }

    fn push(&mut self, samples: &[C64], shared: Option<BlockEnergies<'_>>) -> Option<SidDetection> {
        let len = samples.len();
        if let Some(sh) = &shared {
            assert!(
                sh.start_tick == self.next_tick && sh.e0.len() == len && sh.e1.len() == len,
                "shared energies must cover this block"
            );
        }
        if len == 0 {
            return None;
        }
        let (params, matcher) = (self.params, &self.matcher);
        let live = self
            .live
            .get_or_insert_with(|| LiveSid::new(params, matcher));
        let window = live.power_window.len();
        let mut detection = None;

        // Stage (a) — hot: the own correlator over the samples whose
        // energies the shared ones do not cover.
        let own = match &shared {
            None => len,
            Some(sh) => {
                let settled = live.corr.memory() as u64;
                let warmup = settled.saturating_sub(live.since_reset).min(len as u64) as usize;
                warmup.max(sh.partial)
            }
        };
        self.e0.clear();
        self.e1.clear();
        let base0 = (self.next_tick % self.sps as u64) as usize;
        if own > 0 {
            assert!(
                live.corr_current,
                "own correlator needed after shared energies without a reset"
            );
            live.corr
                .process_block(&samples[..own], base0, &mut self.e0, &mut self.e1);
        }
        if let Some(sh) = shared.filter(|_| own < len) {
            self.e0.extend_from_slice(&sh.e0[own..]);
            self.e1.extend_from_slice(&sh.e1[own..]);
            live.corr_current = false;
        }
        live.since_reset = live.since_reset.saturating_add(len as u64);

        // Stage (b) — cold: rolling RSSI + per-phase Sid matching.
        let mut phase = base0;
        for ((&s, &e0), &e1) in samples.iter().zip(self.e0.iter()).zip(self.e1.iter()) {
            let tick = self.next_tick;
            self.next_tick += 1;

            // Rolling power over the Sid window.
            let p = s.norm_sq();
            live.power_sum += p - live.power_window[live.power_head];
            live.power_window[live.power_head] = p;
            live.power_head = if live.power_head + 1 == window {
                0
            } else {
                live.power_head + 1
            };
            // Same recovery as `PhaseState::push_margin`: only a
            // non-finite sample gets here.
            if !live.power_sum.is_finite() {
                live.power_sum = live.power_window.iter().sum();
            }

            phase = if phase + 1 == self.sps { 0 } else { phase + 1 };
            let bit = u8::from(e1 > e0);
            if live.matchers[phase].push(bit) && detection.is_none() && tick >= self.holdoff_until {
                detection = Some(SidDetection {
                    tick,
                    distance: live.matchers[phase].current_distance(),
                    mean_power: live.power_sum / window as f64,
                });
                // Hold off for half a Sid so sibling phases don't
                // re-report the same transmission.
                self.holdoff_until = tick + (window / 2) as u64;
            }
        }
        detection
    }

    /// Restarts Sid matching (e.g. after the shield finishes jamming a
    /// signal): the matchers and the correlator forget every sample, but
    /// the RSSI window keeps the last Sid length of samples, so a Sid that
    /// completes within one window of the reset still reports their power.
    /// An idle monitor is already in that state.
    pub fn reset(&mut self) {
        if let Some(live) = &mut self.live {
            for m in live.matchers.iter_mut() {
                m.reset();
            }
            live.corr.reset();
            live.since_reset = 0;
            live.corr_current = true;
        }
    }

    /// Skips `n` samples of known silence without demodulating them
    /// (squelch: the shield's wideband monitor only pays for channels with
    /// energy on them). A positive `n` moves the clock and drops the live
    /// state, so the monitor becomes idle: matching restarts and the RSSI
    /// window reads as zeros, as after a long silence. The hold-off stays
    /// on the clock. O(1); `n == 0` changes nothing.
    pub fn advance_silent(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.next_tick += n;
        self.live = None;
    }

    /// True while the monitor holds no per-sample state: since its
    /// construction or its last positive [`SidMonitor::advance_silent`], no
    /// block was pushed.
    pub fn is_idle(&self) -> bool {
        self.live.is_none()
    }

    /// Current absolute sample tick.
    pub fn tick(&self) -> u64 {
        self.next_tick
    }
}

/// The per-phase matched-filter front ends (the original detectors), kept
/// as the oracle for the sliding-window correlator: the equivalence
/// property tests drive these and the production types on identical
/// streams and require identical events.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::fsk::FskModem;
    use std::f64::consts::PI;

    /// One-symbol tone template `cis(-2π f n / fs)` for `bit`'s tone: the
    /// matched filter of the per-phase sweep.
    fn tone_template(params: FskParams, bit: u8) -> Vec<C64> {
        let sps = params.samples_per_symbol();
        (0..sps)
            .map(|n| C64::cis(-2.0 * PI * params.tone_hz(bit) * n as f64 / params.fs_hz))
            .collect()
    }

    /// The per-sample phase sweep: `sps` zero-started accumulators per tone.
    ///
    /// Phase `p` reads matched-filter position `(tick - p) mod sps`; with
    /// `base = tick mod sps` that splits into two contiguous runs, so the
    /// loop is dense MACs with no modulo. Accumulates `s` into every
    /// phase's `(c0, c1)` and returns the one phase `p* = (base + 1) mod
    /// sps` that completes a symbol on this sample.
    fn sweep_phases(
        accum: &mut [(C64, C64)],
        mf_zero: &[C64],
        mf_one: &[C64],
        s: C64,
        base: usize,
    ) -> usize {
        let sps = accum.len();
        for (p, acc) in accum[..=base].iter_mut().enumerate() {
            let pos = base - p;
            acc.0 += s * mf_zero[pos];
            acc.1 += s * mf_one[pos];
        }
        for (off, acc) in accum[base + 1..].iter_mut().enumerate() {
            let pos = sps - 1 - off;
            acc.0 += s * mf_zero[pos];
            acc.1 += s * mf_one[pos];
        }
        (base + 1) % sps
    }

    /// The per-phase [`StreamingDetector`]: identical state machine,
    /// per-sample sweep.
    #[derive(Debug, Clone)]
    pub struct RefDetector {
        modem: FskModem,
        mf_zero: Vec<C64>,
        mf_one: Vec<C64>,
        accum: Vec<(C64, C64)>,
        phases: Vec<PhaseState>,
        lock: Option<LockState>,
        pending: Option<(u64, Vec<Candidate>)>,
        next_tick: u64,
    }

    impl RefDetector {
        pub fn new(params: FskParams, sync_errors_allowed: usize) -> Self {
            let modem = FskModem::new(params);
            let sps = params.samples_per_symbol();
            let mut pattern = Vec::with_capacity(SYNC_BITS);
            pattern.extend_from_slice(&crate::bits::bytes_to_bits(&PREAMBLE));
            pattern.extend_from_slice(&crate::bits::bytes_to_bits(&SYNC_WORD));
            let phases = (0..sps)
                .map(|_| PhaseState::new(SidMatcher::new(pattern.clone(), sync_errors_allowed)))
                .collect();
            RefDetector {
                mf_zero: tone_template(params, 0),
                mf_one: tone_template(params, 1),
                modem,
                accum: vec![(C64::ZERO, C64::ZERO); sps],
                phases,
                lock: None,
                pending: None,
                next_tick: 0,
            }
        }

        pub fn reset(&mut self) {
            self.lock = None;
            self.pending = None;
            for a in self.accum.iter_mut() {
                *a = (C64::ZERO, C64::ZERO);
            }
            for p in self.phases.iter_mut() {
                p.matcher.reset();
                p.clear_margins();
            }
        }

        pub fn push_block(&mut self, samples: &[C64]) -> Vec<DetectorEvent> {
            let sps = self.modem.params().samples_per_symbol();
            let mut events = Vec::new();
            for &s in samples {
                let tick = self.next_tick;
                self.next_tick += 1;

                if let Some(lock) = self.lock.as_mut() {
                    lock.power_sum += s.norm_sq();
                    lock.power_samples += 1;
                }

                let mut frame_completed = false;
                let base = (tick % sps as u64) as usize;
                {
                    let p = sweep_phases(&mut self.accum, &self.mf_zero, &self.mf_one, s, base);
                    let st = &mut self.phases[p];
                    let acc = &mut self.accum[p];
                    {
                        let e0 = acc.0.norm_sq();
                        let e1 = acc.1.norm_sq();
                        let bit = u8::from(e1 > e0);
                        st.push_margin((e1 - e0).abs());
                        *acc = (C64::ZERO, C64::ZERO);

                        match self.lock.as_mut() {
                            Some(lock) if lock.phase == p => {
                                lock.bits.push(bit);
                                if lock.total_bits.is_none()
                                    && lock.bits.len() >= LEN_FIELD_BIT + 16
                                {
                                    let mut len = 0usize;
                                    for i in 0..16 {
                                        len = (len << 1) | lock.bits[LEN_FIELD_BIT + i] as usize;
                                    }
                                    if len > MAX_PAYLOAD {
                                        len = MAX_PAYLOAD;
                                    }
                                    lock.total_bits = Some((OVERHEAD + len) * 8);
                                }
                                if let Some(total) = lock.total_bits {
                                    if lock.bits.len() >= total {
                                        let lock = self.lock.take().unwrap();
                                        let result = Frame::from_bits(&lock.bits);
                                        events.push(DetectorEvent::FrameDone {
                                            result,
                                            start_tick: lock.start_tick,
                                            end_tick: tick + 1,
                                            mean_power: if lock.power_samples > 0 {
                                                lock.power_sum / lock.power_samples as f64
                                            } else {
                                                0.0
                                            },
                                        });
                                        frame_completed = true;
                                    }
                                }
                            }
                            Some(_) => {}
                            None => {
                                let fired = st.matcher.push(bit);
                                match self.pending.as_mut() {
                                    Some((_, candidates)) => {
                                        for c in candidates.iter_mut() {
                                            if c.phase == p && c.fire_tick < tick {
                                                c.bits_since.push(bit);
                                            }
                                        }
                                        if fired && !candidates.iter().any(|c| c.phase == p) {
                                            candidates.push(Candidate {
                                                phase: p,
                                                distance: st.matcher.current_distance(),
                                                quality: st.margin_sum,
                                                fire_tick: tick,
                                                bits_since: Vec::new(),
                                            });
                                        }
                                    }
                                    None => {
                                        if fired {
                                            self.pending = Some((
                                                tick + sps as u64,
                                                vec![Candidate {
                                                    phase: p,
                                                    distance: st.matcher.current_distance(),
                                                    quality: st.margin_sum,
                                                    fire_tick: tick,
                                                    bits_since: Vec::new(),
                                                }],
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                if frame_completed {
                    for q in self.phases.iter_mut() {
                        q.matcher.reset();
                    }
                    self.pending = None;
                }
                if let Some((deadline, _)) = self.pending {
                    if tick + 1 >= deadline && self.lock.is_none() {
                        let (_, mut candidates) = self.pending.take().unwrap();
                        candidates.sort_by(|a, b| {
                            a.distance
                                .cmp(&b.distance)
                                .then(b.quality.total_cmp(&a.quality))
                        });
                        let winner = candidates.into_iter().next().unwrap();
                        let start_tick =
                            (winner.fire_tick + 1).saturating_sub((SYNC_BITS * sps) as u64);
                        let mut bits = Vec::with_capacity(SYNC_BITS + winner.bits_since.len());
                        bits.extend_from_slice(&crate::bits::bytes_to_bits(&PREAMBLE));
                        bits.extend_from_slice(&crate::bits::bytes_to_bits(&SYNC_WORD));
                        bits.extend_from_slice(&winner.bits_since);
                        self.lock = Some(LockState {
                            phase: winner.phase,
                            start_tick,
                            bits,
                            total_bits: None,
                            power_sum: 0.0,
                            power_samples: 0,
                        });
                        events.push(DetectorEvent::SyncFound { start_tick });
                    }
                }
            }
            events
        }
    }

    /// The per-phase [`SidMonitor`]: identical trigger logic, per-sample
    /// sweep.
    #[derive(Debug, Clone)]
    pub struct RefSidMonitor {
        mf_zero: Vec<C64>,
        mf_one: Vec<C64>,
        accum: Vec<(C64, C64)>,
        matchers: Vec<SidMatcher>,
        power_window: Vec<f64>,
        power_head: usize,
        power_sum: f64,
        sps: usize,
        next_tick: u64,
        holdoff_until: u64,
    }

    impl RefSidMonitor {
        pub fn new(params: FskParams, sid: Vec<u8>, bthresh: usize) -> Self {
            let sps = params.samples_per_symbol();
            let window_len = sid.len() * sps;
            RefSidMonitor {
                mf_zero: tone_template(params, 0),
                mf_one: tone_template(params, 1),
                accum: vec![(C64::ZERO, C64::ZERO); sps],
                matchers: (0..sps)
                    .map(|_| SidMatcher::new(sid.clone(), bthresh))
                    .collect(),
                power_window: vec![0.0; window_len],
                power_head: 0,
                power_sum: 0.0,
                sps,
                next_tick: 0,
                holdoff_until: 0,
            }
        }

        pub fn push_block(&mut self, samples: &[C64]) -> Option<SidDetection> {
            let mut detection = None;
            for &s in samples {
                let tick = self.next_tick;
                self.next_tick += 1;

                let p = s.norm_sq();
                self.power_sum += p - self.power_window[self.power_head];
                self.power_window[self.power_head] = p;
                self.power_head = (self.power_head + 1) % self.power_window.len();

                let base = (tick % self.sps as u64) as usize;
                {
                    let phase = sweep_phases(&mut self.accum, &self.mf_zero, &self.mf_one, s, base);
                    let (c0, c1) = self.accum[phase];
                    let bit = u8::from(c1.norm_sq() > c0.norm_sq());
                    self.accum[phase] = (C64::ZERO, C64::ZERO);
                    if self.matchers[phase].push(bit)
                        && detection.is_none()
                        && tick >= self.holdoff_until
                    {
                        detection = Some(SidDetection {
                            tick,
                            distance: self.matchers[phase].current_distance(),
                            mean_power: self.power_sum / self.power_window.len() as f64,
                        });
                        self.holdoff_until = tick + (self.power_window.len() / 2) as u64;
                    }
                }
            }
            detection
        }

        pub fn reset(&mut self) {
            for m in self.matchers.iter_mut() {
                m.reset();
            }
            for a in self.accum.iter_mut() {
                *a = (C64::ZERO, C64::ZERO);
            }
        }

        pub fn advance_silent(&mut self, n: u64) {
            if n == 0 {
                return;
            }
            self.next_tick += n;
            self.reset();
            for p in self.power_window.iter_mut() {
                *p = 0.0;
            }
            self.power_sum = 0.0;
            self.power_head = 0;
        }

        pub fn tick(&self) -> u64 {
            self.next_tick
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsk::FskModem;
    use crate::packet::{identifying_sequence, FrameType, Serial};
    use hb_dsp::noise::white_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> FskParams {
        FskParams::mics_default()
    }

    fn make_frame(payload: Vec<u8>) -> Frame {
        Frame::new(
            Serial::from_str_padded("VIRTUOSO01"),
            FrameType::Command,
            1,
            payload,
        )
    }

    fn frames_from(events: &[DetectorEvent]) -> Vec<&DetectorEvent> {
        events
            .iter()
            .filter(|e| matches!(e, DetectorEvent::FrameDone { .. }))
            .collect()
    }

    #[test]
    fn detects_clean_frame_in_blocks() {
        let modem = FskModem::new(params());
        let frame = make_frame(vec![1, 2, 3]);
        let mut sig = vec![C64::ZERO; 100];
        sig.extend(modem.modulate(&frame.to_bits()));
        sig.extend(vec![C64::ZERO; 200]);

        let mut det = StreamingDetector::new(params(), 4);
        let mut events = Vec::new();
        for block in sig.chunks(16) {
            events.extend(det.push_block(block));
        }
        let frames = frames_from(&events);
        assert_eq!(frames.len(), 1);
        if let DetectorEvent::FrameDone {
            result,
            start_tick,
            end_tick,
            mean_power,
        } = frames[0]
        {
            assert_eq!(result.as_ref().unwrap(), &frame);
            // Start within one symbol of the true position.
            assert!(
                (*start_tick as i64 - 100).unsigned_abs() <= 24,
                "start {start_tick}"
            );
            assert!(*end_tick > *start_tick);
            assert!(*mean_power > 0.5, "power {mean_power}");
        }
    }

    #[test]
    fn block_size_does_not_matter() {
        let modem = FskModem::new(params());
        let frame = make_frame(vec![9; 5]);
        let mut sig = vec![C64::ZERO; 37];
        sig.extend(modem.modulate(&frame.to_bits()));
        sig.extend(vec![C64::ZERO; 64]);

        for block_size in [1usize, 7, 16, 64] {
            let mut det = StreamingDetector::new(params(), 4);
            let mut got = 0;
            for block in sig.chunks(block_size) {
                for e in det.push_block(block) {
                    if let DetectorEvent::FrameDone { result, .. } = e {
                        assert_eq!(result.unwrap(), frame);
                        got += 1;
                    }
                }
            }
            assert_eq!(got, 1, "block size {block_size}");
        }
    }

    #[test]
    fn detects_frame_in_noise() {
        let modem = FskModem::new(params());
        let mut rng = StdRng::seed_from_u64(3);
        let frame = make_frame(vec![7; 8]);
        let clean = modem.modulate(&frame.to_bits());
        let mut sig = white_noise(&mut rng, 500, 0.001);
        sig.extend(
            clean
                .iter()
                .map(|&s| s + white_noise(&mut rng, 1, 0.001)[0]),
        );
        sig.extend(white_noise(&mut rng, 500, 0.001));

        let mut det = StreamingDetector::new(params(), 4);
        let mut decoded = None;
        for block in sig.chunks(16) {
            for e in det.push_block(block) {
                if let DetectorEvent::FrameDone { result, .. } = e {
                    decoded = Some(result);
                }
            }
        }
        assert_eq!(decoded.unwrap().unwrap(), frame);
    }

    #[test]
    fn jammed_tail_yields_bad_crc() {
        // Sync arrives clean, then strong noise covers the rest: the
        // detector must still terminate and report a CRC failure — the
        // mechanism by which jamming neutralizes commands.
        let modem = FskModem::new(params());
        let mut rng = StdRng::seed_from_u64(4);
        let frame = make_frame(vec![0xEE; 6]);
        let clean = modem.modulate(&frame.to_bits());
        let sync_samples = 80 * 24; // preamble+sync+serial region stays clean
        let mut sig: Vec<C64> = clean[..sync_samples].to_vec();
        let jam = white_noise(&mut rng, clean.len() - sync_samples, 30.0);
        sig.extend(clean[sync_samples..].iter().zip(&jam).map(|(&s, &j)| s + j));
        // Enough trailing silence for the detector to collect a full
        // max-length frame even if the jammed length field reads as the
        // maximum.
        sig.extend(vec![C64::ZERO; 2000]);

        let mut det = StreamingDetector::new(params(), 4);
        let mut outcome = None;
        for block in sig.chunks(16) {
            for e in det.push_block(block) {
                if let DetectorEvent::FrameDone { result, .. } = e {
                    outcome = Some(result);
                }
            }
        }
        match outcome {
            Some(Err(_)) => {} // CRC (or length) failure: command neutralized
            Some(Ok(f)) => panic!("jammed frame decoded successfully: {f:?}"),
            None => panic!("detector never terminated"),
        }
    }

    #[test]
    fn no_events_in_pure_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut det = StreamingDetector::new(params(), 4);
        let sig = white_noise(&mut rng, 50_000, 1.0);
        let mut events = Vec::new();
        for block in sig.chunks(16) {
            events.extend(det.push_block(block));
        }
        // Random noise can occasionally fire a sync (48-bit pattern with
        // 4-bit tolerance), but it must never produce a *valid* frame.
        for e in events {
            if let DetectorEvent::FrameDone { result, .. } = e {
                assert!(result.is_err(), "noise decoded as a valid frame");
            }
        }
    }

    #[test]
    fn back_to_back_frames_both_found() {
        let modem = FskModem::new(params());
        let f1 = make_frame(vec![1]);
        let f2 = make_frame(vec![2, 2]);
        let mut sig = vec![C64::ZERO; 48];
        sig.extend(modem.modulate(&f1.to_bits()));
        sig.extend(vec![C64::ZERO; 240]); // 10-symbol gap
        sig.extend(modem.modulate(&f2.to_bits()));
        sig.extend(vec![C64::ZERO; 600]);

        let mut det = StreamingDetector::new(params(), 4);
        let mut got = Vec::new();
        for block in sig.chunks(16) {
            for e in det.push_block(block) {
                if let DetectorEvent::FrameDone { result, .. } = e {
                    got.push(result.unwrap());
                }
            }
        }
        assert_eq!(got, vec![f1, f2]);
    }

    #[test]
    fn reset_abandons_lock() {
        let modem = FskModem::new(params());
        let frame = make_frame(vec![5; 4]);
        let sig = modem.modulate(&frame.to_bits());
        let mut det = StreamingDetector::new(params(), 4);
        // Feed only the first half, then reset.
        det.push_block(&sig[..sig.len() / 2]);
        assert!(det.is_locked());
        det.reset();
        assert!(!det.is_locked());
        // Feeding the second half alone must not produce a frame.
        let events = det.push_block(&sig[sig.len() / 2..]);
        assert!(frames_from(&events).is_empty());
    }

    #[test]
    fn tick_counts_samples() {
        let mut det = StreamingDetector::new(params(), 4);
        det.push_block(&vec![C64::ZERO; 100]);
        assert_eq!(det.tick(), 100);
    }

    // --- Blocked-rewrite edge cases ---

    /// Compares two event streams requiring bit-level equality (including
    /// the `mean_power` float, which `PartialEq` would compare by value).
    fn assert_events_bit_identical(a: &[DetectorEvent], b: &[DetectorEvent]) {
        assert_eq!(a.len(), b.len(), "event count: {a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (
                    DetectorEvent::SyncFound { start_tick: s1 },
                    DetectorEvent::SyncFound { start_tick: s2 },
                ) => assert_eq!(s1, s2),
                (
                    DetectorEvent::FrameDone {
                        result: r1,
                        start_tick: s1,
                        end_tick: t1,
                        mean_power: p1,
                    },
                    DetectorEvent::FrameDone {
                        result: r2,
                        start_tick: s2,
                        end_tick: t2,
                        mean_power: p2,
                    },
                ) => {
                    assert_eq!(r1, r2);
                    assert_eq!(s1, s2);
                    assert_eq!(t1, t2);
                    assert_eq!(p1.to_bits(), p2.to_bits(), "mean_power {p1} vs {p2}");
                }
                _ => panic!("event kind mismatch: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn sync_match_straddling_a_block_boundary() {
        // Split the stream exactly around the sync-fire tick and the
        // arbitration window that follows it: the carried accumulators and
        // the pending-candidate state must survive the boundary, producing
        // the same events as a single push.
        let modem = FskModem::new(params());
        let frame = make_frame(vec![0xA5; 4]);
        let mut sig = vec![C64::ZERO; 30];
        sig.extend(modem.modulate(&frame.to_bits()));
        sig.extend(vec![C64::ZERO; 300]);

        let mut whole = StreamingDetector::new(params(), 4);
        let whole_events = whole.push_block(&sig);
        assert_eq!(frames_from(&whole_events).len(), 1, "baseline must decode");

        // The sync pattern's last symbol lands near 30 + SYNC_BITS·24.
        let fire = 30 + SYNC_BITS * 24;
        for split in [fire - 25, fire - 1, fire, fire + 1, fire + 12, fire + 23] {
            let mut det = StreamingDetector::new(params(), 4);
            let mut events = det.push_block(&sig[..split]);
            events.extend(det.push_block(&sig[split..]));
            assert_events_bit_identical(&events, &whole_events);
        }
    }

    #[test]
    fn competing_phases_in_one_arbitration_window() {
        // Over a clean frame with a silent lead-in, nearly *every* phase
        // matches the sync pattern in the same one-symbol window (22 of 24
        // tie at distance 0 here — silence decodes identically at every
        // alignment), so the tone-separation quality tie-break alone must
        // pick an alignment clean enough to decode the frame, and the
        // window must still collapse to exactly one lock.
        let modem = FskModem::new(params());
        let frame = make_frame(vec![3, 1, 4, 1, 5]);
        let mut sig = vec![C64::ZERO; 55];
        sig.extend(modem.modulate(&frame.to_bits()));
        sig.extend(vec![C64::ZERO; 300]);

        let mut det = StreamingDetector::new(params(), 6);
        let mut syncs = 0;
        let mut got = Vec::new();
        for block in sig.chunks(16) {
            for e in det.push_block(block) {
                match e {
                    DetectorEvent::SyncFound { .. } => syncs += 1,
                    DetectorEvent::FrameDone { result, .. } => got.push(result.unwrap()),
                }
            }
        }
        assert_eq!(syncs, 1, "arbitration must produce exactly one lock");
        assert_eq!(got, vec![frame]);

        // At an extreme tolerance the whole window fires a full bit early
        // (distance ~8 candidates, none perfectly aligned) — the harshest
        // arbitration input; pin it bit-identically to the reference.
        let mut a = StreamingDetector::new(params(), 12);
        let mut b = reference::RefDetector::new(params(), 12);
        for block in sig.chunks(7) {
            assert_events_bit_identical(&a.push_block(block), &b.push_block(block));
        }
    }

    #[test]
    fn truncated_final_block_leaves_detector_locked() {
        // The stream ends mid-frame: no FrameDone may be emitted, the lock
        // must persist, and feeding the remainder later must complete the
        // frame exactly as an unbroken stream would.
        let modem = FskModem::new(params());
        let frame = make_frame(vec![0x42; 7]);
        let sig = modem.modulate(&frame.to_bits());
        let cut = sig.len() - 5 * 24; // truncate the last 5 symbols

        let mut det = StreamingDetector::new(params(), 4);
        let events = det.push_block(&sig[..cut]);
        assert!(
            frames_from(&events).is_empty(),
            "no frame from a truncation"
        );
        assert!(det.is_locked(), "lock must survive a truncated block");
        assert_eq!(det.tick(), cut as u64);

        let tail_events = det.push_block(&sig[cut..]);
        let frames = frames_from(&tail_events);
        assert_eq!(frames.len(), 1);
        if let DetectorEvent::FrameDone { result, .. } = frames[0] {
            assert_eq!(result.as_ref().unwrap(), &frame);
        }
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let mut det = StreamingDetector::new(params(), 4);
        assert!(det.push_block(&[]).is_empty());
        assert_eq!(det.tick(), 0);
        let mut mon = SidMonitor::new(params(), sid(), 4);
        assert_eq!(mon.push_block(&[]), None);
        assert_eq!(mon.tick(), 0);
    }

    // --- SidMonitor ---

    fn sid() -> Vec<u8> {
        identifying_sequence(Serial::from_str_padded("VIRTUOSO01"))
    }

    #[test]
    fn sid_monitor_fires_on_matching_frame() {
        let modem = FskModem::new(params());
        let frame = make_frame(vec![1, 2, 3]);
        let mut sig = vec![C64::ZERO; 100];
        sig.extend(modem.modulate(&frame.to_bits()));
        sig.extend(vec![C64::ZERO; 100]);

        let mut mon = SidMonitor::new(params(), sid(), 4);
        let mut hits = Vec::new();
        for block in sig.chunks(16) {
            if let Some(d) = mon.push_block(block) {
                hits.push(d);
            }
        }
        assert_eq!(hits.len(), 1, "expected exactly one detection: {hits:?}");
        // Detection lands right as the Sid (first 128 bits) completes:
        // 100 + 128 symbols in.
        let expected = 100 + 128 * 24;
        assert!(
            (hits[0].tick as i64 - expected as i64).unsigned_abs() <= 48,
            "tick {} vs {expected}",
            hits[0].tick
        );
        assert!(hits[0].distance <= 4);
        // Signal at unit power: window mean power near 1 (part of the
        // window may include leading silence at the margin).
        assert!(hits[0].mean_power > 0.8, "power {}", hits[0].mean_power);
    }

    #[test]
    fn sid_monitor_ignores_other_device() {
        let modem = FskModem::new(params());
        let other = Frame::new(
            Serial::from_str_padded("CONCERTO02"),
            FrameType::Command,
            1,
            vec![4, 5],
        );
        let mut sig = modem.modulate(&other.to_bits());
        sig.extend(vec![C64::ZERO; 200]);
        let mut mon = SidMonitor::new(params(), sid(), 4);
        for block in sig.chunks(16) {
            assert_eq!(mon.push_block(block), None);
        }
    }

    #[test]
    fn sid_monitor_fires_mid_packet_not_at_end() {
        // The point of active protection: detection happens as soon as the
        // header passes, leaving the rest of the packet to jam.
        let modem = FskModem::new(params());
        let frame = make_frame(vec![9; 10]); // max-length frame
        let sig = modem.modulate(&frame.to_bits());
        let frame_end = sig.len() as u64;

        let mut mon = SidMonitor::new(params(), sid(), 4);
        let mut hit = None;
        for block in sig.chunks(16) {
            if let Some(d) = mon.push_block(block) {
                hit = Some(d);
                break;
            }
        }
        let d = hit.expect("must detect");
        assert!(
            d.tick < frame_end - 50 * 24,
            "detection at {} should precede frame end {frame_end} by ~100 bits",
            d.tick
        );
    }

    #[test]
    fn sid_monitor_power_tracks_rssi() {
        let modem = FskModem::new(params());
        let frame = make_frame(vec![1]);
        let amp = 0.1; // -20 dBm
        let sig: Vec<C64> = modem
            .modulate(&frame.to_bits())
            .into_iter()
            .map(|s| s.scale(amp))
            .collect();
        let mut padded = vec![C64::ZERO; 24 * 128]; // ensure window is full of signal at fire time? no: prepad zeros
        padded.extend(sig);
        let mut mon = SidMonitor::new(params(), sid(), 4);
        let mut hit = None;
        for block in padded.chunks(16) {
            if let Some(d) = mon.push_block(block) {
                hit = Some(d);
            }
        }
        let d = hit.unwrap();
        // Window covers exactly the Sid portion of the signal.
        assert!(
            (hb_dsp::units::db_from_ratio(d.mean_power) - (-20.0)).abs() < 1.5,
            "rssi {} dB",
            hb_dsp::units::db_from_ratio(d.mean_power)
        );
    }

    #[test]
    fn sid_monitor_no_false_positives_in_noise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut mon = SidMonitor::new(params(), sid(), 4);
        let sig = white_noise(&mut rng, 200_000, 1.0);
        for block in sig.chunks(16) {
            assert_eq!(mon.push_block(block), None);
        }
    }

    #[test]
    fn sid_monitor_reset_and_redetect() {
        let modem = FskModem::new(params());
        let frame = make_frame(vec![7]);
        let sig = modem.modulate(&frame.to_bits());
        let mut mon = SidMonitor::new(params(), sid(), 4);
        let mut count = 0;
        for _ in 0..3 {
            for block in sig.chunks(16) {
                if mon.push_block(block).is_some() {
                    count += 1;
                }
            }
            mon.reset();
            // Inter-packet silence.
            for block in vec![C64::ZERO; 5000].chunks(16) {
                mon.push_block(block);
            }
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn sid_monitor_idles_on_silence_but_not_on_reset() {
        // A reset restarts matching but keeps the RSSI window and its
        // running sum: the detection after it, reported power included, is
        // bit for bit what a monitor without the reset reports. Only a
        // silent advance drops the live state.
        let modem = FskModem::new(params());
        let mut rng = StdRng::seed_from_u64(11);
        let mut sig = white_noise(&mut rng, 2000, 0.01);
        let reset_at = sig.len() - 500;
        sig.extend(modem.modulate(&make_frame(vec![1]).to_bits()));
        let mut plain = SidMonitor::new(params(), sid(), 4);
        let mut mon = SidMonitor::new(params(), sid(), 4);
        assert!(mon.is_idle());
        mon.reset();
        assert!(mon.is_idle(), "a reset builds no state");
        assert_eq!(plain.push_block(&sig[..reset_at]), None);
        assert_eq!(mon.push_block(&sig[..reset_at]), None);
        assert!(!mon.is_idle());
        mon.reset();
        assert!(!mon.is_idle(), "a reset keeps the RSSI window");
        let a = plain.push_block(&sig[reset_at..]).expect("Sid fires");
        let b = mon
            .push_block(&sig[reset_at..])
            .expect("Sid fires after a reset");
        assert_eq!(
            (a.tick, a.distance, a.mean_power.to_bits()),
            (b.tick, b.distance, b.mean_power.to_bits())
        );
        mon.advance_silent(0);
        assert!(!mon.is_idle(), "an empty gap changes nothing");
        mon.advance_silent(1);
        assert!(mon.is_idle());
        assert_eq!(mon.tick(), sig.len() as u64 + 1);
    }

    #[test]
    fn non_finite_samples_flush_out() {
        // NaN and ±inf samples must not panic either front end, and once
        // the re-anchor has flushed them out of the window a clean frame
        // decodes and its Sid fires, on the own and the shared path.
        let modem = FskModem::new(params());
        let frame = make_frame(vec![1, 2, 3]);
        let junk = [
            C64::new(f64::NAN, 0.0),
            C64::new(f64::INFINITY, 1.0),
            C64::new(f64::NEG_INFINITY, f64::NAN),
            C64::new(0.5, f64::NEG_INFINITY),
        ];
        let mut sig: Vec<C64> = junk.iter().cycle().take(301).copied().collect();
        sig.extend(vec![C64::ZERO; 2 * 24 - 1]);
        sig.extend(modem.modulate(&frame.to_bits()));
        sig.extend(vec![C64::ZERO; 200]);

        let mut det = StreamingDetector::new(params(), 4);
        let mut own = SidMonitor::new(params(), sid(), 4);
        let mut shared = SidMonitor::new(params(), sid(), 4);
        let (mut events, mut own_hits, mut shared_hits) = (Vec::new(), Vec::new(), Vec::new());
        for block in sig.chunks(16) {
            events.extend(det.push_block(block));
            own_hits.extend(own.push_block(block));
            shared_hits.extend(shared.push_block_shared(block, det.block_energies()));
        }
        let frames = frames_from(&events);
        assert_eq!(frames.len(), 1, "{events:?}");
        assert!(
            matches!(frames[0], DetectorEvent::FrameDone { result: Ok(f), .. } if *f == frame),
            "{frames:?}"
        );
        for hits in [&own_hits, &shared_hits] {
            assert_eq!(hits.len(), 1, "{hits:?}");
            assert!(hits[0].tick > 301 + 47, "fired on junk: {hits:?}");
            // The rolling RSSI recovers too, or the shield's alarm test
            // `rssi >= pthresh_dbm` would read false from then on.
            assert!(hits[0].mean_power.is_finite(), "RSSI poisoned: {hits:?}");
        }
        for (p, st) in det.phases.iter().enumerate() {
            assert!(st.margin_sum.is_finite(), "phase {p} margin sum poisoned");
        }
    }

    // --- Equivalence with the per-phase oracle ---

    mod equivalence {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// Parameter sets with different samples-per-symbol counts.
        fn param_set(i: usize) -> FskParams {
            let bitrate = [12.5e3, 25e3, 50e3][i % 3]; // sps 24, 12, 6
            FskParams {
                fs_hz: 300e3,
                bitrate,
                deviation_hz: 50e3,
            }
        }

        /// A frame embedded in noise, with noisy lead-in and tail.
        fn build_stream(
            p: FskParams,
            seed: u64,
            payload: &[u8],
            noise_power: f64,
            lead: usize,
        ) -> Vec<C64> {
            let modem = FskModem::new(p);
            let frame = make_frame(payload.to_vec());
            let clean = modem.modulate(&frame.to_bits());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sig = white_noise(&mut rng, lead, noise_power);
            let overlay = white_noise(&mut rng, clean.len(), noise_power);
            sig.extend(clean.iter().zip(&overlay).map(|(&a, &b)| a + b));
            sig.extend(white_noise(&mut rng, 3000, noise_power));
            sig
        }

        proptest! {
            /// The detector emits the same events as the per-phase oracle
            /// on the same stream, at any chunking.
            #[test]
            fn detector_matches_reference(
                seed in 0u64..1_000_000,
                pset in 0usize..3,
                payload_len in 0usize..=MAX_PAYLOAD,
                noise_db in -40.0f64..6.0,
                block_idx in 0usize..6,
            ) {
                let block = [1usize, 5, 16, 24, 37, 160][block_idx];
                let p = param_set(pset);
                let noise = hb_dsp::units::ratio_from_db(noise_db);
                let sig = build_stream(p, seed, &vec![0x5Au8; payload_len], noise, 211);
                let mut new = StreamingDetector::new(p, 4);
                let mut old = reference::RefDetector::new(p, 4);
                let mut did_reset = false;
                for chunk in sig.chunks(block) {
                    let a = new.push_block(chunk);
                    let b = old.push_block(chunk);
                    assert_events_bit_identical(&a, &b);
                    // Once the frame region is past, exercise reset too.
                    if !did_reset && new.tick() as usize >= sig.len().saturating_sub(1000) {
                        new.reset();
                        old.reset();
                        did_reset = true;
                    }
                }
            }

            /// Same for the Sid monitor, including reset/advance_silent
            /// interleavings (the squelch path the wideband shield uses).
            #[test]
            fn sid_monitor_matches_reference(
                seed in 0u64..1_000_000,
                pset in 0usize..3,
                noise_db in -40.0f64..6.0,
                block_idx in 0usize..4,
                silent_gap in 0u64..4000,
            ) {
                let block = [1usize, 16, 24, 100][block_idx];
                let p = param_set(pset);
                let noise = hb_dsp::units::ratio_from_db(noise_db);
                let sig = build_stream(p, seed, &[7, 7], noise, 137);
                let mut new = SidMonitor::new(p, sid(), 4);
                let mut old = reference::RefSidMonitor::new(p, sid(), 4);
                for (i, chunk) in sig.chunks(block).enumerate() {
                    let a = new.push_block(chunk);
                    let b = old.push_block(chunk);
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(x.tick, y.tick);
                            prop_assert_eq!(x.distance, y.distance);
                            prop_assert_eq!(x.mean_power.to_bits(), y.mean_power.to_bits());
                        }
                        (x, y) => prop_assert!(false, "detection mismatch: {:?} vs {:?}", x, y),
                    }
                    // Exercise the squelch/reset paths mid-stream.
                    if i == 7 {
                        new.reset();
                        old.reset();
                    }
                    if i == 11 {
                        new.advance_silent(silent_gap);
                        old.advance_silent(silent_gap);
                        prop_assert_eq!(new.tick(), old.tick());
                    }
                }
            }

            /// The Sid monitor, on its own sweep and on the frame
            /// detector's shared energies, under random sequences of the
            /// shield's operations: pushes, silent advances (a zero gap,
            /// repeated gaps, a gap shorter than the hold-off right after
            /// a detection, and gaps while the detector keeps hearing the
            /// channel), jam ends (`reset`, which keeps the RSSI window)
            /// and retunes (the detector resets too). The reported RSSI
            /// carries the running sum's history, so it exposes any state a
            /// reset or an idle monitor gets wrong.
            #[test]
            fn sid_monitor_matches_reference_under_random_ops(
                seed in 0u64..1_000_000,
                pset in 0usize..3,
                noise_db in -40.0f64..6.0,
            ) {
                let p = param_set(pset);
                let sps = p.samples_per_symbol();
                let noise = hb_dsp::units::ratio_from_db(noise_db);
                // Two frames, so a Sid can complete after a reset or a gap.
                let mut sig = build_stream(p, seed, &[7, 7], noise, 137);
                let frames = [137, sig.len() + 500];
                sig.extend(build_stream(p, seed ^ 1, &[3], noise, 500));
                // After a reset the next phase completes a symbol of one
                // sample, whose two tone energies tie up to round-off, so
                // the correlator and the sweep may read that bit apart
                // (see the module docs). The matchers start empty, so the
                // one window holding that bit has its second symbol start
                // on the next sample; only a Sid less than half a symbol
                // from that alignment brings it within the tolerance.
                // Resets and gaps resuming there become pushes.
                let clear = |at: usize| frames.iter().all(|&f| 2 * (at + 1).abs_diff(f + sps) >= sps);
                let holdoff = (sid().len() * sps / 2) as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut det = StreamingDetector::new(p, 4);
                let mut own = SidMonitor::new(p, sid(), 4);
                let mut shared = SidMonitor::new(p, sid(), 4);
                let mut old = reference::RefSidMonitor::new(p, sid(), 4);
                let mut pos = 0usize;
                let mut fired = false;
                while pos < sig.len() {
                    let mut op = rng.gen_range(0..12);
                    let gap = match rng.gen_range(0..4) {
                        _ if fired => rng.gen_range(0..holdoff),
                        0 => 0,
                        1 => 1,
                        _ => rng.gen_range(2..4000),
                    };
                    let repeats: u64 = rng.gen_range(1..=3);
                    let resume = if op == 3 {
                        (pos + (repeats * gap) as usize).min(sig.len())
                    } else {
                        pos
                    };
                    if op < 4 && !clear(resume) {
                        op = 4;
                    }
                    let mut detection = None;
                    match op {
                        // A jam ended; on a retune the detector resets too.
                        0 | 1 => {
                            if op == 1 {
                                det.reset();
                            }
                            own.reset();
                            shared.reset();
                            old.reset();
                        }
                        // Silence: the squelch is closed, or the shield is
                        // transmitting (the detector hears nothing either)
                        // or inside its passive window (the detector hears
                        // the channel).
                        2 | 3 => {
                            for _ in 0..repeats {
                                own.advance_silent(gap);
                                shared.advance_silent(gap);
                                old.advance_silent(gap);
                                let end = if op == 3 { (pos + gap as usize).min(sig.len()) } else { pos };
                                det.push_block(&sig[pos..end]);
                                det.push_silence(gap as usize - (end - pos));
                                pos = end;
                            }
                        }
                        _ => {
                            let n = [1usize, 16, 24, 100, 700][rng.gen_range(0..5usize)];
                            let chunk = &sig[pos..(pos + n).min(sig.len())];
                            pos += chunk.len();
                            det.push_block(chunk);
                            let a = own.push_block(chunk);
                            let b = shared.push_block_shared(chunk, det.block_energies());
                            detection = old.push_block(chunk);
                            let bits = |d: Option<SidDetection>| {
                                d.map(|d| (d.tick, d.distance, d.mean_power.to_bits()))
                            };
                            prop_assert_eq!(bits(a), bits(detection));
                            prop_assert_eq!(bits(b), bits(detection));
                        }
                    }
                    fired = detection.is_some();
                    prop_assert_eq!(own.tick(), old.tick());
                    prop_assert_eq!(shared.tick(), old.tick());
                    prop_assert_eq!(det.tick(), old.tick());
                }
            }
        }
    }
}
