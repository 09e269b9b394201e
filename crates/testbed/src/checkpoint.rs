//! Crash-safe run infrastructure: the versioned, integrity-checked
//! journal the adaptive Monte-Carlo engine checkpoints into, atomic file
//! I/O for every artifact, the per-run control block drivers install, and
//! the deterministic fault-injection harness behind `HB_FAULT`.
//!
//! # Why this exists
//!
//! Population-scale studies mean runs long enough that crashes, OOM
//! kills, and per-trial panics are the common case. The engine's
//! prefix-stable [`trial_seed`](crate::montecarlo::trial_seed) stream was
//! designed as the checkpointing primitive: because trial `i`'s seed
//! depends only on `(master, i)`, a run resumed from pooled counts at any
//! round boundary replays the exact schedule an uninterrupted run would
//! have followed and lands on the bit-identical
//! [`Estimate`](crate::montecarlo::Estimate), at any `HB_THREADS`.
//!
//! # Journal format (version 1)
//!
//! A journal is a single text file, one per adaptive call, rewritten
//! atomically after every doubling round:
//!
//! ```text
//! hbjournal v1 len=<payload bytes> sum=<fnv1a64 of payload, hex>
//! engine=<engine version>
//! master=<master seed>
//! cfg=<initial> <max> <target bits hex> <z bits hex> <resamples>
//! done=<trial tasks completed (= next trial index)>
//! kind=proportions k=<K>        (or: kind=mean k=<samples>)
//! pool <successes> <trials>     (K lines; or: sample <f64 bits hex>)
//! quar <index> <seed> <escaped panic message>   (zero or more)
//! ```
//!
//! The header's length + checksum detect torn writes: *any* decode
//! failure — truncation, bit rot, version or config mismatch — makes
//! [`Journal::load`] return `None` and the engine restarts that call from
//! scratch. A wrong resume is never possible; the worst corruption can do
//! is cost the completed rounds.
//!
//! # Fault injection
//!
//! `HB_FAULT` is parsed once per process ([`fault`]) and costs nothing
//! when unset:
//!
//! * `panic:<trial>` — panic inside every adaptive call's trial at that
//!   global index (exercises quarantine).
//! * `crash_after_round:<n>` — `exit(86)` after the `n`-th journal write
//!   process-wide (simulates a kill between rounds; CI resumes and
//!   byte-compares the artifact against an uninterrupted run).
//! * `io_fail:<substr>` — [`atomic_write`] fails for any path containing
//!   the substring (exercises write-failure exit codes).

use hb_dsp::checksum::fnv1a64;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// On-disk journal format version (the `v1` in the header).
pub const JOURNAL_VERSION: u32 = 1;

/// Version of the adaptive engine's round schedule and pooling semantics.
/// A journal written by a different engine version is never resumed —
/// bumping this constant is how a future PR invalidates old journals.
pub const ENGINE_VERSION: u32 = 1;

/// Process exit code of a `crash_after_round` injected crash — distinct
/// from real failures so tests can assert the crash was the injected one.
pub const CRASH_EXIT_CODE: u8 = 86;

/// A quarantined trial: the engine caught its panic, recorded it here,
/// and completed the run without it. `index` and `seed` are enough to
/// replay the exact failing trial in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Global trial index within the adaptive call.
    pub index: u64,
    /// The derived per-trial seed (replay key).
    pub seed: u64,
    /// The panic payload, as text.
    pub message: String,
}

/// The per-kind body of a journal: pooled proportion counts or the raw
/// sample vector of a mean run.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalKind {
    /// Pooled `(successes, trials)` pairs, one per tracked proportion.
    Proportions(Vec<(u64, u64)>),
    /// Completed samples of an adaptive-mean run, in trial order.
    Mean(Vec<f64>),
}

/// Sizing fingerprint stored in the journal: a resume with a *different*
/// config would follow a different round schedule, so the engine refuses
/// it (decode returns the journal, [`Journal::matches`] rejects it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalCfg {
    /// First-round size.
    pub initial_trials: usize,
    /// Trial cap.
    pub max_trials: usize,
    /// Target CI half-width (compared bit-exactly).
    pub target_half_width: f64,
    /// Interval z-score (compared bit-exactly).
    pub z: f64,
    /// Bootstrap resamples (mean runs).
    pub bootstrap_resamples: usize,
}

/// One adaptive call's checkpoint: everything needed to resume the run
/// bit-identically — pooled state, next trial index, master seed, engine
/// version (implicit in the format), and the quarantine record.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Master seed of the adaptive call.
    pub master: u64,
    /// Sizing fingerprint of the run that wrote the journal.
    pub cfg: JournalCfg,
    /// Trial tasks completed — also the next global trial index.
    pub done: u64,
    /// Pooled counts or samples.
    pub kind: JournalKind,
    /// Trials quarantined so far.
    pub quarantines: Vec<Quarantine>,
}

impl Journal {
    /// Serializes the journal with its integrity header.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = String::new();
        let _ = writeln!(p, "engine={ENGINE_VERSION}");
        let _ = writeln!(p, "master={}", self.master);
        let _ = writeln!(
            p,
            "cfg={} {} {:016x} {:016x} {}",
            self.cfg.initial_trials,
            self.cfg.max_trials,
            self.cfg.target_half_width.to_bits(),
            self.cfg.z.to_bits(),
            self.cfg.bootstrap_resamples
        );
        let _ = writeln!(p, "done={}", self.done);
        match &self.kind {
            JournalKind::Proportions(pools) => {
                let _ = writeln!(p, "kind=proportions k={}", pools.len());
                for &(s, t) in pools {
                    let _ = writeln!(p, "pool {s} {t}");
                }
            }
            JournalKind::Mean(samples) => {
                let _ = writeln!(p, "kind=mean k={}", samples.len());
                for &x in samples {
                    let _ = writeln!(p, "sample {:016x}", x.to_bits());
                }
            }
        }
        for q in &self.quarantines {
            let _ = writeln!(p, "quar {} {} {}", q.index, q.seed, escape(&q.message));
        }
        let payload = p.into_bytes();
        let mut out = format!(
            "hbjournal v{JOURNAL_VERSION} len={} sum={:016x}\n",
            payload.len(),
            fnv1a64(&payload)
        )
        .into_bytes();
        out.extend_from_slice(&payload);
        out
    }

    /// Parses a journal, verifying the header's length and checksum
    /// against the payload. Returns `None` on *any* defect — truncated
    /// file, trailing garbage, checksum mismatch, unknown version or
    /// engine, malformed lines — so a corrupt journal degrades to a clean
    /// restart, never a wrong resume.
    pub fn decode(bytes: &[u8]) -> Option<Journal> {
        let text = std::str::from_utf8(bytes).ok()?;
        let (header, payload) = text.split_once('\n')?;
        let mut h = header.split(' ');
        if h.next()? != "hbjournal" {
            return None;
        }
        if h.next()? != format!("v{JOURNAL_VERSION}") {
            return None;
        }
        let len: usize = h.next()?.strip_prefix("len=")?.parse().ok()?;
        let sum = u64::from_str_radix(h.next()?.strip_prefix("sum=")?, 16).ok()?;
        if h.next().is_some() || payload.len() != len || fnv1a64(payload.as_bytes()) != sum {
            return None;
        }

        let mut lines = payload.lines();
        let engine: u32 = lines.next()?.strip_prefix("engine=")?.parse().ok()?;
        if engine != ENGINE_VERSION {
            return None;
        }
        let master: u64 = lines.next()?.strip_prefix("master=")?.parse().ok()?;
        let cfg_line = lines.next()?.strip_prefix("cfg=")?;
        let mut c = cfg_line.split(' ');
        let cfg = JournalCfg {
            initial_trials: c.next()?.parse().ok()?,
            max_trials: c.next()?.parse().ok()?,
            target_half_width: f64::from_bits(u64::from_str_radix(c.next()?, 16).ok()?),
            z: f64::from_bits(u64::from_str_radix(c.next()?, 16).ok()?),
            bootstrap_resamples: c.next()?.parse().ok()?,
        };
        if c.next().is_some() {
            return None;
        }
        let done: u64 = lines.next()?.strip_prefix("done=")?.parse().ok()?;
        let kind_line = lines.next()?;
        let (kind_name, k) = kind_line.strip_prefix("kind=")?.split_once(" k=")?;
        let k: usize = k.parse().ok()?;
        // `k` comes from disk: the vectors grow by the lines actually
        // present instead of trusting it for an allocation.
        let kind = match kind_name {
            "proportions" => {
                let mut pools = Vec::new();
                for _ in 0..k {
                    let line = lines.next()?.strip_prefix("pool ")?;
                    let (s, t) = line.split_once(' ')?;
                    let (s, t): (u64, u64) = (s.parse().ok()?, t.parse().ok()?);
                    if s > t {
                        return None;
                    }
                    pools.push((s, t));
                }
                JournalKind::Proportions(pools)
            }
            "mean" => {
                let mut samples = Vec::new();
                for _ in 0..k {
                    let bits = lines.next()?.strip_prefix("sample ")?;
                    samples.push(f64::from_bits(u64::from_str_radix(bits, 16).ok()?));
                }
                JournalKind::Mean(samples)
            }
            _ => return None,
        };
        let mut quarantines = Vec::new();
        for line in lines {
            let rest = line.strip_prefix("quar ")?;
            let (index, rest) = rest.split_once(' ')?;
            let (seed, message) = rest.split_once(' ')?;
            quarantines.push(Quarantine {
                index: index.parse().ok()?,
                seed: seed.parse().ok()?,
                message: unescape(message)?,
            });
        }
        Some(Journal {
            master,
            cfg,
            done,
            kind,
            quarantines,
        })
    }

    /// Reads and [`decode`](Journal::decode)s a journal file; `None` when
    /// missing or corrupt (both mean "start from scratch").
    pub fn load(path: &Path) -> Option<Journal> {
        Journal::decode(&std::fs::read(path).ok()?)
    }

    /// Atomically writes the journal to `path`.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.encode())
    }

    /// True if this journal belongs to the run described by
    /// `(master, cfg)` — the resume precondition.
    pub fn matches(&self, master: u64, cfg: &JournalCfg) -> bool {
        self.master == master && self.cfg == *cfg
    }
}

/// Escapes a panic message onto one journal line.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]; `None` on a dangling or unknown escape.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Writes `bytes` to `path` atomically: a `.tmp` sibling is written,
/// fsynced, and renamed over the destination, so a crash at any instant
/// leaves either the old file or the new one — never a torn mix. The
/// parent directory is fsynced best-effort afterwards (the rename itself
/// is what readers depend on).
///
/// Honors `HB_FAULT=io_fail:<substr>`: matching paths fail with an
/// injected error before anything touches disk.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(Fault::IoFail(sub)) = fault() {
        if path.to_string_lossy().contains(sub.as_str()) {
            return Err(io::Error::other(format!(
                "HB_FAULT: injected io_fail for {}",
                path.display()
            )));
        }
    }
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A parsed `HB_FAULT` directive. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the trial at this global index, in every adaptive call.
    PanicAtTrial(u64),
    /// Exit the process after the n-th journal checkpoint, process-wide.
    CrashAfterRound(u64),
    /// Fail [`atomic_write`] for paths containing this substring.
    IoFail(String),
}

/// Parses one fault spec (`panic:3`, `crash_after_round:1`,
/// `io_fail:figure_9`). `None` for anything unrecognized.
pub fn parse_fault(spec: &str) -> Option<Fault> {
    let (kind, arg) = spec.split_once(':')?;
    match kind {
        "panic" => arg.parse().ok().map(Fault::PanicAtTrial),
        "crash_after_round" => arg.parse().ok().map(Fault::CrashAfterRound),
        "io_fail" => (!arg.is_empty()).then(|| Fault::IoFail(arg.to_string())),
        _ => None,
    }
}

/// The process's active fault, parsed from `HB_FAULT` exactly once. With
/// the variable unset this is a single `OnceLock` load — zero overhead on
/// every healthy path that consults it.
pub fn fault() -> Option<&'static Fault> {
    static FAULT: OnceLock<Option<Fault>> = OnceLock::new();
    FAULT
        .get_or_init(|| {
            let spec = std::env::var("HB_FAULT").ok()?;
            let parsed = parse_fault(&spec);
            if parsed.is_none() {
                eprintln!(
                    "warning: unrecognized HB_FAULT={spec:?} ignored \
                     (expected panic:<trial>|crash_after_round:<n>|io_fail:<substr>)"
                );
            }
            parsed
        })
        .as_ref()
}

/// Engine hook: panics iff `HB_FAULT=panic:<global_index>` targets this
/// trial. Called inside the per-trial `catch_unwind`, so the injected
/// panic lands in quarantine like any organic one.
pub fn inject_trial_panic(global_index: u64) {
    if let Some(Fault::PanicAtTrial(i)) = fault() {
        if *i == global_index {
            panic!("HB_FAULT: injected panic at trial {global_index}");
        }
    }
}

/// Engine hook: counts successful journal checkpoints process-wide and,
/// under `HB_FAULT=crash_after_round:<n>`, kills the process with
/// [`CRASH_EXIT_CODE`] once `n` have been written — *after* the write, so
/// the journal on disk is exactly what a real mid-run kill leaves behind.
pub fn note_round_checkpointed() {
    static ROUNDS: AtomicU64 = AtomicU64::new(0);
    let written = ROUNDS.fetch_add(1, Ordering::Relaxed) + 1;
    if let Some(Fault::CrashAfterRound(n)) = fault() {
        if written >= *n {
            eprintln!("HB_FAULT: simulated crash after checkpointed round {written}");
            std::process::exit(CRASH_EXIT_CODE as i32);
        }
    }
}

/// End-of-run health summary, surfaced in artifacts: a degraded run
/// completed despite quarantined trials; a truncated run stopped at a
/// checkpoint because the deadline expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunHealth {
    /// Trials quarantined across the run (0 for a healthy run).
    pub quarantined: u64,
    /// True if the deadline stopped the run before convergence.
    pub truncated: bool,
}

impl RunHealth {
    /// True if any trial was quarantined.
    pub fn degraded(&self) -> bool {
        self.quarantined > 0
    }

    /// True if the artifact must carry health fields at all — healthy
    /// artifacts stay byte-identical to pre-checkpoint output.
    pub fn flagged(&self) -> bool {
        self.degraded() || self.truncated
    }
}

/// Run control installed by a driver (`hb_eval`) around an experiment:
/// where journals live, whether to resume from them, the deadline, and
/// the accumulated health counters the driver reads back.
///
/// One `RunCtl` spans one experiment run; every adaptive call inside it
/// claims its own journal file keyed by master seed.
#[derive(Debug)]
pub struct RunCtl {
    dir: Option<PathBuf>,
    resume: bool,
    deadline: Option<Instant>,
    quarantined: AtomicU64,
    truncated: AtomicBool,
    warned_io: AtomicBool,
    claimed: Mutex<BTreeSet<PathBuf>>,
}

impl RunCtl {
    /// Creates a control block. `dir = None` disables journaling (trial
    /// isolation and the deadline still apply). The directory is created
    /// eagerly so the first checkpoint cannot fail on a missing parent.
    pub fn new(dir: Option<PathBuf>, resume: bool, deadline: Option<Instant>) -> Self {
        if let Some(d) = &dir {
            let _ = std::fs::create_dir_all(d);
        }
        RunCtl {
            dir,
            resume,
            deadline,
            quarantined: AtomicU64::new(0),
            truncated: AtomicBool::new(false),
            warned_io: AtomicBool::new(false),
            claimed: Mutex::new(BTreeSet::new()),
        }
    }

    /// A control block with everything off — what a bare library call
    /// behaves like.
    pub fn disabled() -> Self {
        RunCtl::new(None, false, None)
    }

    /// Claims the journal path for one adaptive call, keyed by the call's
    /// master seed, component count, and kind tag. Returns `None` when
    /// journaling is off — or when another call of this run already
    /// claimed the same path (a master-seed collision): journaling is
    /// disabled for the later call rather than letting two calls corrupt
    /// one journal. Experiments derive per-call masters with
    /// [`trial_seed`](crate::montecarlo::trial_seed), so collisions do
    /// not occur in practice.
    pub fn claim_journal(&self, master: u64, k: usize, kind_tag: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let path = dir.join(format!("mc_{master:016x}_{kind_tag}{k}.journal"));
        let mut claimed = self.claimed.lock().unwrap();
        if !claimed.insert(path.clone()) {
            eprintln!(
                "warning: duplicate Monte-Carlo master seed {master:#x}; \
                 journaling disabled for this call"
            );
            return None;
        }
        Some(path)
    }

    /// True if the driver asked to resume from existing journals.
    pub fn resuming(&self) -> bool {
        self.resume
    }

    /// True once the deadline has passed. Checked between rounds only —
    /// the engine never aborts mid-round, so it always stops at a
    /// checkpoint.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Adds to the run's quarantined-trial count.
    pub fn note_quarantined(&self, n: u64) {
        self.quarantined.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks the run deadline-truncated.
    pub fn note_truncated(&self) {
        self.truncated.store(true, Ordering::Relaxed);
    }

    /// Warns once per run about a journal I/O problem (the run continues
    /// without checkpoints rather than failing).
    pub fn warn_io_once(&self, msg: &str) {
        if !self.warned_io.swap(true, Ordering::Relaxed) {
            eprintln!("{msg}");
        }
    }

    /// The health summary accumulated so far.
    pub fn health(&self) -> RunHealth {
        RunHealth {
            quarantined: self.quarantined.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
        }
    }
}

/// The installed control block. Process-global (not thread-local) because
/// experiments run their inner adaptive loops on `parallel_map` worker
/// threads, which must see the same `RunCtl` the driver installed.
static CURRENT: Mutex<Option<Arc<RunCtl>>> = Mutex::new(None);

/// Installs `ctl` as the process's active run control for the lifetime of
/// the returned guard (dropping it restores the previous one). Drivers
/// wrap each experiment run in one of these; the adaptive engine picks
/// the active control up via [`current`].
pub fn install(ctl: Arc<RunCtl>) -> CtlGuard {
    let prev = CURRENT.lock().unwrap().replace(ctl);
    CtlGuard { prev }
}

/// The active run control, if a driver installed one.
pub fn current() -> Option<Arc<RunCtl>> {
    CURRENT.lock().unwrap().clone()
}

/// RAII guard of [`install`]; restores the previously active control on
/// drop.
#[must_use = "dropping the guard immediately uninstalls the RunCtl"]
pub struct CtlGuard {
    prev: Option<Arc<RunCtl>>,
}

impl Drop for CtlGuard {
    fn drop(&mut self) {
        *CURRENT.lock().unwrap() = self.prev.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> Journal {
        Journal {
            master: 0xDEAD_BEEF_1234_5678,
            cfg: JournalCfg {
                initial_trials: 4,
                max_trials: 256,
                target_half_width: 0.015,
                z: 1.959963984540054,
                bootstrap_resamples: 200,
            },
            done: 32,
            kind: JournalKind::Proportions(vec![(17, 512), (3, 32)]),
            quarantines: vec![Quarantine {
                index: 5,
                seed: 42,
                message: "multi\nline \\ payload".to_string(),
            }],
        }
    }

    #[test]
    fn journal_roundtrips_exactly() {
        let j = sample_journal();
        assert_eq!(Journal::decode(&j.encode()), Some(j.clone()));

        let mean = Journal {
            kind: JournalKind::Mean(vec![0.1, -3.5e-9, f64::NAN, 0.0, -0.0]),
            ..j
        };
        let back = Journal::decode(&mean.encode()).expect("mean journal decodes");
        // NaN breaks PartialEq; compare bit patterns instead.
        let (JournalKind::Mean(a), JournalKind::Mean(b)) = (&mean.kind, &back.kind) else {
            panic!("kind changed");
        };
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The on-disk v1 format, byte for byte: a run checkpointed by an
    /// earlier build must still resume under this one. Only a deliberate
    /// format change, which also bumps `JOURNAL_VERSION` or
    /// `ENGINE_VERSION`, may re-pin these literals.
    #[test]
    fn journal_v1_bytes_are_pinned() {
        let j = sample_journal();
        assert_eq!(
            String::from_utf8(j.encode()).unwrap(),
            concat!(
                "hbjournal v1 len=169 sum=c94b251cfbb39671\n",
                "engine=1\n",
                "master=16045690981402826360\n",
                "cfg=4 256 3f8eb851eb851eb8 3fff5c0331eeff84 200\n",
                "done=32\n",
                "kind=proportions k=2\n",
                "pool 17 512\n",
                "pool 3 32\n",
                "quar 5 42 multi\\nline \\\\ payload\n",
            )
        );
        let mean = Journal {
            kind: JournalKind::Mean(vec![0.1, -3.5e-9, f64::NAN, 0.0, -0.0]),
            ..j
        };
        assert_eq!(
            String::from_utf8(mean.encode()).unwrap(),
            concat!(
                "hbjournal v1 len=260 sum=56d0949206c2977d\n",
                "engine=1\n",
                "master=16045690981402826360\n",
                "cfg=4 256 3f8eb851eb851eb8 3fff5c0331eeff84 200\n",
                "done=32\n",
                "kind=mean k=5\n",
                "sample 3fb999999999999a\n",
                "sample be2e1094d643f784\n",
                "sample 7ff8000000000000\n",
                "sample 0000000000000000\n",
                "sample 8000000000000000\n",
                "quar 5 42 multi\\nline \\\\ payload\n",
            )
        );
    }

    #[test]
    fn corrupt_journals_never_decode() {
        let bytes = sample_journal().encode();
        // Truncation at every length short of the full file.
        for cut in [0, 1, 12, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(Journal::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.extend_from_slice(b"x");
        assert_eq!(Journal::decode(&extended), None);
        // Any single flipped payload byte trips the checksum (or the
        // parser); flip a few spread across the file.
        for pos in [bytes.len() - 1, bytes.len() / 2, 40] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert_eq!(Journal::decode(&bad), None, "flip at {pos}");
        }
        // Wrong format version.
        let v2 =
            String::from_utf8(bytes.clone())
                .unwrap()
                .replacen("hbjournal v1", "hbjournal v2", 1);
        assert_eq!(Journal::decode(v2.as_bytes()), None);
    }

    #[test]
    fn matches_requires_same_master_and_cfg() {
        let j = sample_journal();
        assert!(j.matches(j.master, &j.cfg));
        assert!(!j.matches(j.master ^ 1, &j.cfg));
        let mut other = j.cfg;
        other.max_trials += 1;
        assert!(!j.matches(j.master, &other));
    }

    #[test]
    fn fault_specs_parse() {
        assert_eq!(parse_fault("panic:3"), Some(Fault::PanicAtTrial(3)));
        assert_eq!(
            parse_fault("crash_after_round:1"),
            Some(Fault::CrashAfterRound(1))
        );
        assert_eq!(
            parse_fault("io_fail:figure_9"),
            Some(Fault::IoFail("figure_9".to_string()))
        );
        for bad in ["", "panic", "panic:", "panic:x", "io_fail:", "nonsense:1"] {
            assert_eq!(parse_fault(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("hb_ckpt_aw_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        // No .tmp sibling survives a successful write.
        assert!(!dir.join("file.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_rejects_duplicate_masters() {
        let dir = std::env::temp_dir().join(format!("hb_ckpt_claim_{}", std::process::id()));
        let ctl = RunCtl::new(Some(dir.clone()), false, None);
        let first = ctl.claim_journal(7, 2, "p");
        assert!(first.is_some());
        assert_eq!(ctl.claim_journal(7, 2, "p"), None, "duplicate master");
        // Different kind or K is a different journal.
        assert!(ctl.claim_journal(7, 1, "p").is_some());
        assert!(ctl.claim_journal(7, 1, "m").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_ctl_claims_nothing_and_reports_healthy() {
        let ctl = RunCtl::disabled();
        assert_eq!(ctl.claim_journal(1, 1, "p"), None);
        assert!(!ctl.deadline_expired());
        assert_eq!(ctl.health(), RunHealth::default());
        assert!(!ctl.health().flagged());
    }

    #[test]
    fn health_flags() {
        let h = RunHealth {
            quarantined: 2,
            truncated: false,
        };
        assert!(h.degraded() && h.flagged());
        let t = RunHealth {
            quarantined: 0,
            truncated: true,
        };
        assert!(!t.degraded() && t.flagged());
    }
}
