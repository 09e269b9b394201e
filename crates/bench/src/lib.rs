//! # hb-bench — benchmark harness and evaluation CLI
//!
//! Two binaries live under `src/bin/`:
//!
//! * `perf_report` — the hot-kernel timing harness (JSON on stdout;
//!   `--quick` for a smoke run).
//! * `hb_eval` — the experiment-registry CLI: `--list`, `run <name>...`,
//!   `--all`, with `--effort`/`--seed`/`--threads` and
//!   `--format text|csv|json` artifacts written under `results/`.
//!
//! Per-figure wall times are measured end to end by the `hbbench`
//! benchmark (`registry.<experiment>_s`); `perf_report` covers the hot
//! kernels.

#![forbid(unsafe_code)]
