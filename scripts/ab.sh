#!/usr/bin/env bash
# A/B comparison of the working tree against a base revision on one
# hbbench workload, in alternating pairs of runs.
#
#   scripts/ab.sh <base-rev> <workload> [pairs=10] [seed=1]
#   scripts/ab.sh HEAD~1 clinic
#   scripts/ab.sh main eval-sweep 12 3
#
# The base revision is checked out into a temporary `git worktree` (under
# `mktemp -d`, removed on exit) and both sides build hbbench from their own
# source before any timed run. Each pair runs both sides once with
# BENCHMARK.json's `command` and `run_seconds`; which side runs first
# alternates from pair to pair. Every run is printed, then for each
# end-to-end metric: the pairs the working tree wins, both medians, the
# base's interquartile range, and each side's failed/attempted operations.
#
# The rule for a performance claim: wins in at least 9 of 10 pairs and a
# median gap larger than the base's IQR. Run from a quiet machine; the
# comparison takes about pairs x 2 x run_seconds plus two builds.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/ab.sh <base-rev> <workload> [pairs=10] [seed=1]" >&2
    exit 2
fi
base_sha=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "error: unknown revision '$1'" >&2
    exit 2
}

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tmp/base" "$base_sha"

python3 - "$tmp/base" "$base_sha" "$2" "${3:-10}" "${4:-1}" <<'EOF'
import json
import statistics
import subprocess
import sys

base_dir, base_sha, workload, pairs, seed = sys.argv[1:]
pairs, seed = int(pairs), int(seed)
with open("BENCHMARK.json") as f:
    bench = json.load(f)
if workload not in [w["name"] for w in bench["workloads"]]:
    sys.exit(f"error: unknown workload '{workload}'")
cmd = bench["command"]
e2e = {m["name"]: m["better"] for m in bench["end_to_end"]}
sides = {"base": base_dir, "head": "."}

# `cargo run ...` -> `cargo build ...`, so no timed run compiles anything.
build = ["build" if c == "run" else c for c in cmd if c != "--"]
for side, cwd in sides.items():
    print(f"building {side} ({base_sha[:10] if side == 'base' else 'working tree'})",
          file=sys.stderr, flush=True)
    subprocess.run(build, cwd=cwd, check=True)


def run(side):
    """One run's result line (or a synthetic failure) and a one-line log."""
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(args, cwd=sides[side], capture_output=True, text=True)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if out.returncode != 0 or not result:
        tail = out.stderr.strip()[-300:]
        return None, f"exit {out.returncode}, no result line: {tail}"
    values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                      if k in e2e)
    return result, (f"correct={str(result['correct']).lower()} "
                    f"failed={result['failed']}/{result['attempted']} {values}")


results = {"base": [], "head": []}
print(f"# {workload}: base {base_sha[:10]} vs working tree, {pairs} pairs, "
      f"seed {seed}, {bench['run_seconds']} s per run")
for p in range(pairs):
    order = ("base", "head") if p % 2 == 0 else ("head", "base")
    for side in order:
        result, log = run(side)
        results[side].append(result)
        print(f"pair {p + 1:2} {side}: {log}", flush=True)

ok = [(b, h) for b, h in zip(results["base"], results["head"])
      if b and h and b["correct"] and h["correct"]]
print(f"\n{len(ok)} of {pairs} pairs usable (both sides correct)")
for side in ("base", "head"):
    rs = results[side]
    done = [r for r in rs if r]
    print(f"{side}: correct {sum(r['correct'] for r in done)}/{len(rs)} runs, "
          f"failed {sum(r['failed'] for r in done)}/{sum(r['attempted'] for r in done)} ops")
if len(ok) < 2:
    sys.exit(1)

print(f"\n{'metric':14} {'better':7} {'wins':>6} {'base median':>12} "
      f"{'head median':>12} {'change':>8} {'base IQR':>10}")
for name, better in e2e.items():
    base = [b["metrics"][name]["value"] for b, _ in ok]
    head = [h["metrics"][name]["value"] for _, h in ok]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    mb, mh = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4)
    change = f"{(mh - mb) / mb:+.1%}" if mb else "n/a"
    print(f"{name:14} {better:7} {wins:>3}/{len(ok):<2} {mb:12.5g} {mh:12.5g} "
          f"{change:>8} {q3 - q1:10.4g}")
EOF
