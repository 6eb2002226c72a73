#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a base revision against
this checkout.

Usage, from the root of a checkout:

    python3 bench/ab_rcbench.py REV --workload W [--pairs N] [--trace 0|1]

Exports REV with `git archive` into a temporary directory and measures it
against the working tree of this checkout. Each side is built and run
through its own `rcbench/run.py`, into its own build directory, so each
side measures with its own benchmark code. Every run lasts BENCHMARK.json's
`run_seconds`. Both sides first run once, unmeasured, to build and warm
up. Then the runs alternate: pair k (from 1) runs both sides with seed k,
and the order within a pair flips from one pair to the next, so slow drift
of a shared host falls on both sides alike. N is at least 10 (the
default): fewer pairs cannot show a 90 % win rate.

For every metric it prints the medians of the base and the change, their
ratio (change/base), how many pairs the change won by the metric's
`better` direction in BENCHMARK.json, and the interquartile range (IQR) of
the base runs; then every run's value. A metric's verdict is "gain" (or "loss") when the change
wins (or loses) at least 90 % of the pairs and the medians differ by more
than the base IQR; otherwise "-". Exits 1 if any run fails or reports
"correct": false.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile_sweep", "audit_sweep_cached", "execute_suite")


def fail(msg):
    print(f"ab_rcbench: {msg}", file=sys.stderr)
    sys.exit(1)


MIN_PAIRS = 10


def export_revision(rev, dest):
    """Writes the tree of `rev` into `dest`."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                           rev], stdout=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"git archive {rev} failed")
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest)
    if not (dest / "rcbench" / "run.py").is_file():
        fail(f"{rev} has no rcbench/run.py")


def run_side(root, workload, seed, seconds, trace):
    """One rcbench run of the checkout at `root`; returns its result."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(root / ".bench_build")
    cmd = [sys.executable, "rcbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        fail(f"{' '.join(cmd)} in {root} exited {proc.returncode}\n{tail}")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        fail(f"{workload} seed {seed} in {root} reported correct=false")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(base_runs, change_runs, better):
    """Per-metric medians, ratio, wins and base IQR over the pairs."""
    rows = []
    pairs = len(base_runs)
    for name in base_runs[0]["metrics"]:
        unit = base_runs[0]["metrics"][name]["unit"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        if not any(base) and not any(change):
            continue
        direction = better.get(name, "lower")
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
        mb = statistics.median(base)
        mc = statistics.median(change)
        q1, q3 = quartiles(base)
        iqr = q3 - q1
        verdict = "-"
        if abs(mc - mb) > iqr:
            if wins >= 0.9 * pairs and sign * (mc - mb) > 0:
                verdict = "gain"
            elif losses >= 0.9 * pairs and sign * (mc - mb) < 0:
                verdict = "loss"
        rows.append({
            "metric": name, "unit": unit, "better": direction,
            "base": base, "change": change,
            "baseMedian": mb, "changeMedian": mc,
            "ratio": mc / mb if mb else None,
            "wins": wins, "losses": losses, "pairs": pairs,
            "baseIQR": iqr, "verdict": verdict,
        })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="base revision (any git revision name)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="ab_rcbench.") as tmp:
        base_root = Path(tmp).resolve() / "base"
        export_revision(args.rev, base_root)
        sides = {"base": base_root, "change": ROOT}

        for side, root in sides.items():
            print(f"ab_rcbench: building and warming up {side} ({root})",
                  file=sys.stderr)
            run_side(root, args.workload, 1, 1, args.trace)

        runs = {"base": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for side in order:
                runs[side].append(run_side(sides[side], args.workload, seed,
                                           seconds, args.trace))
            print(f"ab_rcbench: pair {seed}/{args.pairs} done",
                  file=sys.stderr)

    rows = summarize(runs["base"], runs["change"], better)
    print(f"{args.workload}: {args.rev} (base) vs working tree (change), "
          f"{args.pairs} pairs x {seconds} s, trace {args.trace}")
    print(f"{'metric':36s} {'base':>12s} {'change':>12s} {'ratio':>7s} "
          f"{'wins':>6s} {'base IQR':>10s}  verdict")
    for r in rows:
        ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "n/a"
        print(f"{r['metric']:36s} {r['baseMedian']:12.4g} "
              f"{r['changeMedian']:12.4g} {ratio:>7s} "
              f"{r['wins']:>2d}/{r['pairs']:<3d} {r['baseIQR']:10.4g}  "
              f"{r['verdict']}")
    print("runs, pair order (base | change):")
    for r in rows:
        base = " ".join(f"{v:.6g}" for v in r["base"])
        change = " ".join(f"{v:.6g}" for v in r["change"])
        print(f"  {r['metric']}: {base} | {change}")


if __name__ == "__main__":
    main()
