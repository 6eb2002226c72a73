#!/usr/bin/env python3
"""Build and run the repository benchmark (see rcbench/README.md).

Usage, from the root of a checkout:

    python3 rcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the compiler's libraries and the rcbench binary from source into
.bench_build/rcbench (or $CARGO_TARGET_DIR/rcbench), then runs one
measurement. The binary's last stdout line is the JSON result; this script
checks that it names exactly the metrics BENCHMARK.json declares, with the
declared units, and exits non-zero if not.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "rcbench"
WORKLOADS = ("compile_sweep", "audit_sweep_cached", "execute_suite")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"rcbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_sha():
    """Content hash of everything the binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def build(build_dir):
    """Configures once, then brings the build up to date. Tool output goes
    to stderr so stdout carries only the result."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_metrics(result_line, trace):
    """The result must carry exactly BENCHMARK.json's metrics and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(result_line)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit differs {units}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"compiler sources not found under {ROOT / 'src'}", 2)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "rcbench").resolve()
    build(build_dir)

    env = dict(os.environ)
    # Keep `git rev-parse` (the build fingerprint) inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    cmd = [str(build_dir / "rcbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", str(BENCH_DIR / "corpus"),
           "--out", str(build_dir / "out"),
           "--source-sha", source_sha()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        check_metrics(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
