#!/usr/bin/env python3
"""Experiment-run benchmark: build, run, and check one workload.

Builds perfbench (CMake, Release) into .bench_build/ at the repository
root, runs one workload, checks its exact counts against
perfbench/expected.json, and prints one JSON result as the last line of
stdout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Other modes (run from the repository root):

    python3 perfbench/run.py --selftest          # two seeds, same exact counts
    python3 perfbench/run.py --spread 10 --seconds 40 --workload W  # spread
    python3 perfbench/run.py --record            # re-record expected.json counts
    python3 perfbench/run.py --spread 10 --record  # ... and the timed medians

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
GOLDEN = ROOT / "tests" / "golden" / "expectations.json"
EXPECTED = HERE / "expected.json"
SPANS = ROOT / ".bench_build" / "spans"
WORKLOADS = ["sweep", "steady", "thrash", "observed"]
RUN_TIMEOUT_S = 170

# Exact counts a change that only speeds up the host must keep: the
# simulated results and the shape of the built programs. A mismatch
# fails the run. Every other exact count (fast-path tier shares, bails,
# invalidations, trace events) is expected to move with the ROADMAP
# items, so a change there is reported, not failed.
GATED = {
    "sim_cycles", "sim_energy_uj", "ok_share", "cells",
    "sim_instructions_per_round",
    "masm.statements", "swapram.funcs", "swapram.relocs",
    "blockcache.blocks", "sim.instructions", "sim.stall_share",
    "sim.fram_hwcache_hit_ratio", "swapram.handler_instr_share",
    "swapram.swap_ins", "swapram.evictions",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the binary up to date."""
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *gen],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                   check=True, stdout=sys.stderr)


def run_bench(workload, seed, seconds, trace):
    """One perfbench process; returns its JSON result."""
    SPANS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden", str(GOLDEN)]
    if trace:
        cmd += ["--spans-out", str(SPANS / f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected():
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text())
    return {}


def mode_key(trace):
    return "layers" if trace else "e2e"


def check_exact(result, workload, trace):
    """True when every gated count equals expected.json."""
    expected = load_expected()
    key = mode_key(trace)
    gated = expected.get("gated", {}).get(workload, {}).get(key)
    recorded = expected.get("recorded", {}).get(workload, {}).get(key, {})
    if gated is None:
        log(f"perfbench: no expected counts for {workload}/{key}")
        return False
    ok = True
    for name, value in result["exact"].items():
        if name in GATED:
            if gated.get(name) != value:
                log(f"perfbench: exact count {name} is {value!r}, "
                    f"expected {gated.get(name)!r}")
                ok = False
        elif recorded.get(name) != value:
            log(f"perfbench: note: {name} moved from "
                f"{recorded.get(name)!r} to {value!r}")
    missing = set(gated) - set(result["exact"])
    if missing:
        log(f"perfbench: exact counts missing: {sorted(missing)}")
        ok = False
    return ok


def report(result, workload, trace):
    """Human-readable metrics on stderr."""
    log(f"perfbench {workload} trace={trace}: attempted "
        f"{result['attempted']} failed {result['failed']} (failed_share "
        f"{result['failed'] / max(result['attempted'], 1):.4f})")
    for name, m in sorted(result["metrics"].items()):
        log(f"  {name:34s} {m['value']:>18.6f} {m['unit']}")


def bench(args):
    result = run_bench(args.workload, args.seed, args.seconds, args.trace)
    report(result, args.workload, args.trace)
    correct = (bool(result["correct"])
               and check_exact(result, args.workload, args.trace))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def selftest(workloads):
    """Two seeds must give identical exact counts in both modes."""
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            a = run_bench(workload, 1, 1, trace)
            b = run_bench(workload, 2, 1, trace)
            same = a["exact"] == b["exact"]
            good = a["correct"] and b["correct"] and same
            log(f"selftest {workload} trace={trace}: "
                f"{'ok' if good else 'FAIL'} ({len(a['exact'])} counts)")
            ok = ok and good
    return 0 if ok else 1


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def spread(workloads, seeds, seconds, record):
    """Median and quartile spread of each end-to-end metric over seeds."""
    expected = load_expected()
    timed = expected.setdefault("timed", {})
    for workload in workloads:
        values = {}
        for seed in range(1, seeds + 1):
            result = run_bench(workload, seed, seconds, 0)
            if not result["correct"]:
                log(f"{workload} seed {seed}: NOT CORRECT")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        timed[workload] = {}
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            log(f"{workload:9s} {name:18s} median {med:14.6f} "
                f"iqr/median {share:.4f}  "
                + " ".join(f"{v:.4g}" for v in vals))
            timed[workload][name] = {"median": med, "iqr_share": share}
    if record:
        timed["host"] = (f"{cpu_model()}, {platform.machine()}, "
                         f"{os.cpu_count()} cpus, {seeds} seeds x {seconds} s")
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True)
                            + "\n")
    return 0


def record_counts(workloads):
    """Re-record the exact counts of every workload (seed 0)."""
    expected = load_expected()
    for workload in workloads:
        for trace in (0, 1):
            result = run_bench(workload, 0, 1, trace)
            if not result["correct"]:
                log(f"refusing to record {workload}: run not correct")
                return 1
            key = mode_key(trace)
            exact = result["exact"]
            for part, keep in (("gated", True), ("recorded", False)):
                expected.setdefault(part, {}).setdefault(workload, {})[key] = {
                    k: v for k, v in exact.items() if (k in GATED) == keep}
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--spread", type=int, metavar="SEEDS")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()

    build()
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.selftest:
        return selftest(workloads)
    if args.spread:
        return spread(workloads, args.spread, args.seconds, args.record)
    if args.record:
        return record_counts(workloads)
    if not args.workload:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
