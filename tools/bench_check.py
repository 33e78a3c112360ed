#!/usr/bin/env python3
"""Check the deterministic parts of committed perfbench pair records.

Every BENCH_PR*.json at the repository root (or the files named on the
command line) holds alternating perfbench pairs, parent against
change, per view, and a summary of each metric. Host timings vary from
run to run; what does not is checked here:

  - every side of every pair is `correct` with `failed` 0;
  - the counts perfbench gates (sim_cycles, sim_energy_uj, ok_share and
    whichever of perfbench/run.py's GATED names a view records) are the
    same on both sides of every pair;
  - each summary's medians, quartiles (statistics.quantiles, n=4) and
    higher/lower pair counts recompute from its pairs.

    python3 tools/bench_check.py               # every BENCH_PR*.json
    python3 tools/bench_check.py BENCH_PR28.json

Exits 1 naming each mismatch.
"""

import importlib.util
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def gated_names():
    """The end-to-end gated metrics plus perfbench's own GATED set."""
    sys.dont_write_bytecode = True  # nothing lands under perfbench/
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return {"sim_cycles", "sim_energy_uj", "ok_share"} | set(run.GATED)


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_view(name, view, gated, errors):
    pairs = view["pairs"]
    if not pairs:
        errors.append(f"{name}: no pairs")
        return
    for i, pair in enumerate(pairs):
        for side in ("parent", "change"):
            r = pair[side]
            if r.get("correct") is not True or r.get("failed") != 0:
                errors.append(f"{name} pair {i} {side}: correct "
                              f"{r.get('correct')!r}, failed "
                              f"{r.get('failed')!r}")
    first = pairs[0]["parent"]["metrics"]
    for metric in sorted(gated & set(first)):
        want = first[metric]["value"]
        for i, pair in enumerate(pairs):
            for side in ("parent", "change"):
                got = pair[side]["metrics"].get(metric, {}).get("value")
                if got != want:
                    errors.append(f"{name} pair {i} {side}: {metric} is "
                                  f"{got!r}, pair 0 parent has {want!r}")
    for metric, s in sorted(view.get("summary", {}).items()):
        par = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        chg = [p["change"]["metrics"][metric]["value"] for p in pairs]
        want = {"n_pairs": len(pairs),
                "change_higher_pairs": sum(c > p for p, c in zip(par, chg)),
                "change_lower_pairs": sum(c < p for p, c in zip(par, chg))}
        for side, vals in (("parent", par), ("change", chg)):
            q1, _, q3 = (statistics.quantiles(vals, n=4)
                         if len(vals) > 1 else (vals[0],) * 3)
            want[f"{side}_median"] = statistics.median(vals)
            want[f"{side}_q1"] = q1
            want[f"{side}_q3"] = q3
        for key, value in want.items():
            got = s.get(key)
            ok = (got == value if isinstance(value, int)
                  else got is not None and close(got, value))
            if not ok:
                errors.append(f"{name} summary {metric}.{key} is {got!r}, "
                              f"its pairs give {value!r}")


def main(argv):
    files = [Path(a) for a in argv] or sorted(ROOT.glob("BENCH_PR*.json"))
    if not files:
        print("bench_check: no BENCH_PR*.json files", file=sys.stderr)
        return 1
    gated = gated_names()
    errors = []
    for path in files:
        doc = json.loads(path.read_text())
        for name, view in doc["views"].items():
            check_view(f"{path.name} {name}", view, gated, errors)
    for e in errors:
        print(f"bench_check: {e}", file=sys.stderr)
    print(f"bench_check: {len(files)} file(s), "
          f"{'ok' if not errors else f'{len(errors)} mismatch(es)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
