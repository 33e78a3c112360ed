#!/usr/bin/env python3
"""CI smoke: validate the `swapram-metrics/v1` section of a run report
(`swapram_tool run --metrics --json`) or a sweep document
(`swapram_tool sweep --metrics` with `--sweep`).

Beyond schema shape this pins the accounting invariants the metrics
layer is built on:

 - heatmap per-region totals equal the simulator's Stats access counts
   (every bus access lands in exactly one page);
 - per-page stall cycles and the fram_stall_cycles histogram both sum
   to stats.stall_cycles;
 - miss_handler_cycles matches the swap timeline's miss count and
   handler cycles;
 - histogram aggregates are internally consistent (bucket counts sum
   to count, min <= p50 <= p95 <= p99 <= max, mean * count == sum);
 - top_pages is ordered hottest-first.

Usage:
    check_metrics_json.py report.json
    check_metrics_json.py --sweep sweep.json
    swapram_tool run ... --metrics --json | check_metrics_json.py -
"""

import json
import sys


def check_histogram(name, h):
    assert h["count"] == sum(b["count"] for b in h["buckets"]), name
    if h["count"] == 0:
        assert h["sum"] == 0 and h["max"] == 0, name
        return
    assert h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"], name
    assert abs(h["mean"] * h["count"] - h["sum"]) < 1e-6 * max(
        h["sum"], 1
    ), name
    # Bucket upper bounds are increasing and every recorded value is
    # at most the histogram max's bucket bound.
    les = [b["le"] for b in h["buckets"]]
    assert les == sorted(les), name


def page_heat(p):
    return p["fetch"] + p["read"] + p["write"] + p["stall_cycles"]


def check_metrics(m, stats=None, swap=None):
    """Validate one swapram-metrics/v1 object; `stats`/`swap` are the
    single-run report sections to cross-check against, when present."""
    assert m["schema"] == "swapram-metrics/v1", m.get("schema")
    for name, h in m["histograms"].items():
        check_histogram(name, h)

    hm = m["heatmap"]
    assert hm["page_bytes"] == 64, hm["page_bytes"]
    totals = hm["totals"]
    for key in ("fetch", "read", "write", "stall_cycles"):
        assert totals[key] == sum(
            r[key] for r in hm["regions"].values()
        ), key
    assert "unmapped" not in hm["regions"], "accesses outside the map"

    heats = [page_heat(p) for p in hm["top_pages"]]
    assert heats == sorted(heats, reverse=True), "top_pages unordered"

    stalls = m["histograms"]["fram_stall_cycles"]
    assert stalls["sum"] == totals["stall_cycles"]

    if stats is not None:
        for region in ("sram", "fram", "mmio"):
            want = stats[region]
            got = hm["regions"].get(
                region, {"fetch": 0, "read": 0, "write": 0}
            )
            for key in ("fetch", "read", "write"):
                assert got[key] == want[key], (region, key)
        assert totals["stall_cycles"] == stats["stall_cycles"]
        assert stalls["sum"] == stats["stall_cycles"]
    if swap is not None:
        handler = m["histograms"]["miss_handler_cycles"]
        assert handler["count"] == swap["misses"]
        assert handler["sum"] == swap["handler_cycles"]


def check_run_report(doc):
    assert doc["schema"] == "swapram-run-report/v2", doc.get("schema")
    assert doc["done"] and doc["fits"]
    check_metrics(doc["metrics"], stats=doc["stats"],
                  swap=doc.get("swap"))
    print(
        "run metrics ok: %s/%s, %d pages hot, %d stall samples"
        % (
            doc["workload"],
            doc["system"],
            len(doc["metrics"]["heatmap"]["top_pages"]),
            doc["metrics"]["histograms"]["fram_stall_cycles"]["count"],
        )
    )


def check_sweep(doc):
    assert doc["schema"] == "swapram-sweep/v1", doc.get("schema")
    configs = doc["metrics"]["configs"]
    assert configs, "sweep document has no metrics configs"
    for config in configs:
        m = config["metrics"]
        check_metrics(m)
        # The merged roll-up must account for exactly the runs that
        # completed for this system: the "runs" counter merges by sum,
        # and per-run stall cycles sum to the merged histogram.
        assert m["counters"]["runs"] == config["runs"], config["system"]
        run_stalls = sum(
            run["stall_cycles"]
            for run in doc["runs"]
            if run["system"] == config["system"]
            and "stall_cycles" in run
        )
        assert (
            m["histograms"]["fram_stall_cycles"]["sum"] == run_stalls
        ), config["system"]
    print(
        "sweep metrics ok:",
        ", ".join(
            "%s x%d" % (c["system"], c["runs"]) for c in configs
        ),
    )


def main():
    argv = sys.argv[1:]
    sweep = "--sweep" in argv
    argv = [a for a in argv if a != "--sweep"]
    if len(argv) != 1:
        sys.exit("usage: check_metrics_json.py [--sweep] <report.json|->")
    with sys.stdin if argv[0] == "-" else open(argv[0]) as f:
        doc = json.load(f)
    if sweep:
        check_sweep(doc)
    else:
        check_run_report(doc)


if __name__ == "__main__":
    main()
