/**
 * @file
 * RunMetrics: the bundle of instruments one simulated run records into
 * when metrics collection is enabled (ISSUE 6).
 *
 * The simulator components hold a raw `RunMetrics *` that defaults to
 * nullptr (sim::Bus via setMetrics, forwarded by sim::Machine); when
 * attached, the bus feeds the address-space heatmap and the FRAM
 * stall-latency histogram inline, and the harness feeds the
 * miss-handler histogram from the reconstructed SwapTimeline after the
 * run. Everything is host-side observation: attaching metrics never
 * changes simulated timing or results (it does force the single-step
 * execution path, like profiling and the per-step trace categories —
 * see sim::Machine::run).
 *
 * Well-known instrument names (the swapram-metrics/v1 JSON keys):
 *  - "fram_stall_cycles":    one sample per stalled FRAM access, the
 *                            stall cycles charged; sum() equals
 *                            Stats::stall_cycles.
 *  - "miss_handler_cycles":  one sample per SwapRAM/block miss-handler
 *                            span (cache systems only).
 */

#ifndef SWAPRAM_METRICS_RUN_METRICS_HH
#define SWAPRAM_METRICS_RUN_METRICS_HH

#include "metrics/heatmap.hh"
#include "metrics/metrics.hh"

namespace swapram::metrics {

/** All metrics of one run. Bind instruments once, record directly. */
struct RunMetrics {
    Registry registry;
    AddressHeatmap heatmap;

    /** Cycles charged per stalled FRAM access (bus hot path). */
    Histogram &fram_stall_cycles;
    /** Duration of each reconstructed miss-handler span. */
    Histogram &miss_handler_cycles;

    RunMetrics()
        : fram_stall_cycles(registry.histogram("fram_stall_cycles")),
          miss_handler_cycles(registry.histogram("miss_handler_cycles"))
    {
    }

    RunMetrics(const RunMetrics &) = delete;
    RunMetrics &operator=(const RunMetrics &) = delete;

    /** Aggregate another run's metrics into this one (sweep roll-up;
     *  histograms merge bucket-wise, the heatmap page-wise). */
    void
    merge(const RunMetrics &other)
    {
        registry.merge(other.registry);
        heatmap.merge(other.heatmap);
    }
};

} // namespace swapram::metrics

#endif // SWAPRAM_METRICS_RUN_METRICS_HH
