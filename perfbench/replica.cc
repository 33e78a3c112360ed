#include "replica.hh"

#include <memory>

#include "blockcache/builder.hh"
#include "harness/placement.hh"
#include "masm/parser.hh"
#include "metrics/run_metrics.hh"
#include "sim/energy.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "swapram/builder.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"

namespace perfbench {

namespace sw = swapram;
namespace plat = swapram::platform;
using sw::harness::RunSpec;
using sw::harness::System;

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->spans_[index_].end_ns = nowNs();
    tracer_->open_.pop_back();
}

Tracer::Scope
Tracer::span(const char *name)
{
    if (!enabled_)
        return Scope(nullptr, 0);
    Span s;
    s.trace = trace_;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.name = name;
    s.start_ns = nowNs();
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    return Scope(this, spans_.size() - 1);
}

Built
build(const RunSpec &spec, Tracer &tracer)
{
    if (!spec.workload || spec.placement != sw::harness::Placement::Unified ||
        !spec.include_lib || spec.intermittent.enabled() ||
        spec.swap.ckpt.enabled() || spec.block.ckpt.enabled() ||
        spec.observe.tracing() || spec.observe.out)
        sw::support::fatal("replica: spec outside the replicated subset");

    Built b;
    sw::harness::PlacementPlan plan =
        sw::harness::makePlacement(spec.placement);
    std::string recover;
    if (spec.system == System::SwapRam && spec.swap.boot_recovery)
        recover = "__swp_recover";
    else if (spec.system == System::BlockCache && spec.block.boot_recovery)
        recover = "__bb_recover";
    b.stack_top = plan.stack_top;
    if (plan.stack_in_sram &&
        plan.stack_top == static_cast<std::uint16_t>(plat::kSramEnd))
        b.stack_top =
            static_cast<std::uint16_t>(plat::kSramBase + spec.sram_size);

    std::string source =
        sw::harness::startupSource(b.stack_top, spec.main_repeats,
                                   recover) +
        spec.workload->source + sw::workloads::libSource();
    sw::masm::Program program;
    {
        Tracer::Scope s = tracer.span("masm.parse");
        program = sw::masm::parse(source);
    }
    b.statements = program.stmts.size();

    b.swap = spec.swap;
    b.block = spec.block;
    const std::uint32_t sram_end = plat::kSramBase + spec.sram_size;
    if (spec.sram_size != plat::kSramSize) {
        if (b.swap.cache_end == plat::kSramEnd)
            b.swap.cache_end = static_cast<std::uint16_t>(sram_end);
        if (b.block.cache_end == plat::kSramEnd)
            b.block.cache_end = static_cast<std::uint16_t>(sram_end);
    }
    if (!b.swap.data_pool_bytes && spec.workload->data_pool_bytes)
        b.swap.data_pool_bytes = spec.workload->data_pool_bytes;

    switch (spec.system) {
      case System::Baseline: {
        Tracer::Scope s = tracer.span("masm.assemble");
        b.assembled = sw::masm::assemble(program, plan.layout);
        break;
      }
      case System::SwapRam: {
        sw::cache::BuildInfo info;
        {
            Tracer::Scope s = tracer.span("swapram.build");
            info = sw::cache::build(program, plan.layout, b.swap);
        }
        b.assembled = std::move(info.assembled);
        b.funcs = static_cast<std::uint64_t>(info.funcs.count());
        b.relocs = static_cast<std::uint64_t>(info.reloc_count);
        b.handler_base = info.handler_addr;
        b.handler_end = info.handler_end;
        b.memcpy_base = info.memcpy_addr;
        b.memcpy_end = info.memcpy_end;
        b.recover_base = info.recover_addr;
        b.recover_end = info.recover_end;
        b.datapool_base = info.datapool_addr;
        b.datapool_end = info.datapool_end;
        break;
      }
      case System::BlockCache: {
        sw::bb::BuildInfo info;
        {
            Tracer::Scope s = tracer.span("blockcache.build");
            info = sw::bb::build(program, plan.layout, b.block);
        }
        b.assembled = std::move(info.assembled);
        b.blocks = static_cast<std::uint64_t>(info.n_blocks);
        b.handler_base = info.runtime_addr;
        b.handler_end = info.runtime_end;
        b.memcpy_base = info.memcpy_addr;
        b.memcpy_end = info.memcpy_end;
        b.recover_base = info.recover_addr;
        b.recover_end = info.recover_end;
        break;
      }
    }
    return b;
}

Observers
observersOf(const RunSpec &spec)
{
    const sw::harness::ObserveSpec &obs = spec.observe;
    Observers o;
    o.profile = obs.profile;
    o.metrics = obs.metrics;
    o.timeline = obs.swap_timeline ||
                 (spec.system != System::Baseline &&
                  (obs.profile || obs.metrics));
    return o;
}

SimResult
simulate(const RunSpec &spec, const Built &b, const Observers &observers,
         Tracer &tracer)
{
    sw::sim::MachineConfig config;
    config.clock_hz = spec.clock_hz;
    config.max_cycles = spec.max_cycles;
    config.timer_period_cycles = spec.workload->timer_period_cycles;
    config.predecode_enabled = spec.predecode;
    config.superblock_enabled = spec.superblock;
    config.threaded_enabled = spec.threaded;
    config.sram_size = spec.sram_size;

    std::unique_ptr<sw::sim::Machine> machine;
    {
        Tracer::Scope s = tracer.span("sim.setup");
        machine = std::make_unique<sw::sim::Machine>(config);
        machine->load(b.assembled.image, b.stack_top);
        if (b.handler_end > b.handler_base)
            machine->addOwnerRange(b.handler_base, b.handler_end,
                                   sw::sim::CodeOwner::Handler);
        if (b.memcpy_end > b.memcpy_base)
            machine->addOwnerRange(b.memcpy_base, b.memcpy_end,
                                   sw::sim::CodeOwner::Memcpy);
        if (b.datapool_end > b.datapool_base)
            machine->addOwnerRange(b.datapool_base, b.datapool_end,
                                   sw::sim::CodeOwner::Handler);
        if (b.recover_end > b.recover_base)
            machine->setRecoveryRange(b.recover_base, b.recover_end);
    }

    std::unique_ptr<sw::metrics::RunMetrics> run_metrics;
    if (observers.metrics) {
        Tracer::Scope s = tracer.span("metrics.attach");
        run_metrics = std::make_unique<sw::metrics::RunMetrics>();
        machine->setMetrics(run_metrics.get());
    }
    std::unique_ptr<sw::trace::TraceEngine> engine;
    std::unique_ptr<sw::masm::FunctionIndex> index;
    std::unique_ptr<sw::trace::FunctionProfiler> profiler;
    std::unique_ptr<sw::trace::SwapTimeline> timeline;
    if (observers.timeline || observers.profile || observers.metrics) {
        Tracer::Scope s = tracer.span("trace.attach");
        engine = std::make_unique<sw::trace::TraceEngine>(
            spec.observe.categories, spec.observe.ring_capacity);
        index = std::make_unique<sw::masm::FunctionIndex>(
            b.assembled.functions);
        if (observers.profile) {
            profiler = std::make_unique<sw::trace::FunctionProfiler>();
            for (const sw::masm::FunctionInfo &f : b.assembled.functions)
                profiler->addFunction(f.name, f.addr, f.size);
            profiler->seal();
            machine->setProfiler(profiler.get());
        }
        if (observers.timeline) {
            bool is_block = spec.system == System::BlockCache;
            timeline = std::make_unique<sw::trace::SwapTimeline>(
                is_block ? b.block.cache_base : b.swap.cache_base,
                is_block ? b.block.cache_end : b.swap.cache_end);
            for (const sw::masm::FunctionInfo &f : b.assembled.functions)
                timeline->addFunction(f.name, f.addr, f.size);
            if (!is_block && b.swap.data_pool_bytes)
                timeline->setDataPool(b.swap.poolBase(), b.datapool_base,
                                      b.datapool_end);
            timeline->setEngine(engine.get());
            if (profiler)
                timeline->setProfiler(profiler.get());
            engine->addSink(timeline.get(), sw::trace::kCatSwap |
                                                sw::trace::kCatAccess |
                                                sw::trace::kCatPower);
        }
        machine->setTraceEngine(engine.get());
    }

    SimResult r;
    {
        Tracer::Scope s = tracer.span("sim.run");
        std::int64_t t0 = nowNs();
        r.done = machine->run().done;
        r.run_ns = nowNs() - t0;
    }

    if (engine) {
        Tracer::Scope s = tracer.span("trace.collect");
        engine->finish();
        r.trace_events = engine->emitted();
        if (profiler) {
            std::vector<sw::trace::ProfileRow> rows =
                profiler->rows(sw::sim::EnergyModel{}, spec.clock_hz);
            std::vector<sw::trace::FoldedStack> folded =
                profiler->foldedStacks();
        }
        if (timeline) {
            std::vector<sw::trace::SwapEvent> events = timeline->events();
            std::vector<sw::trace::OccupancySample> occupancy =
                timeline->occupancy();
            r.summary = timeline->summary();
        }
    }
    if (run_metrics) {
        Tracer::Scope s = tracer.span("metrics.collect");
        if (timeline) {
            for (const sw::trace::SwapEvent &e : timeline->events()) {
                if (e.kind == sw::trace::EventKind::MissExit)
                    run_metrics->miss_handler_cycles.record(
                        e.handler_cycles);
            }
        }
        sw::metrics::Registry &reg = run_metrics->registry;
        reg.counter("runs").inc();
        reg.counter("reboots").inc(machine->stats().reboots);
        reg.gauge("peak_resident_bytes").set(r.summary.peak_resident_bytes);
    }

    r.stats = machine->stats();
    auto it = b.assembled.symbols.find("bench_result");
    if (it != b.assembled.symbols.end())
        r.checksum = machine->peek16(it->second);
    return r;
}

} // namespace perfbench
