#include "harness/runner.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "blockcache/builder.hh"
#include "isa/decode.hh"
#include "isa/disasm.hh"
#include "masm/assembler.hh"
#include "masm/parser.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/platform.hh"
#include "swapram/builder.hh"
#include "trace/sinks.hh"

namespace swapram::harness {

namespace plat = swapram::platform;

namespace {

/** The helper library's text and its parse, made once per process. */
struct LibParse {
    std::string text = workloads::libSource();
    masm::Program program = masm::parse(text);
};

const LibParse &
libParse()
{
    static const LibParse lib;
    return lib;
}

/** Number of '\n' in @p text: the line offset of what follows it in a
 *  concatenation, as parse() numbers lines. */
int
newlines(const std::string &text)
{
    return static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

/** Append a copy of @p piece to @p out, its lines moved down by
 *  @p offset. */
void
appendShifted(masm::Program &out, const masm::Program &piece, int offset)
{
    for (const masm::Statement &s : piece.stmts) {
        out.stmts.push_back(s);
        out.stmts.back().line += offset;
    }
}

} // namespace

masm::Program
spliceSource(const std::string &stub, const workloads::Workload &workload,
             bool include_lib, std::size_t headroom)
{
    std::shared_ptr<const masm::Program> source;
    try {
        source = workload.parsed->get(workload.source);
    } catch (const support::FatalError &e) {
        throw support::FatalError(masm::mapSourceLines(
            e.what(), {{workload.name, workload.source}}));
    }
    const masm::Program *lib =
        include_lib ? &libParse().program : nullptr;
    masm::Program program;
    program.stmts.reserve(source->stmts.size() +
                          (lib ? lib->stmts.size() : 0) + headroom);
    masm::parseAppend(stub, program);
    const int source_offset = newlines(stub);
    appendShifted(program, *source, source_offset);
    if (lib)
        appendShifted(program, *lib,
                      source_offset + newlines(workload.source));
    return program;
}

std::string
systemName(System system)
{
    switch (system) {
      case System::Baseline: return "baseline";
      case System::SwapRam: return "swapram";
      case System::BlockCache: return "block";
    }
    support::panic("systemName: bad system");
}

std::string
startupSource(std::uint16_t stack_top, int repeats,
              const std::string &recover)
{
    std::ostringstream os;
    os << "        .text\n"
          "        .func __start\n"
          "        MOV #" << stack_top << ", SP\n";
    // The recovery call is padded to one FRAM prefetch line (8 bytes)
    // so later functions keep their alignment — and their hardware
    // cache stall pattern — whether or not the call is emitted.
    if (!recover.empty()) {
        os << "        CALL #" << recover << "\n"
              "        NOP\n"
              "        NOP\n";
    }
    if (repeats <= 1) {
        os << "        CALL #main\n";
    } else {
        os << "        MOV #" << repeats << ", R10\n"
              "__start_loop:\n"
              "        CALL #main\n"
              "        DEC R10\n"
              "        JNZ __start_loop\n";
    }
    os << "        MOV.B #1, &__DONE\n"
          "__start_spin:\n"
          "        JMP __start_spin\n"
          "        .endfunc\n";
    return os.str();
}

namespace {

/** Region a section base falls in, for fit checks. */
bool
inSram(std::uint16_t base, std::uint32_t sram_end)
{
    return base >= plat::kSramBase && base < sram_end;
}

/** Check that a section fits in its region; append a note if not. */
void
checkSection(const char *name, const masm::Range &range,
             std::uint32_t sram_end, std::string &note)
{
    if (range.size == 0)
        return;
    if (inSram(range.base, sram_end)) {
        if (range.end() > sram_end) {
            note += support::cat(name, " overflows SRAM (",
                                 range.end() - plat::kSramBase,
                                 " bytes); ");
        }
    } else {
        if (range.end() > plat::kVectorsBase) {
            note += support::cat(name, " overflows FRAM (ends at ",
                                 support::hex16(static_cast<std::uint16_t>(
                                     range.end() & 0xFFFF)),
                                 "); ");
        }
    }
}

/**
 * Post-run SwapRAM state invariants (ISSUE 7 satellite): every redirect
 * cell points either at the miss handler (not cached, and the function
 * body still lives at its FRAM address) or at a live SRAM copy that is
 * in cache bounds, byte-identical to the FRAM body, and non-overlapping
 * with every other resident copy; every relocation cell is consistent
 * with the residency; every active counter has unwound to zero. Runs
 * after every completed SwapRAM run — all tests and both fuzz harnesses
 * exercise it for free. Violations panic, which the engine captures as
 * a run failure.
 */
void
verifySwapInvariants(const sim::Machine &machine,
                     const masm::AssembleResult &assembled,
                     const cache::FuncIds &funcs,
                     const cache::Options &swap)
{
    auto sym = [&](const char *name) {
        auto it = assembled.symbols.find(name);
        if (it == assembled.symbols.end())
            support::panic("swap invariants: missing symbol ", name);
        return it->second;
    };
    const std::uint16_t redirect_t = sym("__swp_redirect");
    const std::uint16_t cached_t = sym("__swp_cached");
    const std::uint16_t active_t = sym("__swp_active");
    const std::uint16_t rbase_t = sym("__swp_rbase");
    const std::uint16_t rcnt_t = sym("__swp_rcnt");
    const std::uint16_t rofs_t = sym("__swp_rofs");
    const std::uint16_t rval_t = sym("__swp_rval");
    const std::uint16_t miss = sym("__swp_miss");
    const std::uint16_t code_end = swap.poolBase();

    std::vector<std::pair<std::uint16_t, std::uint16_t>> resident;
    for (int id = 0; id < funcs.count(); ++id) {
        const std::string &name = funcs.names[id];
        const masm::FunctionInfo &f = assembled.function(name);
        auto cell = [&](std::uint16_t table) {
            return machine.peek16(
                static_cast<std::uint16_t>(table + 2 * id));
        };
        std::uint16_t redirect = cell(redirect_t);
        std::uint16_t cached = cell(cached_t);
        if (cell(active_t) != 0) {
            support::panic("swap invariants: '", name,
                           "' active counter nonzero at completion");
        }
        std::uint16_t home = cached == 0xFFFF ? f.addr : cached;
        if (cached == 0xFFFF) {
            if (redirect != miss) {
                support::panic("swap invariants: '", name,
                               "' not cached but redirect cell holds ",
                               support::hex16(redirect));
            }
        } else {
            if (redirect != cached) {
                support::panic("swap invariants: '", name,
                               "' cached at ", support::hex16(cached),
                               " but redirect cell holds ",
                               support::hex16(redirect));
            }
            if (cached < swap.cache_base ||
                static_cast<std::uint32_t>(cached) + f.size > code_end) {
                support::panic("swap invariants: '", name,
                               "' SRAM copy [", support::hex16(cached),
                               ", +", f.size, ") outside the code cache");
            }
            for (std::uint32_t i = 0; i < f.size; ++i) {
                if (machine.peek8(static_cast<std::uint16_t>(cached + i)) !=
                    machine.peek8(static_cast<std::uint16_t>(f.addr + i))) {
                    support::panic("swap invariants: '", name,
                                   "' SRAM copy differs from FRAM body "
                                   "at offset ", i);
                }
            }
            resident.emplace_back(cached,
                                  static_cast<std::uint16_t>(cached +
                                                             f.size));
        }
        // Relocation cells must match the residency either way.
        std::uint16_t rbase = cell(rbase_t);
        std::uint16_t rcnt = cell(rcnt_t);
        for (std::uint16_t k = 0; k < rcnt; ++k) {
            auto at = static_cast<std::uint16_t>(rbase + 2 * k);
            std::uint16_t ofs = machine.peek16(
                static_cast<std::uint16_t>(rofs_t + at));
            std::uint16_t val = machine.peek16(
                static_cast<std::uint16_t>(rval_t + at));
            if (val != static_cast<std::uint16_t>(home + ofs)) {
                support::panic("swap invariants: '", name,
                               "' reloc cell ", k, " holds ",
                               support::hex16(val), ", expected ",
                               support::hex16(
                                   static_cast<std::uint16_t>(home +
                                                              ofs)));
            }
        }
    }
    std::sort(resident.begin(), resident.end());
    for (std::size_t i = 1; i < resident.size(); ++i) {
        if (resident[i].first < resident[i - 1].second) {
            support::panic("swap invariants: resident copies overlap at ",
                           support::hex16(resident[i].first));
        }
    }
}

/** What the build half of a run hands the simulation half. */
struct Built {
    bool built = false; ///< false: the placement left no room (m says why)
    PlacementPlan plan;
    std::uint32_t sram_end = 0;
    std::uint16_t stack_top = 0;
    cache::Options swap; ///< as placed (cache bounds, data pool)
    bb::Options block;   ///< as placed
    masm::AssembleResult assembled;
    std::uint16_t handler_base = 0, handler_end = 0;
    std::uint16_t memcpy_base = 0, memcpy_end = 0;
    std::uint16_t recover_base = 0, recover_end = 0;
    std::uint16_t datapool_base = 0, datapool_end = 0;
    std::uint16_t ckpt_base = 0, ckpt_end = 0;
    cache::FuncIds swap_funcs; ///< kept for post-run invariant checks
};

/** The build half of runOne: place, splice, build under the selected
 *  system. Static sizes and a placement DNF land in @p m. @p stub
 *  receives the startup source prepended to the workload, so the
 *  caller can place an error's line number. */
Built
buildWithStub(const RunSpec &spec, std::string &stub, Metrics &m)
{
    Built b;

    // SRAM past kFramBase would overlap FRAM, and past 0xE000 the fast
    // path's mapped-space check would wrap onto device space.
    if (spec.sram_size > plat::kSramMaxSize) {
        support::fatal("sram_size ", spec.sram_size, " exceeds the ",
                       plat::kSramMaxSize, " bytes below FRAM");
    }

    // The cache runtimes copy code from FRAM into an SRAM region that
    // code placed in SRAM would overlap.
    if (spec.system != System::Baseline &&
        (spec.placement == Placement::SramCode ||
         spec.placement == Placement::SramAll)) {
        support::fatal("placement '", placementName(spec.placement),
                       "' puts the code in SRAM, where system '",
                       systemName(spec.system),
                       "' caches it; use unified, standard or split");
    }

    b.plan = makePlacement(spec.placement);
    PlacementPlan &plan = b.plan;

    // Crash consistency: the cache runtimes' startup stub calls their
    // generated recovery routine before main (harmless on the first
    // boot, essential after a power failure).
    std::string recover;
    if (spec.system == System::SwapRam && spec.swap.boot_recovery)
        recover = "__swp_recover";
    else if (spec.system == System::BlockCache &&
             spec.block.boot_recovery)
        recover = "__bb_recover";

    // Checkpointing preconditions. The restore rolls back SRAM, the
    // runtime metadata, and FRAM .data/.bss — a stack living elsewhere
    // in FRAM would survive un-rolled-back and desynchronise from the
    // restored register file (the resumed routine returns into this
    // boot's stack frames). And the restore itself runs from the
    // recovery routine, so recovery must be on.
    const bool ckpt_on =
        (spec.system == System::SwapRam && spec.swap.ckpt.enabled()) ||
        (spec.system == System::BlockCache &&
         spec.block.ckpt.enabled());
    if (ckpt_on) {
        if (!plan.stack_in_sram) {
            support::fatal("checkpointing requires the stack in "
                           "captured SRAM, but placement '",
                           placementName(spec.placement),
                           "' keeps it in FRAM (restore cannot roll a "
                           "live FRAM stack back)");
        }
        if (recover.empty()) {
            support::fatal("checkpointing requires boot recovery "
                           "(__ckpt_restore is invoked from the "
                           "recovery routine)");
        }
    }

    // An SRAM stack placed at the platform SRAM end must follow the
    // configured SRAM size (capacity sweeps shrink the mapped region;
    // a stack at the default 0x3000 would fault on the first push).
    if (plan.stack_in_sram &&
        plan.stack_top == static_cast<std::uint16_t>(plat::kSramEnd)) {
        plan.stack_top = static_cast<std::uint16_t>(plat::kSramBase +
                                                    spec.sram_size);
    }

    // A cache build grows the spliced program in place: call-site
    // instrumentation and relaxed jumps, then the runtime parsed onto
    // the end (the block cache's transform carries the spare room
    // over). Over the sweep and capacity cells and every placement the
    // built-in workloads add at most 518 statements under SwapRAM
    // (aes) and 598 after the block-cache transform (fft), so this
    // room allocates the statement vector once. A baseline build adds
    // none but relaxed jumps.
    constexpr std::size_t kCacheBuildHeadroom = 768;
    stub = startupSource(plan.stack_top, spec.main_repeats, recover);
    masm::Program program = spliceSource(
        stub, *spec.workload, spec.include_lib,
        spec.system == System::Baseline ? 0 : kCacheBuildHeadroom);

    // For the Split placement, size the data region first with a
    // baseline assembly, then carve the cache from the SRAM left over.
    cache::Options &swap = b.swap = spec.swap;
    bb::Options &block = b.block = spec.block;
    std::uint16_t &stack_top = b.stack_top = plan.stack_top;

    // Capacity sweeps (ISSUE 7): re-anchor default cache bounds to the
    // selected SRAM size, and let workloads that use the data-swap API
    // supply their preferred pool size when the spec does not override.
    const std::uint32_t sram_end = b.sram_end =
        plat::kSramBase + spec.sram_size;
    if (spec.sram_size != plat::kSramSize) {
        if (swap.cache_end == plat::kSramEnd)
            swap.cache_end = static_cast<std::uint16_t>(sram_end);
        if (block.cache_end == plat::kSramEnd)
            block.cache_end = static_cast<std::uint16_t>(sram_end);
        if (swap.ckpt.sram_end == plat::kSramEnd)
            swap.ckpt.sram_end = static_cast<std::uint16_t>(sram_end);
        if (block.ckpt.sram_end == plat::kSramEnd)
            block.ckpt.sram_end = static_cast<std::uint16_t>(sram_end);
    }
    if (!swap.data_pool_bytes && spec.workload->data_pool_bytes)
        swap.data_pool_bytes = spec.workload->data_pool_bytes;

    // Standard also places .data/.bss (and the stack) in SRAM, so a
    // caching system must carve its region out of what is left —
    // otherwise cached copies share addresses with data and the stack,
    // and ordinary stores corrupt resident code (the post-run invariant
    // walk catches exactly that).
    const bool carve_standard =
        spec.placement == Placement::Standard &&
        spec.system != System::Baseline;
    if (spec.placement == Placement::Split || carve_standard) {
        // The probe is a plain baseline assembly, which does not
        // define the recovery symbol; assemble without the call (a
        // text-only difference, so the data/bss sizing is identical).
        // While it builds, its own stub numbers the error lines.
        std::string main_stub;
        if (!recover.empty()) {
            main_stub = std::exchange(
                stub, startupSource(plan.stack_top, spec.main_repeats));
        }
        masm::AssembleResult probe =
            recover.empty()
                ? masm::assemble(program, plan.layout)
                : masm::assemble(spliceSource(stub, *spec.workload,
                                              spec.include_lib),
                                 plan.layout);
        if (!recover.empty())
            stub = std::move(main_stub);
        std::uint32_t bss_end = probe.image.bss.end();
        if (carve_standard) {
            // Standard keeps the stack at the SRAM top: the cache gets
            // the span between bss and the stack reservation.
            std::uint32_t base = (bss_end + 1) & ~1u;
            std::uint32_t end =
                (sram_end - spec.workload->stack_bytes) & ~1u;
            if (base + 64 > end) {
                m.fits = false;
                m.fit_note = "data+stack leave no SRAM for the cache";
                return b;
            }
            swap.cache_base = static_cast<std::uint16_t>(base);
            swap.cache_end = static_cast<std::uint16_t>(end);
            block.cache_base = static_cast<std::uint16_t>(base);
            block.cache_end = static_cast<std::uint16_t>(end);
        } else {
            std::uint32_t top =
                (bss_end + spec.workload->stack_bytes + 1) & ~1u;
            if (top >= sram_end) {
                m.fits = false;
                m.fit_note = "data+stack exceed SRAM";
                return b;
            }
            stack_top = static_cast<std::uint16_t>(top);
            swap.cache_base = stack_top;
            swap.cache_end = static_cast<std::uint16_t>(sram_end);
            block.cache_base = stack_top;
            block.cache_end = static_cast<std::uint16_t>(sram_end);
        }
    }

    // The region the runtime manages, as finally placed: the copy loop
    // moves words, and the invariant walk expects copies inside it (an
    // empty region, as a zero-byte SRAM leaves, runs all from FRAM).
    if (spec.system != System::Baseline) {
        const bool is_block = spec.system == System::BlockCache;
        const std::uint32_t base = is_block ? block.cache_base
                                            : swap.cache_base;
        const std::uint32_t end = is_block ? block.cache_end
                                           : swap.cache_end;
        if (((base | end) & 1) || base > end || base < plat::kSramBase ||
            end > sram_end) {
            support::fatal(
                "cache region [",
                support::hex16(static_cast<std::uint16_t>(base)), ", ",
                support::hex16(static_cast<std::uint16_t>(end)),
                ") must have even bounds, base not past end, inside SRAM [",
                support::hex16(plat::kSramBase), ", ",
                support::hex16(static_cast<std::uint16_t>(sram_end)), ")");
        }
    }

    // Build under the selected system.
    switch (spec.system) {
      case System::Baseline: {
        b.assembled = masm::assemble(std::move(program), plan.layout);
        m.app_text_bytes = b.assembled.image.text.size;
        break;
      }
      case System::SwapRam: {
        cache::BuildInfo info =
            cache::build(std::move(program), plan.layout, swap);
        b.assembled = std::move(info.assembled);
        m.app_text_bytes = info.app_text_bytes;
        m.runtime_bytes = info.runtime_text_bytes;
        m.metadata_bytes = info.metadata_bytes;
        m.handler_bytes = info.handler_bytes;
        m.n_funcs = info.funcs.count();
        m.reloc_count = info.reloc_count;
        b.handler_base = info.handler_addr;
        b.handler_end = info.handler_end;
        b.memcpy_base = info.memcpy_addr;
        b.memcpy_end = info.memcpy_end;
        b.recover_base = info.recover_addr;
        b.recover_end = info.recover_end;
        b.datapool_base = info.datapool_addr;
        b.datapool_end = info.datapool_end;
        b.ckpt_base = info.ckpt_addr;
        b.ckpt_end = info.ckpt_end;
        b.swap_funcs = std::move(info.funcs);
        break;
      }
      case System::BlockCache: {
        bb::BuildInfo info =
            bb::build(std::move(program), plan.layout, block);
        b.assembled = std::move(info.assembled);
        m.app_text_bytes = info.app_text_bytes;
        m.runtime_bytes = info.runtime_bytes;
        m.metadata_bytes = info.metadata_bytes;
        m.n_funcs = info.n_blocks;
        b.handler_base = info.runtime_addr;
        b.handler_end = info.runtime_end;
        b.memcpy_base = info.memcpy_addr;
        b.memcpy_end = info.memcpy_end;
        b.recover_base = info.recover_addr;
        b.recover_end = info.recover_end;
        b.ckpt_base = info.ckpt_addr;
        b.ckpt_end = info.ckpt_end;
        break;
      }
    }
    b.built = true;
    return b;
}

/** runOne proper. @p stub receives the startup source prepended to
 *  the workload, so runOne can place an error's line number. */
Metrics
runWithStub(const RunSpec &spec, std::string &stub)
{
    Metrics m;
    Built b = buildWithStub(spec, stub, m);
    if (!b.built)
        return m;
    const masm::Image &image = b.assembled.image;
    m.text_bytes = image.text.size;
    m.const_bytes = image.cnst.size;
    m.data_bytes = image.data.size;
    m.bss_bytes = image.bss.size;
    m.ram_bytes =
        image.data.size + image.bss.size + spec.workload->stack_bytes;

    // Fit checks (the paper's DNF criterion).
    std::string note;
    checkSection("text", image.text, b.sram_end, note);
    checkSection("const", image.cnst, b.sram_end, note);
    checkSection("data", image.data, b.sram_end, note);
    checkSection("bss", image.bss, b.sram_end, note);
    // Stack headroom.
    if (b.plan.stack_in_sram && spec.placement != Placement::Split) {
        std::uint32_t data_top = std::max(image.data.end(),
                                          image.bss.end());
        std::uint32_t limit = b.stack_top - spec.workload->stack_bytes;
        if (inSram(image.data.base, b.sram_end) && data_top > limit)
            note += "no room for stack in SRAM; ";
    } else if (!b.plan.stack_in_sram) {
        std::uint32_t data_top = std::max(image.data.end(),
                                          image.bss.end());
        if (!inSram(image.data.base, b.sram_end) &&
            data_top > static_cast<std::uint32_t>(
                           b.stack_top - spec.workload->stack_bytes)) {
            note += "no room for stack in FRAM; ";
        }
    }
    if (!note.empty()) {
        m.fits = false;
        m.fit_note = note;
        return m;
    }

    // Execute.
    sim::MachineConfig config;
    config.clock_hz = spec.clock_hz;
    config.max_cycles = spec.max_cycles;
    config.timer_period_cycles = spec.workload->timer_period_cycles;
    config.predecode_enabled = spec.predecode;
    config.superblock_enabled = spec.superblock;
    config.threaded_enabled = spec.threaded;
    config.sram_size = spec.sram_size;
    if (spec.intermittent.livelock_boots)
        config.livelock_boots = spec.intermittent.livelock_boots;
    sim::Machine machine(config);
    machine.load(image, b.stack_top);
    if (b.handler_end > b.handler_base) {
        machine.addOwnerRange(b.handler_base, b.handler_end,
                              sim::CodeOwner::Handler);
    }
    if (b.memcpy_end > b.memcpy_base) {
        machine.addOwnerRange(b.memcpy_base, b.memcpy_end,
                              sim::CodeOwner::Memcpy);
    }
    if (b.datapool_end > b.datapool_base) {
        // __swp_din/__swp_dout count as runtime overhead, like the
        // miss handler they parallel (their copies still run under the
        // Memcpy owner).
        machine.addOwnerRange(b.datapool_base, b.datapool_end,
                              sim::CodeOwner::Handler);
    }
    if (b.recover_end > b.recover_base)
        machine.setRecoveryRange(b.recover_base, b.recover_end);
    if (b.ckpt_end > b.ckpt_base) {
        // The checkpoint routines are runtime overhead like the miss
        // handler; probe their entry points for the trace stream.
        machine.addOwnerRange(b.ckpt_base, b.ckpt_end,
                              sim::CodeOwner::Handler);
        auto entry = [&](const char *name) -> std::uint16_t {
            auto it = b.assembled.symbols.find(name);
            return it == b.assembled.symbols.end() ? 0 : it->second;
        };
        machine.setCkptProbe(entry("__ckpt_commit"),
                             entry("__ckpt_restore"));
    }
    if (config.livelock_boots) {
        // Persistent cells that change even on a zero-progress boot
        // must not feed the livelock watermark: lifetime statistics
        // counters and the checkpoint scheme's plumbing (sequence
        // words, the periodic countdown, the low-energy latch). The
        // sealed buffer payloads still hash, so committing *new*
        // state resets the streak.
        auto skipCell = [&](const char *name, std::uint16_t bytes) {
            auto it = b.assembled.symbols.find(name);
            if (it != b.assembled.symbols.end())
                machine.addWatermarkSkip(it->second,
                                         it->second + bytes);
        };
        for (const char *name :
             {"__swp_nevict", "__swp_nretry", "__swp_dnin",
              "__swp_dnout", "__swp_dnfull", "__ckpt_seq",
              "__ckpt_ctr", "__ckpt_low", "__ckpt_ncommit",
              "__ckpt_nrestore"})
            skipCell(name, 2);
        skipCell("__ckpt_buf0", 2); // buffer seq word; payload hashes
        skipCell("__ckpt_buf1", 2);
    }
    sim::FaultInjector injector(spec.intermittent.plan);
    if (spec.intermittent.enabled()) {
        if (spec.intermittent.plan.kind == sim::FaultPlan::Kind::Trace) {
            injector.bindEnergy(&machine.stats(), sim::EnergyModel{},
                                spec.clock_hz);
        }
        machine.setFaultInjector(&injector);
    }

    // Observability wiring (the runner owns the engine's lifecycle;
    // none of this is constructed for plain runs).
    const ObserveSpec &obs = spec.observe;
    bool want_timeline =
        obs.swap_timeline ||
        (spec.system != System::Baseline &&
         (obs.profile || obs.metrics ||
          (obs.categories & trace::kCatSwap)));
    if (obs.metrics) {
        m.run_metrics = std::make_shared<metrics::RunMetrics>();
        machine.setMetrics(m.run_metrics.get());
    }
    std::unique_ptr<trace::TraceEngine> engine;
    std::unique_ptr<trace::FunctionProfiler> profiler;
    std::unique_ptr<trace::SwapTimeline> timeline;
    std::unique_ptr<trace::StreamSink> stream;
    std::unique_ptr<masm::FunctionIndex> index;
    if (obs.any() || want_timeline) {
        engine = std::make_unique<trace::TraceEngine>(
            obs.categories, obs.ring_capacity);
        index = std::make_unique<masm::FunctionIndex>(
            b.assembled.functions);
        if (obs.profile) {
            profiler = std::make_unique<trace::FunctionProfiler>();
            for (const masm::FunctionInfo &f : b.assembled.functions)
                profiler->addFunction(f.name, f.addr, f.size);
            profiler->seal();
            machine.setProfiler(profiler.get());
        }
        if (obs.out && obs.format != ObserveSpec::Format::None) {
            switch (obs.format) {
              case ObserveSpec::Format::Text:
                stream = std::make_unique<trace::TextSink>(*obs.out);
                break;
              case ObserveSpec::Format::Csv:
                stream = std::make_unique<trace::CsvSink>(*obs.out);
                break;
              case ObserveSpec::Format::Chrome:
                stream = std::make_unique<trace::ChromeTraceSink>(
                    *obs.out, spec.clock_hz);
                break;
              case ObserveSpec::Format::None: break;
            }
            stream->setLimit(obs.limit);
            stream->setSymbolizer([idx = index.get()](
                                      std::uint16_t addr) {
                return idx->label(addr);
            });
            if (obs.disasm) {
                stream->setAnnotator([&machine](
                                         const trace::Event &event) {
                    if (event.kind != trace::EventKind::InstrRetire)
                        return std::string();
                    std::uint16_t pc = event.addr;
                    std::uint16_t words[3] = {
                        machine.peek16(pc),
                        machine.peek16(
                            static_cast<std::uint16_t>(pc + 2)),
                        machine.peek16(
                            static_cast<std::uint16_t>(pc + 4)),
                    };
                    return isa::disasm(isa::decodeAt(words, pc).instr);
                });
            }
            engine->addSink(stream.get(),
                            obs.categories ? obs.categories
                                           : trace::kCatAll);
        }
        if (want_timeline) {
            // The timeline must be registered after the stream sink so
            // derived events follow their triggers in the output.
            bool is_block = spec.system == System::BlockCache;
            timeline = std::make_unique<trace::SwapTimeline>(
                is_block ? b.block.cache_base : b.swap.cache_base,
                is_block ? b.block.cache_end : b.swap.cache_end);
            for (const masm::FunctionInfo &f : b.assembled.functions)
                timeline->addFunction(f.name, f.addr, f.size);
            if (!is_block && b.swap.data_pool_bytes) {
                timeline->setDataPool(b.swap.poolBase(), b.datapool_base,
                                      b.datapool_end);
            }
            timeline->setEngine(engine.get());
            if (profiler)
                timeline->setProfiler(profiler.get());
            engine->addSink(timeline.get(),
                            trace::kCatSwap | trace::kCatPower);
        }
        machine.setTraceEngine(engine.get());
        support::debug("observe: categories=",
                       trace::categoryNames(engine->mask()),
                       " profile=", obs.profile,
                       " timeline=", want_timeline);
    }

    sim::RunResult result = machine.run();
    if (engine) {
        engine->finish();
        m.trace_emitted = engine->emitted();
        m.trace_dropped = engine->dropped();
    }
    if (profiler) {
        m.profile = profiler->rows(sim::EnergyModel{}, spec.clock_hz);
        m.folded = profiler->foldedStacks();
    }
    if (timeline) {
        m.swap_events = timeline->events();
        m.occupancy = timeline->occupancy();
        m.swap_summary = timeline->summary();
    }
    if (m.run_metrics) {
        // The bus fed the heatmap and stall histogram live; the
        // miss-handler durations come from the reconstructed timeline.
        for (const trace::SwapEvent &e : m.swap_events) {
            if (e.kind == trace::EventKind::MissExit)
                m.run_metrics->miss_handler_cycles.record(
                    e.handler_cycles);
        }
        metrics::Registry &reg = m.run_metrics->registry;
        reg.counter("runs").inc();
        reg.counter("reboots").inc(m.stats.reboots);
        reg.gauge("peak_resident_bytes")
            .set(m.swap_summary.peak_resident_bytes);
    }
    m.done = result.done;
    m.stop = result.stop;
    m.console = machine.mmio().console();
    m.stats = machine.stats();
    m.seconds = sim::EnergyModel::seconds(m.stats, spec.clock_hz);
    m.energy_pj = sim::EnergyModel{}.totalPj(m.stats, spec.clock_hz);
    if (spec.intermittent.plan.kind == sim::FaultPlan::Kind::Trace) {
        std::uint64_t cycles = m.stats.totalCycles();
        m.harvested_pj = injector.harvestedPj(cycles);
        m.wall_seconds = injector.wallSeconds(cycles);
    }
    if (auto it = b.assembled.symbols.find("bench_result");
        it != b.assembled.symbols.end()) {
        m.checksum = machine.peek16(it->second);
    }
    auto counter = [&](const char *name) -> std::uint16_t {
        auto it = b.assembled.symbols.find(name);
        return it == b.assembled.symbols.end()
                   ? 0
                   : machine.peek16(it->second);
    };
    // Both cache runtimes share the checkpoint counter cells (absent
    // when the scheme is None — counter() then reads 0).
    m.rt_ckpt_commits = counter("__ckpt_ncommit");
    m.rt_ckpt_restores = counter("__ckpt_nrestore");
    if (spec.system == System::SwapRam) {
        m.rt_evictions = counter("__swp_nevict");
        m.rt_retries = counter("__swp_nretry");
        m.rt_data_in = counter("__swp_dnin");
        m.rt_data_out = counter("__swp_dnout");
        m.rt_data_full = counter("__swp_dnfull");
        // Invariants only hold for completed runs, and only when boot
        // recovery repaired any power failures (no-recovery intermittent
        // runs exist precisely to demonstrate the inconsistent state).
        if (result.done &&
            (!spec.intermittent.enabled() || b.swap.boot_recovery)) {
            verifySwapInvariants(machine, b.assembled, b.swap_funcs, b.swap);
        }
    }

    // Snapshot .data + .bss for cross-system program-flow validation.
    for (std::uint32_t a = image.data.base; a < image.data.end(); ++a)
        m.data_snapshot.push_back(
            machine.peek8(static_cast<std::uint16_t>(a)));
    for (std::uint32_t a = image.bss.base; a < image.bss.end(); ++a)
        m.data_snapshot.push_back(
            machine.peek8(static_cast<std::uint16_t>(a)));
    return m;
}

/** @p fn(stub) for @p spec, its errors' line numbers placed in the
 *  piece of the source that holds them. */
template <typename Fn>
auto
withSourceLines(const RunSpec &spec, Fn fn)
{
    if (!spec.workload)
        support::fatal("runOne: no workload");
    std::string stub;
    try {
        return fn(stub);
    } catch (const support::FatalError &e) {
        // Assemble errors count lines from the top of the stub (the
        // spliced pieces keep that numbering); say which piece of the
        // source holds the line instead.
        const std::string_view lib =
            spec.include_lib ? std::string_view(libParse().text) : "";
        throw support::FatalError(masm::mapSourceLines(
            e.what(), {{"<startup>", stub},
                       {spec.workload->name, spec.workload->source},
                       {"<lib>", lib}}));
    }
}

} // namespace

masm::AssembleResult
buildOne(const RunSpec &spec)
{
    return withSourceLines(spec, [&](std::string &stub) {
        Metrics m;
        return buildWithStub(spec, stub, m).assembled;
    });
}

Metrics
runOne(const RunSpec &spec)
{
    return withSourceLines(
        spec, [&](std::string &stub) { return runWithStub(spec, stub); });
}

IntermittentCheck
checkIntermittent(const RunSpec &spec)
{
    IntermittentCheck check;
    RunSpec quiet = spec;
    quiet.intermittent = IntermittentSpec{};
    check.reference = runOne(quiet);
    check.faulted = runOne(spec);
    return check;
}

Metrics
run(const workloads::Workload &workload, System system,
    Placement placement, std::uint32_t clock_hz)
{
    RunSpec spec;
    spec.workload = &workload;
    spec.system = system;
    spec.placement = placement;
    spec.clock_hz = clock_hz;
    return runOne(spec);
}

} // namespace swapram::harness
