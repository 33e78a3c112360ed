#include "sim/cpu.hh"

#include "isa/cycles.hh"
#include "isa/decode.hh"
#include "sim/exec.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "support/strings.hh"

namespace swapram::sim {

void
Cpu::execute(const isa::Instr &instr)
{
    ExecCore core(regs_, bus_);
    core.execute(instr);
}

void
Cpu::interrupt(std::uint16_t vector_addr, Stats &stats)
{
    bus_.beginInstruction();
    ExecCore core(regs_, bus_);
    core.push16(regs_[0]);
    core.push16(regs_[2]);
    regs_[2] = 0; // SR cleared on entry (GIE off)
    regs_[0] = bus_.read16(vector_addr, AccessKind::Read);
    stats.base_cycles += platform::kInterruptCycles;
    ++stats.interrupts;
}

void
Cpu::step(Stats &stats)
{
    bus_.beginInstruction();
    std::uint16_t iaddr = regs_[0];
    if (iaddr & 1)
        support::fatal("PC at odd address ", support::hex16(iaddr));
    if (predecode_) {
        if (const PredecodeCache::Entry *e = predecode_->find(iaddr)) {
            // Replay the fetch sequence through the bus so every
            // timing/statistic side effect (FRAM stalls, hardware
            // cache state, contention, trace events) is identical to
            // the decoded path; only the decode work is skipped.
            bus_.read16(iaddr, AccessKind::Fetch);
            if (e->n_words > 1)
                bus_.read16(static_cast<std::uint16_t>(iaddr + 2),
                            AccessKind::Fetch);
            if (e->n_words > 2)
                bus_.read16(static_cast<std::uint16_t>(iaddr + 4),
                            AccessKind::Fetch);
            regs_[0] =
                static_cast<std::uint16_t>(iaddr + 2 * e->n_words);
            execute(e->instr);
            stats.base_cycles += e->base_cycles;
            ++stats.instructions;
            ++stats.predecode_hits;
            return;
        }
    }
    std::uint16_t w0 = bus_.read16(iaddr, AccessKind::Fetch);
    regs_[0] = static_cast<std::uint16_t>(regs_[0] + 2);
    isa::Shape shape = isa::decodeShape(w0);
    std::uint16_t ext_src = 0;
    std::uint16_t ext_dst = 0;
    if (shape.src_ext) {
        ext_src = bus_.read16(regs_[0], AccessKind::Fetch);
        regs_[0] = static_cast<std::uint16_t>(regs_[0] + 2);
    }
    if (shape.dst_ext) {
        ext_dst = bus_.read16(regs_[0], AccessKind::Fetch);
        regs_[0] = static_cast<std::uint16_t>(regs_[0] + 2);
    }
    isa::Instr instr = isa::decodeWords(w0, ext_src, ext_dst, iaddr);
    std::uint32_t cycles = isa::baseCycles(instr);
    if (predecode_) {
        // Never cache MMIO-resident words: device reads are
        // time-dependent, so such fetches must decode fresh each time.
        std::uint8_t n_words =
            static_cast<std::uint8_t>(1 + shape.totalExt());
        std::uint16_t last = static_cast<std::uint16_t>(
            iaddr + 2 * n_words - 1);
        if (regionOf(iaddr) != RegionKind::Mmio &&
            regionOf(last) != RegionKind::Mmio) {
            predecode_->insert(iaddr, instr, n_words,
                               static_cast<std::uint8_t>(cycles));
        }
        ++stats.predecode_misses;
    }
    execute(instr);
    stats.base_cycles += cycles;
    ++stats.instructions;
}

} // namespace swapram::sim
