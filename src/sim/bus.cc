#include "sim/bus.hh"

#include "sim/fram_timing.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace swapram::sim {

Bus::Bus(Memory &memory, Mmio &mmio, Stats &stats,
         const MachineConfig &config)
    : memory_(memory), mmio_(mmio), stats_(stats), config_(config)
{
}

void
Bus::beginInstruction()
{
    fram_chain_ = {};
}

void
Bus::account(std::uint16_t addr, RegionKind region, AccessKind kind)
{
    AccessCounts *counts = nullptr;
    switch (region) {
      case RegionKind::Sram: counts = &stats_.sram; break;
      case RegionKind::Fram: counts = &stats_.fram; break;
      case RegionKind::Mmio: counts = &stats_.mmio; break;
      case RegionKind::Unmapped:
        support::fatal("access to unmapped address ",
                       support::hex16(addr));
    }
    switch (kind) {
      case AccessKind::Fetch: ++counts->fetch; break;
      case AccessKind::Read: ++counts->read; break;
      case AccessKind::Write: ++counts->write; break;
    }
    if (metrics_) {
        // Mirrors the region counters above one-for-one, so heatmap
        // page totals sum exactly to the Stats access counts.
        switch (kind) {
          case AccessKind::Fetch: metrics_->heatmap.recordFetch(addr);
            break;
          case AccessKind::Read: metrics_->heatmap.recordRead(addr);
            break;
          case AccessKind::Write: metrics_->heatmap.recordWrite(addr);
            break;
        }
    }

    if (region != RegionKind::Mmio) {
        if (fram::inCode(addr, code_base_, code_end_))
            ++stats_.code_space_accesses;
        else
            ++stats_.data_space_accesses;
    }

    if (region == RegionKind::Fram) {
        std::uint32_t ws = config_.effectiveWaitStates();
        std::uint32_t contention =
            fram_chain_.next(addr) ? fram::kContentionStall : 0;

        // Writes go to the FRAM array directly (write-through
        // controller); they pay the wait states but do not disturb the
        // read cache's tag state.
        bool hit = false;
        if (kind != AccessKind::Write) {
            hit = hw_cache_.access(addr);
            if (trace_ && trace_->wants(trace::kCatHwCache)) {
                trace_->emit({now(),
                              hit ? trace::EventKind::HwCacheHit
                                  : trace::EventKind::HwCacheMiss,
                              0, addr, 0, 0});
            }
            if (hit)
                ++stats_.fram_cache_hits;
            else
                ++stats_.fram_cache_misses;
        }
        std::uint32_t stall = fram::accessStall(hit, ws, contention);
        stats_.stall_cycles += stall;
        if (stall && metrics_) {
            metrics_->heatmap.recordStall(addr, stall);
            metrics_->fram_stall_cycles.record(stall);
        }
        if (stall && trace_ && trace_->wants(trace::kCatStall)) {
            trace_->emit({now(), trace::EventKind::FramStall, 0, addr,
                          0, stall});
        }
    }
}

std::uint16_t
Bus::read16(std::uint16_t addr, AccessKind kind)
{
    if (addr & 1)
        support::fatal("unaligned word read at ", support::hex16(addr));
    RegionKind region = regionOf(addr, config_.sramEnd());
    account(addr, region, kind);
    std::uint16_t value;
    if (region == RegionKind::Mmio)
        value = mmio_.read(addr, now());
    else
        value = memory_.read16(addr);
    traceAccess(addr, value, kind, false);
    return value;
}

std::uint8_t
Bus::read8(std::uint16_t addr, AccessKind kind)
{
    RegionKind region = regionOf(addr, config_.sramEnd());
    account(addr, region, kind);
    std::uint8_t value;
    if (region == RegionKind::Mmio)
        value = static_cast<std::uint8_t>(mmio_.read(addr, now()));
    else
        value = memory_.read8(addr);
    traceAccess(addr, value, AccessKind::Read, true);
    return value;
}

void
Bus::write16(std::uint16_t addr, std::uint16_t value)
{
    if (addr & 1)
        support::fatal("unaligned word write at ", support::hex16(addr));
    RegionKind region = regionOf(addr, config_.sramEnd());
    account(addr, region, AccessKind::Write);
    if (region == RegionKind::Mmio)
        mmio_.write(addr, value, now());
    else
        memory_.write16(addr, value);
    if (predecode_) {
        predecode_->invalidateWrite(addr);
        ++stats_.predecode_invalidations;
    }
    if (page_gens_)
        page_gens_->noteWrite(addr, 2);
    traceAccess(addr, value, AccessKind::Write, false);
}

void
Bus::write8(std::uint16_t addr, std::uint8_t value)
{
    RegionKind region = regionOf(addr, config_.sramEnd());
    account(addr, region, AccessKind::Write);
    if (region == RegionKind::Mmio)
        mmio_.write(addr, value, now());
    else
        memory_.write8(addr, value);
    if (predecode_) {
        predecode_->invalidateWrite(addr);
        ++stats_.predecode_invalidations;
    }
    if (page_gens_)
        page_gens_->noteWrite(addr, 1);
    traceAccess(addr, value, AccessKind::Write, true);
}

} // namespace swapram::sim
