#include "trace/swap_timeline.hh"

#include <algorithm>

#include "sim/stats.hh"
#include "support/logging.hh"
#include "trace/profile.hh"

namespace swapram::trace {

namespace {

constexpr std::uint8_t kHandler =
    static_cast<std::uint8_t>(sim::CodeOwner::Handler);
constexpr std::uint8_t kMemcpy =
    static_cast<std::uint8_t>(sim::CodeOwner::Memcpy);

bool
isRuntime(std::uint8_t owner)
{
    return owner == kHandler || owner == kMemcpy;
}

} // namespace

SwapTimeline::SwapTimeline(std::uint16_t cache_base,
                           std::uint16_t cache_end)
    : cache_base_(cache_base), cache_end_(cache_end)
{
}

void
SwapTimeline::addFunction(const std::string &name, std::uint16_t addr,
                          std::uint16_t size)
{
    funcs_.push_back({name, addr, size});
}

const SwapTimeline::Func *
SwapTimeline::functionAt(std::uint16_t addr) const
{
    for (const Func &f : funcs_) {
        if (addr >= f.addr &&
            addr < static_cast<std::uint32_t>(f.addr) + f.size)
            return &f;
    }
    return nullptr;
}

void
SwapTimeline::derive(Event event)
{
    SwapEvent record;
    record.kind = event.kind;
    record.cycle = event.cycle;
    switch (event.kind) {
      case EventKind::MissEnter:
        record.cache_addr = event.addr;
        break;
      case EventKind::MissExit:
        record.handler_cycles = event.extra;
        break;
      case EventKind::CopyIn:
      case EventKind::Evict: {
        record.cache_addr = event.addr;
        record.nvm_addr = event.value;
        record.bytes = event.extra;
        if (const Func *f = functionAt(event.value))
            record.func = f->name;
        break;
      }
      case EventKind::DataSwapIn:
      case EventKind::DataSwapOut:
        record.cache_addr = event.addr;
        record.nvm_addr = event.value;
        record.bytes = event.extra;
        break;
      default: support::panic("SwapTimeline::derive: bad kind");
    }
    events_.push_back(std::move(record));
    if (engine_)
        engine_->emit(event);
}

void
SwapTimeline::sample(std::uint64_t cycle)
{
    OccupancySample s;
    s.cycle = cycle;
    for (const Resident &r : resident_)
        s.resident_bytes += r.end - r.base;
    s.resident_functions = static_cast<int>(resident_.size());
    summary_.peak_resident_bytes =
        std::max(summary_.peak_resident_bytes, s.resident_bytes);
    occupancy_.push_back(s);
}

void
SwapTimeline::finishCopy(std::uint64_t cycle)
{
    in_copy_ = false;
    // Data-pool episodes (__swp_din/__swp_dout drive the same memcpy):
    // writes into the pool are a swap-in from the FRAM home; pool reads
    // paired with writes outside the cache are the write-back. Neither
    // touches the code-residency tracking.
    if (pool_base_ && pool_dst_max_ > pool_dst_min_) {
        derive({cycle, EventKind::DataSwapIn, 0, pool_dst_min_,
                copy_src_addr_, pool_dst_max_ - pool_dst_min_});
        ++summary_.data_swap_ins;
        summary_.data_bytes_copied += pool_dst_max_ - pool_dst_min_;
        resetCopy();
        return;
    }
    if (pool_base_ && copy_read_pool_ && home_dst_max_ > home_dst_min_) {
        derive({cycle, EventKind::DataSwapOut, 0, pool_src_,
                home_dst_min_, home_dst_max_ - home_dst_min_});
        ++summary_.data_swap_outs;
        summary_.data_bytes_copied += home_dst_max_ - home_dst_min_;
        resetCopy();
        return;
    }
    if (copy_dst_max_ <= copy_dst_min_) {
        resetCopy();
        return; // copy loop ran but wrote nothing into the cache
    }
    std::uint16_t dst = copy_dst_min_;
    std::uint32_t end = copy_dst_max_;
    std::uint32_t bytes = end - dst;
    std::uint16_t nvm =
        copy_src_func_ != SIZE_MAX ? funcs_[copy_src_func_].addr : 0;

    // Overlap eviction (§3.4): any resident function the new body
    // lands on is evicted whole.
    for (auto it = resident_.begin(); it != resident_.end();) {
        if (it->base < end && dst < it->end) {
            std::uint16_t evicted_nvm =
                it->func != SIZE_MAX ? funcs_[it->func].addr : 0;
            derive({cycle, EventKind::Evict, 0, it->base, evicted_nvm,
                    it->end - it->base});
            ++summary_.evictions;
            if (profiler_)
                profiler_->unmapResident(it->base);
            it = resident_.erase(it);
        } else {
            ++it;
        }
    }

    resident_.push_back({dst, end, copy_src_func_});
    if (profiler_)
        profiler_->mapResident(dst, bytes, nvm);
    derive({cycle, EventKind::CopyIn, 0, dst, nvm, bytes});
    ++summary_.copy_ins;
    summary_.bytes_copied += bytes;
    ++copies_this_miss_;
    sample(cycle);

    resetCopy();
}

void
SwapTimeline::resetCopy()
{
    copy_src_func_ = SIZE_MAX;
    copy_dst_min_ = 0xFFFF;
    copy_dst_max_ = 0;
    copy_src_addr_ = 0;
    copy_read_pool_ = false;
    pool_src_ = 0;
    pool_dst_min_ = 0xFFFF;
    pool_dst_max_ = 0;
    home_dst_min_ = 0xFFFF;
    home_dst_max_ = 0;
}

void
SwapTimeline::ownerChange(const Event &event)
{
    std::uint8_t prev = static_cast<std::uint8_t>(event.extra & 0xFF);
    std::uint8_t next = static_cast<std::uint8_t>(event.value & 0xFF);

    if (in_copy_ && next != kMemcpy)
        finishCopy(event.cycle);

    if (!in_miss_ && !in_data_ && isRuntime(next)) {
        if (routine_end_ && event.addr >= routine_base_ &&
            event.addr < routine_end_) {
            // Entered through __swp_din/__swp_dout: a data-swap call,
            // not a function miss.
            in_data_ = true;
            return;
        }
        in_miss_ = true;
        miss_begin_ = event.cycle;
        miss_site_ = event.addr;
        copies_this_miss_ = 0;
        ++summary_.misses;
        derive({event.cycle, EventKind::MissEnter, 0, event.addr, 0, 0});
    } else if (in_data_) {
        if (!isRuntime(next))
            in_data_ = false;
        // fall through: the memcpy-start tracking below still applies
    } else if (in_miss_ && !isRuntime(next)) {
        in_miss_ = false;
        std::uint64_t span = event.cycle - miss_begin_;
        summary_.handler_cycles += span;
        derive({event.cycle, EventKind::MissExit, 0, miss_site_,
                static_cast<std::uint16_t>(copies_this_miss_),
                static_cast<std::uint32_t>(span)});
    }
    (void)prev;

    if (next == kMemcpy && !in_copy_) {
        in_copy_ = true;
        resetCopy();
    }
}

void
SwapTimeline::event(const Event &event)
{
    switch (event.kind) {
      case EventKind::OwnerChange:
        ownerChange(event);
        return;
      case EventKind::Read:
        if (!in_copy_)
            return;
        if (inPool(event.addr)) {
            // Pool reads mark the episode as a write-back.
            if (!copy_read_pool_) {
                copy_read_pool_ = true;
                pool_src_ = event.addr;
            }
            return;
        }
        if (copy_src_addr_ == 0)
            copy_src_addr_ = event.addr;
        // The first FRAM read inside a known function range while the
        // copy loop runs identifies the function being cached.
        if (copy_src_func_ == SIZE_MAX) {
            for (std::size_t i = 0; i < funcs_.size(); ++i) {
                const Func &f = funcs_[i];
                if (event.addr >= f.addr &&
                    event.addr <
                        static_cast<std::uint32_t>(f.addr) + f.size) {
                    copy_src_func_ = i;
                    break;
                }
            }
        }
        return;
      case EventKind::Write: {
        if (!in_copy_)
            return;
        std::uint32_t end = static_cast<std::uint32_t>(event.addr) +
                            (event.byte ? 1u : 2u);
        if (inPool(event.addr)) {
            pool_dst_min_ = std::min(pool_dst_min_, event.addr);
            pool_dst_max_ = std::max(pool_dst_max_, end);
        } else if (event.addr >= cache_base_ &&
                   event.addr < codeEnd()) {
            copy_dst_min_ = std::min(copy_dst_min_, event.addr);
            copy_dst_max_ = std::max(copy_dst_max_, end);
        } else if (copy_read_pool_) {
            // Pool-sourced writes land at the FRAM home: write-back.
            home_dst_min_ = std::min(home_dst_min_, event.addr);
            home_dst_max_ = std::max(home_dst_max_, end);
        }
        return;
      }
      case EventKind::PowerFail: {
        // SRAM is gone: drop all residency, abandon any half-tracked
        // miss or copy episode, and mark the reboot in the timeline.
        in_miss_ = false;
        in_data_ = false;
        in_copy_ = false;
        resetCopy();
        if (profiler_) {
            for (const Resident &r : resident_)
                profiler_->unmapResident(r.base);
        }
        resident_.clear();
        ++summary_.power_failures;
        SwapEvent record;
        record.kind = event.kind;
        record.cycle = event.cycle;
        record.cache_addr = event.addr; // pc at the moment of failure
        events_.push_back(std::move(record));
        sample(event.cycle);
        return;
      }
      case EventKind::RecoveryExit: {
        summary_.recovery_cycles += event.extra;
        SwapEvent record;
        record.kind = event.kind;
        record.cycle = event.cycle;
        record.handler_cycles = event.extra; // recovery span length
        events_.push_back(std::move(record));
        return;
      }
      case EventKind::CkptCommit:
        ++summary_.ckpt_commits;
        return;
      case EventKind::CkptRestore:
        ++summary_.ckpt_restores;
        return;
      default:
        return; // derived kinds (our own re-emissions) and others
    }
}

Scope
SwapTimeline::scope() const
{
    // event() reads Read/Write only while in_copy_, i.e. while the
    // copy loop (the Memcpy owner) executes, and never reads Fetch.
    return {kCatAccess, 1u << kMemcpy};
}

void
SwapTimeline::finish()
{
    if (in_copy_)
        finishCopy(occupancy_.empty() ? 0 : occupancy_.back().cycle);
}

} // namespace swapram::trace
