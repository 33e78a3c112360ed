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

constexpr std::uint32_t kNone = UINT32_MAX;
constexpr std::uint32_t kTop = 0x10000; ///< one past the address space

/** The word addresses base, base + 2, ... of a copy's n steps. */
struct Steps {
    std::uint32_t base;
    std::uint32_t n;

    /** The first step address in [lo, hi), or kNone. */
    std::uint32_t
    first(std::uint32_t lo, std::uint32_t hi) const
    {
        lo = std::max(lo, base);
        std::uint32_t a = base + ((lo - base + 1) & ~1u);
        return a < std::min(hi, base + 2 * n) ? a : kNone;
    }

    /** The last step address in [lo, hi), or kNone. */
    std::uint32_t
    last(std::uint32_t lo, std::uint32_t hi) const
    {
        hi = std::min(hi, base + 2 * n);
        if (hi <= std::max(lo, base))
            return kNone;
        std::uint32_t a = base + ((hi - 1 - base) & ~1u);
        return a >= lo ? a : kNone;
    }

    /** The first step address in [lo, hi) outside [ex_lo, ex_hi). */
    std::uint32_t
    firstOutside(std::uint32_t lo, std::uint32_t hi, std::uint32_t ex_lo,
                 std::uint32_t ex_hi) const
    {
        std::uint32_t a = first(lo, std::min(hi, ex_lo));
        return a != kNone ? a : first(std::max(lo, ex_hi), hi);
    }
};

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

SwapTimeline::Extents
SwapTimeline::classifyCopy() const
{
    // Step i reads copy_src_ + 2i and then writes copy_dst_ + 2i. The
    // source register advances in the instruction that writes, so the
    // distance it moved counts the words copied exactly, wherever an
    // interrupt or the end of the run cut the episode.
    const std::uint32_t words =
        static_cast<std::uint16_t>(copy_src_end_ - copy_src_) / 2u;
    const Steps reads{copy_src_, words};
    const Steps writes{copy_dst_, words};
    // The pool is [pool_base_, cache_end_); none when pool_base_ is 0.
    const std::uint32_t pool_lo = pool_base_ ? pool_base_ : kTop;
    const std::uint32_t pool_hi = pool_base_ ? cache_end_ : kTop;

    Extents x;
    std::uint32_t first_pool = reads.first(pool_lo, pool_hi);
    x.read_pool = first_pool != kNone;
    if (x.read_pool)
        x.pool_src = static_cast<std::uint16_t>(first_pool);
    std::uint32_t src = reads.firstOutside(0, kTop, pool_lo, pool_hi);
    if (src != kNone)
        x.src_addr = static_cast<std::uint16_t>(src);
    // The function holding the first read in read order (the first
    // registered one on overlap).
    std::uint32_t best = kNone;
    for (std::size_t i = 0; i < funcs_.size(); ++i) {
        const Func &f = funcs_[i];
        std::uint32_t a = reads.firstOutside(
            f.addr, static_cast<std::uint32_t>(f.addr) + f.size, pool_lo,
            pool_hi);
        if (a < best) {
            best = a;
            x.src_func = i;
        }
    }

    auto span = [](const Steps &steps, std::uint32_t lo,
                   std::uint32_t hi) {
        Span out;
        std::uint32_t a = steps.first(lo, hi);
        if (a != kNone) {
            out.lo = a;
            out.hi = steps.last(lo, hi) + 2;
        }
        return out;
    };
    x.pool_dst = span(writes, pool_lo, pool_hi);
    x.code_dst = span(writes, cache_base_, codeEnd());
    if (x.read_pool) {
        // Writes from the first pool read on that land outside the
        // cache region (code cache and pool alike).
        const std::uint32_t k = (first_pool - reads.base) / 2;
        const Steps tail{writes.base + 2 * k, words - k};
        const std::uint32_t ex_lo = std::min(cache_base_, pool_base_);
        std::uint32_t lo = tail.firstOutside(0, kTop, ex_lo, cache_end_);
        if (lo != kNone) {
            std::uint32_t hi = tail.last(cache_end_, kTop);
            if (hi == kNone)
                hi = tail.last(0, ex_lo);
            x.home_dst = {lo, hi + 2};
        }
    }
    return x;
}

void
SwapTimeline::finishCopy(std::uint64_t cycle)
{
    in_copy_ = false;
    const Extents x = classifyCopy();
    // Data-pool episodes (__swp_din/__swp_dout drive the same memcpy):
    // writes into the pool are a swap-in from the FRAM home; pool reads
    // paired with writes outside the cache are the write-back. Neither
    // touches the code-residency tracking.
    if (x.pool_dst.size()) {
        derive({cycle, EventKind::DataSwapIn, 0,
                static_cast<std::uint16_t>(x.pool_dst.lo), x.src_addr,
                x.pool_dst.size()});
        ++summary_.data_swap_ins;
        summary_.data_bytes_copied += x.pool_dst.size();
        return;
    }
    if (x.read_pool && x.home_dst.size()) {
        derive({cycle, EventKind::DataSwapOut, 0, x.pool_src,
                static_cast<std::uint16_t>(x.home_dst.lo),
                x.home_dst.size()});
        ++summary_.data_swap_outs;
        summary_.data_bytes_copied += x.home_dst.size();
        return;
    }
    if (!x.code_dst.size())
        return; // copy loop ran but wrote nothing into the cache
    std::uint16_t dst = static_cast<std::uint16_t>(x.code_dst.lo);
    std::uint32_t end = x.code_dst.hi;
    std::uint32_t bytes = end - dst;
    std::uint16_t nvm =
        x.src_func != SIZE_MAX ? funcs_[x.src_func].addr : 0;

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

    resident_.push_back({dst, end, x.src_func});
    if (profiler_)
        profiler_->mapResident(dst, bytes, nvm);
    derive({cycle, EventKind::CopyIn, 0, dst, nvm, bytes});
    ++summary_.copy_ins;
    summary_.bytes_copied += bytes;
    ++copies_this_miss_;
    sample(cycle);
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
        copy_src_ = copy_src_end_ = copy_dst_ = 0; // until CopyBegin
    }
}

void
SwapTimeline::event(const Event &event)
{
    switch (event.kind) {
      case EventKind::OwnerChange:
        ownerChange(event);
        return;
      case EventKind::CopyBegin:
        if (event.byte) {
            call_src_ = event.value;
            call_dst_ = event.addr;
        }
        copy_src_ = copy_src_end_ = event.value;
        copy_dst_ = static_cast<std::uint16_t>(
            call_dst_ + (event.value - call_src_));
        return;
      case EventKind::CopyEnd:
        copy_src_end_ = event.value;
        return;
      case EventKind::PowerFail: {
        // SRAM is gone: drop all residency, abandon any half-tracked
        // miss or copy episode, and mark the reboot in the timeline.
        in_miss_ = false;
        in_data_ = false;
        in_copy_ = false;
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

void
SwapTimeline::finish()
{
    if (in_copy_)
        finishCopy(occupancy_.empty() ? 0 : occupancy_.back().cycle);
}

} // namespace swapram::trace
