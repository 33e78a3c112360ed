/**
 * @file
 * Structured trace events shared by every layer of the simulator.
 *
 * An Event is a small POD stamped with the total-cycle time at which it
 * occurred. Primitive events (instruction retire, bus access, FRAM
 * stall, hardware-cache hit/miss, interrupt entry, code-owner change,
 * the copy routine's registers on entry and exit) are emitted by
 * sim::Bus and sim::Machine; derived SwapRAM runtime events
 * (miss-handler span, function copy-in, eviction) are reconstructed
 * from the primitive stream by trace::SwapTimeline and re-emitted
 * under Category::Swap.
 */

#ifndef SWAPRAM_TRACE_EVENT_HH
#define SWAPRAM_TRACE_EVENT_HH

#include <cstdint>
#include <string>

namespace swapram::trace {

/** Coarse event class, used as a filtering bitmask. */
enum Category : std::uint32_t {
    kCatInstr = 1u << 0,     ///< instruction retire
    kCatAccess = 1u << 1,    ///< every bus access (fetch/read/write)
    kCatStall = 1u << 2,     ///< FRAM wait-state / contention stalls
    kCatHwCache = 1u << 3,   ///< hardware read-cache hits and misses
    kCatInterrupt = 1u << 4, ///< interrupt entries
    kCatSwap = 1u << 5,      ///< cache-runtime events (owner changes,
                             ///< copy registers, miss spans, copy-ins,
                             ///< evictions)
    kCatPower = 1u << 6,     ///< power failures and boot recovery
    kCatAll = (1u << 7) - 1,
    kCatNone = 0,
    /** Emitted for every instruction or bus access: only the
     *  single-step oracle produces them, so wanting any of them keeps
     *  the whole run off the fast tier. */
    kCatPerStep = kCatInstr | kCatAccess | kCatStall | kCatHwCache,
};

/** Fine-grained event type. */
enum class EventKind : std::uint8_t {
    // Primitive events (emitted by the machine model).
    InstrRetire,    ///< addr=pc, value=base cycles, extra=stall cycles
    Fetch,          ///< addr, value = word fetched
    Read,           ///< addr, value = word/byte read
    Write,          ///< addr, value = word/byte written
    FramStall,      ///< addr, extra = stall cycles charged
    HwCacheHit,     ///< addr
    HwCacheMiss,    ///< addr
    InterruptEnter, ///< addr = vector address
    OwnerChange,    ///< addr = pc, value = new sim::CodeOwner,
                    ///< extra = previous owner
    CopyBegin,      ///< the copy routine (Memcpy owner) is entered,
                    ///< right after its OwnerChange: addr = dst,
                    ///< value = src, extra = byte count registers;
                    ///< byte = 1 at the routine's entry (a new
                    ///< call), 0 on a return into its loop
    CopyEnd,        ///< the copy routine is left, right before its
                    ///< OwnerChange or at the end of the run (not at
                    ///< a power failure): addr = pc, value = src

    // Derived SwapRAM runtime events (emitted by SwapTimeline).
    MissEnter, ///< addr = faulting call site pc
    MissExit,  ///< extra = handler cycles, value = copies this miss
    CopyIn,    ///< addr = SRAM dst, value = FRAM src, extra = bytes
    Evict,     ///< addr = SRAM base of evicted range, value = FRAM
               ///< home of the evicted function, extra = bytes
    DataSwapIn,  ///< addr = pool dst, value = FRAM home, extra = bytes
    DataSwapOut, ///< addr = pool src, value = FRAM home, extra = bytes

    // Intermittent execution (emitted by the machine model).
    PowerFail,     ///< addr = pc at failure, value = reboot ordinal
    RecoveryEnter, ///< addr = pc entering the boot-recovery routine
    RecoveryExit,  ///< addr = pc after recovery, extra = cycles spent
    CkptCommit,    ///< addr = __ckpt_commit entry pc
    CkptRestore,   ///< addr = __ckpt_restore entry pc
};

/** Category an event kind belongs to. */
Category categoryOf(EventKind kind);

/** Short stable name ("retire", "copy-in", ...). */
const char *kindName(EventKind kind);

/** Parse a category list like "instr,swap,stall"; fatal()s on junk,
 *  naming @p flag (the option the list came from) when given. */
std::uint32_t parseCategories(const std::string &list,
                              const std::string &flag = "");

/** Comma-separated names of the categories set in @p mask. */
std::string categoryNames(std::uint32_t mask);

/** One trace record. */
struct Event {
    std::uint64_t cycle = 0; ///< Stats::totalCycles() at emission
    EventKind kind = EventKind::InstrRetire;
    std::uint8_t byte = 0;   ///< byte-sized access (Fetch/Read/Write);
                             ///< new call (CopyBegin)
    std::uint16_t addr = 0;  ///< primary address / pc
    std::uint16_t value = 0; ///< kind-specific payload
    std::uint32_t extra = 0; ///< kind-specific payload

    Category category() const { return categoryOf(kind); }
};

} // namespace swapram::trace

#endif // SWAPRAM_TRACE_EVENT_HH
