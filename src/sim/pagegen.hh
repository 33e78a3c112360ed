/**
 * @file
 * Write-generation table backing block-cache invalidation.
 *
 * The address space is divided into small pages; every store bumps the
 * generation of the page(s) it touches, and every built block
 * snapshots the generations of the pages its scan read (its code and
 * the word that stopped it). A block whose snapshot no longer matches
 * may have been overwritten — SwapRAM copy-ins, self-modifying
 * stores, or plain data writes that share a page with code — and is
 * revalidated by its bytes before dispatch, else rebuilt.
 *
 * In front of the generations sits a code-write epoch: one byte per
 * page marks that a stamped block spans it, and a store to a marked
 * page clears the mark and advances the epoch (so does bumpAll()). A
 * block whose recorded epoch is still current has had no store on any
 * of its pages and needs no generation compare; the epoch moves only
 * when code (or a word beside it) is written, which most stores never
 * are. It is also what lets the threaded tier cache successor pointers
 * between lowered blocks: a pointer recorded under the current epoch
 * names code no rebuild has dropped (sim/threaded.hh).
 *
 * It is a fast-tier run's one store duty: the Bus calls noteWrite()
 * for its single steps, the threaded tier for direct stores, and
 * writers that bypass both (Machine::load, powerCycle's crt0 re-copy)
 * call bumpAll(), which advances a global generation checked first.
 */

#ifndef SWAPRAM_SIM_PAGEGEN_HH
#define SWAPRAM_SIM_PAGEGEN_HH

#include <array>
#include <cstdint>

namespace swapram::sim {

/** Per-page write generations over the 64 KiB address space. */
class PageGenTable
{
  public:
    /** Page granularity: 64-byte pages, 1024 of them. Small enough
     *  that data writes rarely alias code pages, large enough that a
     *  block's segment (≤ kMaxScanBytes) spans at most three. */
    static constexpr unsigned kPageShift = 6;
    static constexpr std::uint32_t kPages = 0x10000u >> kPageShift;

    static constexpr std::uint16_t
    pageOf(std::uint16_t addr)
    {
        return static_cast<std::uint16_t>(addr >> kPageShift);
    }

    /** A store of @p bytes bytes landed at @p addr. */
    void
    noteWrite(std::uint16_t addr, unsigned bytes)
    {
        std::uint16_t first = pageOf(addr);
        std::uint16_t last =
            pageOf(static_cast<std::uint16_t>(addr + bytes - 1));
        ++gen_[first];
        if (last != first)
            ++gen_[last];
        if (code_[first] | code_[last]) {
            code_[first] = code_[last] = 0;
            ++code_epoch_;
        }
    }

    /** Memory changed wholesale behind the bus (load, power cycle). */
    void
    bumpAll()
    {
        ++global_;
        ++code_epoch_;
    }

    /** A block stamped now spans @p page: the next store there must
     *  advance the code epoch. */
    void markCode(std::uint16_t page) { code_[page] = 1; }

    std::uint64_t globalGen() const { return global_; }
    std::uint64_t pageGen(std::uint16_t page) const { return gen_[page]; }
    /** Advances on every store to a marked page and on bumpAll(). */
    std::uint64_t codeEpoch() const { return code_epoch_; }

  private:
    std::array<std::uint64_t, kPages> gen_{};
    std::uint64_t global_ = 0;
    std::uint64_t code_epoch_ = 0;
    std::array<std::uint8_t, kPages> code_{}; ///< 1 = a block spans it
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_PAGEGEN_HH
