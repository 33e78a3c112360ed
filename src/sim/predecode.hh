/**
 * @file
 * Predecode cache, the oracle tier's decode cache (a fast-tier run
 * has none): a direct-mapped cache of decoded instructions keyed by
 * PC, so single-step simulation skips decodeShape() / decodeWords() /
 * baseCycles() and replays only the bus fetches (which carry all
 * timing and statistics side effects).
 *
 * Correctness rests on invalidation: SwapRAM copies code into SRAM at
 * runtime, so any bus write must kill cached decodes whose words the
 * write could overlap. PCs are word-aligned and an instruction spans at
 * most three words, so a write to byte `addr` can only affect the
 * instructions starting at the three word slots at and below `addr` —
 * invalidation is three stores. Writes that bypass the bus
 * (Machine::load, Machine::powerCycle's SRAM decay + crt0 re-copy) must
 * call invalidateAll().
 *
 * The cache holds one slot per word of the 64 KiB address space, so
 * the slot index *is* the PC (no tags, no aliasing, no replacement).
 * MMIO-resident "instructions" are never cached: device reads are
 * time-dependent, so those fetches always decode fresh.
 */

#ifndef SWAPRAM_SIM_PREDECODE_HH
#define SWAPRAM_SIM_PREDECODE_HH

#include <cstdint>
#include <vector>

#include "isa/instruction.hh"

namespace swapram::sim {

/** Direct-mapped decoded-instruction cache (one slot per word). */
class PredecodeCache
{
  public:
    /** One cached decode; `n_words` == 0 marks the slot invalid. */
    struct Entry {
        isa::Instr instr{};
        std::uint8_t n_words = 0;     ///< 1..3 fetched words
        std::uint8_t base_cycles = 0; ///< isa::baseCycles(instr)
    };

    PredecodeCache() : slots_(kSlots) {}

    /** Cached entry for @p pc, or nullptr on miss. */
    const Entry *
    find(std::uint16_t pc) const
    {
        const Entry &e = slots_[pc >> 1];
        return e.n_words ? &e : nullptr;
    }

    /** Record the decode of the @p n_words-word instruction at @p pc. */
    void
    insert(std::uint16_t pc, const isa::Instr &instr,
           std::uint8_t n_words, std::uint8_t base_cycles)
    {
        Entry &e = slots_[pc >> 1];
        e.instr = instr;
        e.n_words = n_words;
        e.base_cycles = base_cycles;
    }

    /**
     * A bus write touched @p addr (and, for word writes, @p addr + 1):
     * drop any cached instruction whose fetched words could include it.
     * Word-aligned starts within 6 bytes below the write are exactly
     * the slot of @p addr and the two slots before it.
     */
    void
    invalidateWrite(std::uint16_t addr)
    {
        std::uint32_t s = addr >> 1;
        slots_[s].n_words = 0;
        slots_[(s + kSlots - 1) & (kSlots - 1)].n_words = 0;
        slots_[(s + kSlots - 2) & (kSlots - 1)].n_words = 0;
    }

    /** Drop every cached decode (image load, power cycle). */
    void
    invalidateAll()
    {
        for (Entry &e : slots_)
            e.n_words = 0;
    }

  private:
    /** One slot per word-aligned PC: 64 KiB / 2. */
    static constexpr std::uint32_t kSlots = 32768;

    std::vector<Entry> slots_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_PREDECODE_HH
