/**
 * @file
 * Absolute-branch relocation pass (paper §3.3.1, Figure 3/4).
 *
 * After the intermediate assembly (which performs the same jump
 * relaxation msp430-gcc would), every absolute branch `MOV #target, PC`
 * whose target lies inside its own function is rewritten to read its
 * destination from a relocation value cell: `MOV &__swp_rval+2k, PC`.
 * The runtime sets rval[k] = sramBase + (target - fnBase) when the
 * function is cached, and resets it to the NVM target on eviction, so
 * the branch stays within whichever copy is executing.
 *
 * Both instruction forms are two words, so this rewrite never changes
 * code layout — which is what makes the intermediate binary's sizes
 * authoritative for the final build.
 */

#ifndef SWAPRAM_SWAPRAM_RELOC_HH
#define SWAPRAM_SWAPRAM_RELOC_HH

#include <cstdint>
#include <vector>

#include "masm/assembler.hh"
#include "swapram/pass.hh"

namespace swapram::cache {

/** One relocatable branch. */
struct RelocEntry {
    int func_id;          ///< owning function
    std::uint16_t offset; ///< target - function base
    std::uint16_t target; ///< absolute NVM target (initial cell value)
};

/** Result of the relocation pass. */
struct RelocResult {
    masm::Program program; ///< rewritten (still layout-identical)
    /** All entries, grouped contiguously by func_id in id order. */
    std::vector<RelocEntry> entries;
    /** Per-function first index into `entries` (size = nfuncs + 1). */
    std::vector<int> func_first;

    int
    relocCount(int func_id) const
    {
        return func_first[func_id + 1] - func_first[func_id];
    }
};

/** Run the pass over an intermediate assembly of the instrumented
 *  program. The rewrite takes over inter.relaxed (left empty); the
 *  rest of @p inter is only read. */
RelocResult relocateBranches(masm::AssembleResult &inter,
                             const FuncIds &funcs);

} // namespace swapram::cache

#endif // SWAPRAM_SWAPRAM_RELOC_HH
