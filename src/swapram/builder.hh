/**
 * @file
 * SwapRAM build orchestration (paper §4): instrument calls ->
 * intermediate assembly (sizing + relaxation) -> relocate absolute
 * branches -> generate the runtime -> final assembly.
 */

#ifndef SWAPRAM_SWAPRAM_BUILDER_HH
#define SWAPRAM_SWAPRAM_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "masm/assembler.hh"
#include "swapram/options.hh"
#include "swapram/pass.hh"
#include "swapram/reloc.hh"

namespace swapram::cache {

/** Everything produced by a SwapRAM build. */
struct BuildInfo {
    masm::AssembleResult assembled; ///< final, loadable program

    FuncIds funcs;
    PassStats pass_stats;
    int reloc_count = 0;

    // Static size accounting for Figure 7 / §5.2.
    std::uint32_t app_text_bytes = 0;     ///< transformed application code
    std::uint32_t runtime_text_bytes = 0; ///< miss handler + memcpy
    std::uint32_t metadata_bytes = 0;     ///< tables and cells in FRAM
    std::uint32_t handler_bytes = 0;      ///< miss handler alone (§5.2)

    // Owner attribution ranges for Figure 8.
    std::uint16_t handler_addr = 0, handler_end = 0;
    std::uint16_t memcpy_addr = 0, memcpy_end = 0;

    // Boot-recovery routine range (Stats::recovery_cycles attribution).
    std::uint16_t recover_addr = 0, recover_end = 0;

    // Data-pool routines __swp_din/__swp_dout (zero when no pool);
    // attributed to Handler like the miss path they parallel.
    std::uint16_t datapool_addr = 0, datapool_end = 0;

    // Checkpoint routines __ckpt_commit/__ckpt_restore (zero when the
    // scheme is None); attributed to Handler.
    std::uint16_t ckpt_addr = 0, ckpt_end = 0;

    std::uint32_t
    totalNvmBytes() const
    {
        return app_text_bytes + runtime_text_bytes + metadata_bytes;
    }
};

/**
 * Build a SwapRAM-enabled binary from an application program.
 * @p layout must be the placement the final image will be loaded with
 * (the intermediate sizing pass uses the same one). The program is
 * taken by value (move it in; an lvalue is copied): its statements
 * move through the passes into BuildInfo::assembled.relaxed, and spare
 * capacity in its statement vector takes the runtime without regrowth.
 */
BuildInfo build(masm::Program app, const masm::LayoutSpec &layout,
                const Options &options);

} // namespace swapram::cache

#endif // SWAPRAM_SWAPRAM_BUILDER_HH
