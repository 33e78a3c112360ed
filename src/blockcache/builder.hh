/**
 * @file
 * Block-cache build orchestration: split functions into basic blocks,
 * rewrite every control-flow instruction per the paper's Figure 6,
 * generate per-CFI runtime entry stubs and the hash-table runtime, and
 * assemble the result.
 */

#ifndef SWAPRAM_BLOCKCACHE_BUILDER_HH
#define SWAPRAM_BLOCKCACHE_BUILDER_HH

#include <cstdint>
#include <string>

#include "masm/assembler.hh"
#include "blockcache/options.hh"

namespace swapram::bb {

/** Everything produced by a block-cache build. */
struct BuildInfo {
    masm::AssembleResult assembled;

    int n_blocks = 0;
    int n_stubs = 0; ///< per-CFI runtime entry points

    // Static size accounting (Figure 7).
    std::uint32_t app_text_bytes = 0;  ///< transformed application code
    std::uint32_t runtime_bytes = 0;   ///< miss + return handlers
    std::uint32_t metadata_bytes = 0;  ///< stubs + block tables + hash

    // Owner attribution (Figure 8): the whole runtime (handlers +
    // stubs) counts as Handler; the copy loop as Memcpy.
    std::uint16_t runtime_addr = 0, runtime_end = 0;
    std::uint16_t memcpy_addr = 0, memcpy_end = 0;

    // Boot-recovery routine range (Stats::recovery_cycles attribution).
    std::uint16_t recover_addr = 0, recover_end = 0;

    // Checkpoint routines __ckpt_memcpy/__ckpt_commit/__ckpt_restore
    // (zero when the scheme is None); attributed to Handler.
    std::uint16_t ckpt_addr = 0, ckpt_end = 0;
};

/** Build a block-cache-enabled binary from an application program.
 *  The program is taken by value (move it in; an lvalue is copied):
 *  its statements move through the pass into
 *  BuildInfo::assembled.relaxed. */
BuildInfo build(masm::Program app, const masm::LayoutSpec &layout,
                const Options &options);

} // namespace swapram::bb

#endif // SWAPRAM_BLOCKCACHE_BUILDER_HH
