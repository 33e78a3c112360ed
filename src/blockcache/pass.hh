/**
 * @file
 * Basic-block transformation pass for the Miller-style block cache
 * (paper §4, Figure 6).
 *
 * Every function is sliced into basic blocks no larger than one cache
 * slot. Every control transfer is rewritten to enter the runtime
 * through a per-CFI entry stub that identifies the target block:
 *
 *   JMP t / BR #t      ->  CALL #__bb_e<k>            ; k targets block(t)
 *   Jcc t              ->  J!cc skip
 *                          CALL #__bb_e<k_taken>
 *                  skip:   CALL #__bb_e<k_fall>
 *   CALL #f            ->  PUSH #<next block>         ; virtual return addr
 *                          CALL #__bb_e<k_entry(f)>
 *   RET                ->  BR #__bb_ret               ; translate vret
 *   (fallthrough)      ->  CALL #__bb_e<k_next>
 *
 * The runtime pops the stub-call's return address to find the site for
 * chaining (rewriting the CALL in a cached copy into a direct branch to
 * the target's slot).
 */

#ifndef SWAPRAM_BLOCKCACHE_PASS_HH
#define SWAPRAM_BLOCKCACHE_PASS_HH

#include <string>
#include <vector>

#include "masm/ast.hh"
#include "blockcache/options.hh"

namespace swapram::bb {

/** One transformed block (for table generation). */
struct BlockInfo {
    std::string label;          ///< "__bbk_<id>", at the block start
    std::string size_expr;      ///< assembler expression for its size
};

/** Result of the transformation. */
struct TransformResult {
    masm::Program program;          ///< transformed app (no runtime yet)
    std::vector<BlockInfo> blocks;  ///< in address order
    std::vector<int> stub_target;   ///< stub k -> target block id
    int cond_sites = 0;
    int call_sites = 0;
    int ret_sites = 0;
};

/** Run the transformation over every .func in @p program. The
 *  program is taken by value (move it in; an lvalue is copied): its
 *  statements move into the result, and its spare capacity carries
 *  over to TransformResult::program. */
TransformResult transform(masm::Program program, const Options &options);

} // namespace swapram::bb

#endif // SWAPRAM_BLOCKCACHE_PASS_HH
