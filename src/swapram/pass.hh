/**
 * @file
 * SwapRAM static instrumentation pass (paper §3.2, Figure 3).
 *
 * For every `CALL #f` whose target f is a non-blacklisted .func, the
 * pass emits:
 *
 *     ADD #1, &__swp_active+2*id(f)   ; call-stack integrity counter
 *     MOV #2*id(f), &__swp_curid      ; signal funcId to the runtime
 *     CALL &__swp_redirect+2*id(f)    ; indirect call through the cell
 *     SUB #1, &__swp_active+2*id(f)
 *
 * The redirect cell initially holds the miss handler's address; the
 * runtime points it at the SRAM copy once f is cached, so later calls
 * bypass the runtime entirely (§3.3).
 *
 * The pass also rewrites PC-relative (symbolic) data operands to
 * absolute mode inside instrumented functions, which is what makes the
 * copied code position-independent apart from the absolute branches
 * handled by the relocation pass.
 */

#ifndef SWAPRAM_SWAPRAM_PASS_HH
#define SWAPRAM_SWAPRAM_PASS_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "masm/ast.hh"
#include "swapram/options.hh"

namespace swapram::cache {

/** Stable mapping from cacheable function name to funcId. */
struct FuncIds {
    std::vector<std::string> names; ///< id -> name, in program order
    std::unordered_map<std::string, int> ids;

    bool
    contains(const std::string &name) const
    {
        return ids.find(name) != ids.end();
    }
    int count() const { return static_cast<int>(names.size()); }
};

/** Enumerate cacheable (non-blacklisted) functions of @p program. */
FuncIds collectFunctions(const masm::Program &program,
                         const Options &options);

/** Statistics about what the pass changed. */
struct PassStats {
    int call_sites_instrumented = 0;
    int symbolic_operands_absolutized = 0;
    /** `CALL #__data_swap_in/out` sites rewired to the runtime pool. */
    int data_swap_calls_retargeted = 0;
};

/** Apply the instrumentation; returns the transformed program. The
 *  program is taken by value (move it in; an lvalue is copied) and
 *  rewritten in place: its statements move, none is copied, and its
 *  spare capacity carries over. */
masm::Program instrumentCalls(masm::Program program, const FuncIds &funcs,
                              const Options &options,
                              PassStats *stats = nullptr);

} // namespace swapram::cache

#endif // SWAPRAM_SWAPRAM_PASS_HH
