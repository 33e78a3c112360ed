#include "swapram/runtime_gen.hh"

#include <algorithm>
#include <functional>
#include <sstream>

#include "ckpt/gen.hh"
#include "support/logging.hh"

namespace swapram::cache {

namespace {

/**
 * Scan retries granted per miss once the first scan is blocked. Each
 * retry bumps the candidate past the blocking function, so a budget of
 * a few retries steps over every plausible cluster of active
 * functions; the bound keeps the handler's worst case finite on
 * pathological call stacks.
 */
constexpr int kEvictRetries = 8;

/** Emit one .word table with a value per function. */
void
emitTable(std::ostringstream &os, const char *label, const FuncIds &funcs,
          const std::function<std::string(int)> &value)
{
    os << label << ":\n";
    for (int id = 0; id < funcs.count(); ++id)
        os << "        .word " << value(id) << "\n";
    if (funcs.count() == 0)
        os << "        .word 0\n"; // keep the label addressable
}

} // namespace

ckpt::GenSpec
checkpointSpec(const FuncIds &funcs, const RelocResult &relocs,
               const Options &options,
               const ckpt::SectionSizes &sections)
{
    ckpt::GenSpec spec;
    spec.options = options.ckpt;
    spec.sections = sections;
    spec.memcpy_sym = "__swp_memcpy";
    spec.meta_begin = "__swp_meta_begin";
    // Byte size of the metadata bracket the generator emits: fixed
    // cells + save area + boot flag (+ freeze cells), the seven
    // per-function tables, both relocation tables, the gated eviction
    // and data-pool cells, and the staged register file. The builder
    // cross-checks this against the assembled
    // __swp_meta_begin/__swp_meta_end span.
    spec.meta_bytes =
        10 + 10 + 2 + (options.freeze_threshold > 0 ? 4u : 0u) +
        7u * 2u * static_cast<std::uint32_t>(std::max(funcs.count(), 1)) +
        2u * 2u * static_cast<std::uint32_t>(std::max(
                      static_cast<int>(relocs.entries.size()), 1)) +
        (options.evict ? 6u : 0u) +
        (options.data_pool_bytes ? 8u + 64u : 0u) + ckpt::kRegsBytes;
    return spec;
}

std::string
generateRuntimeAsm(const FuncIds &funcs, const RelocResult &relocs,
                   const Options &options,
                   const ckpt::SectionSizes &sections)
{
    std::ostringstream os;
    const int n = funcs.count();
    // The code cache ends where the data pool (if any) begins; every
    // placement bound below uses the shrunken region, so code swaps and
    // data swaps can never collide.
    const unsigned cache_size = options.cacheSize();
    const unsigned cache_base = options.cache_base;
    const unsigned cache_end = options.poolBase();
    const unsigned pool = options.data_pool_bytes;
    const unsigned pool_base = options.poolBase();
    unsigned slot_shift = 0; // log2(slot size); slot = pool / 16
    if (pool) {
        if (pool < 32 || (pool & (pool - 1)) != 0) {
            support::fatal("data pool must be a power of two >= 32 "
                           "bytes, got ", pool);
        }
        if (cache_end <= cache_base) {
            support::fatal("data pool (", pool,
                           " bytes) leaves no code cache in [",
                           options.cache_base, ", ", options.cache_end,
                           ")");
        }
        for (unsigned s = pool / 16; s > 1; s >>= 1)
            ++slot_shift;
    }
    // Shift-count emitters for the pool's power-of-two slot maths.
    auto shl = [&os](const char *reg, unsigned count) {
        for (unsigned i = 0; i < count; ++i)
            os << "        RLA " << reg << "\n";
    };
    auto shr = [&os](const char *reg, unsigned count) {
        for (unsigned i = 0; i < count; ++i)
            os << "        RRA " << reg << "\n";
    };

    const bool freeze = options.freeze_threshold > 0;

    // Checkpointing (ISSUE 8): everything is gated on the scheme, so
    // scheme None reproduces the pre-checkpoint runtime byte for byte.
    const bool ck = options.ckpt.enabled();
    ckpt::GenSpec ckspec = checkpointSpec(funcs, relocs, options,
                                          sections);

    os << "; ---- SwapRAM generated runtime (" << n << " functions, "
       << relocs.entries.size() << " relocatable branches) ----\n";
    os << "        .const\n        .align 2\n";
    if (ck)
        os << "__swp_meta_begin:\n";
    os << "__swp_curid:   .word 0\n";
    os << "__swp_tmp:     .word 0\n";
    os << "__swp_cand:    .word 0\n";
    os << "__swp_end:     .word 0\n";
    os << "__swp_tail:    .word " << cache_base << "\n";
    os << "__swp_save:    .space 10\n";
    os << "__swp_boot:    .word 0\n"; // set once; reboots see 1
    if (freeze) {
        os << "__swp_abort:   .word 0\n";
        os << "__swp_freeze:  .word 0\n";
    }

    emitTable(os, "__swp_redirect", funcs,
              [](int) { return std::string("__swp_miss"); });
    emitTable(os, "__swp_cached", funcs,
              [](int) { return std::string("0xFFFF"); });
    emitTable(os, "__swp_active", funcs,
              [](int) { return std::string("0"); });
    emitTable(os, "__swp_fsize", funcs, [&](int id) {
        return "__end_" + funcs.names[id] + " - " + funcs.names[id];
    });
    emitTable(os, "__swp_fnvm", funcs,
              [&](int id) { return funcs.names[id]; });
    emitTable(os, "__swp_rbase", funcs, [&](int id) {
        return std::to_string(2 * relocs.func_first[id]);
    });
    emitTable(os, "__swp_rcnt", funcs, [&](int id) {
        return std::to_string(relocs.relocCount(id));
    });

    os << "__swp_rofs:\n";
    for (const RelocEntry &e : relocs.entries)
        os << "        .word " << e.offset << "\n";
    if (relocs.entries.empty())
        os << "        .word 0\n";
    os << "__swp_rval:\n";
    for (const RelocEntry &e : relocs.entries)
        os << "        .word " << e.target << "\n";
    if (relocs.entries.empty())
        os << "        .word 0\n";

    // Eviction and data-pool cells append after the relocation tables
    // so every pre-existing cell keeps its offset within the metadata
    // block. All are gated: with eviction off and no pool the runtime
    // is byte-for-byte the pre-eviction one.
    if (options.evict) {
        os << "__swp_retry:   .word 0\n";  // leftover retry budget
        os << "__swp_nevict:  .word 0\n";  // functions un-redirected
        os << "__swp_nretry:  .word 0\n";  // blocked scans retried
    }
    if (pool) {
        os << "__swp_dmap:    .word 0\n";  // slot bitmap (bit i = used)
        os << "__swp_dnin:    .word 0\n";  // buffers swapped in
        os << "__swp_dnout:   .word 0\n";  // buffers written back
        os << "__swp_dnfull:  .word 0\n";  // requests served from FRAM
        os << "__swp_dhome:   .space 32\n"; // FRAM home per run start
        os << "__swp_dlen:    .space 32\n"; // byte length per run start
    }
    if (ck) {
        // The staged register file lives *inside* the bracket so the
        // metadata copy captures it; the cursor, counters, and buffers
        // live outside so a restore cannot roll them back.
        ckpt::emitRegsCell(os);
        os << "__swp_meta_end:\n";
        ckpt::emitConstCells(os, ckspec);
    }

    // ---- Miss handler ----
    os << "        .text\n";
    os << "        .func __swp_miss\n";
    // Save caller-saved registers (R11-R15; R12-R15 carry arguments per
    // the MSP430 calling convention, §4).
    os << "        MOV R11, &__swp_save\n"
          "        MOV R12, &__swp_save+2\n"
          "        MOV R13, &__swp_save+4\n"
          "        MOV R14, &__swp_save+6\n"
          "        MOV R15, &__swp_save+8\n";
    // Checkpoint trigger: every swap passes through here, and with the
    // app registers just saved the hook may clobber scratch freely.
    if (ck)
        ckpt::emitHook(os, ckspec);
    // Look up the target function.
    os << "        MOV &__swp_curid, R15\n"
          "        MOV __swp_fsize(R15), R13\n";
    // A function larger than the whole cache always runs from NVM.
    os << "        CMP #" << (cache_size + 1) << ", R13\n"
          "        JHS __swp_nvm\n";
    if (freeze) {
        // Frozen cache (thrash mitigation): serve the miss from NVM
        // without scanning, until the freeze window drains.
        os << "        MOV &__swp_freeze, R12\n"
              "        TST R12\n"
              "        JZ __swp_live\n"
              "        DEC R12\n"
              "        MOV R12, &__swp_freeze\n"
              "        JMP __swp_nvm\n"
              "__swp_live:\n";
    }
    // Placement (§3.4).
    os << "        MOV &__swp_tail, R14\n"
          "        MOV R14, R12\n"
          "        ADD R13, R12\n"
          "        CMP #" << (cache_end + 1) << ", R12\n"
          "        JLO __swp_place_ok\n";
    if (options.policy == Policy::CircularQueue) {
        // Wrap to the bottom of the cache region.
        os << "        MOV #" << cache_base << ", R14\n";
    } else {
        // Stack policy: place at the very top, overlapping (and hence
        // evicting) the most recently cached functions.
        os << "        MOV #" << cache_end << ", R14\n"
              "        SUB R13, R14\n";
    }
    os << "        MOV R14, R12\n"
          "        ADD R13, R12\n"
          "__swp_place_ok:\n"
          "        MOV R14, &__swp_cand\n"
          "        MOV R12, &__swp_end\n";

    // Scan pass 1 (§3.3.2/3.3.3): flag overlapping functions; abort to
    // NVM execution if any is active.
    os << "        CLR R11\n"
          "__swp_scan1:\n"
          "        CMP #" << (2 * n) << ", R11\n"
          "        JHS __swp_scan1_done\n"
          "        MOV __swp_cached(R11), R13\n"
          "        CMP #0xFFFF, R13\n"
          "        JEQ __swp_scan1_next\n"
          "        CMP &__swp_end, R13\n"     // cached >= end: no overlap
          "        JHS __swp_scan1_next\n"
          "        MOV R13, R15\n"
          "        ADD __swp_fsize(R11), R15\n"
          "        CMP R15, R14\n"            // cand >= cached end: none
          "        JHS __swp_scan1_next\n"
          "        TST __swp_active(R11)\n"
       << (options.evict ? "        JNZ __swp_evict\n"
           : freeze      ? "        JNZ __swp_thrash\n"
                         : "        JNZ __swp_nvm\n")
       << "__swp_scan1_next:\n"
          "        INCD R11\n"
          "        JMP __swp_scan1\n"
          "__swp_scan1_done:\n";

    // Scan pass 2: evict every flagged function (reset metadata and
    // relocation cells back to their NVM values).
    os << "        CLR R11\n"
          "__swp_scan2:\n"
          "        CMP #" << (2 * n) << ", R11\n"
          "        JHS __swp_scan2_done\n"
          "        MOV __swp_cached(R11), R13\n"
          "        CMP #0xFFFF, R13\n"
          "        JEQ __swp_scan2_next\n"
          "        CMP &__swp_end, R13\n"
          "        JHS __swp_scan2_next\n"
          "        MOV R13, R15\n"
          "        ADD __swp_fsize(R11), R15\n"
          "        CMP R15, R14\n"
          "        JHS __swp_scan2_next\n";
    if (options.evict)
        os << "        INC &__swp_nevict\n";
    os << "        MOV #0xFFFF, __swp_cached(R11)\n"
          "        MOV #__swp_miss, __swp_redirect(R11)\n"
          "        MOV __swp_rbase(R11), R13\n"
          "        MOV R13, R15\n"
          "        ADD __swp_rcnt(R11), R15\n"
          "        ADD __swp_rcnt(R11), R15\n"
          "__swp_rst_loop:\n"
          "        CMP R15, R13\n"
          "        JHS __swp_scan2_next\n"
          "        MOV __swp_fnvm(R11), R12\n"
          "        ADD __swp_rofs(R13), R12\n"
          "        MOV R12, __swp_rval(R13)\n"
          "        INCD R13\n"
          "        JMP __swp_rst_loop\n"
          "__swp_scan2_next:\n"
          "        INCD R11\n"
          "        JMP __swp_scan2\n"
          "__swp_scan2_done:\n";

    // Copy the function into SRAM.
    os << "        MOV &__swp_curid, R15\n"
          "        MOV R14, R12\n"              // dst = candidate
          "        MOV __swp_fnvm(R15), R13\n"  // src = NVM copy
          "        MOV __swp_fsize(R15), R14\n" // len
          "        CALL #__swp_memcpy\n";

    // Compute this function's relocation values against the SRAM base.
    os << "        MOV &__swp_curid, R15\n"
          "        MOV __swp_rbase(R15), R13\n"
          "        MOV R13, R11\n"
          "        ADD __swp_rcnt(R15), R11\n"
          "        ADD __swp_rcnt(R15), R11\n"
          "__swp_set_loop:\n"
          "        CMP R11, R13\n"
          "        JHS __swp_set_done\n"
          "        MOV &__swp_cand, R12\n"
          "        ADD __swp_rofs(R13), R12\n"
          "        MOV R12, __swp_rval(R13)\n"
          "        INCD R13\n"
          "        JMP __swp_set_loop\n"
          "__swp_set_done:\n";

    // Bookkeeping: mark cached, point the redirect cell at the SRAM
    // copy, and advance the tail.
    if (freeze)
        os << "        CLR &__swp_abort\n";
    if (options.evict)
        os << "        CLR &__swp_retry\n";
    os << "        MOV &__swp_cand, R12\n"
          "        MOV R12, __swp_cached(R15)\n"
          "        MOV R12, __swp_redirect(R15)\n"
          "        MOV &__swp_end, R12\n"
          "        MOV R12, &__swp_tail\n"
          "        MOV &__swp_cand, R12\n"
          "        MOV R12, &__swp_tmp\n"
          "        JMP __swp_exit\n";

    if (options.evict) {
        // Eviction (capacity pressure): scan 1 found the candidate
        // range blocked by an *active* function — one that is on the
        // call stack and must not be displaced. Instead of giving up
        // (the pre-eviction runtime ran the miss from NVM and, since
        // the blocker stays put, every later miss too), retry the scan
        // with the candidate bumped just past the blocker, wrapping at
        // the cache end. Inactive functions in the new range are
        // evicted by the ordinary scan-2 walk; only a bounded retry
        // budget keeps pathological stacks from scanning forever.
        // Register state from the scan-1 abort: R11 = 2*blocker id,
        // R15 = blocker's cached end, R14 = old candidate.
        os << "__swp_evict:\n"
              "        MOV &__swp_retry, R12\n"
              "        TST R12\n"
              "        JNZ __swp_ev_dec\n"
              "        MOV #" << (kEvictRetries + 1) << ", R12\n"
              "__swp_ev_dec:\n"
              "        DEC R12\n"
              "        MOV R12, &__swp_retry\n"
              "        TST R12\n"
              "        JZ __swp_ev_fail\n"
              "        MOV &__swp_curid, R12\n"
              "        MOV __swp_fsize(R12), R13\n"
              "        MOV R15, R14\n"          // candidate = blocker end
              "        MOV R14, R12\n"
              "        ADD R13, R12\n"
              "        CMP #" << (cache_end + 1) << ", R12\n"
              "        JLO __swp_ev_ok\n"
              "        MOV #" << cache_base << ", R14\n"
              "        MOV R14, R12\n"
              "        ADD R13, R12\n"
              "__swp_ev_ok:\n"
              "        MOV R14, &__swp_cand\n"
              "        MOV R12, &__swp_end\n"
              "        INC &__swp_nretry\n"
              "        CLR R11\n"
              "        JMP __swp_scan1\n"
              "__swp_ev_fail:\n"
              "        CLR &__swp_retry\n"
           << (freeze ? "        JMP __swp_thrash\n"
                      : "        JMP __swp_nvm\n");
    }

    if (freeze) {
        // An active function blocked the eviction: count consecutive
        // aborts; at the threshold, freeze the cache for a window.
        os << "__swp_thrash:\n"
              "        MOV &__swp_abort, R12\n"
              "        INC R12\n"
              "        MOV R12, &__swp_abort\n"
              "        CMP #" << options.freeze_threshold << ", R12\n"
              "        JLO __swp_nvm\n"
              "        MOV #" << options.freeze_window << ", R12\n"
              "        MOV R12, &__swp_freeze\n"
              "        CLR &__swp_abort\n";
        // falls through into the NVM path
    }

    // Fallback: execute from NVM (paper §3.3.3 — the redirect cell keeps
    // pointing at the handler, so the next call retries).
    os << "__swp_nvm:\n"
          "        MOV &__swp_curid, R15\n"
          "        MOV __swp_fnvm(R15), R12\n"
          "        MOV R12, &__swp_tmp\n"
          "__swp_exit:\n"
          "        MOV &__swp_save, R11\n"
          "        MOV &__swp_save+2, R12\n"
          "        MOV &__swp_save+4, R13\n"
          "        MOV &__swp_save+6, R14\n"
          "        MOV &__swp_save+8, R15\n"
          "        BR &__swp_tmp\n"
          "        .endfunc\n";

    // ---- Dynamic-call interface (§4 future work: "an interface for
    // the programmer to explicitly inform the runtime of dynamic
    // function calls"). The caller puts 2*funcId in R11 (the
    // __swp_id_<name> constants below) and calls this trampoline,
    // which performs exactly what an instrumented static call site
    // does: bump the callee's active counter, signal the id, and call
    // through the redirect cell. ----
    os << "        .func __swp_dyncall\n"
          "        ADD #1, __swp_active(R11)\n"
          "        MOV R11, &__swp_curid\n"
          "        PUSH R11\n"
          "        CALL __swp_redirect(R11)\n"
          "        POP R11\n"
          "        SUB #1, __swp_active(R11)\n"
          "        RET\n"
          "        .endfunc\n";
    for (int id = 0; id < n; ++id) {
        os << "        .equ __swp_id_" << funcs.names[id] << ", "
           << 2 * id << "\n";
    }

    // ---- Shared copy routine (word granularity; sizes are even) ----
    os << "        .func __swp_memcpy\n"
          "__swp_mc_loop:\n"
          "        TST R14\n"
          "        JZ __swp_mc_done\n"
          "        MOV @R13+, 0(R12)\n"
          "        INCD R12\n"
          "        DECD R14\n"
          "        JMP __swp_mc_loop\n"
          "__swp_mc_done:\n"
          "        RET\n"
          "        .endfunc\n";

    // ---- Boot recovery (crash consistency) ----
    // The metadata tables live in FRAM and survive power loss, but the
    // SRAM copies they point into do not: a redirect or relocation
    // cell left pointing at the cache after a reboot is a dangling
    // pointer into zeroed memory. The startup stub calls this routine
    // before anything else; it resets every per-function cell to its
    // cold NVM value (the same loop scan-pass 2 uses when evicting).
    // A persistent boot flag makes the clean first boot skip the walk
    // (the crt0 "dirty bit" idiom); any later boot must be a recovery
    // boot. Registers are preserved so the stub stays transparent to
    // main. Placed after __swp_memcpy so it sits outside the
    // Handler/Memcpy owner ranges and is attributed via
    // Stats::recovery_cycles instead.
    os << "        .func __swp_recover\n"
          "        TST &__swp_boot\n"
          "        JNZ __swp_rc_go\n"
          "        MOV #1, &__swp_boot\n"
          "        RET\n"
          "__swp_rc_go:\n"
          "        PUSH R11\n"
          "        PUSH R12\n"
          "        PUSH R13\n"
          "        PUSH R15\n"
          "        CLR R11\n"
          "__swp_rc_loop:\n"
          "        CMP #" << (2 * n) << ", R11\n"
          "        JHS __swp_rc_done\n"
          "        MOV #0xFFFF, __swp_cached(R11)\n"
          "        MOV #__swp_miss, __swp_redirect(R11)\n"
          "        CLR __swp_active(R11)\n"
          "        MOV __swp_rbase(R11), R13\n"
          "        MOV R13, R15\n"
          "        ADD __swp_rcnt(R11), R15\n"
          "        ADD __swp_rcnt(R11), R15\n"
          "__swp_rc_rst:\n"
          "        CMP R15, R13\n"
          "        JHS __swp_rc_next\n"
          "        MOV __swp_fnvm(R11), R12\n"
          "        ADD __swp_rofs(R13), R12\n"
          "        MOV R12, __swp_rval(R13)\n"
          "        INCD R13\n"
          "        JMP __swp_rc_rst\n"
          "__swp_rc_next:\n"
          "        INCD R11\n"
          "        JMP __swp_rc_loop\n"
          "__swp_rc_done:\n"
          "        MOV #" << cache_base << ", R12\n"
          "        MOV R12, &__swp_tail\n"
          "        CLR &__swp_curid\n";
    if (freeze) {
        os << "        CLR &__swp_abort\n"
              "        CLR &__swp_freeze\n";
    }
    if (options.evict)
        os << "        CLR &__swp_retry\n";
    if (ck) {
        // Resume from the newest committed checkpoint, if any: the
        // cold-reset walk above still ran first, so a boot without a
        // valid checkpoint keeps today's restart-from-clean-cache
        // behaviour. On resume the call never returns; on the cold
        // path it clobbers only registers the pushes above preserve.
        os << "        CALL #__ckpt_restore\n";
    }
    if (pool) {
        // Pool residency died with the SRAM: clear the bitmap and the
        // per-slot home/length cells so no stale mapping survives a
        // power failure that hit mid-swap. The FRAM homes themselves
        // are .data, which crt0 re-initialises on every boot.
        os << "        CLR &__swp_dmap\n"
              "        CLR R13\n"
              "__swp_rc_dclr:\n"
              "        CMP #32, R13\n"
              "        JHS __swp_rc_ddone\n"
              "        CLR __swp_dhome(R13)\n"
              "        CLR __swp_dlen(R13)\n"
              "        INCD R13\n"
              "        JMP __swp_rc_dclr\n"
              "__swp_rc_ddone:\n";
    }
    os << "        POP R15\n"
          "        POP R13\n"
          "        POP R12\n"
          "        POP R11\n"
          "        RET\n"
          "        .endfunc\n";

    if (pool) {
        // ---- Data-side SwapRAM (ISSUE 7 tentpole, part b) ----
        // __swp_din(R12 = FRAM home, R13 = even byte length) returns
        // R12 = the address the caller should use: the buffer's pool
        // copy (existing mapping or a fresh swap-in through
        // __swp_memcpy), or the FRAM home unchanged when the pool
        // cannot hold it — the caller then works in place, slower but
        // correct. The pool is 16 slots managed by the __swp_dmap
        // bitmap; a buffer occupies ceil(len/slot) contiguous slots,
        // with its home and length recorded in the run's first slot.
        os << "        .func __swp_din\n"
              "        CMP #" << (pool + 1) << ", R13\n"
              "        JHS __swp_di_full\n"
              "        CLR R11\n"
              "__swp_di_find:\n"
              "        CMP #32, R11\n"
              "        JHS __swp_di_alloc\n"
              "        CMP __swp_dhome(R11), R12\n"
              "        JEQ __swp_di_hit\n"
              "        INCD R11\n"
              "        JMP __swp_di_find\n"
              "__swp_di_hit:\n"
              "        MOV R11, R14\n";
        shl("R14", slot_shift - 1); // addr = pool_base + 2*slot * s/2
        os << "        ADD #" << pool_base << ", R14\n"
              "        MOV R14, R12\n"
              "        RET\n"
              "__swp_di_alloc:\n"
              "        MOV R13, R14\n"
              "        ADD #" << ((pool / 16) - 1) << ", R14\n";
        shr("R14", slot_shift); // R14 = slots needed
        os << "        CLR R15\n"
              "__swp_di_mask:\n"
              "        TST R14\n"
              "        JZ __swp_di_scan0\n"
              "        RLA R15\n"
              "        BIS #1, R15\n"
              "        DEC R14\n"
              "        JMP __swp_di_mask\n"
              "__swp_di_scan0:\n"
              "        CLR R11\n"
              "__swp_di_scan:\n"
              "        MOV &__swp_dmap, R14\n"
              "        AND R15, R14\n"
              "        JZ __swp_di_take\n"
              "        TST R15\n"  // mask reached the top slot: no room
              "        JN __swp_di_full\n"
              "        RLA R15\n"
              "        INCD R11\n"
              "        JMP __swp_di_scan\n"
              "__swp_di_take:\n"
              "        BIS R15, &__swp_dmap\n"
              "        MOV R12, __swp_dhome(R11)\n"
              "        MOV R13, __swp_dlen(R11)\n"
              "        MOV R13, R14\n"  // len
              "        MOV R12, R13\n"  // src = home
              "        MOV R11, R12\n";
        shl("R12", slot_shift - 1);
        os << "        ADD #" << pool_base << ", R12\n" // dst
              "        PUSH R12\n"
              "        CALL #__swp_memcpy\n"
              "        INC &__swp_dnin\n"
              "        POP R12\n"
              "        RET\n"
              "__swp_di_full:\n"
              "        INC &__swp_dnfull\n"
              "        RET\n"  // R12 still the home: run in place
              "        .endfunc\n";

        // __swp_dout(R12 = FRAM home): write the pool copy back to its
        // home and free the slots. A home with no mapping (swap-in ran
        // with the pool full) is a no-op — the caller worked in place.
        // Copy-back precedes the metadata clear: a power failure in
        // either window only leaves cells __swp_recover resets and a
        // home crt0's .data re-initialisation restores.
        os << "        .func __swp_dout\n"
              "        CLR R11\n"
              "__swp_do_find:\n"
              "        CMP #32, R11\n"
              "        JHS __swp_do_miss\n"
              "        CMP __swp_dhome(R11), R12\n"
              "        JEQ __swp_do_hit\n"
              "        INCD R11\n"
              "        JMP __swp_do_find\n"
              "__swp_do_hit:\n"
              "        MOV __swp_dlen(R11), R14\n" // len
              "        MOV R11, R13\n";
        shl("R13", slot_shift - 1);
        os << "        ADD #" << pool_base << ", R13\n" // src = pool
              "        CALL #__swp_memcpy\n"  // dst = R12 = home
              "        MOV __swp_dlen(R11), R13\n"
              "        ADD #" << ((pool / 16) - 1) << ", R13\n";
        shr("R13", slot_shift); // R13 = slots to free
        os << "        CLR R14\n"
              "__swp_do_mask:\n"
              "        TST R13\n"
              "        JZ __swp_do_pos\n"
              "        RLA R14\n"
              "        BIS #1, R14\n"
              "        DEC R13\n"
              "        JMP __swp_do_mask\n"
              "__swp_do_pos:\n"
              "        MOV R11, R13\n"
              "__swp_do_shift:\n"
              "        TST R13\n"
              "        JZ __swp_do_clr\n"
              "        RLA R14\n"
              "        DECD R13\n"
              "        JMP __swp_do_shift\n"
              "__swp_do_clr:\n"
              "        BIC R14, &__swp_dmap\n"
              "        CLR __swp_dhome(R11)\n"
              "        CLR __swp_dlen(R11)\n"
              "        INC &__swp_dnout\n"
              "__swp_do_miss:\n"
              "        RET\n"
              "        .endfunc\n";
    }

    // ---- Checkpoint commit/restore (ISSUE 8) ----
    // Emitted last so the pair forms one contiguous owner range
    // (attributed to Handler by the harness) and every earlier
    // routine keeps its address when the scheme is toggled on.
    if (ck)
        ckpt::emitRoutines(os, ckspec);

    return os.str();
}

} // namespace swapram::cache
