/**
 * @file
 * Shared random-program generator for the fuzz and differential
 * suites: random ALU bodies over global cells wired into a random
 * acyclic call graph with loops and occasional absolute branches.
 *
 * The generator is versioned so recorded seeds stay meaningful:
 * version 1 reproduces the historical programs byte-for-byte (it pins
 * the legacy biased Rng::below and the original op palette); version 2
 * widens the palette with byte-sized (.B) ALU ops and can emit
 * interrupt-driven configurations whose tick count is deterministic
 * across execution systems and power failures; version 3 adds
 * memory-to-memory statements (register-based to Indexed, absolute to
 * absolute, byte and same-register forms, single-operand ops on
 * memory) over a scratch array of its own; version 4 adds flag chains
 * (a flag writer, ops that leave the flags alone or a memory op that
 * can stop the threaded tier's chain, then a flag reader or another
 * writer) and always runs the tick ISR when interrupts are allowed.
 * Each version emits exactly what it did before the next existed.
 */

#ifndef SWAPRAM_TESTS_FUZZ_PROGRAMS_HH
#define SWAPRAM_TESTS_FUZZ_PROGRAMS_HH

#include <sstream>

#include "support/rng.hh"
#include "workloads/workload.hh"

namespace swapram::test {

/** Generator configuration (see file header for the version story). */
struct FuzzOptions {
    int version = 1; ///< 1 = historical, 2 = extended, 3 = + mem-to-mem,
                     ///< 4 = + flag chains
    bool allow_interrupts = false; ///< v2+: maybe emit a tick ISR
};

/** Emit one version-3 memory-to-memory statement over fz_marr (eight
 *  words) and function @p func_id's global cell. R14 and R15 are
 *  scratch indices, dead after the statement; R12 takes a word of the
 *  array back, so the statement feeds the checksum. */
inline void
emitMemCase(std::ostringstream &os, support::Rng &rng, int func_id)
{
    static const char *const kOps[] = {"MOV", "ADD", "ADDC", "SUB",
                                       "SUBC", "XOR", "AND", "BIS",
                                       "BIC", "CMP", "DADD"};
    const char *op = kOps[rng.below(11)];
    os << "        MOV R12, R14\n"
          "        AND #6, R14\n"
          "        MOV R13, R15\n"
          "        AND #6, R15\n";
    switch (rng.below(6)) {
      case 0: // Indexed -> Indexed
        os << "        " << op << " fz_marr(R14), fz_marr+8(R15)\n";
        break;
      case 1: // @Rn+ -> Indexed off the same register (the copy loops)
        os << "        ADD #fz_marr, R14\n"
           << "        " << (rng.below(2) ? "MOV" : op)
           << " @R14+, 0(R14)\n";
        break;
      case 2: // @Rn / @Rn+ -> Indexed off another register
        os << "        ADD #fz_marr, R14\n"
           << "        " << op
           << (rng.below(2) ? " @R14, fz_marr(R15)\n"
                            : " @R14+, fz_marr+8(R15)\n");
        break;
      case 3: // byte forms, odd addresses included
        if (rng.below(2)) {
            os << "        ADD #fz_marr+1, R14\n"
               << "        " << op << ".B @R14+, 1(R14)\n";
        } else {
            os << "        " << op
               << ".B fz_marr+3(R15), fz_marr+9(R14)\n";
        }
        break;
      case 4: // absolute -> absolute
        if (rng.below(2)) {
            os << "        " << op << " &fz_marr+" << 2 * rng.below(8)
               << ", &fz_g" << func_id << "\n";
        } else {
            os << "        " << op << ".B &fz_g" << func_id
               << ", &fz_marr+" << rng.below(16) << "\n";
        }
        break;
      default: // single-operand ops on memory
        switch (rng.below(5)) {
          case 0: os << "        RRA fz_marr(R14)\n"; break;
          case 1: os << "        SWPB &fz_marr+" << 2 * rng.below(8)
                     << "\n";
            break;
          case 2: os << "        RRC.B fz_marr+1(R15)\n"; break;
          case 3: os << "        ADD #fz_marr, R14\n"
                        "        SXT @R14+\n";
            break;
          default: os << "        PUSH fz_marr(R14)\n"
                         "        POP R15\n"
                         "        ADD R15, R13\n";
            break;
        }
        break;
    }
    os << "        ADD &fz_marr+" << 2 * rng.below(8) << ", R12\n";
}

/** Emit one version-4 flag chain over R12/R13: a flag writer, zero to
 *  three ops that leave N/Z/C/V alone or one memory op that can stop
 *  the threaded chain (an Indexed store, or a store into the console
 *  register, which bails to the oracle), then a flag reader (a
 *  conditional skip, a carry-in op, SR as a source) or another writer.
 *  SR is read masked to its flags: GIE depends on when the ticks land.
 *  R14 and R15 are scratch, dead after the statement. */
inline void
emitFlagChain(std::ostringstream &os, support::Rng &rng, int &label_seq)
{
    // No writer takes a carry in: what precedes the chain may be a
    // return through a cache runtime, which leaves no defined flags.
    auto writer = [&os, &rng] {
        static const char *const kOps[] = {"ADD", "SUB", "CMP",
                                           "BIT", "XOR", "AND"};
        const char *op = kOps[rng.below(6)];
        const char *sfx = rng.below(3) == 0 ? ".B" : "";
        switch (rng.below(4)) {
          case 0: {
            const std::uint32_t k = rng.below(0xFFFF);
            os << "        " << op << sfx << " #" << k << ", R12\n";
            break;
          }
          case 1:
            os << "        " << op << sfx << " R13, R12\n";
            break;
          case 2:
            os << "        " << op << sfx << " R12, R13\n";
            break;
          default:
            os << (rng.below(2) ? "        RRA R12\n"
                                : "        SXT R13\n");
            break;
        }
    };
    writer();
    if (rng.below(4) == 0) {
        if (rng.below(2)) {
            os << "        MOV R12, R15\n"
                  "        BIC #0xFFF9, R15\n"
                  "        MOV R13, fz_arr(R15)\n";
        } else {
            os << "        MOV #0x0100, R15\n"
                  "        MOV.B R13, 0(R15)\n";
        }
    } else {
        for (int i = static_cast<int>(rng.below(4)); i > 0; --i) {
            switch (rng.below(6)) {
              case 0: os << "        MOV R12, R14\n"; break;
              case 1: os << "        BIC #" << rng.below(0xFFFF)
                         << ", R13\n";
                break;
              case 2: os << "        BIS #" << rng.below(0xFFFF)
                         << ", R14\n";
                break;
              case 3: os << "        SWPB R13\n"; break;
              case 4: os << "        NOP\n"; break;
              default: {
                const std::string next =
                    "fz_fj" + std::to_string(label_seq++);
                os << "        JMP " << next << "\n" << next << ":\n";
                break;
              }
            }
        }
    }
    if (rng.below(10) < 3) {
        writer();
        return;
    }
    switch (rng.below(6)) {
      case 0: {
        static const char *const kJumps[] = {"JNE", "JEQ", "JNC", "JC",
                                             "JN",  "JGE", "JL"};
        const char *j = kJumps[rng.below(7)];
        const std::uint32_t k = rng.below(511);
        const std::string skip = "fz_fs" + std::to_string(label_seq++);
        os << "        " << j << " " << skip << "\n"
           << "        ADD #" << k << ", R12\n"
           << skip << ":\n";
        break;
      }
      case 1: os << "        ADDC R13, R12\n"; break;
      case 2: os << "        SUBC.B #" << rng.below(255) << ", R12\n";
        break;
      case 3: os << (rng.below(2) ? "        DADD R13, R12\n"
                                  : "        RRC R12\n");
        break;
      case 4:
        os << "        MOV SR, R14\n"
              "        AND #0x0107, R14\n"
              "        ADD R14, R12\n";
        break;
      default:
        os << "        PUSH SR\n"
              "        POP R14\n"
              "        AND #0x0107, R14\n"
              "        XOR R14, R13\n";
        break;
    }
}

/** Emit ALU case @p pick, mutating R12/R13 or state. Cases 0-11 are
 *  the version-1 palette (their Rng consumption is pinned); 12-15 are
 *  the version-2 byte-op extensions. @p label_seq provides unique
 *  label names for conditional skips. */
inline void
emitAluCase(std::ostringstream &os, int pick, support::Rng &rng,
            int func_id, int &label_seq)
{
    switch (pick) {
      case 0:
        os << "        ADD #" << rng.below(0x7FFF) << ", R12\n";
        break;
      case 1:
        os << "        XOR #" << rng.below(0xFFFF) << ", R12\n";
        break;
      case 2:
        os << "        ADD R13, R12\n";
        break;
      case 3:
        os << "        SWPB R12\n";
        break;
      case 4:
        os << "        RLA R12\n        ADC R12\n"; // rotate left
        break;
      case 5:
        os << "        ADD &fz_g" << func_id << ", R12\n";
        break;
      case 6:
        os << "        XOR R12, &fz_g" << func_id << "\n";
        break;
      case 7:
        os << "        MOV R12, R13\n        INV R13\n";
        break;
      case 8:
        os << "        SUB #" << rng.below(999) << ", R13\n";
        break;
      case 9: {
        // Conditional skip over one mutation (producer adjacent to
        // its consumer, as the block cache requires).
        std::string skip = "fz_sk" + std::to_string(label_seq++);
        const char *cond = rng.below(2) ? "JGE" : "JNC";
        os << "        CMP #" << rng.below(0x7FFF) << ", R12\n"
           << "        " << cond << " " << skip << "\n"
           << "        ADD #" << rng.below(511) << ", R12\n"
           << skip << ":\n";
        break;
      }
      case 10:
        os << "        ADD.B #" << rng.below(255) << ", R12\n";
        break;
      case 11:
        // Indexed access into the shared scratch array.
        os << "        MOV R12, R14\n"
              "        AND #6, R14\n"
           << (rng.below(2) ? "        XOR R13, fz_arr(R14)\n"
                            : "        ADD fz_arr(R14), R12\n");
        break;
      // ---- version-2 byte-op extensions ----
      case 12:
        os << "        XOR.B #" << rng.below(255) << ", R12\n"
              "        SXT R12\n";
        break;
      case 13:
        // Indexed byte access into the byte scratch array.
        os << "        MOV R13, R14\n"
              "        AND #7, R14\n"
           << (rng.below(2) ? "        XOR.B R12, fz_barr(R14)\n"
                            : "        ADD.B fz_barr(R14), R12\n");
        break;
      case 14:
        os << "        BIS.B #" << (1 + rng.below(254)) << ", R12\n"
              "        BIC.B #" << (1 + rng.below(254)) << ", R13\n";
        break;
      default:
        os << "        MOV.B R12, R14\n"
              "        RRA.B R14\n"
              "        ADD R14, R12\n";
        break;
    }
}

/** Version-1 entry point (kept for callers with recorded seeds). */
inline void
emitAluOp(std::ostringstream &os, support::Rng &rng, int func_id,
          int &label_seq)
{
    emitAluCase(os, static_cast<int>(rng.below(12)), rng, func_id,
                label_seq);
}

/**
 * Build one random program. Functions 0..n-1 may call only
 * higher-numbered functions (acyclic); each has a small loop and
 * mutates its own global cell, so the final .data state captures the
 * whole execution history.
 *
 * Version-2 interrupt configurations are deterministic by
 * construction: the raw-label ISR (untouched by either caching
 * transform) counts ticks, clears the saved GIE bit at the K-th tick,
 * and main spin-waits for exactly K ticks before folding the ISR
 * state into the checksum — so every system and every reboot observes
 * the same tick count regardless of interleaving.
 */
inline workloads::Workload
randomProgram(std::uint32_t seed, const FuzzOptions &opts)
{
    const bool v2 = opts.version >= 2;
    const bool v3 = opts.version >= 3;
    const bool v4 = opts.version >= 4;
    // Version 1 pins the legacy biased below() so historical fuzz
    // seeds keep producing byte-identical programs.
    support::Rng rng(v4   ? seed ^ 0x4F1Au
                     : v3 ? seed ^ 0x3A3Bu
                     : v2 ? seed ^ 0xF22Du
                          : seed,
                     v2 ? support::Rng::kUniformBelow
                        : support::Rng::kLegacyBelow);
    int label_seq = 0;
    const int nfuncs = 3 + static_cast<int>(rng.below(6)); // 3..8
    // Version 3's memory statement is case 16, drawn as often as the
    // other sixteen together; version 4's flag chain is case 32, drawn
    // as often as both.
    const int alu_cases = v4 ? 64 : v3 ? 32 : v2 ? 16 : 12;

    bool interrupts =
        v2 && opts.allow_interrupts && (v4 || rng.below(10) < 4);
    const int isr_ticks = interrupts ? 2 + static_cast<int>(rng.below(6))
                                     : 0;
    const std::uint64_t isr_period =
        interrupts ? 400 + rng.below(1200) : 0;
    const unsigned isr_mix = interrupts ? rng.word() : 0;

    std::ostringstream os;
    os << "        .text\n";
    if (interrupts) {
        // Raw labels, not .func: neither caching system transforms or
        // relocates the ISR, so it always runs from its FRAM home
        // with deterministic latency (the paper's §3.1 rationale).
        os << "fz_isr:\n"
              "        ADD #1, &fz_ticks\n"
              "        XOR #" << isr_mix << ", &fz_isr_acc\n"
              "        CMP #" << isr_ticks << ", &fz_ticks\n"
              "        JNE fz_isr_ret\n"
              "        BIC #8, 0(SP)\n" // clear saved GIE: last tick
              "fz_isr_ret:\n"
              "        RETI\n";
    }
    for (int f = nfuncs - 1; f >= 0; --f) {
        os << "        .func fz_f" << f << "\n";
        os << "        PUSH R10\n";
        int loop_iters = 1 + rng.below(6);
        os << "        MOV #" << loop_iters << ", R10\n";
        os << "fz_l" << f << ":\n";
        int body = 2 + rng.below(6);
        for (int i = 0; i < body; ++i) {
            const int pick = static_cast<int>(rng.below(alu_cases));
            if (pick >= 32)
                emitFlagChain(os, rng, label_seq);
            else if (pick >= 16)
                emitMemCase(os, rng, f);
            else
                emitAluCase(os, pick, rng, f, label_seq);
        }
        // Random calls to later functions (guaranteed acyclic).
        for (int c = 0; c < 2; ++c) {
            if (f + 1 < nfuncs && rng.below(10) < 6) {
                int callee = f + 1 +
                             static_cast<int>(
                                 rng.below(nfuncs - f - 1));
                os << "        CALL #fz_f" << callee << "\n";
            }
        }
        // Occasionally an intra-function absolute branch (exercises
        // SwapRAM relocation).
        if (rng.below(10) < 4) {
            os << "        BIT #1, R12\n"
               << "        JZ fz_s" << f << "\n"
               << "        BR #fz_s" << f << "\n"
               << "fz_s" << f << ":\n";
        }
        os << "        XOR R12, &fz_g" << f << "\n";
        os << "        DEC R10\n";
        os << "        JNZ fz_l" << f << "\n";
        os << "        POP R10\n";
        os << "        RET\n";
        os << "        .endfunc\n";
    }

    os << "        .func main\n";
    if (interrupts) {
        os << "        MOV #fz_isr, &0xFFF0\n"
              "        EINT\n";
    }
    os << "        MOV #" << (1 + rng.below(4)) << ", R14\n"
          "        MOV R14, &fz_reps\n"
          "fz_main_loop:\n"
          "        MOV #" << rng.word() << ", R12\n"
          "        MOV #" << rng.word() << ", R13\n"
          "        CALL #fz_f0\n"
          "        ADD R12, &fz_sum\n"
          "        SUB #1, &fz_reps\n"
          "        JNZ fz_main_loop\n";
    if (interrupts) {
        // Wait for the self-limiting ISR to deliver all K ticks, then
        // fold its (now final) state into the result.
        os << "fz_wait:\n"
              "        CMP #" << isr_ticks << ", &fz_ticks\n"
              "        JNE fz_wait\n"
              "        DINT\n"
              "        ADD &fz_ticks, &fz_sum\n"
              "        XOR &fz_isr_acc, &fz_sum\n";
    }
    os << "        MOV &fz_sum, R12\n"
          "        MOV R12, &bench_result\n";
    if (v2) {
        // Byte the checksum out over the console UART so intermittent
        // runs also validate console replay.
        os << "        MOV.B R12, &0x0100\n"
              "        SWPB R12\n"
              "        MOV.B R12, &0x0100\n"
              "        SWPB R12\n";
    }
    os << "        RET\n"
          "        .endfunc\n"
          "        .data\n        .align 2\n";
    for (int f = 0; f < nfuncs; ++f)
        os << "fz_g" << f << ": .word " << rng.word() << "\n";
    os << "fz_arr: .word " << rng.word() << ", " << rng.word() << ", "
       << rng.word() << ", " << rng.word() << "\n";
    if (v2) {
        os << "fz_barr: .byte";
        for (int i = 0; i < 8; ++i)
            os << (i ? ", " : " ") << static_cast<int>(rng.byte());
        os << "\n        .align 2\n";
    }
    if (v3) {
        os << "fz_marr: .word";
        for (int i = 0; i < 8; ++i)
            os << (i ? ", " : " ") << rng.word();
        os << "\n";
    }
    os << "fz_sum:  .word 0\n"
          "fz_reps: .word 0\n";
    if (interrupts) {
        os << "fz_ticks: .word 0\n"
              "fz_isr_acc: .word 0\n";
    }
    os << "bench_result: .word 0\n";

    workloads::Workload w;
    w.name = "fuzz" + std::to_string(seed);
    w.display = w.name;
    w.source = os.str();
    w.expected = 0; // baseline acts as the oracle
    w.timer_period_cycles = isr_period;
    return w;
}

/** Version-1 entry point (historical programs, recorded seeds). */
inline workloads::Workload
randomProgram(std::uint32_t seed)
{
    return randomProgram(seed, FuzzOptions{});
}

} // namespace swapram::test

#endif // SWAPRAM_TESTS_FUZZ_PROGRAMS_HH
