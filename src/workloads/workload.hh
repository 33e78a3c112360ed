/**
 * @file
 * Benchmark workloads: MSP430 assembly ports of the nine MiBench2
 * programs the paper evaluates (Table 1), plus the Figure-1 arithmetic
 * kernel and a shared helper library (software multiply/divide,
 * memcpy/memset), all validated against native C++ golden models.
 *
 * Conventions (see DESIGN.md):
 *  - Each workload defines `.func main` which returns a 16-bit checksum
 *    in R12 and stores it to the .data word `bench_result`.
 *  - Data references use absolute (&symbol) or register-pointer
 *    addressing so functions are runtime-relocatable.
 *  - R4-R10 are callee-saved, R11-R15 caller-saved, args in R12-R15,
 *    return value in R12 (msp430-gcc convention).
 */

#ifndef SWAPRAM_WORKLOADS_WORKLOAD_HH
#define SWAPRAM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "masm/parser.hh"

namespace swapram::workloads {

/** One benchmark: assembly source plus its golden checksum. */
struct Workload {
    std::string name;        ///< short id: "crc", "aes", ...
    std::string display;     ///< paper's label: "CRC", "AES", ...
    std::string description; ///< one-line summary
    std::string source;      ///< assembly (no startup; defines main)
    std::uint16_t expected = 0;      ///< golden model's checksum
    std::uint32_t stack_bytes = 256; ///< stack reservation

    /** Periodic timer interrupt the workload expects, in cycles
     *  (0 = none). The runner copies this into MachineConfig. */
    std::uint64_t timer_period_cycles = 0;

    /** Data-side SwapRAM pool the workload wants, in bytes (0 = none).
     *  The runner copies this into cache::Options::data_pool_bytes for
     *  SwapRAM runs unless the spec already configured a pool.
     *  Workloads that set it call `__data_swap_in`/`__data_swap_out`
     *  around large-buffer phases and must embed the identity shims so
     *  they still run under the other systems. */
    std::uint16_t data_pool_bytes = 0;

    /** Parse of `source`, made by the first run that needs it (never
     *  at construction) and shared by copies of this Workload. It is
     *  checked against `source` on every use, so editing the source
     *  re-parses it. */
    std::shared_ptr<masm::ParseMemo> parsed =
        std::make_shared<masm::ParseMemo>();
};

/** All nine paper benchmarks, in Table-1 order. */
const std::vector<Workload> &all();

/**
 * ISSUE-7 capacity-pressure set: scaled-up variants of existing
 * benchmarks whose code or data working set exceeds the default 4 KiB
 * SRAM, plus a pathological ping-pong thrasher. Kept out of all() so
 * the classic nine-workload matrices (and their golden expectations)
 * are untouched; the capacity sweep enumerates these explicitly.
 */
const std::vector<Workload> &capacity();

/** Lookup by short name across all() and capacity(); nullptr if
 *  unknown. */
const Workload *find(const std::string &name);

/** Shared helper library (software mul/div, memcpy, memset). */
std::string libSource();

// Individual factories (each embeds deterministic input data and
// computes the golden checksum natively).
Workload makeStringsearch();
Workload makeDijkstra();
Workload makeCrc();
Workload makeRc4();
Workload makeFft();
Workload makeAes();
Workload makeLzfx();
Workload makeBitcount();
Workload makeRsa();

/** The Figure-1 arithmetic kernel (not part of the nine). */
Workload makeArith();

// Capacity-pressure factories (ISSUE 7): working sets sized past the
// default 4 KiB SRAM so the SwapRAM eviction path is exercised.
Workload makeArithBig(); ///< ~5.3 KiB code: six generated op chains
Workload makeCrcBig();   ///< ~5.8 KiB code: eight unrolled CRC variants
Workload makeRc4Big();   ///< 6 KiB .data message tiled through the pool
Workload makePingpong(); ///< two huge functions called alternately

/** CRC workload's golden step (CRC-16/CCITT, table-driven), exposed so
 *  tests can pin it against the published check value. */
std::uint16_t crcGoldenUpdate(std::uint16_t crc, std::uint8_t byte);

} // namespace swapram::workloads

#endif // SWAPRAM_WORKLOADS_WORKLOAD_HH
