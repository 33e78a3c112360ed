/**
 * @file
 * Memory map of the modelled MSP430FR2355-like platform, shared by the
 * assembler defaults, the machine model, and the experiment harness.
 *
 * Mirrors the paper's evaluation device: 32 KiB FRAM, 4 KiB SRAM, CPU up
 * to 24 MHz with 8 MHz FRAM (3 wait states per FRAM access at 24 MHz),
 * and a 2-way hardware read cache with four 8-byte lines.
 */

#ifndef SWAPRAM_SUPPORT_PLATFORM_HH
#define SWAPRAM_SUPPORT_PLATFORM_HH

#include <cstdint>

namespace swapram::platform {

inline constexpr std::uint16_t kSramBase = 0x2000;
inline constexpr std::uint32_t kSramSize = 0x1000; // 4 KiB
inline constexpr std::uint32_t kSramEnd = 0x3000;  // exclusive

inline constexpr std::uint16_t kFramBase = 0x8000;
inline constexpr std::uint32_t kFramSize = 0x8000; // 32 KiB
inline constexpr std::uint32_t kFramEnd = 0x10000; // exclusive

/** Largest SRAM a capacity run may configure: SRAM must end at or
 *  below kFramBase. */
inline constexpr std::uint32_t kSramMaxSize = kFramBase - kSramBase;

/** Interrupt vector table; code/data must stay below this. */
inline constexpr std::uint16_t kVectorsBase = 0xFF80;

// Memory-mapped I/O (test harness devices).
inline constexpr std::uint16_t kMmioBase = 0x0100;
inline constexpr std::uint16_t kMmioConsole = 0x0100; ///< byte out
inline constexpr std::uint16_t kMmioDone = 0x0102;    ///< write halts
inline constexpr std::uint16_t kMmioPin = 0x0104;     ///< pin toggle
inline constexpr std::uint16_t kMmioCycleLo = 0x0106; ///< latched on read
inline constexpr std::uint16_t kMmioCycleHi = 0x0108;
/** Capacitor level, 0..0xFFFF of capacity (0xFFFF = mains powered). */
inline constexpr std::uint16_t kMmioEnergy = 0x010A;
inline constexpr std::uint16_t kMmioEnd = 0x010C;     // exclusive

/** Timer interrupt vector (word holding the ISR address). */
inline constexpr std::uint16_t kTimerVector = 0xFFF0;
/** Cycles to enter an interrupt (push PC, push SR, fetch vector). */
inline constexpr std::uint32_t kInterruptCycles = 6;

// Hardware FRAM read cache geometry (MSP430FR2355: 2-way, 4 x 8-byte).
inline constexpr int kHwCacheLineBytes = 8;
inline constexpr int kHwCacheWays = 2;
inline constexpr int kHwCacheSets = 2;

/** FRAM maximum access frequency in Hz. */
inline constexpr std::uint32_t kFramMaxHz = 8'000'000;
/** Wait states per FRAM cache miss at 24 MHz (per the paper, §5.4). */
inline constexpr std::uint32_t kFramWaitStates24MHz = 3;

} // namespace swapram::platform

#endif // SWAPRAM_SUPPORT_PLATFORM_HH
