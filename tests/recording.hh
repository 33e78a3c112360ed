/**
 * @file
 * Helpers for tests that check output against a recording under
 * tests/golden: a 64-bit FNV-1a hash, reading the file, and a failure
 * that names the first line where output and recording part.
 */

#ifndef SWAPRAM_TESTS_RECORDING_HH
#define SWAPRAM_TESTS_RECORDING_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace swapram::test {

/** FNV-1a, 64-bit, of @p bytes folded into @p hash. */
inline std::uint64_t
fnv1a(std::uint64_t hash, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** FNV-1a's starting value. */
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Fail, naming the first line where @p got and the recording
 *  @p want part, unless they are equal; @p what names the output. */
inline void
expectSameLines(const std::string &got, const std::string &want,
                const char *what)
{
    if (got == want)
        return;
    std::istringstream g(got), w(want);
    std::string gl, wl;
    for (int line = 1;; ++line) {
        bool more_g = static_cast<bool>(std::getline(g, gl));
        bool more_w = static_cast<bool>(std::getline(w, wl));
        if (!more_g && !more_w)
            break;
        if (!more_g || !more_w || gl != wl) {
            ADD_FAILURE() << what << " differs from the recording at line "
                          << line << ":\n  recorded: " << wl
                          << "\n  now:      " << gl;
            return;
        }
    }
    ADD_FAILURE() << what << " differs from the recording";
}

} // namespace swapram::test

#endif // SWAPRAM_TESTS_RECORDING_HH
