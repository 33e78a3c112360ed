/**
 * @file
 * A sampling profiler to preload into any program of this repository
 * (no `perf` needed):
 *
 *     LD_PRELOAD=build/tools/pcsample/libpcsample.so \
 *         PCSAMPLE_OUT=/tmp/steady some-program ...
 *     python3 tools/pcsample/report.py /tmp/steady.*
 *
 * While the process runs, ITIMER_PROF sends it SIGPROF once per tick of
 * the CPU time it consumes, and the handler records the interrupted
 * program counter. The kernel's timer tick bounds the rate: on a
 * 250 Hz kernel that is about 250 samples per CPU-second, whatever
 * interval is asked for. At exit the process writes
 * `$PCSAMPLE_OUT.<pid>` (default prefix `pcsample`): each sampled PC
 * with its count, as an offset from the main executable's load base
 * when it lies in the executable and as an absolute address
 * otherwise, then a copy of /proc/self/maps. report.py resolves the
 * offsets with addr2line and buckets the rest by library. A process
 * that got no sample writes nothing; the pid suffix keeps the children
 * of a preloaded launcher script from overwriting each other.
 */

#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

/** At most this many samples are kept (over two hours at 250 Hz); the
 *  buffer is in .bss, so untouched pages cost no memory. */
constexpr std::size_t kMaxSamples = std::size_t{1} << 21;
/** Requested sampling interval; the kernel rounds it up to its tick. */
constexpr long kIntervalUs = 1000;

std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};
pid_t g_pid = 0;

std::uintptr_t
interruptedPc(const ucontext_t *uc)
{
#if defined(__x86_64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

void
onProf(int, siginfo_t *, void *ctx)
{
    std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_samples[i] = interruptedPc(static_cast<const ucontext_t *>(ctx));
}

/** The main executable's load bias and its loaded address ranges. */
struct MainImage {
    std::uintptr_t bias = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
};

int
firstObject(dl_phdr_info *info, std::size_t, void *data)
{
    auto *image = static_cast<MainImage *>(data);
    image->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type == PT_LOAD) {
            std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            image->ranges.emplace_back(lo, lo + ph.p_memsz);
        }
    }
    return 1; // the first object is the main program
}

__attribute__((constructor)) void
start()
{
    g_pid = getpid();
    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        return;
    itimerval tv = {};
    tv.it_interval.tv_usec = kIntervalUs;
    tv.it_value.tv_usec = kIntervalUs;
    setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((destructor)) void
finish()
{
    itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    // A forked child that never exec'd inherits the parent's samples
    // but not its timer; only the process that sampled reports.
    if (getpid() != g_pid)
        return;
    std::size_t n = std::min(g_count.load(), kMaxSamples);
    if (n == 0)
        return;

    std::vector<std::uintptr_t> pcs(g_samples, g_samples + n);
    std::sort(pcs.begin(), pcs.end());
    MainImage image;
    dl_iterate_phdr(firstObject, &image);
    auto inMain = [&image](std::uintptr_t pc) {
        for (const auto &[lo, hi] : image.ranges) {
            if (pc >= lo && pc < hi)
                return true;
        }
        return false;
    };

    const char *prefix = std::getenv("PCSAMPLE_OUT");
    char path[4096];
    std::snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "pcsample",
                  static_cast<int>(g_pid));
    std::FILE *out = std::fopen(path, "w");
    if (!out)
        return;
    char exe[4096] = {};
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    std::fprintf(out, "pcsample v1\nexe %s\nsamples %zu\nlost %zu\n",
                 len > 0 ? exe : "?", n, g_count.load() - n);
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i;
        while (j < n && pcs[j] == pcs[i])
            ++j;
        if (inMain(pcs[i]))
            std::fprintf(out, "off %#zx %zu\n",
                         static_cast<std::size_t>(pcs[i] - image.bias),
                         j - i);
        else
            std::fprintf(out, "abs %#zx %zu\n",
                         static_cast<std::size_t>(pcs[i]), j - i);
        i = j;
    }
    std::fputs("maps\n", out);
    if (std::FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof buf, maps)) > 0)
            std::fwrite(buf, 1, got, out);
        std::fclose(maps);
    }
    std::fclose(out);
}

} // namespace
