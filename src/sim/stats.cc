#include "sim/stats.hh"

#include <ostream>

#include "support/logging.hh"

namespace swapram::sim {

std::string
ownerName(CodeOwner owner)
{
    switch (owner) {
      case CodeOwner::AppFram: return "app-fram";
      case CodeOwner::AppSram: return "app-sram";
      case CodeOwner::Handler: return "handler";
      case CodeOwner::Memcpy: return "memcpy";
    }
    support::panic("ownerName: bad owner");
}

std::ostream &
operator<<(std::ostream &os, const SimStats &s)
{
    auto region = [&](const char *name, const AccessCounts &a) {
        os << ' ' << name << '=' << a.fetch << '/' << a.read << '/'
           << a.write;
    };
    os << "{instructions=" << s.instructions << " base=" << s.base_cycles
       << " stall=" << s.stall_cycles;
    region("sram", s.sram);
    region("fram", s.fram);
    region("mmio", s.mmio);
    os << " hwcache=" << s.fram_cache_hits << '/' << s.fram_cache_misses
       << " code/data=" << s.code_space_accesses << '/'
       << s.data_space_accesses << " owners=";
    for (int i = 0; i < kNumOwners; ++i)
        os << (i ? "/" : "") << s.instr_by_owner[i];
    return os << " interrupts=" << s.interrupts << " reboots=" << s.reboots
              << " recovery=" << s.recovery_cycles << '}';
}

} // namespace swapram::sim
