#include "sim/hw_cache.hh"

namespace swapram::sim {

void
HwCache::reset()
{
    sets_.fill(Set{});
}

bool
HwCache::probe(std::uint16_t addr) const
{
    std::uint32_t line = addr >> kLineShift;
    const Set &set = sets_[line % kSets];
    auto tag = static_cast<std::uint16_t>(line / kSets);
    return set.mru == tag || set.lru == tag;
}

} // namespace swapram::sim
