#include "trace/profile.hh"

#include <algorithm>

#include "sim/stats.hh"
#include "support/logging.hh"

namespace swapram::trace {

void
FunctionProfiler::addFunction(const std::string &name,
                              std::uint16_t addr, std::uint16_t size)
{
    if (sealed_)
        support::panic("FunctionProfiler: addFunction after seal");
    ProfileRow row;
    row.name = name;
    row.addr = addr;
    row.size = size;
    ranges_.push_back({addr, size, rows_.size()});
    rows_.push_back(std::move(row));
}

void
FunctionProfiler::seal()
{
    std::sort(ranges_.begin(), ranges_.end(),
              [](const Range &a, const Range &b) {
                  return a.addr < b.addr;
              });
    sealed_ = true;
}

void
FunctionProfiler::mapResident(std::uint16_t base, std::uint32_t bytes,
                              std::uint16_t home)
{
    // Find the row of the home function; unknown homes map nowhere
    // (their SRAM execution falls back to the owner pseudo-bucket).
    for (const Range &r : ranges_) {
        if (home >= r.addr &&
            home < static_cast<std::uint32_t>(r.addr) + r.size) {
            overlays_.push_back({base, base + bytes, r.row});
            return;
        }
    }
    support::debug("profiler: copy-in of unknown home address ", home);
}

void
FunctionProfiler::unmapResident(std::uint16_t base)
{
    for (auto it = overlays_.begin(); it != overlays_.end(); ++it) {
        if (it->base == base) {
            overlays_.erase(it);
            return;
        }
    }
}

std::size_t
FunctionProfiler::pseudoRow(std::uint8_t owner)
{
    std::uint8_t slot = owner < 8 ? owner : 7;
    if (!pseudo_[slot]) {
        ProfileRow row;
        row.name = "[";
        row.name += owner < sim::kNumOwners
                        ? sim::ownerName(static_cast<sim::CodeOwner>(owner))
                        : "unknown";
        row.name += ']';
        rows_.push_back(std::move(row));
        pseudo_[slot] = rows_.size(); // 1-based so 0 means "unset"
    }
    return pseudo_[slot] - 1;
}

std::size_t
FunctionProfiler::lookup(std::uint16_t pc, std::uint8_t owner)
{
    // Consecutive PCs usually stay in one function: try the last hit.
    if (last_hit_ != SIZE_MAX) {
        const ProfileRow &row = rows_[last_hit_];
        if (row.size && pc >= row.addr &&
            pc < static_cast<std::uint32_t>(row.addr) + row.size)
            return last_hit_;
    }
    // Cache-resident ranges shadow the static table (a SwapRAM PC in
    // SRAM belongs to whichever function is resident there now).
    for (const Overlay &o : overlays_) {
        if (pc >= o.base && pc < o.end)
            return o.row;
    }
    if (!ranges_.empty()) {
        auto it = std::upper_bound(
            ranges_.begin(), ranges_.end(), pc,
            [](std::uint16_t v, const Range &r) { return v < r.addr; });
        if (it != ranges_.begin()) {
            --it;
            if (pc < static_cast<std::uint32_t>(it->addr) + it->size)
                return it->row;
        }
    }
    return pseudoRow(owner);
}

void
FunctionProfiler::updateStack(std::size_t idx, bool entry)
{
    fold_cur_ = nullptr;
    if (entry || stack_.empty()) {
        stack_.push_back(idx);
        return;
    }
    // A non-entry transfer into a frame already on the stack is a
    // return: pop to it. Anything else (tail-jump, stub, pseudo-row)
    // replaces the leaf.
    std::size_t depth = 0;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it, ++depth) {
        if (*it == idx) {
            stack_.resize(stack_.size() - depth);
            return;
        }
    }
    stack_.back() = idx;
}

void
FunctionProfiler::record(std::uint16_t pc, std::uint8_t owner,
                         const StepCosts &costs)
{
    std::size_t idx = lookup(pc, owner);
    // Overlay hits must not poison the last-hit cache (the static
    // range test above would wrongly match NVM-range PCs); only cache
    // static-range hits.
    const ProfileRow &hit = rows_[idx];
    bool is_static =
        hit.size && pc >= hit.addr &&
        pc < static_cast<std::uint32_t>(hit.addr) + hit.size;
    bool resident = !is_static && hit.size != 0;
    last_hit_ = is_static ? idx : SIZE_MAX;

    if (stack_.empty() || stack_.back() != idx) {
        bool entry = is_static && pc == hit.addr;
        if (resident) {
            for (const Overlay &o : overlays_) {
                if (pc >= o.base && pc < o.end && o.row == idx) {
                    entry = pc == o.base;
                    break;
                }
            }
        }
        updateStack(idx, entry);
    }
    if (!fold_cur_)
        fold_cur_ = &folded_[stack_];
    *fold_cur_ += costs.base_cycles + costs.stall_cycles;

    ProfileRow &row = rows_[idx];
    ++row.instructions;
    if (resident)
        ++row.sram_resident_instructions;
    row.base_cycles += costs.base_cycles;
    row.stall_cycles += costs.stall_cycles;
    row.fram_fetch += costs.fram_fetch;
    row.fram_read += costs.fram_read;
    row.fram_write += costs.fram_write;
    row.sram_fetch += costs.sram_fetch;
    row.sram_read += costs.sram_read;
    row.sram_write += costs.sram_write;
}

std::vector<ProfileRow>
FunctionProfiler::rows(const sim::EnergyModel &model,
                       std::uint32_t clock_hz) const
{
    std::vector<ProfileRow> out;
    double core = model.corePjPerCycle(clock_hz);
    for (const ProfileRow &row : rows_) {
        if (row.instructions == 0 && row.totalCycles() == 0)
            continue;
        ProfileRow copy = row;
        copy.energy_pj =
            core * static_cast<double>(copy.totalCycles()) +
            model.fram_read_pj *
                static_cast<double>(copy.fram_fetch + copy.fram_read) +
            model.fram_write_pj * static_cast<double>(copy.fram_write) +
            model.sram_read_pj *
                static_cast<double>(copy.sram_fetch + copy.sram_read) +
            model.sram_write_pj * static_cast<double>(copy.sram_write);
        out.push_back(std::move(copy));
    }
    std::sort(out.begin(), out.end(),
              [](const ProfileRow &a, const ProfileRow &b) {
                  if (a.totalCycles() != b.totalCycles())
                      return a.totalCycles() > b.totalCycles();
                  return a.name < b.name;
              });
    return out;
}

std::vector<FoldedStack>
FunctionProfiler::foldedStacks() const
{
    // std::map iteration is ordered by the row-index vectors; re-key
    // by name so equal-named stacks (impossible today, but cheap to
    // guard) collapse and the output is sorted for diffing.
    std::map<std::string, std::uint64_t> by_name;
    for (const auto &[stack, cycles] : folded_) {
        if (!cycles)
            continue;
        std::string name;
        for (std::size_t idx : stack) {
            if (!name.empty())
                name += ';';
            name += rows_[idx].name;
        }
        by_name[name] += cycles;
    }
    std::vector<FoldedStack> out;
    out.reserve(by_name.size());
    for (auto &[name, cycles] : by_name)
        out.push_back({name, cycles});
    return out;
}

std::string
FunctionProfiler::foldedText() const
{
    std::string out;
    for (const FoldedStack &f : foldedStacks()) {
        out += f.stack;
        out += ' ';
        out += std::to_string(f.cycles);
        out += '\n';
    }
    return out;
}

std::uint64_t
FunctionProfiler::attributedCycles() const
{
    std::uint64_t sum = 0;
    for (const ProfileRow &row : rows_)
        sum += row.totalCycles();
    return sum;
}

} // namespace swapram::trace
