#include "trace/trace.hh"

#include "support/logging.hh"
#include "support/strings.hh"

namespace swapram::trace {

Category
categoryOf(EventKind kind)
{
    switch (kind) {
      case EventKind::InstrRetire: return kCatInstr;
      case EventKind::Fetch:
      case EventKind::Read:
      case EventKind::Write: return kCatAccess;
      case EventKind::FramStall: return kCatStall;
      case EventKind::HwCacheHit:
      case EventKind::HwCacheMiss: return kCatHwCache;
      case EventKind::InterruptEnter: return kCatInterrupt;
      case EventKind::OwnerChange:
      case EventKind::CopyBegin:
      case EventKind::CopyEnd:
      case EventKind::MissEnter:
      case EventKind::MissExit:
      case EventKind::CopyIn:
      case EventKind::Evict:
      case EventKind::DataSwapIn:
      case EventKind::DataSwapOut: return kCatSwap;
      case EventKind::PowerFail:
      case EventKind::RecoveryEnter:
      case EventKind::RecoveryExit:
      case EventKind::CkptCommit:
      case EventKind::CkptRestore: return kCatPower;
    }
    support::panic("categoryOf: bad kind");
}

const char *
kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::InstrRetire: return "retire";
      case EventKind::Fetch: return "fetch";
      case EventKind::Read: return "read";
      case EventKind::Write: return "write";
      case EventKind::FramStall: return "fram-stall";
      case EventKind::HwCacheHit: return "hwcache-hit";
      case EventKind::HwCacheMiss: return "hwcache-miss";
      case EventKind::InterruptEnter: return "interrupt";
      case EventKind::OwnerChange: return "owner-change";
      case EventKind::CopyBegin: return "copy-begin";
      case EventKind::CopyEnd: return "copy-end";
      case EventKind::MissEnter: return "miss-enter";
      case EventKind::MissExit: return "miss-exit";
      case EventKind::CopyIn: return "copy-in";
      case EventKind::Evict: return "evict";
      case EventKind::DataSwapIn: return "data-swap-in";
      case EventKind::DataSwapOut: return "data-swap-out";
      case EventKind::PowerFail: return "power-fail";
      case EventKind::RecoveryEnter: return "recovery-enter";
      case EventKind::RecoveryExit: return "recovery-exit";
      case EventKind::CkptCommit: return "ckpt-commit";
      case EventKind::CkptRestore: return "ckpt-restore";
    }
    support::panic("kindName: bad kind");
}

namespace {

struct CategoryName {
    const char *name;
    Category bit;
};

constexpr CategoryName kCategoryNames[] = {
    {"instr", kCatInstr},     {"access", kCatAccess},
    {"stall", kCatStall},     {"hwcache", kCatHwCache},
    {"interrupt", kCatInterrupt}, {"swap", kCatSwap},
    {"power", kCatPower},
};

} // namespace

std::uint32_t
parseCategories(const std::string &list, const std::string &flag)
{
    std::uint32_t mask = 0;
    for (const std::string &raw : support::split(list, ',')) {
        std::string name = support::toLower(
            std::string(support::trim(raw)));
        if (name.empty())
            continue;
        if (name == "all") {
            mask |= kCatAll;
            continue;
        }
        bool found = false;
        for (const auto &entry : kCategoryNames) {
            if (name == entry.name) {
                mask |= entry.bit;
                found = true;
                break;
            }
        }
        if (!found) {
            support::fatal(flag.empty() ? "" : flag + ": ",
                           "unknown trace category '", name,
                           "' (want instr,access,stall,hwcache,"
                           "interrupt,swap,power,all)");
        }
    }
    return mask;
}

std::string
categoryNames(std::uint32_t mask)
{
    std::string out;
    for (const auto &entry : kCategoryNames) {
        if (mask & entry.bit) {
            if (!out.empty())
                out += ',';
            out += entry.name;
        }
    }
    return out;
}

TraceEngine::TraceEngine(std::uint32_t ring_mask, std::size_t capacity)
    : ring_mask_(capacity ? ring_mask : 0), mask_(ring_mask_)
{
    // An engine that only feeds sinks records nothing: no storage.
    if (ring_mask_)
        ring_.resize(capacity);
}

void
TraceEngine::addSink(Sink *sink, std::uint32_t mask)
{
    if (!sink)
        support::panic("TraceEngine::addSink: null sink");
    mask &= sink->categories();
    sinks_.push_back({sink, mask});
    mask_ |= mask;
}

void
TraceEngine::emit(const Event &event)
{
    std::uint32_t category = event.category();
    if (!(mask_ & category))
        return;
    ++emitted_;
    if (ring_mask_ & category) {
        if (count_ == ring_.size())
            ++dropped_;
        else
            ++count_;
        ring_[head_] = event;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    }
    // Index loop (not iterators): a sink may re-emit derived events,
    // which recurses into emit(); sinks_ itself never changes mid-run.
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
        if (sinks_[i].mask & category)
            sinks_[i].sink->event(event);
    }
}

void
TraceEngine::finish()
{
    if (finished_)
        return;
    finished_ = true;
    for (auto &sub : sinks_)
        sub.sink->finish();
}

std::vector<Event>
TraceEngine::ring() const
{
    std::vector<Event> out;
    out.reserve(count_);
    std::size_t start =
        count_ == ring_.size() ? head_ : (head_ + ring_.size() - count_) %
                                             ring_.size();
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

} // namespace swapram::trace
