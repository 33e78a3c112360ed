#include "trace/sinks.hh"

#include <cstdio>

#include "sim/stats.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace swapram::trace {

namespace {

std::string
ownerLabel(std::uint16_t owner)
{
    if (owner < sim::kNumOwners)
        return sim::ownerName(static_cast<sim::CodeOwner>(owner));
    return "?";
}

} // namespace

std::string
StreamSink::symbol(std::uint16_t addr) const
{
    return symbolize_ ? symbolize_(addr) : std::string();
}

std::string
StreamSink::annotation(const Event &event) const
{
    return annotate_ ? annotate_(event) : std::string();
}

void
TextSink::event(const Event &event)
{
    if (!takeSlot())
        return;
    char head[64];
    std::snprintf(head, sizeof(head), "%12llu  %-12s",
                  static_cast<unsigned long long>(event.cycle),
                  kindName(event.kind));
    out_ << head << ' ' << support::hex16(event.addr);
    std::string sym = symbol(event.addr);
    if (!sym.empty())
        out_ << " <" << sym << '>';
    switch (event.kind) {
      case EventKind::InstrRetire:
        out_ << "  cycles=" << event.value << "+" << event.extra;
        break;
      case EventKind::Fetch:
      case EventKind::Read:
      case EventKind::Write:
        out_ << "  value=" << support::hex16(event.value)
             << (event.byte ? " .b" : "");
        break;
      case EventKind::FramStall:
        out_ << "  stall=" << event.extra;
        break;
      case EventKind::OwnerChange:
        out_ << "  " << ownerLabel(event.extra & 0xFF) << " -> "
             << ownerLabel(event.value);
        break;
      case EventKind::CopyBegin:
        out_ << "  src=" << support::hex16(event.value)
             << " bytes=" << event.extra
             << (event.byte ? "" : " resumed");
        break;
      case EventKind::CopyEnd:
        out_ << "  src=" << support::hex16(event.value);
        break;
      case EventKind::MissExit:
        out_ << "  handler-cycles=" << event.extra
             << " copies=" << event.value;
        break;
      case EventKind::CopyIn:
      case EventKind::Evict: {
        out_ << "  nvm=" << support::hex16(event.value)
             << " bytes=" << event.extra;
        std::string fn = symbol(event.value);
        if (!fn.empty())
            out_ << " func=" << fn;
        break;
      }
      case EventKind::DataSwapIn:
      case EventKind::DataSwapOut:
        out_ << "  home=" << support::hex16(event.value)
             << " bytes=" << event.extra;
        break;
      case EventKind::PowerFail:
        out_ << "  reboot=" << event.value;
        break;
      case EventKind::RecoveryExit:
        out_ << "  recovery-cycles=" << event.extra;
        break;
      case EventKind::CkptCommit:
      case EventKind::CkptRestore: {
        std::string fn = symbol(event.addr);
        if (!fn.empty())
            out_ << "  func=" << fn;
        break;
      }
      default: break;
    }
    std::string note = annotation(event);
    if (!note.empty())
        out_ << "  " << note;
    out_ << '\n';
}

CsvSink::CsvSink(std::ostream &out) : StreamSink(out)
{
    out_ << "cycle,category,kind,addr,value,extra,byte,symbol\n";
}

void
CsvSink::event(const Event &event)
{
    if (!takeSlot())
        return;
    std::string sym = symbol(
        event.kind == EventKind::CopyIn || event.kind == EventKind::Evict
            ? event.value
            : event.addr);
    // Symbols are [A-Za-z0-9_+x]-only, so no CSV quoting is needed.
    out_ << event.cycle << ',' << categoryNames(event.category()) << ','
         << kindName(event.kind) << ',' << support::hex16(event.addr)
         << ',' << support::hex16(event.value) << ',' << event.extra
         << ',' << int(event.byte) << ',' << sym << '\n';
}

ChromeTraceSink::ChromeTraceSink(std::ostream &out,
                                 std::uint32_t clock_hz)
    : StreamSink(out), clock_hz_(clock_hz ? clock_hz : 1)
{
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

double
ChromeTraceSink::ts(std::uint64_t cycle) const
{
    return static_cast<double>(cycle) * 1e6 /
           static_cast<double>(clock_hz_);
}

void
ChromeTraceSink::emitRecord(const std::string &name, const char *cat,
                            const char *phase, double ts, int tid,
                            const std::string &args_json)
{
    if (!first_)
        out_ << ',';
    first_ = false;
    std::string quoted;
    support::json::escape(quoted, name);
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "%.4f", ts);
    out_ << "\n{\"name\":" << quoted << ",\"cat\":\"" << cat
         << "\",\"ph\":\"" << phase << "\",\"ts\":" << stamp
         << ",\"pid\":1,\"tid\":" << tid;
    if (phase[0] == 'i')
        out_ << ",\"s\":\"t\"";
    if (!args_json.empty())
        out_ << ",\"args\":{" << args_json << "}";
    out_ << "}";
}

void
ChromeTraceSink::event(const Event &event)
{
    if (closed_ || !takeSlot())
        return;
    last_cycle_ = event.cycle;
    std::string addr_arg = support::cat(
        "\"addr\":\"", support::hex16(event.addr), "\"");
    switch (event.kind) {
      case EventKind::OwnerChange: {
        // One span per code owner on the "owner" track (tid 1).
        if (owner_span_open_) {
            emitRecord(ownerLabel(event.extra & 0xFF), "owner", "E",
                       ts(event.cycle), 1, "");
        }
        emitRecord(ownerLabel(event.value), "owner", "B",
                   ts(event.cycle), 1, addr_arg);
        owner_span_open_ = true;
        return;
      }
      case EventKind::MissEnter: {
        if (!miss_span_open_) {
            emitRecord("miss handler", "swap", "B", ts(event.cycle), 2,
                       support::cat("\"site\":\"",
                                    support::hex16(event.addr), "\""));
            miss_span_open_ = true;
        }
        return;
      }
      case EventKind::MissExit: {
        if (miss_span_open_) {
            emitRecord("miss handler", "swap", "E", ts(event.cycle), 2,
                       support::cat("\"cycles\":", event.extra,
                                    ",\"copies\":", event.value));
            miss_span_open_ = false;
        }
        return;
      }
      case EventKind::CopyBegin:
        emitRecord(kindName(event.kind), "swap", "i", ts(event.cycle), 2,
                   support::cat("\"dst\":\"", support::hex16(event.addr),
                                "\",\"src\":\"",
                                support::hex16(event.value),
                                "\",\"bytes\":", event.extra,
                                ",\"resumed\":",
                                event.byte ? "false" : "true"));
        return;
      case EventKind::CopyEnd:
        emitRecord(kindName(event.kind), "swap", "i", ts(event.cycle), 2,
                   addr_arg + support::cat(",\"src\":\"",
                                           support::hex16(event.value),
                                           "\""));
        return;
      case EventKind::CopyIn:
      case EventKind::Evict:
      case EventKind::DataSwapIn:
      case EventKind::DataSwapOut: {
        std::string name = kindName(event.kind);
        if (event.kind == EventKind::CopyIn ||
            event.kind == EventKind::Evict) {
            std::string fn = symbol(event.value);
            if (!fn.empty())
                name += " " + fn;
        }
        emitRecord(name, "swap", "i", ts(event.cycle), 2,
                   support::cat("\"sram\":\"",
                                support::hex16(event.addr),
                                "\",\"nvm\":\"",
                                support::hex16(event.value),
                                "\",\"bytes\":", event.extra));
        return;
      }
      default: {
        std::string args = addr_arg;
        if (event.kind == EventKind::InstrRetire) {
            std::string fn = symbol(event.addr);
            if (!fn.empty())
                args += support::cat(",\"func\":\"", fn, "\"");
            args += support::cat(",\"cycles\":",
                                 event.value + event.extra);
        } else if (event.kind == EventKind::FramStall) {
            args += support::cat(",\"stall\":", event.extra);
        }
        emitRecord(kindName(event.kind),
                   categoryNames(event.category()).c_str(), "i",
                   ts(event.cycle), 0, args);
        return;
      }
    }
}

void
ChromeTraceSink::finish()
{
    if (closed_)
        return;
    if (miss_span_open_)
        emitRecord("miss handler", "swap", "E", ts(last_cycle_), 2, "");
    if (owner_span_open_)
        emitRecord("owner", "owner", "E", ts(last_cycle_), 1, "");
    closed_ = true;
    out_ << "\n]}\n";
    out_.flush();
}

} // namespace swapram::trace
