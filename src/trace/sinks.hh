/**
 * @file
 * Stream-writing trace sinks: human-readable text, CSV, and Chrome
 * trace_event JSON (loadable in Perfetto / chrome://tracing).
 *
 * Sinks write as events arrive, so arbitrarily long runs stream to
 * disk without buffering. Each sink accepts an optional event limit
 * (`swapram_tool --trace-limit N`) and an optional symbolizer that
 * maps an address to a "func+0x12"-style label.
 */

#ifndef SWAPRAM_TRACE_SINKS_HH
#define SWAPRAM_TRACE_SINKS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "trace/trace.hh"

namespace swapram::trace {

/** Maps an address to a symbol label; empty string = no symbol. */
using Symbolizer = std::function<std::string(std::uint16_t addr)>;

/** Shared plumbing for the stream-writing sinks. */
class StreamSink : public Sink
{
  public:
    explicit StreamSink(std::ostream &out) : out_(out) {}

    /** Stop writing after @p limit events (0 = unlimited). */
    void setLimit(std::uint64_t limit) { limit_ = limit; }

    void setSymbolizer(Symbolizer symbolizer)
    {
        symbolize_ = std::move(symbolizer);
    }

    /** Extra per-event annotation (e.g. disassembly for retires). */
    void setAnnotator(std::function<std::string(const Event &)> fn)
    {
        annotate_ = std::move(fn);
    }

  protected:
    bool
    takeSlot()
    {
        if (limit_ && written_ >= limit_)
            return false;
        ++written_;
        return true;
    }

    std::string symbol(std::uint16_t addr) const;
    std::string annotation(const Event &event) const;

    std::ostream &out_;
    std::uint64_t limit_ = 0;
    std::uint64_t written_ = 0;
    Symbolizer symbolize_;
    std::function<std::string(const Event &)> annotate_;
};

/** One line per event, tabular, for eyeballs and grep. */
class TextSink : public StreamSink
{
  public:
    using StreamSink::StreamSink;
    void event(const Event &event) override;
};

/** RFC-4180-ish CSV with a header row; for spreadsheets and pandas. */
class CsvSink : public StreamSink
{
  public:
    explicit CsvSink(std::ostream &out);
    void event(const Event &event) override;
};

/**
 * Chrome trace_event JSON (the "JSON Array Format" wrapped in an
 * object). Owner changes and miss-handler spans become duration
 * events on dedicated tracks; everything else becomes instant events.
 * Open the file in https://ui.perfetto.dev or chrome://tracing.
 */
class ChromeTraceSink : public StreamSink
{
  public:
    /** @p clock_hz converts cycle stamps to microseconds. */
    ChromeTraceSink(std::ostream &out, std::uint32_t clock_hz);

    void event(const Event &event) override;
    void finish() override;

  private:
    double ts(std::uint64_t cycle) const;
    void emitRecord(const std::string &name, const char *cat,
                    const char *phase, double ts, int tid,
                    const std::string &args_json);

    std::uint32_t clock_hz_;
    bool first_ = true;
    bool closed_ = false;
    bool owner_span_open_ = false;
    bool miss_span_open_ = false;
    std::uint64_t last_cycle_ = 0;
};

} // namespace swapram::trace

#endif // SWAPRAM_TRACE_SINKS_HH
