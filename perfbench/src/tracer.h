/**
 * @file
 * In-memory span tracer of the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a gcc3d layer (scene generation, the renderers, the scheduler,
 * sweep jobs).  Each span carries a name, start and end, the span
 * that caused it, and an operation id shared by every span of one
 * frame or job; counts recorded at the same boundary ride on the span
 * as arguments.  Where a layer runs inside the library (the
 * scheduler's per-frame queue wait and render), its spans are derived
 * afterwards from the records the library returns and marked so.
 *
 * Spans stay in memory until the run ends; chromeTraceJson() renders
 * them as Chrome trace-event JSON (chrome://tracing, Perfetto), and
 * selfTimes() gives each span name's self time: its duration minus
 * the part of that interval its child spans cover.
 *
 * A disabled tracer records nothing: every call returns at once, so
 * untraced runs measure the program, not the tracer.
 */
#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled);
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Milliseconds since the tracer was created. */
    double nowMs() const;

    /** Open a span now; returns its handle (-1 when disabled). */
    int open(const std::string &name, std::int64_t id, int parent = -1);
    /** Close span @p handle now (no-op for -1). */
    void close(int handle);
    /**
     * Record a finished span with explicit times on the tracer clock;
     * @p derived marks spans reconstructed from library records.
     */
    int record(const std::string &name, std::int64_t id, int parent,
               double start_ms, double end_ms, bool derived);
    /** Attach a count to span @p handle (no-op for -1). */
    void count(int handle, const std::string &key, double value);

    std::size_t spanCount() const;

    /** Chrome trace-event JSON of every span recorded. */
    std::string chromeTraceJson() const;

    struct SelfTime
    {
        std::size_t spans = 0;
        double total_ms = 0.0;  ///< summed span durations
        double self_ms = 0.0;   ///< minus time covered by children
    };
    /** Self time per span name. */
    std::map<std::string, SelfTime> selfTimes() const;

  private:
    struct SpanRecord
    {
        std::string name;
        std::int64_t id = 0;
        int parent = -1;
        int thread = 0;
        bool derived = false;
        double start_ms = 0.0;
        double end_ms = 0.0;
        std::vector<std::pair<std::string, double>> counts;
    };

    const bool enabled_;
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name, std::int64_t id,
         int parent = -1)
        : tracer_(tracer),
          handle_(tracer.enabled() ? tracer.open(name, id, parent) : -1)
    {}
    ~Span() { tracer_.close(handle_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int handle() const { return handle_; }
    void count(const std::string &key, double value)
    { tracer_.count(handle_, key, value); }

  private:
    Tracer &tracer_;
    const int handle_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
