#include "tracer.h"

#include <algorithm>
#include <atomic>

#include "json.h"

namespace perfbench {
namespace {

/** Small stable per-thread number for the trace's tid field. */
int
threadNumber()
{
    static std::atomic<int> next{0};
    thread_local const int number = next.fetch_add(1);
    return number;
}

} // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{}

double
Tracer::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::open(const std::string &name, std::int64_t id, int parent)
{
    if (!enabled_)
        return -1;
    const double start = nowMs();
    SpanRecord rec;
    rec.name = name;
    rec.id = id;
    rec.parent = parent;
    rec.thread = threadNumber();
    rec.start_ms = start;
    rec.end_ms = start;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::close(int handle)
{
    if (handle < 0)
        return;
    const double end = nowMs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(handle)].end_ms = end;
}

int
Tracer::record(const std::string &name, std::int64_t id, int parent,
               double start_ms, double end_ms, bool derived)
{
    if (!enabled_)
        return -1;
    SpanRecord rec;
    rec.name = name;
    rec.id = id;
    rec.parent = parent;
    rec.thread = threadNumber();
    rec.derived = derived;
    rec.start_ms = start_ms;
    rec.end_ms = std::max(start_ms, end_ms);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::count(int handle, const std::string &key, double value)
{
    if (handle < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(handle)].counts.emplace_back(key, value);
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::string
Tracer::chromeTraceJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        JsonObject args;
        args.add("id", s.id)
            .add("span", static_cast<std::int64_t>(i))
            .add("parent", s.parent);
        for (const auto &[key, value] : s.counts)
            args.add(key, value);
        JsonObject ev;
        ev.add("name", s.name)
            .add("cat", s.derived ? "derived" : "span")
            .add("ph", "X")
            .add("ts", s.start_ms * 1000.0)
            .add("dur", (s.end_ms - s.start_ms) * 1000.0)
            .add("pid", 1)
            .add("tid", s.thread)
            .add("args", args);
        out += ev.str();
        out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    return out + "]}\n";
}

std::map<std::string, Tracer::SelfTime>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const int p = spans_[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans_.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> cover;
        for (const std::size_t c : children[i]) {
            const double a = std::max(s.start_ms, spans_[c].start_ms);
            const double b = std::min(s.end_ms, spans_[c].end_ms);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0, reach = s.start_ms;
        for (const auto &[a, b] : cover) {
            if (b <= reach)
                continue;
            covered += b - std::max(a, reach);
            reach = b;
        }
        SelfTime &t = out[s.name];
        ++t.spans;
        t.total_ms += s.end_ms - s.start_ms;
        t.self_ms += (s.end_ms - s.start_ms) - covered;
    }
    return out;
}

} // namespace perfbench
