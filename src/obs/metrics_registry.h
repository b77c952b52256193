/**
 * @file
 * Named counters, gauges and fixed-bucket log-scale histograms.
 *
 * The registry is the numeric side of the observability layer: where
 * the PerfRecorder answers "where did the time go", the registry
 * answers "how often / how many / how deep" — pool queue depth and
 * task wait, residency hits/faults/evictions, scheduler sheds,
 * temporal-cache tier hits, scene IO volume.
 *
 * Naming scheme: dotted lower-case `<module>.<subsystem>.<metric>`
 * (e.g. "runtime.pool.queue_wait_ms", "serve.sheds.edf",
 * "lod.residency.hits", "render.temporal.tiles_reused").  Histogram
 * names end in their unit.
 *
 * Hot-path contract: counter/gauge/histogram updates are lock-free
 * atomics; the by-name lookup takes the registry mutex, so call sites
 * on hot paths cache the returned reference (constructor member, or a
 * function-local static) — references stay valid for the registry's
 * lifetime.
 */

#ifndef GCC3D_OBS_METRICS_REGISTRY_H
#define GCC3D_OBS_METRICS_REGISTRY_H

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"

namespace gcc3d::obs {

/** Log2 bucket layout shared by every histogram: bucket 0 holds
 *  zero/negative/sub-2^kMinExp values, buckets 1..kBuckets-2 are
 *  [2^(kMinExp+i-1), 2^(kMinExp+i)), the last bucket is overflow. */
struct HistogramBuckets
{
    static constexpr int kBuckets = 32;
    static constexpr int kMinExp = -10;  ///< bucket 1 starts at 2^-10

    static int
    bucketIndex(double v)
    {
        if (!(v > 0.0))
            return 0;  // zero, negative, NaN
        if (std::isinf(v))
            return kBuckets - 1;
        const int idx = std::ilogb(v) - kMinExp + 1;
        return idx < 0 ? 0 : (idx >= kBuckets ? kBuckets - 1 : idx);
    }

    /** Inclusive lower bound of bucket @p i (0 for the underflow
     *  bucket). */
    static double
    bucketLowerBound(int i)
    {
        return i <= 0 ? 0.0 : std::exp2(kMinExp + i - 1);
    }

    /** Exclusive upper bound of bucket @p i (+inf for the last). */
    static double
    bucketUpperBound(int i)
    {
        return i >= kBuckets - 1
                   ? std::numeric_limits<double>::infinity()
                   : std::exp2(kMinExp + i);
    }
};

/** Monotonic event count. */
class Counter
{
  public:
    void
    add(std::int64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        v_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/** Sampled instantaneous value with running count/sum/min/max. */
class Gauge
{
  public:
    void
    set(double v)
    {
        last_.store(v, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        atomicAdd(sum_, v);
        atomicMin(min_, v);
        atomicMax(max_, v);
    }

    std::int64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double last() const { return last_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    double
    mean() const
    {
        const std::int64_t n = count();
        return n > 0 ? sum() / static_cast<double>(n) : 0.0;
    }

    double
    min() const
    {
        return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
    }

    double
    max() const
    {
        return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
    }

    void
    reset()
    {
        count_.store(0, std::memory_order_relaxed);
        last_.store(0.0, std::memory_order_relaxed);
        sum_.store(0.0, std::memory_order_relaxed);
        min_.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
        max_.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    }

  private:
    static void
    atomicAdd(std::atomic<double> &a, double v)
    {
        double cur = a.load(std::memory_order_relaxed);
        while (!a.compare_exchange_weak(cur, cur + v,
                                        std::memory_order_relaxed)) {
        }
    }

    static void
    atomicMin(std::atomic<double> &a, double v)
    {
        double cur = a.load(std::memory_order_relaxed);
        while (v < cur && !a.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    static void
    atomicMax(std::atomic<double> &a, double v)
    {
        double cur = a.load(std::memory_order_relaxed);
        while (v > cur && !a.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> count_{0};
    std::atomic<double> last_{0.0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/** Fixed-bucket log-scale distribution (see HistogramBuckets). */
class Histogram : public HistogramBuckets
{
  public:
    void
    record(double v)
    {
        buckets_[static_cast<std::size_t>(bucketIndex(v))].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        double cur = sum_.load(std::memory_order_relaxed);
        while (!sum_.compare_exchange_weak(cur, cur + v,
                                           std::memory_order_relaxed)) {
        }
    }

    std::int64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const { return sum_.load(std::memory_order_relaxed); }

    double
    mean() const
    {
        const std::int64_t n = count();
        return n > 0 ? sum() / static_cast<double>(n) : 0.0;
    }

    std::int64_t
    bucketCount(int i) const
    {
        return buckets_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0.0, std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
    std::atomic<std::int64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * Process-wide name -> instrument map.  Lookups are mutex-protected
 * and return stable references; updates through the references are
 * lock-free.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    static MetricsRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Zero every instrument (names and references survive). */
    void resetAll();

    /** {"counters": {...}, "gauges": {...}, "histograms": {...}},
     *  names sorted; histogram buckets exported sparse as
     *  [{"le": upper, "count": n}, ...]. */
    std::string toJson() const;

  private:
    mutable Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_
        GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_
        GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        GUARDED_BY(mutex_);
};

} // namespace gcc3d::obs

#endif // GCC3D_OBS_METRICS_REGISTRY_H
