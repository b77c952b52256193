#include "obs/metrics_registry.h"

#include <limits>
#include <sstream>

namespace gcc3d::obs {

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    MutexLock lock(mutex_);
    auto [it, inserted] = counters_.try_emplace(name, nullptr);
    if (inserted)
        it->second = std::make_unique<Counter>();
    return *it->second;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    MutexLock lock(mutex_);
    auto [it, inserted] = gauges_.try_emplace(name, nullptr);
    if (inserted)
        it->second = std::make_unique<Gauge>();
    return *it->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    MutexLock lock(mutex_);
    auto [it, inserted] = histograms_.try_emplace(name, nullptr);
    if (inserted)
        it->second = std::make_unique<Histogram>();
    return *it->second;
}

void
MetricsRegistry::resetAll()
{
    MutexLock lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    MutexLock lock(mutex_);

    os << "{\"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        os << (first ? "" : ", ") << "\n   \"" << name
           << "\": " << c->value();
        first = false;
    }
    os << (first ? "}" : "\n  }") << ",\n \"gauges\": {";

    first = true;
    for (const auto &[name, g] : gauges_) {
        os << (first ? "" : ",") << "\n   \"" << name
           << "\": {\"count\": " << g->count() << ", \"last\": " << g->last()
           << ", \"mean\": " << g->mean() << ", \"min\": " << g->min()
           << ", \"max\": " << g->max() << "}";
        first = false;
    }
    os << (first ? "}" : "\n  }") << ",\n \"histograms\": {";

    first = true;
    for (const auto &[name, h] : histograms_) {
        os << (first ? "" : ",") << "\n   \"" << name
           << "\": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
           << ", \"mean\": " << h->mean() << ", \"buckets\": [";
        bool first_bucket = true;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            const std::int64_t n = h->bucketCount(i);
            if (n == 0)
                continue;
            os << (first_bucket ? "" : ", ") << "{\"le\": ";
            // JSON has no Infinity literal; the overflow bucket keys
            // on a sentinel string.
            if (i == Histogram::kBuckets - 1)
                os << "\"inf\"";
            else
                os << Histogram::bucketUpperBound(i);
            os << ", \"count\": " << n << "}";
            first_bucket = false;
        }
        os << "]}";
        first = false;
    }
    os << (first ? "}" : "\n  }") << "}";
    return os.str();
}

} // namespace gcc3d::obs
