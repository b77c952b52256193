/**
 * @file
 * Sample statistics of the benchmark: percentiles and the
 * tail-percentile rule.
 *
 * A timing is reported as its median plus the highest standard tail
 * percentile (p90, p99, p99.9) that has at least ten samples beyond
 * it, together with the sample count: a p90 read off fewer than 100
 * samples is an extrapolation, not a measurement.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples of a run that lie strictly beyond percentile @p pct. */
std::size_t samplesBeyond(std::size_t n, double pct);

/**
 * The highest of 90, 99 and 99.9 with at least @p min_beyond samples
 * beyond it among @p n samples, or 0 when even p90 has fewer.
 */
double tailPercentile(std::size_t n, std::size_t min_beyond = 10);

/**
 * Percentile @p pct in [0, 100] of @p values by linear interpolation
 * between closest ranks (numpy's default).  Empty input gives 0.
 */
double percentile(std::vector<double> values, double pct);

/** Median, p90, the rule's tail percentile and the sample count. */
struct TimingSummary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double tail_pct = 0.0;    ///< tailPercentile(n); 0 = none valid
    double tail_value = 0.0;  ///< value at tail_pct (p50 when none)
};

TimingSummary summarize(const std::vector<double> &values);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
