#include "stats.h"

#include <algorithm>
#include <cmath>

#include "runtime/result_table.h"

namespace perfbench {

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    // Rank of the percentile in tenths of a percent, rounded up, so
    // exactly 100 samples leave 10 beyond p90 with no float slop.
    const auto per_mille = static_cast<std::size_t>(std::lround(pct * 10.0));
    const std::size_t at = (n * per_mille + 999) / 1000;
    return n > at ? n - at : 0;
}

double
tailPercentile(std::size_t n, std::size_t min_beyond)
{
    double best = 0.0;
    for (const double pct : {90.0, 99.0, 99.9})
        if (samplesBeyond(n, pct) >= min_beyond)
            best = pct;
    return best;
}

double
percentile(std::vector<double> values, double pct)
{
    std::sort(values.begin(), values.end());
    return gcc3d::percentile(values, pct);
}

TimingSummary
summarize(const std::vector<double> &values)
{
    TimingSummary s;
    s.n = values.size();
    s.p50 = percentile(values, 50.0);
    s.p90 = percentile(values, 90.0);
    s.tail_pct = tailPercentile(s.n);
    s.tail_value = s.tail_pct > 0.0 ? percentile(values, s.tail_pct) : s.p50;
    return s;
}

} // namespace perfbench
