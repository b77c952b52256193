/**
 * @file
 * Helpers shared by the workloads.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <functional>
#include <future>
#include <vector>

#include "render/gaussian_wise_renderer.h"
#include "runtime/thread_pool.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

/** Steady-clock milliseconds (arbitrary epoch). */
inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The gw renderer configuration of every workload: Cmode sub-views. */
inline gcc3d::GaussianWiseConfig
gwConfig()
{
    gcc3d::GaussianWiseConfig c;
    c.subview_size = kSubview;
    return c;
}

/** Run every task on @p pool and wait for all; rethrows the first error. */
inline void
runAll(gcc3d::ThreadPool &pool, const std::vector<std::function<void()>> &tasks)
{
    std::vector<std::future<void>> pending;
    pending.reserve(tasks.size());
    for (const auto &task : tasks)
        pending.push_back(pool.submit(task));
    for (auto &f : pending)
        f.wait();
    for (auto &f : pending)
        f.get();
}

/**
 * setup_s: the median of the repeated set-up passes plus the one-time
 * warm-up, in seconds.
 */
inline double
setupSeconds(const std::vector<double> &rep_ms, double warmup_ms)
{
    return (percentile(rep_ms, 50.0) + warmup_ms) / 1000.0;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
