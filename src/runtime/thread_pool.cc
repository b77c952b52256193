#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

namespace gcc3d {

/**
 * Bookkeeping of one fanOut(), shared by its caller and its helpers.
 * run/ctx point into the caller's frame and are only valid while a
 * chunk is unsettled: the caller cannot return before then, and a
 * chunk can only be run by whoever claimed it.
 */
struct ThreadPool::FanOutJob
{
    FanOutJob(std::size_t count, ChunkFn run, void *ctx)
        : count(count), run(run), ctx(ctx), errors(count)
    {
    }

    /** Claim the next chunk; count when none is left. */
    std::size_t
    claim()
    {
        return next.fetch_add(1);
    }

    bool
    exhausted() const
    {
        return next.load() >= count;
    }

    /** Run claimed chunk @p c and settle it. */
    void
    runChunk(std::size_t c)
    {
        try {
            run(ctx, c);
        } catch (...) {
            errors[c] = std::current_exception();
        }
        MutexLock lock(mutex);
        if (++settled == count)
            all_settled.notifyAll();
    }

    const std::size_t count;
    const ChunkFn run;
    void *const ctx;
    std::atomic<std::size_t> next{0};
    /** Slot c is written only by chunk c's runner, and read by the
     *  caller once settled == count (ordered by mutex). */
    std::vector<std::exception_ptr> errors;
    Mutex mutex;
    CondVar all_settled;
    std::size_t settled GUARDED_BY(mutex) = 0;
};

ThreadPool::ThreadPool(int workers)
    : obs_tasks_(obs::MetricsRegistry::global().counter(
          "runtime.pool.tasks")),
      obs_depth_(obs::MetricsRegistry::global().gauge(
          "runtime.pool.queue_depth")),
      obs_wait_ms_(obs::MetricsRegistry::global().histogram(
          "runtime.pool.queue_wait_ms")),
      obs_fanout_chunks_(obs::MetricsRegistry::global().counter(
          "runtime.pool.fanout_chunks")),
      obs_helped_chunks_(obs::MetricsRegistry::global().counter(
          "runtime.pool.helped_chunks"))
{
    int count = std::max(1, workers);
    workers_.reserve(static_cast<std::size_t>(count));
    try {
        for (int i = 0; i < count; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // Thread creation failed (e.g. process thread limit): join
        // the workers already started, then let the caller see the
        // exception instead of std::terminate from ~thread.
        stopAndJoin();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    if (joined_)
        return;
    stopAndJoin();
}

void
ThreadPool::stopAndJoin()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    cv_.notifyAll();
    for (std::thread &w : workers_)
        w.join();
    joined_ = true;
}

int
ThreadPool::hardwareWorkers()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

int
ThreadPool::idleWorkers() const
{
    MutexLock lock(mutex_);
    if (stopping_)
        return 0;
    return std::max(0, idle_ - static_cast<int>(queue_.size()));
}

bool
ThreadPool::post(std::function<void()> task)
{
    {
        MutexLock lock(mutex_);
        if (stopping_)
            return false;
#if GCC3D_OBS_ENABLED
        // Stamp the enqueue so the dequeuing worker can record how
        // long the task sat in the queue.
        const MonoTime enqueued = obs::tickNow();
        obs::Histogram &wait_ms = obs_wait_ms_;
        queue_.push([task = std::move(task), enqueued, &wait_ms] {
            wait_ms.record(msBetween(enqueued, obs::tickNow()));
            task();
        });
        obs_tasks_.add();
        obs_depth_.set(static_cast<double>(queue_.size()));
#else
        queue_.push(std::move(task));
#endif
    }
    cv_.notifyOne();
    return true;
}

void
ThreadPool::helpFanOut(const std::shared_ptr<FanOutJob> &job)
{
    const std::size_t c = job->claim();
    if (c >= job->count)
        return;
    // Counted before the chunk settles, so the caller sees it on return.
    obs_helped_chunks_.add();
    job->runChunk(c);
    if (!job->exhausted())
        post([this, job] { helpFanOut(job); });
}

void
ThreadPool::fanOut(std::size_t count, ChunkFn run, void *ctx)
{
    if (count == 0)
        return;
    obs_fanout_chunks_.add(static_cast<std::int64_t>(count));
    auto job = std::make_shared<FanOutJob>(count, run, ctx);
    // A posted helper stays live (re-posting itself) until the chunks
    // run out, so the posts are capped in total, not per look.
    const std::size_t max_helpers = std::min(
        static_cast<std::size_t>(workerCount() - 1), count - 1);
    std::size_t helpers = 0;
    auto recruit = [&] {
        if (helpers >= max_helpers || job->exhausted())
            return;
        for (int idle = idleWorkers(); idle > 0 && helpers < max_helpers;
             --idle, ++helpers)
            if (!post([this, job] { helpFanOut(job); })) {
                helpers = max_helpers;  // stopping: the caller runs the rest
                return;
            }
    };
    for (std::size_t c = job->claim(); c < count; c = job->claim()) {
        recruit();
        job->runChunk(c);
    }
    FanOutJob &j = *job;
    {
        UniqueLock lock(j.mutex);
        while (j.settled < count)
            j.all_settled.wait(lock);
    }
    for (const std::exception_ptr &error : j.errors)
        if (error)
            std::rethrow_exception(error);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            UniqueLock lock(mutex_);
            while (!stopping_ && queue_.empty()) {
                ++idle_;
                cv_.wait(lock);
                --idle_;
            }
            if (queue_.empty())
                return;  // stopping_ && drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        // submit() wraps a packaged_task, which captures exceptions
        // into its future; post()ed tasks must not throw.
        task();
    }
}

} // namespace gcc3d
