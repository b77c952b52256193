/**
 * @file
 * Fixed-size worker pool with futures-based task submission and
 * claimed-chunk fan-out.
 *
 * The batch-simulation runtime fans sweep jobs out across a small
 * number of long-lived worker threads.  Tasks are arbitrary callables
 * queued FIFO: submit() returns a std::future carrying the callable's
 * result (or its exception); post() queues a fire-and-forget task.
 * fanOut() runs the chunks of one index space on the calling thread
 * *and* on whichever workers are idle, the primitive behind
 * runChunks (runtime/parallel_for.h).
 *
 * Shutdown contract: shutdown() (which the destructor calls) stops
 * accepting new work, lets the workers finish every task already
 * queued, then joins them — no queued task is ever discarded, so a
 * future obtained from a successful submit() always becomes ready.
 * Once shutdown has begun, submit() throws std::runtime_error and
 * post() returns false instead of silently queueing a task that may
 * never run; fanOut() then runs every chunk on its caller.
 * shutdown() is idempotent but must not race itself or the
 * destructor: call it from one owning thread, the same one that will
 * destroy the pool.
 */

#ifndef GCC3D_RUNTIME_THREAD_POOL_H
#define GCC3D_RUNTIME_THREAD_POOL_H

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"
#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"

namespace gcc3d {

/** A fixed pool of worker threads executing queued tasks in FIFO order. */
class ThreadPool
{
  public:
    /**
     * Start @p workers threads.  Values below 1 are clamped to 1, so a
     * "serial" pool is simply ThreadPool(1).
     */
    explicit ThreadPool(int workers);

    /** Equivalent to shutdown(): drains the queue, then joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int workerCount() const { return static_cast<int>(workers_.size()); }

    /** Number of hardware threads (at least 1). */
    static int hardwareWorkers();

    /**
     * Stop accepting work, complete every queued task, join the
     * workers.  Idempotent; owning-thread only (see file comment).
     * After it returns, submit() throws and no worker is running.
     */
    void shutdown();

    /** True once shutdown has begun; late submits are rejected. */
    bool
    stopping() const
    {
        MutexLock lock(mutex_);
        return stopping_;
    }

    /**
     * Workers waiting for work that no queued task will wake: the
     * number of helpers a fan-out can recruit right now.  0 once
     * shutdown has begun.  A snapshot — concurrent posts may take
     * the workers it counts.
     */
    int idleWorkers() const;

    /**
     * Enqueue @p fn for execution on a worker thread.
     *
     * @return a future holding fn's return value; an exception thrown
     *         by fn is captured and rethrown on future::get().
     * @throws std::runtime_error if shutdown has begun — a task
     *         accepted then would have no worker guaranteed to run it.
     */
    template <typename F>
    std::future<std::invoke_result_t<std::decay_t<F>>>
    submit(F &&fn)
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        if (!post([task] { (*task)(); }))
            throw std::runtime_error(
                "ThreadPool::submit after shutdown began");
        return result;
    }

    /**
     * Enqueue @p fn with no future: the fire-and-forget form the
     * fan-out helpers and the frame scheduler's render tasks use.
     * @p fn must not throw (an escaping exception terminates the
     * process); catch inside it.
     *
     * @return false, with @p fn not queued, once shutdown has begun.
     */
    bool post(std::function<void()> fn);

    /** Chunk body of fanOut(): runs chunk @p chunk of @p ctx's job. */
    using ChunkFn = void (*)(void *ctx, std::size_t chunk);

    /**
     * Run @p run(ctx, c) once for every c in [0, count), blocking
     * until all have finished.  Chunks are claimed from one atomic
     * index by the calling thread and by helpers posted to the queue,
     * at most min(workerCount() - 1, count - 1) of them.  Helpers are
     * only recruited for workers idleWorkers() reports, and the
     * caller looks again before each chunk it runs, so a worker
     * freed mid-fan-out still joins in; with none idle, no helper is
     * posted at all.  The caller claims a chunk before recruiting, so
     * it always runs at least one.  A helper runs one chunk per
     * dequeue and posts itself again while chunks remain, so a task
     * queued meanwhile waits behind at most one chunk.
     *
     * The caller only ever runs chunks of this fan-out — never an
     * unrelated queued task — so thread_local scratch it holds across
     * the call stays its own, and a fan-out nested inside a pool task
     * (or inside a chunk) cannot deadlock: with no idle worker the
     * caller simply runs every chunk itself.  Each chunk's exception
     * is kept in its slot; once every chunk has settled, the first
     * in chunk order is rethrown.  Helpers share ownership of the
     * job's bookkeeping, and one that dequeues after the last chunk
     * was claimed returns without touching @p run or @p ctx.
     */
    void fanOut(std::size_t count, ChunkFn run, void *ctx);

  private:
    struct FanOutJob;

    void workerLoop();

    /** One helper dequeue of @p job: run a chunk, then post itself
     *  again while chunks remain. */
    void helpFanOut(const std::shared_ptr<FanOutJob> &job);

    /** Begin stop and join every started worker (ctor failure path
     *  and shutdown share it).  Owning-thread only. */
    void stopAndJoin();

    /** Started threads; owning thread only (ctor/shutdown/dtor). */
    std::vector<std::thread> workers_;
    bool joined_ = false;  ///< owning thread only

    mutable Mutex mutex_;
    CondVar cv_;
    std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
    bool stopping_ GUARDED_BY(mutex_) = false;
    int idle_ GUARDED_BY(mutex_) = 0;  ///< workers blocked on cv_

    /** Pool instrumentation; registry refs cached at construction so
     *  submit() never does a by-name lookup (no-ops when compiled
     *  out).  Updates are lock-free atomics.  fanout_chunks counts
     *  every chunk fanOut() ran, helped_chunks the share a thread
     *  other than the fan-out's caller ran. */
    obs::Counter &obs_tasks_;
    obs::Gauge &obs_depth_;
    obs::Histogram &obs_wait_ms_;
    obs::Counter &obs_fanout_chunks_;
    obs::Counter &obs_helped_chunks_;
};

} // namespace gcc3d

#endif // GCC3D_RUNTIME_THREAD_POOL_H
