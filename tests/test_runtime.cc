/**
 * @file
 * Tests of the batch-simulation runtime: thread-pool behaviour under
 * stress, sweep expansion, parallel-vs-serial determinism, and
 * ResultTable aggregation/percentiles/export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "runtime/parallel_for.h"
#include "runtime/result_table.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace gcc3d {
namespace {

// ---- ThreadPool ----

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4);

    constexpr int kTasks = 2000;
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i)
        futures.push_back(pool.submit([i, &counter] {
            counter.fetch_add(1, std::memory_order_relaxed);
            return i;
        }));
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
    EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPool, ClampsWorkerCountToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
    EXPECT_GE(ThreadPool::hardwareWorkers(), 1);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(f.get(), std::runtime_error);
    // The worker survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        // No explicit wait: destruction must complete the queue.
    }
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasksAndIsIdempotent)
{
    std::atomic<int> done{0};
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([&done] {
            done.fetch_add(1, std::memory_order_relaxed);
        }));
    EXPECT_FALSE(pool.stopping());
    pool.shutdown();
    // Every task accepted before shutdown ran to completion...
    EXPECT_EQ(done.load(), 64);
    // ...and every future from a successful submit is ready.
    for (std::future<void> &f : futures)
        EXPECT_NO_THROW(f.get());
    EXPECT_TRUE(pool.stopping());
    pool.shutdown();  // second call is a no-op
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, SubmitAfterShutdownThrowsInsteadOfWedging)
{
    ThreadPool pool(2);
    pool.shutdown();
    // A task accepted now would have no worker guaranteed to run it,
    // and a caller blocking on its future would wedge forever — the
    // pool must reject it loudly instead.
    EXPECT_THROW(pool.submit([] { return 7; }), std::runtime_error);
    // The rejection is stateless: it keeps rejecting, not crashing.
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, PostRunsTasksAndRefusesAfterShutdown)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 32; ++i)
        EXPECT_TRUE(pool.post([&done] { ++done; }));
    pool.shutdown();
    EXPECT_EQ(done.load(), 32);  // queued posts drain like submits
    EXPECT_FALSE(pool.post([&done] { ++done; }));
    EXPECT_EQ(pool.idleWorkers(), 0);
    EXPECT_EQ(done.load(), 32);
}

// ---- Sweep expansion ----

TEST(SweepSpec, ExpandsFullCrossProductInCanonicalOrder)
{
    SweepSpec spec;
    spec.scenes = {test::tinySpec(), test::tinyRoomSpec()};
    spec.backends = {Backend::Gcc, Backend::Gscore};
    ConfigVariant small;
    small.name = "small-buf";
    small.gcc.image_buffer_kb = 32.0;
    spec.variants = {ConfigVariant{}, small};
    spec.frames = 3;

    std::vector<SimJob> jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), spec.jobCount());
    ASSERT_EQ(jobs.size(), 2u * 3u * 2u * 2u);

    // Ids are dense and in order; scene-major, then frame, variant,
    // backend.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].id, static_cast<int>(i));
    EXPECT_EQ(jobs[0].spec.name, "tiny");
    EXPECT_EQ(jobs[0].frame, 0);
    EXPECT_EQ(jobs[0].variant.name, "base");
    EXPECT_EQ(jobs[0].backend, Backend::Gcc);
    EXPECT_EQ(jobs[1].backend, Backend::Gscore);
    EXPECT_EQ(jobs[2].variant.name, "small-buf");
    EXPECT_EQ(jobs[4].frame, 1);
    EXPECT_EQ(jobs[12].spec.name, "tiny-room");
}

TEST(Backend, NamesRoundTrip)
{
    for (Backend b : {Backend::Gcc, Backend::Gscore, Backend::Gpu})
        EXPECT_EQ(backendFromName(backendName(b)), b);
    EXPECT_EQ(backendFromName("GSCore"), Backend::Gscore);
    EXPECT_THROW(backendFromName("tpu"), std::invalid_argument);
}

// ---- Parallel-vs-serial determinism ----

SweepSpec
tinySweep()
{
    SweepSpec spec;
    spec.scenes = {test::tinySpec(), test::tinyRoomSpec()};
    spec.backends = {Backend::Gcc, Backend::Gscore, Backend::Gpu};
    ConfigVariant small;
    small.name = "small-buf";
    small.gcc.image_buffer_kb = 16.0;
    spec.variants = {ConfigVariant{}, small};
    spec.frames = 2;
    spec.scale = 1.0f;  // tinySpec counts are already small
    return spec;
}

TEST(SweepRunner, ParallelMatchesSerialBitExactly)
{
    SweepSpec spec = tinySweep();

    SweepOptions serial;
    serial.workers = 1;
    std::vector<JobResult> s = SweepRunner(serial).run(spec);

    SweepOptions parallel;
    parallel.workers = 4;
    std::vector<JobResult> p = SweepRunner(parallel).run(spec);

    ASSERT_EQ(s.size(), spec.jobCount());
    ASSERT_EQ(p.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_TRUE(s[i].ok) << s[i].error;
        EXPECT_TRUE(sameSimOutput(s[i], p[i]))
            << "job " << i << " (" << s[i].scene << "/" << s[i].variant
            << "/" << backendName(s[i].backend) << "/f" << s[i].frame
            << ") diverged between serial and parallel runs";
    }
    // The sweep exercises every backend for real.
    std::set<Backend> seen;
    for (const JobResult &r : s) {
        seen.insert(r.backend);
        EXPECT_GT(r.fps, 0.0);
        EXPECT_GT(r.image_checksum, 0.0);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(SweepRunner, RepeatedParallelRunsAreIdentical)
{
    SweepSpec spec = tinySweep();
    spec.backends = {Backend::Gcc};
    spec.variants = {ConfigVariant{}};

    SweepOptions options;
    options.workers = 3;
    SweepRunner runner(options);
    std::vector<JobResult> a = runner.run(spec);
    std::vector<JobResult> b = runner.run(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameSimOutput(a[i], b[i]));
}

TEST(SweepRunner, ReportsPerJobFailuresWithoutAbortingTheSweep)
{
    SceneSpec tiny = test::tinySpec();

    // runJob throws on invalid frame indices.
    SceneData scene = SweepRunner::buildScene(tiny, 1.0f, 1);
    SimJob job;
    job.spec = tiny;
    job.frame = 5;  // trajectory has 1 frame
    EXPECT_THROW(SweepRunner::runJob(job, scene), std::out_of_range);

    // The pooled path turns a failing scene build (invalid scale)
    // into ok=false records for every job of that scene, while other
    // scenes complete normally.
    SweepSpec spec;
    spec.scenes = {tiny};
    spec.backends = {Backend::Gcc, Backend::Gscore};
    spec.frames = 1;
    spec.scale = -1.0f;

    SweepOptions options;
    options.workers = 2;
    std::vector<JobResult> results = SweepRunner(options).run(spec);
    ASSERT_EQ(results.size(), 2u);
    for (const JobResult &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("scene generation failed"),
                  std::string::npos)
            << r.error;
        EXPECT_EQ(r.scene, "tiny");
    }

    // An empty scene, by contrast, is a valid (trivial) job.
    SceneSpec empty = test::tinySpec();
    empty.gaussian_count = 0;
    SweepSpec ok_spec;
    ok_spec.scenes = {empty};
    ok_spec.backends = {Backend::Gcc};
    ok_spec.frames = 1;
    std::vector<JobResult> ok_results =
        SweepRunner(SweepOptions{}).run(ok_spec);
    ASSERT_EQ(ok_results.size(), 1u);
    EXPECT_TRUE(ok_results[0].ok) << ok_results[0].error;
}

TEST(SweepRunner, OnResultSeesEveryJobInIdOrder)
{
    SweepSpec spec = tinySweep();
    spec.scenes = {test::tinySpec()};
    spec.backends = {Backend::Gcc};
    spec.variants = {ConfigVariant{}};
    spec.frames = 3;

    std::vector<int> order;
    SweepOptions options;
    options.workers = 2;
    options.on_result = [&order](const JobResult &r) {
        order.push_back(r.id);
    };
    SweepRunner(options).run(spec);
    ASSERT_EQ(order.size(), 3u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<int>(i));
}

// ---- Aggregation / ResultTable ----

TEST(Aggregate, PercentilesUseLinearInterpolation)
{
    std::vector<double> sorted = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(sorted, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 50.0), 25.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 25.0), 17.5);

    Aggregate a = aggregate({40.0, 10.0, 30.0, 20.0});
    EXPECT_EQ(a.count, 4u);
    EXPECT_DOUBLE_EQ(a.total, 100.0);
    EXPECT_DOUBLE_EQ(a.mean, 25.0);
    EXPECT_DOUBLE_EQ(a.min, 10.0);
    EXPECT_DOUBLE_EQ(a.max, 40.0);
    EXPECT_DOUBLE_EQ(a.p50, 25.0);
    EXPECT_DOUBLE_EQ(a.p90, 37.0);
    EXPECT_DOUBLE_EQ(a.p99, 39.7);
    EXPECT_DOUBLE_EQ(a.p999, 39.97);

    Aggregate empty = aggregate({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(Aggregate, PercentileEdgeCases)
{
    // Empty input: percentile() and every Aggregate field stay zero
    // instead of reading past the end.
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    Aggregate empty = aggregate({});
    EXPECT_DOUBLE_EQ(empty.p50, 0.0);
    EXPECT_DOUBLE_EQ(empty.p99, 0.0);
    EXPECT_DOUBLE_EQ(empty.p999, 0.0);
    EXPECT_DOUBLE_EQ(empty.min, 0.0);
    EXPECT_DOUBLE_EQ(empty.max, 0.0);

    // A single sample is every percentile.
    std::vector<double> one = {42.0};
    for (double q : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_DOUBLE_EQ(percentile(one, q), 42.0) << "q=" << q;
    Aggregate single = aggregate({42.0});
    EXPECT_EQ(single.count, 1u);
    EXPECT_DOUBLE_EQ(single.mean, 42.0);
    EXPECT_DOUBLE_EQ(single.p50, 42.0);
    EXPECT_DOUBLE_EQ(single.p999, 42.0);

    // Out-of-range quantiles clamp instead of extrapolating.
    std::vector<double> sorted = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(sorted, -5.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 150.0), 2.0);

    // p99.9 sits between p99 and max on a long tail.
    std::vector<double> tail;
    for (int i = 1; i <= 1000; ++i)
        tail.push_back(static_cast<double>(i));
    Aggregate t = aggregate(tail);
    EXPECT_GT(t.p999, t.p99);
    EXPECT_LT(t.p999, t.max);
    EXPECT_NEAR(t.p999, 999.001, 1e-9);
}

JobResult
makeRow(int id, const std::string &scene, Backend backend, double fps,
        double energy)
{
    JobResult r;
    r.id = id;
    r.scene = scene;
    r.variant = "base";
    r.backend = backend;
    r.ok = true;
    r.fps = fps;
    r.energy_mj = energy;
    return r;
}

TEST(ResultTable, AggregatesAndFiltersByBackend)
{
    std::vector<JobResult> rows = {
        makeRow(0, "a", Backend::Gcc, 100.0, 2.0),
        makeRow(1, "a", Backend::Gscore, 50.0, 4.0),
        makeRow(2, "b", Backend::Gcc, 300.0, 6.0),
        makeRow(3, "b", Backend::Gscore, 100.0, 6.0),
    };
    JobResult failed = makeRow(4, "c", Backend::Gcc, 999.0, 9.0);
    failed.ok = false;
    failed.error = "died";
    rows.push_back(failed);

    ResultTable table(std::move(rows));
    EXPECT_EQ(table.failedCount(), 1u);

    Aggregate gcc_fps = table.fpsByBackend(Backend::Gcc);
    EXPECT_EQ(gcc_fps.count, 2u);  // failed row excluded
    EXPECT_DOUBLE_EQ(gcc_fps.mean, 200.0);
    EXPECT_DOUBLE_EQ(table.energyByBackend(Backend::Gscore).total, 10.0);
    EXPECT_EQ(table.fpsByBackend(Backend::Gpu).count, 0u);
}

TEST(ResultTable, ComparesBackendsMatchedBySceneVariantFrame)
{
    std::vector<JobResult> rows = {
        makeRow(0, "a", Backend::Gscore, 50.0, 4.0),
        makeRow(1, "a", Backend::Gcc, 100.0, 2.0),
        makeRow(2, "b", Backend::Gscore, 100.0, 6.0),
        makeRow(3, "b", Backend::Gcc, 300.0, 3.0),
        makeRow(4, "c", Backend::Gcc, 123.0, 1.0),  // no gscore partner
    };
    ResultTable table(std::move(rows));
    auto cmp = table.compare(Backend::Gscore, Backend::Gcc);
    ASSERT_EQ(cmp.size(), 2u);
    EXPECT_EQ(cmp[0].scene, "a");
    EXPECT_DOUBLE_EQ(cmp[0].speedup, 2.0);
    EXPECT_DOUBLE_EQ(cmp[0].energy_ratio, 2.0);
    EXPECT_EQ(cmp[1].scene, "b");
    EXPECT_DOUBLE_EQ(cmp[1].speedup, 3.0);
    EXPECT_DOUBLE_EQ(cmp[1].energy_ratio, 2.0);
}

TEST(ResultTable, CsvAndJsonCarryEveryRow)
{
    std::vector<JobResult> rows = {
        makeRow(0, "quoted \"scene\"", Backend::Gcc, 10.0, 1.0),
        makeRow(1, "b", Backend::Gpu, 20.0, 0.0),
    };
    rows[1].ok = false;
    rows[1].error = "line1\nline2 \"quoted\"";
    ResultTable table(std::move(rows));

    std::string csv = table.toCsv();
    EXPECT_NE(csv.find("id,scene,variant,backend"), std::string::npos);
    // RFC 4180: inner quotes are doubled, not backslash-escaped.
    EXPECT_NE(csv.find("\"quoted \"\"scene\"\"\""), std::string::npos);
    EXPECT_EQ(csv.find('\\'), std::string::npos);

    std::string json = table.toJson();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"backend\": \"gpu\""), std::string::npos);
    EXPECT_NE(json.find("\"fps\": 20"), std::string::npos);
    // Control characters are escaped so the output stays parseable.
    EXPECT_NE(json.find("line1\\nline2 \\\"quoted\\\""),
              std::string::npos);
}

// ---- Deterministic chunked fan-out ----

TEST(ParallelFor, ChunkRangesPartitionExactly)
{
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{7}, std::size_t{1000},
                          std::size_t{1001}}) {
        for (int workers : {1, 3, 8}) {
            auto ranges = chunkRanges(n, workers, 10);
            std::size_t covered = 0;
            std::size_t expect_begin = 0;
            for (const auto &[begin, end] : ranges) {
                EXPECT_EQ(begin, expect_begin);
                EXPECT_LT(begin, end);
                covered += end - begin;
                expect_begin = end;
            }
            EXPECT_EQ(covered, n);
            EXPECT_LE(ranges.size(),
                      static_cast<std::size_t>(workers));
        }
    }
    // min_per_chunk bounds the split: 25 elements at >=10 per chunk
    // never fan out to more than 3 chunks.
    EXPECT_LE(chunkRanges(25, 16, 10).size(), 3u);
}

TEST(ParallelFor, ChunkRangesRespectTheDispatchGrain)
{
    // min_per_chunk is the dispatch grain: no chunk may be smaller.
    // The previous ceil-division split manufactured sub-grain chunks
    // (e.g. 10 items at grain 4 -> 3/3/4) whose pool dispatch cost
    // more than the work they carried.
    for (std::size_t n :
         {std::size_t{1}, std::size_t{7}, std::size_t{10},
          std::size_t{25}, std::size_t{100}, std::size_t{1001}}) {
        for (std::size_t grain :
             {std::size_t{1}, std::size_t{4}, std::size_t{10},
              std::size_t{64}}) {
            for (int workers : {1, 2, 8, 16}) {
                auto ranges = chunkRanges(n, workers, grain);
                std::size_t covered = 0;
                for (const auto &[begin, end] : ranges) {
                    covered += end - begin;
                    if (ranges.size() > 1) {
                        EXPECT_GE(end - begin, grain)
                            << "n=" << n << " grain=" << grain
                            << " workers=" << workers;
                    }
                }
                EXPECT_EQ(covered, n);
            }
        }
    }
    // Below two grains there is nothing worth dispatching: a single
    // chunk, which runChunks runs inline on the caller.
    EXPECT_EQ(chunkRanges(7, 8, 4).size(), 1u);
}

TEST(ParallelFor, SmallWorkRunsInlineOnTheCallerThread)
{
    // Work under two grains must never round-trip through the pool:
    // the single chunk executes on the calling thread itself.
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen;
    forEachChunk(&pool, 100, 64,
                 [&](std::size_t, std::size_t, std::size_t) {
                     seen.push_back(std::this_thread::get_id());
                 });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], caller);
}

TEST(ParallelFor, ForEachChunkVisitsEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 5000;
    std::vector<std::atomic<int>> visits(kN);
    forEachChunk(&pool, kN, 64,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i)
                         ++visits[i];
                 });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

/**
 * Run @p body on its own thread; a fan-out that deadlocks can't be
 * joined, so fail the whole binary loudly after 60 s instead.
 */
template <typename Body>
void
withWatchdog(Body body)
{
    auto done = std::async(std::launch::async, body);
    if (done.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        std::fprintf(stderr, "fan-out did not finish within 60 s\n");
        std::_Exit(1);
    }
    done.get();
}

TEST(ParallelFor, FanOutOnAStoppingPoolRunsInline)
{
    // A fan-out that starts while the owner is inside shutdown() gets
    // no helpers; its caller must still run every chunk, not fail or
    // leave chunks queued against its dead stack frame.
    ThreadPool pool(2);
    std::vector<std::atomic<int>> visits(8);
    auto task = pool.submit([&] {
        while (!pool.stopping())
            std::this_thread::yield();
        runChunks(&pool, chunkRanges(8, 8, 1),
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i)
                          ++visits[i];
                  });
    });
    pool.shutdown();
    EXPECT_NO_THROW(task.get());
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, NestedFanOutOnEveryWorkerCannotDeadlock)
{
    // Every worker fans out on its own pool at once, and every chunk
    // fans out again: no worker is idle to help, so each caller must
    // drain its own chunks instead of waiting on a queue nobody
    // serves.
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 4;
    for (int workers : {2, 4}) {
        withWatchdog([=] {
            ThreadPool pool(workers);
            const auto outer = chunkRanges(kOuter, kOuter, 1);
            const auto inner = chunkRanges(kInner, kInner, 1);
            ASSERT_EQ(outer.size(), kOuter);
            std::vector<std::atomic<int>> visits(
                static_cast<std::size_t>(workers) * kOuter * kInner);
            std::atomic<int> started{0};
            std::vector<std::future<void>> tasks;
            for (int w = 0; w < workers; ++w)
                tasks.push_back(pool.submit([&, w] {
                    // Occupy every worker before anyone fans out.
                    ++started;
                    while (started.load() < workers)
                        std::this_thread::yield();
                    runChunks(&pool, outer,
                              [&](std::size_t c, std::size_t, std::size_t) {
                        runChunks(&pool, inner,
                                  [&](std::size_t, std::size_t b,
                                      std::size_t) {
                            ++visits[(static_cast<std::size_t>(w) * kOuter +
                                      c) * kInner + b];
                        });
                    });
                }));
            for (auto &t : tasks)
                t.get();
            for (std::size_t i = 0; i < visits.size(); ++i)
                EXPECT_EQ(visits[i].load(), 1)
                    << "index " << i << " with " << workers << " workers";
        });
    }
}

TEST(ParallelFor, FirstChunkInOrderThrowsAfterEveryChunkSettles)
{
    // Chunk 3 throws first in time, chunk 1 later: the caller gets
    // chunk 1's exception (chunk order, as a serial loop would), and
    // only once every other chunk — the slow ones included — is done.
    ThreadPool pool(4);
    const auto ranges = chunkRanges(8, 8, 1);
    std::vector<std::atomic<bool>> finished(ranges.size());
    try {
        runChunks(&pool, ranges,
                  [&](std::size_t c, std::size_t, std::size_t) {
                      if (c == 3)
                          throw std::runtime_error("chunk 3");
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(5 * (c + 1)));
                      if (c == 1)
                          throw std::runtime_error("chunk 1");
                      finished[c] = true;
                  });
        ADD_FAILURE() << "no chunk exception reached the caller";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk 1");
    }
    for (std::size_t c = 0; c < finished.size(); ++c) {
        if (c != 1 && c != 3) {
            EXPECT_TRUE(finished[c].load()) << "chunk " << c;
        }
    }
}

TEST(ParallelFor, CallerRunsChunksBesideIdleWorkers)
{
    ThreadPool pool(4);
    // Let every worker reach its idle wait, so helpers are recruited.
    for (int spin = 0; pool.idleWorkers() < 4 && spin < 5000; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(pool.idleWorkers(), 4);

    constexpr std::size_t kN = 4000;
    constexpr std::size_t kGrain = 100;
    const auto expected = chunkRanges(kN, 4, kGrain);
    ASSERT_EQ(expected.size(), 4u);
    std::vector<std::pair<std::size_t, std::size_t>> seen(expected.size());
    std::vector<std::thread::id> ran_on(expected.size());
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const std::int64_t fanout0 =
        reg.counter("runtime.pool.fanout_chunks").value();
    const std::int64_t helped0 =
        reg.counter("runtime.pool.helped_chunks").value();
    forEachChunk(&pool, kN, kGrain,
                 [&](std::size_t c, std::size_t begin, std::size_t end) {
                     seen[c] = {begin, end};
                     ran_on[c] = std::this_thread::get_id();
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(2));
                 });
    // Boundaries depend only on (n, workers), never on who ran what.
    EXPECT_EQ(seen, expected);
    const auto by_caller = std::count(ran_on.begin(), ran_on.end(),
                                      std::this_thread::get_id());
    EXPECT_GE(by_caller, 1);
    EXPECT_EQ(reg.counter("runtime.pool.fanout_chunks").value() - fanout0,
              static_cast<std::int64_t>(expected.size()));
    EXPECT_EQ(reg.counter("runtime.pool.helped_chunks").value() - helped0,
              static_cast<std::int64_t>(expected.size()) - by_caller);
}

} // namespace
} // namespace gcc3d
