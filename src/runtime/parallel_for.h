/**
 * @file
 * Deterministic chunked fan-out over a ThreadPool.
 *
 * The batch runtime parallelizes *across* frames; within a frame,
 * stages like preprocessing parallelize across Gaussians.  The
 * helpers here split an index range into contiguous chunks whose
 * boundaries depend only on (n, workers) — never on timing — so a
 * chunked parallel run can merge per-chunk outputs in chunk order and
 * reproduce the serial result bit-exactly.
 *
 * Chunks are *claimed*, not submitted: the calling thread drains the
 * chunk index itself, helped by whichever pool workers are idle
 * (ThreadPool::fanOut).  No chunk needs a future, and a fan-out
 * nested inside a pool task cannot deadlock — with every worker busy
 * the caller runs all of its chunks alone.
 */

#ifndef GCC3D_RUNTIME_PARALLEL_FOR_H
#define GCC3D_RUNTIME_PARALLEL_FOR_H

#include <cstddef>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace gcc3d {

/**
 * Split [0, n) into at most @p max_chunks contiguous half-open ranges
 * of at least @p min_per_chunk elements each.  @p min_per_chunk is
 * the *dispatch grain*: a chunk smaller than it cannot amortize a
 * claim and a helper's queue round-trip, so the split never produces
 * one — in particular, n < 2 * min_per_chunk yields a single chunk,
 * which runChunks runs inline on the caller thread (no pool
 * round-trip at all).  Deterministic in its arguments; empty list for n == 0.
 */
inline std::vector<std::pair<std::size_t, std::size_t>>
chunkRanges(std::size_t n, int max_chunks, std::size_t min_per_chunk)
{
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    if (n == 0)
        return ranges;
    if (max_chunks < 1)
        max_chunks = 1;
    if (min_per_chunk < 1)
        min_per_chunk = 1;
    // Floor division: ceil would manufacture chunks *smaller* than
    // the grain (e.g. 10 items at grain 4 -> three chunks of 3/3/4),
    // exactly the dispatch overhead the grain exists to prevent.
    std::size_t chunks = n / min_per_chunk;
    if (chunks < 1)
        chunks = 1;
    if (chunks > static_cast<std::size_t>(max_chunks))
        chunks = static_cast<std::size_t>(max_chunks);
    std::size_t per = n / chunks;
    std::size_t extra = n % chunks;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        std::size_t len = per + (c < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + len);
        begin += len;
    }
    return ranges;
}

/**
 * Run @p fn(chunk_index, begin, end) for every range of @p ranges,
 * blocking until all complete.  This is the one fan-out primitive the
 * frame-level stages share: the calling thread claims and runs chunks
 * itself while idle @p pool workers help (ThreadPool::fanOut), so it
 * returns only once every chunk has settled — fn and ranges live on
 * the caller's stack.  The first chunk exception in chunk order is
 * rethrown after all chunks settle.  A null pool (or fewer than two
 * ranges) runs inline on the caller.
 */
template <typename Fn>
void
runChunks(ThreadPool *pool,
          const std::vector<std::pair<std::size_t, std::size_t>> &ranges,
          Fn &&fn)
{
    if (pool == nullptr || pool->workerCount() < 2 ||
        ranges.size() < 2) {
        for (std::size_t c = 0; c < ranges.size(); ++c)
            fn(c, ranges[c].first, ranges[c].second);
        return;
    }
    auto chunk = [&fn, &ranges](std::size_t c) {
        fn(c, ranges[c].first, ranges[c].second);
    };
    pool->fanOut(
        ranges.size(),
        [](void *ctx, std::size_t c) {
            (*static_cast<decltype(chunk) *>(ctx))(c);
        },
        &chunk);
}

/**
 * Run @p fn(chunk_index, begin, end) for every chunk of [0, n) on
 * the caller and idle @p pool workers, blocking until all chunks
 * complete (see runChunks).  Chunk boundaries come from chunkRanges,
 * so outputs indexed by chunk_index can be merged deterministically.
 * @p setup(chunk_count) runs once on the caller before any chunk is
 * dispatched — the hook for sizing per-chunk output slots.  Exceptions from fn propagate to the caller.  A null
 * pool (or a single chunk) runs inline on the caller.
 */
template <typename Fn, typename Setup>
void
forEachChunk(ThreadPool *pool, std::size_t n, std::size_t min_per_chunk,
             Fn &&fn, Setup &&setup)
{
    const int workers = pool != nullptr ? pool->workerCount() : 1;
    auto ranges = chunkRanges(n, workers, min_per_chunk);
    setup(ranges.size());
    runChunks(pool, ranges, std::forward<Fn>(fn));
}

/** forEachChunk without a setup hook. */
template <typename Fn>
void
forEachChunk(ThreadPool *pool, std::size_t n, std::size_t min_per_chunk,
             Fn &&fn)
{
    forEachChunk(pool, n, min_per_chunk, std::forward<Fn>(fn),
                 [](std::size_t) {});
}

} // namespace gcc3d

#endif // GCC3D_RUNTIME_PARALLEL_FOR_H
