/**
 * @file
 * Budgeted leaf-chunk residency for .gsc v2 LOD scenes.
 *
 * The proxy pyramid of a v2 file is small and always resident; the
 * leaf chunks — the bulk of a large scene — stay on disk until a
 * frame's LOD cut needs them.  ResidencyManager faults leaf chunks in
 * on demand, keeps them in a strict-LRU cache, and evicts oldest-first
 * so that cached decoded bytes never exceed an explicit budget.
 *
 * Two properties matter beyond plain caching:
 *
 *  - Handouts are shared_ptr: eviction only drops the cache's
 *    reference, so a chunk a frame is still rendering from is never
 *    pulled out from under it (its memory is freed when the last
 *    frame releases it — the budget bounds *cached* bytes).
 *  - A chunk larger than the whole budget is decoded as a *transient*
 *    load: returned to the caller but never cached.  Which chunks a
 *    cut renders therefore depends only on the camera, never on cache
 *    state — the serving layer's "scheduling never changes pixels"
 *    checksum guarantee survives budget pressure.
 */

#ifndef GCC3D_LOD_RESIDENCY_H
#define GCC3D_LOD_RESIDENCY_H

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/fault_hooks.h"
#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"
#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"
#include "scene/gaussian.h"

namespace gcc3d {

/** A decoded leaf chunk held by the residency cache. */
struct ResidentChunk
{
    std::vector<Gaussian> gaussians;
    std::vector<std::uint32_t> indices;  ///< original scene indices

    /** Decoded size accounted against the budget (fp32 records). */
    std::size_t
    bytes() const
    {
        return gaussians.size() * Gaussian::kTotalBytes;
    }
};

/**
 * LRU cache of decoded leaf chunks under a hard byte budget.
 *
 * Thread-safe: concurrent acquire() calls from serving sessions are
 * serialized internally.  Eviction order is deterministic for a fixed
 * access sequence (strict LRU, ties impossible by construction).
 */
class ResidencyManager
{
  public:
    /** Counters for benches and tests (monotonic except resident_*). */
    struct Stats
    {
        std::uint64_t faults = 0;           ///< chunk decodes (cache misses)
        std::uint64_t hits = 0;             ///< cache hits
        std::uint64_t evictions = 0;        ///< chunks dropped by LRU
        std::uint64_t transient_loads = 0;  ///< over-budget, never cached
        std::uint64_t pressure_events = 0;  ///< injected budget squeezes
        std::size_t resident_bytes = 0;     ///< currently cached bytes
        std::size_t peak_resident_bytes = 0;
    };

    /**
     * @param budget_bytes hard ceiling on cached decoded bytes; 0
     *        disables caching entirely (every load is transient).
     */
    explicit ResidencyManager(std::size_t budget_bytes)
        : budget_(budget_bytes),
          obs_hits_(obs::MetricsRegistry::global().counter(
              "lod.residency.hits")),
          obs_faults_(obs::MetricsRegistry::global().counter(
              "lod.residency.faults")),
          obs_evictions_(obs::MetricsRegistry::global().counter(
              "lod.residency.evictions")),
          obs_transient_(obs::MetricsRegistry::global().counter(
              "lod.residency.transient_loads")),
          obs_pressure_(obs::MetricsRegistry::global().counter(
              "lod.residency.pressure_events"))
    {
    }

    /**
     * Return chunk @p index, decoding it via @p loader on a miss.
     * The loader must fill the ResidentChunk it is given and is called
     * outside no other lock than the manager's own.
     */
    template <typename Loader>
    std::shared_ptr<const ResidentChunk>
    acquire(std::size_t index, Loader &&loader)
    {
        {
            MutexLock lock(mutex_);
            auto it = map_.find(index);
            if (it != map_.end()) {
                ++stats_.hits;
                obs_hits_.add();
                // Move to the back of the recency list (most recent).
                lru_.splice(lru_.end(), lru_, it->second.lru_it);
                return it->second.chunk;
            }
        }

        auto chunk = std::make_shared<ResidentChunk>();
        {
            obs::PerfScope decode_scope(obs::Stage::ChunkDecode);
            loader(*chunk);
        }

        // Chaos hook: an injected budget squeeze shrinks the budget
        // this load caches under — extra evictions, possibly a
        // transient load, but the hard budget_ ceiling (and which
        // chunks a cut renders) is never exceeded or changed.
        // Probed outside the lock; pure in (seed, index).
        std::size_t effective_budget = budget_;
        const obs::FaultAction pressure = obs::faultAt(
            obs::FaultSite::BudgetPressure,
            static_cast<std::uint64_t>(index));
        if (pressure.inject)
            effective_budget = static_cast<std::size_t>(
                static_cast<double>(budget_) *
                std::clamp(pressure.magnitude, 0.0, 1.0));

        MutexLock lock(mutex_);
        ++stats_.faults;
        obs_faults_.add();
        if (pressure.inject) {
            ++stats_.pressure_events;
            obs_pressure_.add();
        }
        auto it = map_.find(index);
        if (it != map_.end()) {
            // Another thread decoded it while we did; keep theirs.
            lru_.splice(lru_.end(), lru_, it->second.lru_it);
            return it->second.chunk;
        }
        if (chunk->bytes() > effective_budget) {
            ++stats_.transient_loads;
            obs_transient_.add();
            return chunk;
        }
        while (!lru_.empty() &&
               stats_.resident_bytes + chunk->bytes() > effective_budget)
            evictOldestLocked();
        lru_.push_back(index);
        map_[index] = Entry{chunk, std::prev(lru_.end())};
        stats_.resident_bytes += chunk->bytes();
        stats_.peak_resident_bytes =
            std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
        return chunk;
    }

    /** Drop every cached chunk (outstanding handouts stay valid). */
    void
    clear()
    {
        MutexLock lock(mutex_);
        while (!lru_.empty())
            evictOldestLocked();
    }

    std::size_t budgetBytes() const { return budget_; }

    Stats
    stats() const
    {
        MutexLock lock(mutex_);
        return stats_;
    }

  private:
    struct Entry
    {
        std::shared_ptr<const ResidentChunk> chunk;
        std::list<std::size_t>::iterator lru_it;
    };

    void
    evictOldestLocked() REQUIRES(mutex_)
    {
        auto it = map_.find(lru_.front());
        stats_.resident_bytes -= it->second.chunk->bytes();
        ++stats_.evictions;
        obs_evictions_.add();
        map_.erase(it);
        lru_.pop_front();
    }

    std::size_t budget_;  ///< immutable after construction

    /** Registry mirrors of stats_, cached at construction (lock-free
     *  updates). */
    obs::Counter &obs_hits_;
    obs::Counter &obs_faults_;
    obs::Counter &obs_evictions_;
    obs::Counter &obs_transient_;
    obs::Counter &obs_pressure_;

    mutable Mutex mutex_;
    /** front = oldest, back = most recent. */
    std::list<std::size_t> lru_ GUARDED_BY(mutex_);
    std::unordered_map<std::size_t, Entry> map_ GUARDED_BY(mutex_);
    Stats stats_ GUARDED_BY(mutex_);
};

} // namespace gcc3d

#endif // GCC3D_LOD_RESIDENCY_H
