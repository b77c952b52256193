/**
 * @file
 * Per-session and fleet SLO reporting for the serving subsystem.
 *
 * The scheduler records one FrameRecord per frame (queue wait, render
 * latency, deadline outcome, checksum); this module aggregates those
 * into the questions a serving operator asks: per-session and fleet
 * p50/p90/p99/p99.9 latency, achieved FPS against the target,
 * deadline-miss rate, and dropped frames under overload — plus JSON
 * export (the BENCH_serve.json building block) and a human-readable
 * report table.
 */

#ifndef GCC3D_SERVE_SERVE_STATS_H
#define GCC3D_SERVE_SERVE_STATS_H

#include <cstdio>
#include <string>
#include <vector>

#include "runtime/result_table.h"
#include "serve/session.h"
#include "serve/slo_attribution.h"

namespace gcc3d {

/** Aggregated serving outcome of one session. */
struct SessionStats
{
    int session = 0;
    std::string scene;
    std::string renderer;       ///< "tile" or "gw"
    double fps_target = 0.0;    ///< 0 = best effort

    int frames_total = 0;
    int frames_rendered = 0;
    int frames_dropped = 0;
    int deadline_misses = 0;    ///< rendered but past deadline
    int frames_on_time = 0;     ///< rendered within deadline (goodput)

    /** Rendered frames by degradation tier (Drop stays 0 — dropped
     *  frames are counted in sheds_by_reason / frames_dropped). */
    int tier_frames[kDegradeTierCount] = {0, 0, 0, 0, 0};

    /** Ladder activity: count of frame-to-frame served-tier changes. */
    int degrade_transitions = 0;

    /** Dropped frames by shed reason (index ShedReason). */
    int sheds_by_reason[kShedReasonCount] = {0, 0, 0, 0, 0, 0};

    /** Chaos churn: true when the client disconnected mid-stream;
     *  frames_unserved counts the frames torn down with it. */
    bool disconnected = false;
    int frames_unserved = 0;

    /** Rendered frames over the fleet serving wall time. */
    double achieved_fps = 0.0;

    /**
     * Sum of per-frame checksums in frame order (dropped frames
     * contribute 0) — deterministic, so a scheduled run is compared
     * against serial rendering by a single double.
     */
    double checksum = 0.0;

    Aggregate queue_wait_ms;    ///< over rendered frames
    Aggregate render_ms;        ///< over rendered frames
    Aggregate latency_ms;       ///< released -> completed

    /**
     * Temporal-coherence attribution, snapshotted from the session's
     * TemporalCache at summary time (all zero when the session runs
     * without one).  `temporal` echoes the configured mode so SLO
     * output can attribute the time saved.
     */
    int temporal = 0;                 ///< configured every-k (0 = off)
    TemporalCounters temporal_counters;

    /** Dominant-component attribution of this session's SLO misses
     *  (dropped frames + late renders); see serve/slo_attribution.h. */
    MissAttribution miss_attribution;

    std::vector<FrameRecord> frames;  ///< per-frame detail, frame order
};

/**
 * Aggregate @p frames (already in frame order) for @p session.
 * @p disconnect_frame >= 0 marks a chaos-injected mid-stream
 * disconnect: the session's stream ended there and the remaining
 * configured frames count as unserved, not dropped.
 */
SessionStats summarizeSession(const Session &session,
                              std::vector<FrameRecord> frames,
                              double wall_ms,
                              int disconnect_frame = -1);

/** The full outcome of one FrameScheduler::run. */
struct ServeReport
{
    std::string policy;   ///< scheduler policy name
    int workers = 0;      ///< cap on frames in flight
    double wall_ms = 0.0;
    bool drained = false; ///< true when stopped before completion

    /** Admissible-session count sampled at every dispatch decision —
     *  the scheduler's queue-depth profile under this load. */
    Aggregate queue_depth;

    /** Frames shed by the policy (dropped without rendering). */
    std::int64_t sheds = 0;

    std::vector<SessionStats> sessions;

    int framesTotal() const;
    int framesRendered() const;
    int framesDropped() const;
    int deadlineMisses() const;

    /** Rendered frames that met their deadline (best-effort frames
     *  always count — they have no deadline to miss). */
    int framesOnTime() const;

    /** Chaos churn: sessions that disconnected mid-stream. */
    int disconnects() const;

    /** Fleet ladder activity, summed over sessions. */
    int degradeTransitions() const;

    /** Rendered frames by degradation tier, summed over sessions. */
    void tierTotals(int out[kDegradeTierCount]) const;

    /** Dropped frames by shed reason, summed over sessions. */
    void shedTotals(int out[kShedReasonCount]) const;

    /** Fleet throughput: rendered frames / serving wall time. */
    double fleetFps() const;

    /** Fleet goodput: on-time frames / serving wall time — the
     *  overload metric (late or dropped frames earn nothing). */
    double goodputFps() const;

    /**
     * SLO violations (late renders + dropped frames) over all served
     * frames of deadline-bearing sessions — dropped frames count as
     * missed, so overload shedding cannot make the rate look good.
     */
    double missRate() const;

    /** Fleet-wide latency/queue/render aggregates (rendered frames). */
    Aggregate fleetLatencyMs() const;
    Aggregate fleetQueueWaitMs() const;
    Aggregate fleetRenderMs() const;

    /** Fleet-wide SLO miss attribution (merged over sessions). */
    MissAttribution missAttribution() const;

    /** JSON object (fleet summary + per-session entries). */
    std::string toJson() const;

    /** Human-readable SLO report. */
    void print(std::FILE *out = stdout) const;
};

} // namespace gcc3d

#endif // GCC3D_SERVE_SERVE_STATS_H
