/**
 * @file
 * Seeded workload inputs: camera lists, arrival tables, job order.
 *
 * The benchmark makes every input from its --seed argument and hands
 * the program only the generated tables; the same seed always gives
 * the same inputs.  Seeds shape order and timing, not the amount of
 * work, so runs on different seeds stay comparable.
 */
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <vector>

#include "scene/camera.h"
#include "scene/trajectory.h"
#include "serve/load_gen.h"

namespace perfbench {

/** Counter-indexed 64-bit hash of (seed, salt, key) (splitmix64). */
std::uint64_t mix64(std::uint64_t seed, std::uint64_t salt,
                    std::uint64_t key);

/** Uniform double in [0, 1) from mix64. */
double mix01(std::uint64_t seed, std::uint64_t salt, std::uint64_t key);

/**
 * The poses of @p path in visiting order, starting at a seeded
 * phase: frame-closed cycles through this list.
 */
std::vector<gcc3d::Camera> rotatedCameras(const gcc3d::Trajectory &path,
                                          std::uint64_t seed,
                                          std::uint64_t salt);

/**
 * Indices of a back-and-forth sweep over @p distinct poses (0, 1, ..,
 * d-1, d-2, .., 1, 0, 1, ..) of @p length entries, entered @p phase
 * steps into the cycle.  A headset swaying along a short arc.
 */
std::vector<int> pingPong(int distinct, int length, int phase);

/** The camera path that visits @p base's poses in @p order. */
gcc3d::Trajectory reorder(const gcc3d::Trajectory &base,
                          const std::vector<int> &order);

/**
 * A serve workload's sessions: the arrival table (slot i views scene
 * scene_slot % 2 of Lego, Train through renderer renderer_slot % 2 of
 * tile, gw) and the phase at which each session enters its sweep over
 * the workload's headset poses.
 */
struct ServePlan
{
    std::vector<gcc3d::serve::SessionArrival> arrivals;
    std::vector<int> phases;
};

/**
 * serve-light inputs for a @p seconds window: a Lego tile and a Train
 * gw session with seeded start offsets below kLightMaxStartMs, each
 * requesting the frames whose deadlines fall inside the window.
 */
ServePlan lightPlan(std::uint64_t seed, double seconds);

/**
 * serve-overload inputs for a @p seconds window: seeded Poisson
 * arrivals from serve::generateArrivals at the fixed offered rate,
 * conditioned on their count (the first N arrival times are rescaled
 * so arrival N+1 lands at the end of the release span, one session
 * period short of the window, which leaves them distributed as a
 * Poisson process with exactly N arrivals there).  Time wraps round
 * the span: the frames a session would release past its end go to a
 * session that joined before t=0 and runs on from a phase inside its
 * first period.  The offered rate is thus steady over the whole
 * window, the offered frame count is the same for every seed, and
 * every deadline falls inside the window.  Arrival i and its wrapped
 * part view scene i % 2 through renderer (i / 2) % 2, so each scene
 * meets both renderers.
 */
ServePlan overloadPlan(std::uint64_t seed, double seconds);

/** A seeded permutation of 0..n-1 (Fisher-Yates). */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed);

/** True iff both lists hold bit-identical poses in the same order. */
bool sameCameras(const std::vector<gcc3d::Camera> &a,
                 const std::vector<gcc3d::Camera> &b);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
