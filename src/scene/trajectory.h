/**
 * @file
 * Camera trajectories for multi-frame evaluation.
 *
 * The paper's motivating use case is sustained immersive rendering
 * (>= 90 FPS on AR headsets, Sec. 1).  Single-frame results hide the
 * frame-to-frame variance that conditional processing introduces —
 * how much work is skipped depends on the viewpoint.  This module
 * provides deterministic camera paths (orbits around objects, dolly
 * paths through scenes) so examples and benches can evaluate
 * sustained throughput.
 */

#ifndef GCC3D_SCENE_TRAJECTORY_H
#define GCC3D_SCENE_TRAJECTORY_H

#include <vector>

#include "scene/camera.h"
#include "scene/scene_generator.h"

namespace gcc3d {

/** A sequence of camera poses sharing one intrinsic model. */
class Trajectory
{
  public:
    Trajectory() = default;

    std::size_t frameCount() const { return cameras_.size(); }
    bool empty() const { return cameras_.empty(); }
    const Camera &frame(std::size_t i) const { return cameras_[i]; }
    const std::vector<Camera> &frames() const { return cameras_; }
    void add(const Camera &cam) { cameras_.push_back(cam); }

    /**
     * Pose change from frame @p i to frame i+1 (@p i in
     * [0, frameCount() - 2]): the input to temporal-cache
     * invalidation heuristics.
     */
    CameraDelta
    stepDelta(std::size_t i) const
    {
        return cameraDelta(cameras_[i], cameras_[i + 1]);
    }

    /**
     * Component-wise maximum step delta over the whole path (zero
     * for paths of fewer than two frames).  Note the two maxima may
     * come from different steps.
     */
    CameraDelta
    maxCameraDelta() const
    {
        CameraDelta m;
        for (std::size_t i = 0; i + 1 < cameras_.size(); ++i) {
            CameraDelta d = stepDelta(i);
            m.translation = std::max(m.translation, d.translation);
            m.rotation_rad = std::max(m.rotation_rad, d.rotation_rad);
        }
        return m;
    }

    /**
     * Circular orbit around @p center at the given radius/height,
     * covering @p fraction of a revolution in @p frames steps (1.0 =
     * full circle).  A frame count below 1 is clamped to 1, so every
     * factory returns a non-empty path.
     *
     * @param proto  camera carrying the intrinsics (width/height/fov)
     */
    static Trajectory orbit(const Camera &proto, const Vec3 &center,
                            float radius, float height, int frames,
                            float fraction = 1.0f);

    /**
     * Linear dolly from @p from toward @p to, always looking at
     * @p look_at, in @p frames steps (clamped to at least 1),
     * stopping @p fraction of the way there (1.0 = the full path).
     */
    static Trajectory dolly(const Camera &proto, const Vec3 &from,
                            const Vec3 &to, const Vec3 &look_at,
                            int frames, float fraction = 1.0f);

    /** Natural path for a scene archetype (orbit for objects, dolly
     *  for streets/rooms), derived from the spec's geometry.  The
     *  frame count is clamped to at least 1 like the factories. */
    static Trajectory forScene(const SceneSpec &spec, int frames);

    /**
     * forScene() covering only @p fraction of the natural path in the
     * same number of frames — per-step camera deltas shrink by the
     * same factor.  The slow-motion trajectories the temporal
     * benches replay (and the `--traj-arc` serve flag) come from
     * here; fraction 1.0 is exactly forScene().
     */
    static Trajectory forSceneArc(const SceneSpec &spec, int frames,
                                  float fraction);

  private:
    std::vector<Camera> cameras_;
};

} // namespace gcc3d

#endif // GCC3D_SCENE_TRAJECTORY_H
