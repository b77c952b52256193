/**
 * @file
 * Pinhole camera model for 3DGS rendering.
 *
 * Provides the per-viewpoint data the preprocessing stage consumes:
 * the world-to-camera view matrix W, the focal lengths used by the
 * EWA Jacobian, and the projection to pixel coordinates.  Convention:
 * camera looks down +z in view space (view-space depth = z'), pixel
 * origin at the top-left corner.
 */

#ifndef GCC3D_SCENE_CAMERA_H
#define GCC3D_SCENE_CAMERA_H

#include <algorithm>
#include <cmath>
#include <cstring>

#include "gsmath/mat.h"
#include "gsmath/vec.h"

namespace gcc3d {

/** A pinhole camera: intrinsics + world-to-camera extrinsics. */
class Camera
{
  public:
    Camera() = default;

    /**
     * Construct from viewport and horizontal field of view.
     *
     * @param width   image width in pixels
     * @param height  image height in pixels
     * @param fov_x   horizontal field of view, radians
     */
    Camera(int width, int height, float fov_x);

    /** Place the camera at @p eye looking at @p target (up = +y). */
    void lookAt(const Vec3 &eye, const Vec3 &target,
                const Vec3 &up = Vec3(0, 1, 0));

    int width() const { return width_; }
    int height() const { return height_; }
    float focalX() const { return focal_x_; }
    float focalY() const { return focal_y_; }
    const Mat4 &viewMatrix() const { return view_; }
    const Vec3 &position() const { return position_; }

    /** Near-plane depth below which Gaussians are culled (paper: 0.2). */
    float nearPlane() const { return near_; }
    void setNearPlane(float near) { near_ = near; }

    /** World point -> camera/view space (z = depth). */
    Vec3
    worldToView(const Vec3 &p) const
    {
        return view_.transformPoint(p);
    }

    /**
     * View-space point -> pixel coordinates.  Callers must ensure
     * v.z > 0 (in front of the camera).
     */
    Vec2
    viewToPixel(const Vec3 &v) const
    {
        return {focal_x_ * v.x / v.z + 0.5f * static_cast<float>(width_),
                focal_y_ * v.y / v.z + 0.5f * static_cast<float>(height_)};
    }

    /** World point -> pixel coordinates (must be in front of camera). */
    Vec2
    worldToPixel(const Vec3 &p) const
    {
        return viewToPixel(worldToView(p));
    }

    /**
     * Camera/view-space point -> world space: the rigid inverse
     * R^T (v - t) of the lookAt view matrix (used by the temporal
     * reprojection warp to carry a pixel's depth plane between
     * nearby viewpoints).
     */
    Vec3
    viewToWorld(const Vec3 &v) const
    {
        Vec3 t(view_(0, 3), view_(1, 3), view_(2, 3));
        return view_.topLeft3x3().transposed() * (v - t);
    }

    /**
     * Jacobian J of the perspective projection at view-space point v
     * (the 2x3 EWA Jacobian padded to 3x3 with a zero row), used in
     * Sigma' = J W Sigma W^T J^T (Eq. 1, right).
     */
    Mat3 projectionJacobian(const Vec3 &v) const;

    /**
     * Generous in-frustum test in view space with a guard-band factor
     * (projected Gaussians slightly off-screen can still contribute).
     */
    bool
    inFrustum(const Vec3 &v, float guard_band = 1.3f) const
    {
        if (v.z < near_)
            return false;
        float lim_x = guard_band * 0.5f * static_cast<float>(width_) *
                      v.z / focal_x_;
        float lim_y = guard_band * 0.5f * static_cast<float>(height_) *
                      v.z / focal_y_;
        return v.x > -lim_x && v.x < lim_x && v.y > -lim_y && v.y < lim_y;
    }

    /**
     * Copy of this camera rendering to an @p s -scaled viewport: width
     * and height scale by s (clamped to >= 1 pixel) and the focal
     * lengths scale by the realized per-axis ratios, so the field of
     * view — and therefore the framed content — is unchanged.  Used by
     * the serving degradation ladder's reduced-resolution tier.
     */
    Camera
    scaledResolution(float s) const
    {
        if (width_ <= 0 || height_ <= 0 || !(s > 0.0f))
            return *this;
        Camera c = *this;
        c.width_ = std::max(
            1, static_cast<int>(std::lround(static_cast<float>(width_) * s)));
        c.height_ = std::max(
            1, static_cast<int>(std::lround(static_cast<float>(height_) * s)));
        c.focal_x_ = focal_x_ * static_cast<float>(c.width_) /
                     static_cast<float>(width_);
        c.focal_y_ = focal_y_ * static_cast<float>(c.height_) /
                     static_cast<float>(height_);
        return c;
    }

  private:
    int width_ = 0;
    int height_ = 0;
    float focal_x_ = 1.0f;
    float focal_y_ = 1.0f;
    float near_ = 0.2f;
    Mat4 view_ = Mat4::identity();
    Vec3 position_;
};

/**
 * Bitwise pose/intrinsics equality: true iff rendering through @p a
 * and @p b is guaranteed to produce bit-identical frames of the same
 * scene.  Field-wise memcmp (not object memcmp) so padding bytes
 * never produce false negatives; NaN fields compare by bits, which
 * is the conservative direction for a cache hit test.
 */
inline bool
camerasBitIdentical(const Camera &a, const Camera &b)
{
    auto feq = [](float x, float y) {
        return std::memcmp(&x, &y, sizeof(float)) == 0;
    };
    if (a.width() != b.width() || a.height() != b.height())
        return false;
    if (!feq(a.focalX(), b.focalX()) || !feq(a.focalY(), b.focalY()) ||
        !feq(a.nearPlane(), b.nearPlane()))
        return false;
    return std::memcmp(&a.viewMatrix(), &b.viewMatrix(),
                       sizeof(Mat4)) == 0 &&
           std::memcmp(&a.position(), &b.position(), sizeof(Vec3)) == 0;
}

/** Pose change between two cameras, split into its rigid components. */
struct CameraDelta
{
    float translation = 0.0f;   ///< |pos_b - pos_a|, world units
    float rotation_rad = 0.0f;  ///< angle of R_b R_a^T, radians
};

/**
 * Pose delta from @p a to @p b: the camera-center displacement and
 * the geodesic rotation angle between the two view orientations
 * (angle of the relative rotation R_b R_a^T, via its trace).  Used by
 * Trajectory's step-size accessors.
 */
inline CameraDelta
cameraDelta(const Camera &a, const Camera &b)
{
    CameraDelta d;
    d.translation = (b.position() - a.position()).norm();
    const Mat3 rel =
        b.viewMatrix().topLeft3x3() *
        a.viewMatrix().topLeft3x3().transposed();
    const float tr = rel(0, 0) + rel(1, 1) + rel(2, 2);
    const float c = std::clamp((tr - 1.0f) * 0.5f, -1.0f, 1.0f);
    d.rotation_rad = std::acos(c);
    return d;
}

} // namespace gcc3d

#endif // GCC3D_SCENE_CAMERA_H
