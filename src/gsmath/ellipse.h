/**
 * @file
 * Projected-Gaussian ellipse utilities.
 *
 * A 2D Gaussian footprint is characterized by its covariance Sigma'
 * (a symmetric 2x2 matrix).  This module provides:
 *
 *  - eigen decomposition of symmetric 2x2 matrices (major/minor axes),
 *  - the conic form (inverse covariance) used by alpha evaluation,
 *  - the static 3-sigma bounding radius (Eq. 6),
 *  - the opacity-aware "omega-sigma law" radius (Eq. 8),
 *  - axis-aligned (AABB) and oriented (OBB) bounding boxes used by the
 *    standard dataflow and GSCore respectively (Table 1 / Fig. 4),
 *  - exact effective-region pixel counting against the alpha threshold.
 */

#ifndef GCC3D_GSMATH_ELLIPSE_H
#define GCC3D_GSMATH_ELLIPSE_H

#include <cstdint>

#include "gsmath/mat.h"
#include "gsmath/simd.h"
#include "gsmath/vec.h"

namespace gcc3d {

/** Minimum alpha a pixel must receive to be considered covered (1/255). */
inline constexpr float kAlphaMin = 1.0f / 255.0f;

/** An exponential alpha can be evaluated with. */
using ExpFn = float (*)(float);

/**
 * The one alpha definition (Eq. 9): min(0.99, omega * exp(-q/2)) for
 * the quadratic form @p q.  Every scalar site evaluates it with
 * simd::simdExpScalar, lane-identical to the simd::simdExp the vector
 * kernels use, so kernels and scalar references agree bit for bit.
 * The clamp is written as simd::min(0.99, a) evaluates it.  @p exp is
 * a seam for accuracy tests only: they render a std::exp ground truth.
 */
inline float
splatAlpha(float omega, float q, ExpFn exp = simd::simdExpScalar)
{
    float a = omega * exp(-0.5f * q);
    return 0.99f < a ? 0.99f : a;
}

/** Eigenvalues (l1 >= l2) and rotation angle of a symmetric 2x2 matrix. */
struct Eigen2
{
    float l1 = 0.0f;   ///< larger eigenvalue
    float l2 = 0.0f;   ///< smaller eigenvalue
    float angle = 0.0f; ///< orientation of the major axis, radians
};

/**
 * Eigen decomposition of a symmetric 2x2 matrix.
 *
 * Uses the closed form via trace/determinant; eigenvalues are clamped
 * to be non-negative (covariances are PSD up to rounding).
 */
Eigen2 symmetricEigen2(const Mat2 &sigma);

/** Integer axis-aligned pixel rectangle [x0,x1] x [y0,y1], inclusive. */
struct PixelRect
{
    int x0 = 0;
    int y0 = 0;
    int x1 = -1;
    int y1 = -1;

    bool empty() const { return x1 < x0 || y1 < y0; }
    std::int64_t
    area() const
    {
        if (empty())
            return 0;
        return static_cast<std::int64_t>(x1 - x0 + 1) * (y1 - y0 + 1);
    }

    /** Clip against an image of size w x h; may become empty. */
    PixelRect clipped(int w, int h) const;
};

/**
 * A projected 2D Gaussian footprint: center, covariance, conic and
 * derived extents.  Built once per Gaussian in Stage II and consumed
 * by bounding/culling and by alpha evaluation.
 */
struct Ellipse
{
    Vec2 center;       ///< projected mean mu' in pixel coordinates
    Mat2 cov;          ///< 2D covariance Sigma'
    Mat2 conic;        ///< inverse covariance Sigma'^-1
    Eigen2 eig;        ///< eigen structure of Sigma'

    /** Construct from center and covariance; computes conic and eigen. */
    static Ellipse fromCovariance(const Vec2 &center, const Mat2 &cov);

    /**
     * Mahalanobis quadratic form d^T Sigma'^-1 d for pixel offset
     * d = p - center.  Alpha is splatAlpha(omega, q).
     */
    float
    quadraticForm(const Vec2 &p) const
    {
        Vec2 d = p - center;
        return d.x * (conic(0, 0) * d.x + conic(0, 1) * d.y) +
               d.y * (conic(1, 0) * d.x + conic(1, 1) * d.y);
    }

    /** Alpha contribution at pixel @p p given opacity @p omega (Eq. 9). */
    float
    alphaAt(const Vec2 &p, float omega) const
    {
        return splatAlpha(omega, quadraticForm(p));
    }
};

/** Conservative 3-sigma bounding radius in pixels (Eq. 6). */
int radius3Sigma(const Eigen2 &eig);

/**
 * Opacity-aware bounding radius (the omega-sigma law, Eq. 8):
 * r = ceil(sqrt(2 ln(255 omega) * max(l1, l2))).
 * Returns 0 when the Gaussian can never reach alpha >= 1/255
 * (omega <= 1/255).
 */
int radiusOmegaSigma(const Eigen2 &eig, float omega);

/** Axis-aligned bounding box of a circle of radius r around center. */
PixelRect aabbFromRadius(const Vec2 &center, int radius);

/**
 * Axis-aligned bounding box of the *oriented* 3-sigma ellipse; tighter
 * than aabbFromRadius when the footprint is anisotropic.  Extent along
 * each image axis is sqrt(3^2 * Sigma'_ii).
 */
PixelRect aabbFromCovariance(const Vec2 &center, const Mat2 &cov,
                             float kappa2);

/**
 * Pixel count of the oriented bounding box (OBB) of the ellipse at a
 * given Mahalanobis level kappa (e.g., 3 for the 3-sigma rule).  The
 * OBB has side lengths 2*kappa*sqrt(l1) x 2*kappa*sqrt(l2); GSCore
 * rasterizes conservative subtiles inside it, so its pixel cost is the
 * OBB area intersected with the screen.
 */
std::int64_t obbPixelCount(const Ellipse &e, float kappa, int width,
                           int height);

/**
 * Exact number of pixels whose alpha meets kAlphaMin — the "effective"
 * region of Fig. 4 / the Rendered row of Table 1.  Scans the
 * omega-sigma AABB and tests Eq. 9 per pixel.
 */
std::int64_t effectivePixelCount(const Ellipse &e, float omega, int width,
                                 int height);

} // namespace gcc3d

#endif // GCC3D_GSMATH_ELLIPSE_H
