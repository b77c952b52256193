/**
 * @file
 * One alpha path: the vector kernels (simd::simdExp) and the scalar
 * references (splatAlpha on simd::simdExpScalar) must agree bit for
 * bit exactly where a drifted alpha would show — at the alpha cutoff,
 * at the 0.99 clamp and where transmittance crosses the termination
 * threshold.  A clamp written differently on one side, or FP
 * contraction on one side only, flips a decision here first.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "render/gaussian_wise_renderer.h"
#include "render/tile_renderer.h"
#include "runtime/thread_pool.h"
#include "equivalence_util.h"
#include "test_util.h"

namespace gcc3d {
namespace {

using test::expectStatsIdentical;
using test::imagesBitIdentical;

/**
 * A Gaussian at @p mean whose alpha at the first pixel right of its
 * projected center with q >= @p q_min is @p target, with the opacity
 * then moved @p ulps float steps (negative = down).
 */
Gaussian
tunedGaussian(const Camera &cam, const Vec3 &mean, float scale,
              float q_min, float target, int ulps, float *alpha_out)
{
    Gaussian g = test::makeGaussian(mean, scale, 0.5f);
    const Splat s = *projectGaussian(g, 0, cam);
    const Vec2 c = s.ellipse.center;
    Vec2 p(std::floor(c.x) + 0.5f, std::floor(c.y) + 0.5f);
    while (s.ellipse.quadraticForm(p) < q_min)
        p.x += 1.0f;
    const float q = s.ellipse.quadraticForm(p);
    float omega = target / simd::simdExpScalar(-0.5f * q);
    for (int i = 0; i < std::abs(ulps); ++i)
        omega = std::nextafter(omega, ulps > 0 ? 2.0f : 0.0f);
    g.opacity = omega;
    *alpha_out = splatAlpha(omega, q);
    return g;
}

TEST(AlphaPath, KernelsMatchReferencesAtMargins)
{
    const Camera cam = test::frontCamera();
    GaussianCloud cloud("margins");
    int below_cutoff = 0, at_or_above_cutoff = 0, clamped = 0,
        unclamped = 0;
    for (int k = -4; k <= 4; ++k) {
        const float x = 0.3f * static_cast<float>(k);
        float a = 0.0f;
        // Alpha a few ulps either side of the cutoff, 4 < q < 8
        // (inside every bounding mode's footprint).
        cloud.add(tunedGaussian(cam, Vec3(x, 0.8f, 0.0f), 0.04f, 4.0f,
                                kAlphaMin, k, &a));
        (a < kAlphaMin ? below_cutoff : at_or_above_cutoff)++;
        // Alpha a few ulps either side of the 0.99 clamp at the
        // center pixel, stacked twice: (1 - 0.99)^2 straddles the
        // 1e-4 termination threshold across the footprint.
        for (float z : {0.0f, 0.05f}) {
            cloud.add(tunedGaussian(cam, Vec3(x, -0.6f, z), 0.12f, 0.0f,
                                    0.99f, k, &a));
            (a == 0.99f ? clamped : unclamped)++;
        }
    }
    ASSERT_GT(below_cutoff, 0);
    ASSERT_GT(at_or_above_cutoff, 0);
    ASSERT_GT(clamped, 0);
    ASSERT_GT(unclamped, 0);

    TileRenderer tile;
    StandardFlowStats tile_ref_st;
    const Image tile_ref = tile.renderReference(cloud, cam, tile_ref_st);
    ASSERT_GT(tile_ref_st.blend_ops, 0);

    ThreadPool pool4(4);
    for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr), &pool4}) {
        SCOPED_TRACE(pool == nullptr ? "1 worker" : "4 workers");
        StandardFlowStats st;
        EXPECT_TRUE(imagesBitIdentical(tile_ref,
                                       tile.render(cloud, cam, st, pool)));
        expectStatsIdentical(tile_ref_st, st);

        TemporalCache cache;
        cache.options.every = 1;
        StandardFlowStats temporal_st;
        EXPECT_TRUE(imagesBitIdentical(
            tile_ref,
            tile.renderTemporal(cloud, cam, temporal_st, cache, pool)));
        expectStatsIdentical(tile_ref_st, temporal_st);

        for (int subview : {0, 128}) {
            SCOPED_TRACE(::testing::Message() << "gw subview " << subview);
            GaussianWiseConfig cfg;
            cfg.subview_size = subview;
            GaussianWiseRenderer gw(cfg);
            GaussianWiseStats ref_st, gw_st;
            const Image ref = gw.renderReference(cloud, cam, ref_st);
            EXPECT_TRUE(
                imagesBitIdentical(ref, gw.render(cloud, cam, gw_st, pool)));
            expectStatsIdentical(ref_st, gw_st);
        }
    }
}

} // namespace
} // namespace gcc3d
