/**
 * @file
 * Reproduces Table 1 and the region study of Fig. 4.
 *
 * Table 1: average rendered pixels per frame when Gaussian regions
 * are delimited by AABBs (tile-quantized, as the reference rasterizer
 * processes every pixel of every covered 16x16 tile), OBBs (GSCore's
 * oriented boxes over 8x8 subtiles), or the effective alpha region
 * (pixels actually blended with alpha >= 1/255).  Paper (M pixels):
 * Train 1164/378/31, Truck 1161/416/32, Playroom 1177/333/60,
 * Drjohnson 1697/460/73.
 *
 * Fig. 4: pixel counts of the three region types for a single
 * Gaussian at opacity 1.0 vs 0.01, showing how the effective region
 * collapses with opacity while static boxes do not.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "gsmath/ellipse.h"
#include "render/preprocess.h"
#include "render/tile_renderer.h"
#include "scene/scene_generator.h"

namespace {

using namespace gcc3d;

struct PixelCounts
{
    double aabb_m = 0.0;      ///< 16x16-tile-quantized AABB work
    double obb_m = 0.0;       ///< 8x8-subtile-quantized OBB work
    double effective_m = 0.0; ///< pixels actually blended
};

PixelCounts
countScene(SceneId id, float scale)
{
    SceneSpec spec = scenePreset(id);
    GaussianCloud cloud = generateScene(spec, scale);
    Camera cam = makeCamera(spec);

    PreprocessStats pre;
    std::vector<Splat> splats = preprocessAll(cloud, cam, pre);

    PixelCounts c;

    // AABB: every pixel of every covered 16x16 tile is processed.
    TileRendererConfig aabb_cfg;
    aabb_cfg.tile_size = 16;
    aabb_cfg.bounding = BoundingMode::Aabb3Sigma;
    TileRenderer aabb_r(aabb_cfg);
    for (int tiles : aabb_r.tilesPerSplat(splats, cam))
        c.aabb_m += 256.0 * tiles;

    // OBB: GSCore rasterizes 8x8 subtiles intersecting the OBB.
    TileRendererConfig obb_cfg;
    obb_cfg.tile_size = 8;
    obb_cfg.bounding = BoundingMode::Obb3Sigma;
    TileRenderer obb_r(obb_cfg);
    for (int tiles : obb_r.tilesPerSplat(splats, cam))
        c.obb_m += 64.0 * tiles;

    // Rendered: pixels that actually blend (alpha >= 1/255, T live).
    TileRenderer render_r;
    StandardFlowStats stats;
    Image img = render_r.render(cloud, cam, stats);
    (void)img;
    c.effective_m = static_cast<double>(stats.blend_ops);

    c.aabb_m /= 1e6;
    c.obb_m /= 1e6;
    c.effective_m /= 1e6;
    return c;
}

} // namespace

int
main()
{
    using namespace gcc3d;
    float scale = bench::benchScale();
    bench::banner("Table 1 / Fig. 4",
                  "rendered pixels per frame by bounding method", scale);

    const std::vector<SceneId> scenes = {SceneId::Train, SceneId::Truck,
                                         SceneId::Playroom,
                                         SceneId::Drjohnson};
    const double paper[][3] = {{1164, 378, 31},
                               {1161, 416, 32},
                               {1177, 333, 60},
                               {1697, 460, 73}};

    std::printf("%-10s | %10s %10s %10s | %8s %8s %8s  (M pixels)\n",
                "scene", "AABB", "OBB", "Rendered", "pAABB", "pOBB",
                "pRend");
    bench::rule();
    int i = 0;
    for (SceneId id : scenes) {
        PixelCounts c = countScene(id, scale);
        std::printf("%-10s | %10.1f %10.1f %10.1f | %8.0f %8.0f %8.0f\n",
                    sceneName(id).c_str(), c.aabb_m, c.obb_m,
                    c.effective_m, paper[i][0], paper[i][1], paper[i][2]);
        ++i;
    }

    // ---- Fig. 4: one Gaussian, two opacities. ----
    std::printf("\nFig. 4: single anisotropic Gaussian (pixel counts)\n");
    std::printf("%-14s %10s %10s %12s\n", "opacity", "AABB", "OBB",
                "effective");
    bench::rule();
    Mat2 cov(220.0f, 90.0f, 90.0f, 120.0f);
    Ellipse e = Ellipse::fromCovariance(Vec2(256.0f, 256.0f), cov);
    for (float omega : {1.0f, 0.01f}) {
        PixelRect aabb = aabbFromRadius(e.center, radius3Sigma(e.eig))
                             .clipped(512, 512);
        std::printf("%-14.2f %10lld %10lld %12lld\n",
                    omega, static_cast<long long>(aabb.area()),
                    static_cast<long long>(obbPixelCount(e, 3.0f, 512,
                                                         512)),
                    static_cast<long long>(
                        effectivePixelCount(e, omega, 512, 512)));
    }
    return 0;
}
