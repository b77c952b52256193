/**
 * @file
 * Reproduces Table 2: rendering quality of the GPU reference
 * pipeline, GSCore, and GCC on the six scenes.
 *
 * The paper reports PSNR/LPIPS against dataset ground truth and finds
 * all three pipelines indistinguishable (deltas < 0.1 dB).  Without
 * the datasets, our ground truth is a near-exact splatting render
 * (generous bounds, negligible cutoff/termination thresholds); LPIPS
 * is replaced by SSIM (DESIGN.md §1).  The reproduced claim is the
 * *equality across pipelines*, not the absolute PSNR level.
 */

#include <cstdio>

#include "bench_util.h"
#include "core/accelerator.h"
#include "gscore/gscore_sim.h"
#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "scene/scene_generator.h"

int
main()
{
    using namespace gcc3d;
    // Quality needs no population scale to be meaningful; use half the
    // bench scale to keep the near-exact ground-truth render cheap.
    float scale = 0.5f * bench::benchScale();
    bench::banner("Table 2", "rendering quality (vs near-exact ground "
                  "truth; SSIM substitutes LPIPS)", scale);

    std::printf("%-10s | %9s %7s | %9s %7s | %9s %7s\n", "scene",
                "GPU PSNR", "SSIM", "GSC PSNR", "SSIM", "GCC PSNR",
                "SSIM");
    bench::rule();

    for (SceneId id : allScenes()) {
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, scale);
        Camera cam = makeCamera(spec);

        // Ground truth: near-exact splatting.
        TileRenderer gt_renderer(TileRendererConfig::groundTruth());
        StandardFlowStats gt_stats;
        Image gt = gt_renderer.render(cloud, cam, gt_stats);

        // GPU reference pipeline (AABB 3-sigma tiles).
        TileRendererConfig gpu_cfg;
        gpu_cfg.bounding = BoundingMode::Aabb3Sigma;
        TileRenderer gpu_renderer(gpu_cfg);
        StandardFlowStats gpu_stats;
        Image gpu = gpu_renderer.render(cloud, cam, gpu_stats);

        // GSCore (OBB) and GCC (Gaussian-wise) functional outputs.
        GscoreSim gscore;
        Image gsc = gscore.renderFrame(cloud, cam).image;
        GccAccelerator gcc;
        Image ours = gcc.render(cloud, cam).image;

        std::printf("%-10s | %8.2f %7.4f | %8.2f %7.4f | %8.2f "
                    "%7.4f\n",
                    spec.name.c_str(), psnr(gt, gpu), ssim(gt, gpu),
                    psnr(gt, gsc), ssim(gt, gsc), psnr(gt, ours),
                    ssim(gt, ours));
    }
    std::printf("\npaper: PSNR deviations below 0.1 dB between methods "
                "and identical LPIPS — i.e., the three pipelines are "
                "visually indistinguishable.\n");
    return 0;
}
