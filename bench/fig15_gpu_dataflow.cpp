/**
 * @file
 * Reproduces Fig. 15 / Sec. 6: per-frame execution-time breakdown of
 * the standard dataflow vs the GCC dataflow on GPUs (RTX 3090,
 * Jetson AGX Xavier) and on the accelerators (GSCore vs GCC), all
 * normalized to the standard dataflow per platform.
 *
 * Paper observations reproduced here: (1) on GPUs rendering dominates
 * and the GCC dataflow's atomic blending makes render time *grow*, so
 * end-to-end gains are limited; (2) on the accelerators, where
 * on-chip storage is scarce and data movement dominates, the GCC
 * dataflow wins decisively; (3) GCC on Jetson stays far below the
 * 90 FPS target, motivating the dedicated architecture.
 */

#include <cstdio>

#include "bench_util.h"
#include "core/accelerator.h"
#include "gpu/gpu_model.h"
#include "gscore/gscore_sim.h"
#include "render/gaussian_wise_renderer.h"
#include "scene/scene_generator.h"

int
main()
{
    using namespace gcc3d;
    float scale = bench::benchScale();
    bench::banner("Figure 15",
                  "dataflow time breakdown on GPUs and accelerators",
                  scale);

    for (SceneId id :
         {SceneId::Palace, SceneId::Train, SceneId::Drjohnson}) {
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, scale);
        Camera cam = makeCamera(spec);

        // Functional activity of both dataflows.
        TileRenderer std_renderer;
        StandardFlowStats std_stats;
        Image i1 = std_renderer.render(cloud, cam, std_stats);
        (void)i1;
        GaussianWiseRenderer gw_renderer;
        GaussianWiseStats gw_stats;
        Image i2 = gw_renderer.render(cloud, cam, gw_stats);
        (void)i2;

        std::printf("\n=== %s ===\n", spec.name.c_str());
        std::printf("%-20s %-9s | %8s %9s %7s %8s | %7s %8s\n",
                    "platform", "dataflow", "preproc", "duplicate",
                    "sort", "render", "total", "norm");

        for (const GpuPlatform &plat :
             {GpuPlatform::rtx3090(), GpuPlatform::jetsonXavier()}) {
            GpuModel model(plat);
            DataflowBreakdown s = model.standardDataflow(std_stats);
            DataflowBreakdown g = model.gccDataflow(gw_stats);
            std::printf("%-20s %-9s | %7.2fms %8.2fms %6.2fms %7.2fms "
                        "| %6.1fms %8.2f\n",
                        plat.name.c_str(), "standard", s.preprocess_ms,
                        s.duplicate_ms, s.sort_ms, s.render_ms,
                        s.total(), 1.0);
            std::printf("%-20s %-9s | %7.2fms %8.2fms %6.2fms %7.2fms "
                        "| %6.1fms %8.2f   (%.0f FPS)\n",
                        "", "GCC", g.preprocess_ms, g.duplicate_ms,
                        g.sort_ms, g.render_ms, g.total(),
                        g.total() / s.total(), 1000.0 / g.total());
        }

        // Accelerators, normalized the same way.
        GscoreSim gscore;
        GscoreFrameResult base = gscore.renderFrame(cloud, cam);
        GccAccelerator gcc;
        GccFrameResult ours = gcc.render(cloud, cam);
        double base_ms =
            static_cast<double>(base.total_cycles) / 1e6;  // 1 GHz
        double ours_ms = static_cast<double>(ours.total_cycles) / 1e6;
        std::printf("%-20s %-9s | %7.2fms %8.2fms %6.2fms %7.2fms | "
                    "%6.1fms %8.2f\n",
                    "GSCore / GCC ASIC", "standard",
                    static_cast<double>(base.preprocess_cycles) / 1e6,
                    0.0, static_cast<double>(base.sort_cycles) / 1e6,
                    static_cast<double>(base.render_cycles) / 1e6,
                    base_ms, 1.0);
        std::printf("%-20s %-9s | %7.2fms %8.2fms %6.2fms %7.2fms | "
                    "%6.1fms %8.2f   (%.0f FPS)\n",
                    "", "GCC",
                    static_cast<double>(ours.stage1_cycles) / 1e6, 0.0,
                    0.0, static_cast<double>(ours.main_cycles) / 1e6,
                    ours_ms, ours_ms / base_ms, 1000.0 / ours_ms);
    }
    return 0;
}
