/**
 * @file
 * Reproduces Fig. 14: throughput of GCC and GSCore on the Train scene
 * under increasing DRAM bandwidth (LPDDR4-3200 … LPDDR6-14400 plus a
 * fine sweep).
 *
 * Paper shape: both designs gain with bandwidth below ~220 GB/s;
 * beyond that GCC flattens (compute-bound — its conditional,
 * one-pass traffic is small) while GSCore keeps inching up
 * (memory-bound).
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/accelerator.h"
#include "gscore/gscore_sim.h"
#include "scene/scene_generator.h"

int
main()
{
    using namespace gcc3d;
    float scale = bench::benchScale();
    bench::banner("Figure 14", "throughput vs DRAM bandwidth (Train)",
                  scale);

    SceneSpec spec = scenePreset(SceneId::Train);
    GaussianCloud cloud = generateScene(spec, scale);
    Camera cam = makeCamera(spec);

    std::printf("%-16s %10s | %10s %10s | %10s\n", "memory", "GB/s",
                "GSCoreFPS", "GCC FPS", "GCC/GSC");
    bench::rule();

    auto run = [&](const DramConfig &dram, const char *label) {
        GscoreConfig gc;
        gc.dram = dram;
        GscoreSim gscore(gc);
        GscoreFrameResult base = gscore.renderFrame(cloud, cam);

        GccConfig cc;
        cc.dram = dram;
        GccAccelerator gcc(cc);
        GccFrameResult ours = gcc.render(cloud, cam);

        std::printf("%-16s %10.1f | %10.1f %10.1f | %9.2fx\n", label,
                    dram.peak_gbps, base.fps, ours.fps,
                    ours.fps / base.fps);
    };

    for (const DramConfig &d : DramConfig::sweep())
        run(d, d.name.c_str());

    std::printf("\nfine sweep (hypothetical parts):\n");
    for (double gbps : {180.0, 220.0, 280.0, 360.0, 480.0}) {
        DramConfig d = DramConfig::lpddr5x_8533().withBandwidth(gbps);
        run(d, "custom");
    }
    std::printf("\npaper: GCC saturates (compute-bound) above ~220 GB/s;"
                " GSCore remains memory-bound.\n");
    return 0;
}
