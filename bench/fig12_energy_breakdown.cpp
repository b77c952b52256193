/**
 * @file
 * Reproduces Fig. 12: per-frame energy consumption of GSCore and GCC
 * on the six scenes, decomposed into on-chip memory access, off-chip
 * memory access, and computation.
 *
 * Paper shape: DRAM dominates both designs; GCC cuts DRAM traffic by
 * >50% while SRAM energy slightly increases (Blending Unit <-> Image
 * Buffer exchange), for a large net saving.
 */

#include <cstdio>

#include "bench_util.h"
#include "core/accelerator.h"
#include "gscore/gscore_sim.h"
#include "scene/scene_generator.h"

int
main()
{
    using namespace gcc3d;
    float scale = bench::benchScale();
    bench::banner("Figure 12", "per-frame energy breakdown (mJ)", scale);

    std::printf("%-10s | %27s | %27s\n", "", "GSCore (sram/dram/comp)",
                "GCC (sram/dram/comp)");
    std::printf("%-10s | %8s %8s %9s | %8s %8s %9s\n", "scene", "sram",
                "dram", "compute", "sram", "dram", "compute");
    bench::rule();

    for (SceneId id : allScenes()) {
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, scale);
        Camera cam = makeCamera(spec);

        GscoreSim gscore;
        GscoreFrameResult base = gscore.renderFrame(cloud, cam);
        GccAccelerator gcc;
        GccFrameResult ours = gcc.render(cloud, cam);

        std::printf("%-10s | %8.2f %8.2f %9.2f | %8.2f %8.2f %9.2f   "
                    "total %.2f -> %.2f\n",
                    spec.name.c_str(), base.energy.sram_mj,
                    base.energy.dram_mj,
                    base.energy.compute_mj + base.energy.leakage_mj,
                    ours.energy.sram_mj, ours.energy.dram_mj,
                    ours.energy.compute_mj + ours.energy.leakage_mj,
                    base.energy.total(), ours.energy.total());
    }
    std::printf("\n(energies scale ~linearly with GCC3D_SCALE; paper "
                "frames peak near 60 mJ for Drjohnson on GSCore)\n");
    return 0;
}
