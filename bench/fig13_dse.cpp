/**
 * @file
 * Reproduces Fig. 13: design space exploration on the Train scene.
 *
 * (a) Image buffer capacity 32 KB … 8 MB vs performance-per-area
 *     (FPS/mm^2) and energy-per-area (mJ/mm^2).  Small buffers force
 *     Compatibility Mode with small sub-views (more duplicate
 *     processing); huge buffers stop paying for their area.  The
 *     paper picks 128 KB.
 * (b) Alpha & blending array size 4…64 PEs.  The paper picks 8x8=64;
 *     note the paper's x-axis is the array *side-count pair*
 *     (4 -> 2x2 ... 64 -> 8x8).
 *
 * Both sweeps are expressed as config variants of one SweepSpec and
 * executed concurrently by the batch runtime (SweepRunner); the
 * printed numbers are identical to the previous serial loops.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

int
main()
{
    using namespace gcc3d;
    float scale = bench::benchScale();
    bench::banner("Figure 13", "design space exploration (Train)", scale);

    SweepSpec spec;
    spec.addScene(SceneId::Train);
    spec.scale = scale;
    spec.backends = {Backend::Gcc};
    spec.variants.clear();

    // Each sweep keeps the variants it built, so the printed swept
    // values come from the configurations that ran.
    std::vector<ConfigVariant> buffers, arrays, arrays_8x8;
    for (double kb : {32.0, 128.0, 512.0, 2048.0, 8192.0}) {
        ConfigVariant v;
        v.name = "buf=" + std::to_string(static_cast<int>(kb));
        v.gcc.image_buffer_kb = kb;
        buffers.push_back(v);
    }
    // The PE array tiles one block per pass; shrink the block to the
    // array so boundary-identification granularity matches
    // (2x2 / 4x4 / 8x8).
    auto blockSide = [](int pes) {
        int side = 2;
        while (side * side < pes)
            side *= 2;
        return side;
    };
    for (int pes : {4, 16, 64}) {
        ConfigVariant v;
        v.name = "pes=" + std::to_string(pes);
        v.gcc.alpha_pes = pes;
        v.gcc.blend_pes = pes;
        v.gcc.block_size = blockSide(pes);
        arrays.push_back(v);
    }
    // Intermediate array sizes keep the paper's 8x8 block granularity
    // and pay multiple passes per block.
    for (int pes : {8, 32}) {
        ConfigVariant v;
        v.name = "pes8x8=" + std::to_string(pes);
        v.gcc.alpha_pes = pes;
        v.gcc.blend_pes = pes;
        arrays_8x8.push_back(v);
    }
    for (const auto *sweep : {&buffers, &arrays, &arrays_8x8})
        spec.variants.insert(spec.variants.end(), sweep->begin(),
                             sweep->end());

    ResultTable table = bench::runSweep(spec);

    std::printf("(a) image buffer capacity sweep\n");
    std::printf("%-10s %8s %10s %10s %12s %12s\n", "buffer", "mode",
                "FPS", "mm^2", "FPS/mm^2", "mJ/mm^2");
    bench::rule();
    for (const ConfigVariant &v : buffers)
        for (const JobResult &r : bench::rowsOfVariant(table, v))
            std::printf("%7.0fKB %8s %10.1f %10.2f %12.2f %12.3f\n",
                        v.gcc.image_buffer_kb, r.cmode ? "Cmode" : "full",
                        r.fps, r.area_mm2, r.fps / r.area_mm2,
                        r.energy_mj / r.area_mm2);

    std::printf("\n(b) alpha & blending array size sweep\n");
    std::printf("%-10s %10s %10s %12s %12s\n", "PEs", "FPS", "mm^2",
                "FPS/mm^2", "mJ/mm^2");
    bench::rule();
    for (const ConfigVariant &v : arrays)
        for (const JobResult &r : bench::rowsOfVariant(table, v))
            std::printf("%3d (%dx%d) %10.1f %10.2f %12.2f %12.3f\n",
                        v.gcc.alpha_pes, v.gcc.block_size,
                        v.gcc.block_size, r.fps, r.area_mm2,
                        r.fps / r.area_mm2, r.energy_mj / r.area_mm2);
    for (const ConfigVariant &v : arrays_8x8)
        for (const JobResult &r : bench::rowsOfVariant(table, v))
            std::printf("%3d (8x8 blocks) %4.1f %10.2f %12.2f %12.3f\n",
                        v.gcc.alpha_pes, r.fps, r.area_mm2,
                        r.fps / r.area_mm2, r.energy_mj / r.area_mm2);
    std::printf("\npaper: 128 KB buffer and the 8x8 array maximize "
                "area-normalized performance.\n");
    return 0;
}
