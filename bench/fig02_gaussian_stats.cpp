/**
 * @file
 * Reproduces Fig. 2 of the paper.
 *
 * (a) The number of Gaussians in different processing phases (total,
 *     in-frustum, rendered) for Train, Truck, Playroom, Drjohnson
 *     under the standard dataflow, with the fraction of preprocessed
 *     Gaussians that go unused (paper: 67.1 / 64.0 / 81.4 / 82.8 %).
 * (b) The average number of per-Gaussian loads during GSCore's
 *     tile-wise rendering (paper: 3.94 / 3.17 / 5.63 / 6.45).
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "render/tile_renderer.h"
#include "scene/scene_generator.h"

int
main()
{
    using namespace gcc3d;
    float scale = bench::benchScale();
    bench::banner("Figure 2", "Gaussian population by phase & per-Gaussian"
                  " loading (GSCore dataflow)", scale);

    const std::vector<SceneId> scenes = {SceneId::Train, SceneId::Truck,
                                         SceneId::Playroom,
                                         SceneId::Drjohnson};
    const double paper_unused[] = {67.1, 64.0, 81.4, 82.8};
    const double paper_loads[] = {3.94, 3.17, 5.63, 6.45};

    std::printf("(a) Gaussians per processing phase\n");
    std::printf("%-10s %12s %12s %12s %9s %9s\n", "scene", "total",
                "in-frustum", "rendered", "unused%", "paper%");
    bench::rule();

    std::vector<double> loads;
    int i = 0;
    for (SceneId id : scenes) {
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, scale);
        Camera cam = makeCamera(spec);

        TileRenderer renderer;  // GSCore settings: 16x16 tiles, OBB
        StandardFlowStats stats;
        Image img = renderer.render(cloud, cam, stats);
        (void)img;

        double unused =
            stats.pre.in_frustum > 0
                ? 100.0 * (1.0 - static_cast<double>(
                                     stats.rendered_gaussians) /
                                     static_cast<double>(
                                         stats.pre.in_frustum))
                : 0.0;
        std::printf("%-10s %12zu %12zu %12lld %8.1f%% %8.1f%%\n",
                    spec.name.c_str(), stats.pre.total,
                    stats.pre.in_frustum,
                    static_cast<long long>(stats.rendered_gaussians),
                    unused, paper_unused[i]);
        loads.push_back(stats.loadsPerRenderedGaussian());
        ++i;
    }

    std::printf("\n(b) Average per-Gaussian loads during rendering\n");
    std::printf("%-10s %12s %12s\n", "scene", "measured", "paper");
    bench::rule();
    i = 0;
    for (SceneId id : scenes) {
        std::printf("%-10s %12.2f %12.2f\n",
                    sceneName(id).c_str(), loads[static_cast<size_t>(i)],
                    paper_loads[i]);
        ++i;
    }
    return 0;
}
