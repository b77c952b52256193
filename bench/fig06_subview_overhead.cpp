/**
 * @file
 * Reproduces Fig. 6: the Gaussian-loading overhead of Compatibility
 * Mode when the image is partitioned into n x n sub-views, for Lego
 * and Train.
 *
 * "Rendering Invocations" counts (Gaussian, sub-view) processing
 * events — a Gaussian overlapping several sub-views is re-processed
 * per sub-view; "Rendered Gaussians" counts unique contributors.
 * The paper's conclusion: sub-views >= 128x128 add only marginal
 * overhead.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "render/gaussian_wise_renderer.h"
#include "scene/scene_generator.h"

int
main()
{
    using namespace gcc3d;
    float scale = bench::benchScale();
    bench::banner("Figure 6",
                  "Cmode sub-view size vs Gaussian processing overhead",
                  scale);

    const std::vector<int> sizes = {1024, 512, 256, 128, 64, 32, 16};

    for (SceneId id : {SceneId::Lego, SceneId::Train}) {
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, scale);
        Camera cam = makeCamera(spec);

        std::printf("\n%s (%dx%d image)\n", spec.name.c_str(),
                    cam.width(), cam.height());
        std::printf("%-10s %14s %14s %10s\n", "sub-view", "invocations",
                    "rendered", "overhead");
        bench::rule();
        for (int n : sizes) {
            GaussianWiseConfig cfg;
            cfg.subview_size = n;
            GaussianWiseRenderer renderer(cfg);
            GaussianWiseStats stats;
            Image img = renderer.render(cloud, cam, stats);
            (void)img;
            double overhead =
                stats.rendered_gaussians > 0
                    ? static_cast<double>(stats.stage2_invocations) /
                          static_cast<double>(stats.rendered_gaussians)
                    : 0.0;
            std::printf("%4dx%-5d %14lld %14lld %9.2fx\n", n, n,
                        static_cast<long long>(stats.stage2_invocations),
                        static_cast<long long>(stats.rendered_gaussians),
                        overhead);
        }
    }
    std::printf("\npaper: invocations stay near the rendered count for "
                "sub-views >= 128x128 and blow up below 64x64.\n");
    return 0;
}
