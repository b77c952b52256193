/**
 * @file
 * Reproduces Fig. 10: area-normalized speedup (a) and energy
 * efficiency (b) of GCC over GSCore on the six evaluation scenes.
 *
 * Paper: speedups 5.69/6.22/5.91/5.00/4.27/4.64 (geomean 5.24x);
 * energy efficiency 3.51/3.17/3.17/3.05/3.51/3.72 (geomean 3.35x).
 *
 * Both backends on all six scenes run concurrently through the batch
 * runtime; the matched comparison comes from ResultTable::compare.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"

int
main()
{
    using namespace gcc3d;
    float scale = bench::benchScale();
    bench::banner("Figure 10",
                  "area-normalized speedup & energy efficiency, GCC vs "
                  "GSCore", scale);

    const double paper_speedup[] = {5.69, 6.22, 5.91, 5.00, 4.27, 4.64};
    const double paper_ee[] = {3.51, 3.17, 3.17, 3.05, 3.51, 3.72};

    SweepSpec spec;
    for (SceneId id : allScenes())
        spec.addScene(id);
    spec.scale = scale;
    spec.backends = {Backend::Gscore, Backend::Gcc};
    ResultTable table = bench::runSweep(spec);

    // Chip areas are config properties, identical across scenes; read
    // them off the first row of each backend.
    double gscore_area = 0.0;
    double gcc_area = 0.0;
    for (const JobResult &r : table.rows()) {
        if (!r.ok)
            continue;
        if (r.backend == Backend::Gscore && gscore_area == 0.0)
            gscore_area = r.area_mm2;
        if (r.backend == Backend::Gcc && gcc_area == 0.0)
            gcc_area = r.area_mm2;
    }
    double a_ratio = gcc_area > 0.0 ? gscore_area / gcc_area : 0.0;

    std::printf("area: GSCore %.2f mm^2, GCC %.2f mm^2 (ratio %.2f)\n\n",
                gscore_area, gcc_area, a_ratio);
    std::printf("%-10s %10s %10s | %9s %9s | %9s %9s\n", "scene",
                "GSCoreFPS", "GCC FPS", "speedup", "paper", "energyEff",
                "paper");
    bench::rule();

    // compare() matches by (scene, variant, frame); scenes keep the
    // sweep's presentation order because rows are id-ordered.  Paper
    // columns are looked up by scene name so a failed pair cannot
    // shift them onto the wrong row.
    std::vector<ResultTable::Comparison> cmp =
        table.compare(Backend::Gscore, Backend::Gcc);
    std::vector<double> speedups, ees;
    for (const ResultTable::Comparison &c : cmp) {
        int paper_idx = -1;
        const std::vector<SceneId> &scenes = allScenes();
        for (std::size_t s = 0; s < scenes.size(); ++s)
            if (sceneName(scenes[s]) == c.scene)
                paper_idx = static_cast<int>(s);
        double speedup = c.speedup * a_ratio;
        double ee = c.energy_ratio * a_ratio;
        speedups.push_back(speedup);
        ees.push_back(ee);
        std::printf("%-10s %10.1f %10.1f | %8.2fx %8.2fx | %8.2fx "
                    "%8.2fx\n",
                    c.scene.c_str(), c.base_fps, c.other_fps, speedup,
                    paper_idx >= 0 ? paper_speedup[paper_idx] : 0.0, ee,
                    paper_idx >= 0 ? paper_ee[paper_idx] : 0.0);
    }
    bench::rule();
    std::printf("%-10s %10s %10s | %8.2fx %8.2fx | %8.2fx %8.2fx\n",
                "geomean", "", "", bench::geomean(speedups), 5.24,
                bench::geomean(ees), 3.35);
    return 0;
}
