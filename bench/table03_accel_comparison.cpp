/**
 * @file
 * Reproduces Table 3: comparison of neural rendering accelerators.
 *
 * MetaVRain, Fusion-3D and the two GPUs are published reference
 * points (reprinted verbatim); the GSCore and GCC rows are *measured*
 * by our simulators on the Lego scene, with area from the chip
 * models.  Paper: GSCore 190 FPS / 48.1 FPS/mm^2, GCC 667 FPS /
 * 246 FPS/mm^2 on Lego.
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
    bench::banner("Table 3", "cross-accelerator comparison (Lego)",
                  scale);

    SceneSpec spec = scenePreset(SceneId::Lego);
    GaussianCloud cloud = generateScene(spec, scale);
    Camera cam = makeCamera(spec);

    GscoreSim gscore;
    GscoreFrameResult base = gscore.renderFrame(cloud, cam);
    GccAccelerator gcc;
    GccFrameResult ours = gcc.render(cloud, cam);

    // FPS scales ~inversely with population; report the measured value
    // and the paper-scale equivalent estimate.
    double gsc_fps_paper_scale = base.fps * scale;
    double gcc_fps_paper_scale = ours.fps * scale;

    std::printf("%-22s %-8s %-8s %10s %9s %9s %14s\n", "design", "model",
                "process", "area mm^2", "power W", "FPS",
                "FPS/mm^2");
    bench::rule();
    std::printf("%-22s %-8s %-8s %10.2f %9.2f %9.0f %14.2f  "
                "(published)\n",
                "MetaVRain ISSCC'23", "NeRF", "28nm", 20.25, 0.89, 110.0,
                5.43);
    std::printf("%-22s %-8s %-8s %10.2f %9.2f %9.0f %14.2f  "
                "(published)\n",
                "Fusion-3D MICRO'24", "NeRF", "28nm", 8.7, 6.0, 36.0,
                4.13);
    std::printf("%-22s %-8s %-8s %10.0f %9.0f %9.0f %14.2f  "
                "(published)\n",
                "NVIDIA A6000", "3DGS", "8nm", 628.0, 300.0, 300.0, 0.48);
    std::printf("%-22s %-8s %-8s %10.0f %9.0f %9.0f %14.2f  "
                "(published)\n",
                "Jetson AGX Xavier", "3DGS", "12nm", 350.0, 30.0, 20.0,
                0.05);

    double gsc_area = gscore.chip().totalArea();
    double gcc_area = gcc.areaMm2();
    std::printf("%-22s %-8s %-8s %10.2f %9.2f %9.0f %14.2f  "
                "(measured; paper 190 / 48.10)\n",
                "GSCore ASPLOS'24", "3DGS", "28nm", gsc_area, 0.87,
                gsc_fps_paper_scale, gsc_fps_paper_scale / gsc_area);
    std::printf("%-22s %-8s %-8s %10.2f %9.2f %9.0f %14.2f  "
                "(measured; paper 667 / 246.00)\n",
                "GCC (this work)", "3DGS", "28nm", gcc_area, 0.79,
                gcc_fps_paper_scale, gcc_fps_paper_scale / gcc_area);

    std::printf("\nSRAM: GSCore %.0f KB (paper 272), GCC %.0f KB "
                "(paper 190)\n",
                gscore.chip().bufferCapacityKb(),
                gcc.chip().bufferCapacityKb());
    std::printf("(measured FPS columns are scaled to paper-scale "
                "populations: fps_measured * scale)\n");
    return 0;
}
