#include "scene/scene_presets.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace gcc3d {

const std::vector<SceneId> &
allScenes()
{
    static const std::vector<SceneId> scenes = {
        SceneId::Palace, SceneId::Lego, SceneId::Train,
        SceneId::Truck, SceneId::Playroom, SceneId::Drjohnson,
    };
    return scenes;
}

std::string
sceneName(SceneId id)
{
    switch (id) {
      case SceneId::Palace: return "Palace";
      case SceneId::Lego: return "Lego";
      case SceneId::Train: return "Train";
      case SceneId::Truck: return "Truck";
      case SceneId::Playroom: return "Playroom";
      case SceneId::Drjohnson: return "Drjohnson";
    }
    return "Unknown";
}

SceneId
sceneFromName(const std::string &name)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (SceneId id : allScenes()) {
        std::string n = sceneName(id);
        std::transform(n.begin(), n.end(), n.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (n == lower)
            return id;
    }
    throw std::invalid_argument("unknown scene: " + name);
}

SceneSpec
scenePreset(SceneId id)
{
    SceneSpec s;
    s.name = sceneName(id);
    switch (id) {
      case SceneId::Palace:
        // Compact synthetic scene; "most Gaussians cluster near the
        // camera center" (Sec. 5.2).
        s.layout = SceneLayout::Object;
        s.seed = 101;
        s.gaussian_count = 450000;
        s.cluster_count = 160;
        s.extent = 3.0f;
        s.cluster_sigma = 0.08f;
        s.log_scale_mean = -5.6f;
        s.log_scale_sigma = 0.55f;
        s.anisotropy = 0.45f;
        s.high_opacity_fraction = 0.97f;
        s.high_opacity_min = 0.93f;
        s.image_width = 800;
        s.image_height = 800;
        s.camera_distance = 2.0f;
        break;
      case SceneId::Lego:
        s.layout = SceneLayout::Object;
        s.seed = 102;
        s.gaussian_count = 340000;
        s.cluster_count = 120;
        s.extent = 2.5f;
        s.cluster_sigma = 0.07f;
        s.log_scale_mean = -5.6f;
        s.log_scale_sigma = 0.55f;
        s.anisotropy = 0.45f;
        s.high_opacity_fraction = 0.97f;
        s.high_opacity_min = 0.94f;
        s.image_width = 800;
        s.image_height = 800;
        s.camera_distance = 2.0f;
        break;
      case SceneId::Train:
        s.layout = SceneLayout::Street;
        s.seed = 103;
        s.gaussian_count = 1060000;
        s.cluster_count = 300;
        s.extent = 5.0f;
        s.cluster_sigma = 0.55f;
        s.log_scale_mean = -6.4f;
        s.log_scale_sigma = 0.55f;
        s.anisotropy = 0.45f;
        s.high_opacity_fraction = 0.7f;
        s.high_opacity_min = 0.75f;
        s.image_width = 980;
        s.image_height = 545;
        s.fov_x = 1.05f;
        s.camera_height = 0.25f;
        break;
      case SceneId::Truck:
        s.layout = SceneLayout::Street;
        s.seed = 104;
        s.gaussian_count = 2570000;
        s.cluster_count = 420;
        s.extent = 6.0f;
        s.cluster_sigma = 0.55f;
        s.log_scale_mean = -6.8f;
        s.log_scale_sigma = 0.55f;
        s.anisotropy = 0.45f;
        s.high_opacity_fraction = 0.7f;
        s.high_opacity_min = 0.75f;
        s.image_width = 980;
        s.image_height = 545;
        s.fov_x = 1.05f;
        s.camera_height = 0.25f;
        break;
      case SceneId::Playroom:
        s.layout = SceneLayout::Room;
        s.seed = 105;
        s.gaussian_count = 2330000;
        s.cluster_count = 380;
        s.extent = 4.0f;
        s.cluster_sigma = 0.45f;
        s.log_scale_mean = -6.6f;
        s.log_scale_sigma = 0.55f;
        s.anisotropy = 0.45f;
        s.high_opacity_fraction = 0.9f;
        s.high_opacity_min = 0.82f;
        s.image_width = 1264;
        s.image_height = 832;
        s.fov_x = 1.2f;
        break;
      case SceneId::Drjohnson:
        s.layout = SceneLayout::Room;
        s.seed = 106;
        s.gaussian_count = 3280000;
        s.cluster_count = 480;
        s.extent = 4.5f;
        s.cluster_sigma = 0.45f;
        s.log_scale_mean = -6.6f;
        s.log_scale_sigma = 0.55f;
        s.anisotropy = 0.45f;
        s.high_opacity_fraction = 0.9f;
        s.high_opacity_min = 0.82f;
        s.image_width = 1264;
        s.image_height = 832;
        s.fov_x = 1.2f;
        break;
    }
    return s;
}

SceneSpec
citySpec(std::size_t gaussian_count)
{
    // An elongated urban corridor far past any paper preset: the
    // fly-through workload of ROADMAP item 3.  Many small clusters
    // spread over a deep street layout give real spatial sparsity, so
    // the distance-dependent LOD cut has something to cut.
    SceneSpec s;
    s.name = "City";
    s.layout = SceneLayout::Street;
    s.seed = 1107;
    s.gaussian_count = gaussian_count;
    s.cluster_count = 4096;
    s.extent = 14.0f;
    s.cluster_sigma = 0.5f;
    s.log_scale_mean = -7.0f;
    s.log_scale_sigma = 0.55f;
    s.anisotropy = 0.45f;
    s.high_opacity_fraction = 0.75f;
    s.high_opacity_min = 0.78f;
    s.image_width = 980;
    s.image_height = 545;
    s.fov_x = 1.05f;
    s.camera_height = 0.25f;
    return s;
}

} // namespace gcc3d
