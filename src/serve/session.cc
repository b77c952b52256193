#include "serve/session.h"

#include <cmath>
#include <stdexcept>

#include "obs/perf_recorder.h"
#include "runtime/sweep_runner.h"

namespace gcc3d {

std::string
sessionRendererName(SessionRenderer renderer)
{
    switch (renderer) {
    case SessionRenderer::Tile:
        return "tile";
    case SessionRenderer::GaussianWise:
        return "gw";
    }
    return "unknown";
}

SessionRenderer
sessionRendererFromName(const std::string &name)
{
    if (name == "tile")
        return SessionRenderer::Tile;
    if (name == "gw" || name == "gaussian-wise")
        return SessionRenderer::GaussianWise;
    throw std::invalid_argument("unknown session renderer: " + name);
}

const char *
degradeTierName(DegradeTier tier)
{
    switch (tier) {
    case DegradeTier::Full: return "full";
    case DegradeTier::Warp: return "warp";
    case DegradeTier::HalfRes: return "half_res";
    case DegradeTier::CoarseLod: return "coarse_lod";
    case DegradeTier::Drop: return "drop";
    }
    return "unknown";
}

const char *
shedReasonName(ShedReason reason)
{
    switch (reason) {
    case ShedReason::None: return "none";
    case ShedReason::Late: return "late";
    case ShedReason::Admission: return "admission";
    case ShedReason::Fairness: return "fairness";
    case ShedReason::Degrade: return "degrade";
    case ShedReason::Disconnect: return "disconnect";
    }
    return "unknown";
}

Session::Session(SessionConfig config, SceneHandle scene)
    : config_(std::move(config)), scene_(std::move(scene)),
      tile_(config_.tile), gw_(config_.gw)
{
    if ((!scene_.cloud && !scene_.lod) || !scene_.trajectory)
        throw std::invalid_argument("session needs a complete scene handle");
    if (config_.frames < 1)
        throw std::invalid_argument("session needs at least one frame");
    if (static_cast<std::size_t>(config_.frames) >
        scene_.trajectory->frameCount())
        throw std::invalid_argument(
            "session trajectory shorter than requested frames");
    if (!(config_.fps_target >= 0.0) || !std::isfinite(config_.fps_target))
        throw std::invalid_argument("fps target must be finite and >= 0");
    if (!std::isfinite(config_.start_ms) || config_.start_ms < 0.0)
        throw std::invalid_argument("start_ms must be finite and >= 0");
    if (config_.degrade &&
        (!(config_.degrade_render_scale > 0.0f) ||
         config_.degrade_render_scale >= 1.0f ||
         !(config_.degrade_tau_factor >= 1.0f)))
        throw std::invalid_argument("degrade knobs out of range");
    // A temporal cache exists when temporal streaming is requested,
    // or when the degradation ladder needs a warp source (keep_exact
    // maintains the exact snapshot + depth buffer at every == 1).
    const bool wants_cache =
        (config_.temporal >= 1 || config_.degrade) &&
        config_.renderer == SessionRenderer::Tile && !scene_.lod;
    if (wants_cache) {
        temporal_ = std::make_unique<TemporalCache>();
        temporal_->options.every = std::max(1, config_.temporal);
        temporal_->options.keep_exact = config_.degrade;
    }
}

double
Session::periodMs() const
{
    return config_.fps_target > 0.0 ? 1000.0 / config_.fps_target : 0.0;
}

double
Session::renderFrame(int frame) const
{
    return renderFrame(frame, nullptr);
}

double
Session::renderFrame(int frame, FrameStageCost *cost, ThreadPool *pool) const
{
    if (frame < 0 || frame >= config_.frames)
        throw std::out_of_range("session frame index out of range");
    // Recorder samples emitted below (renderer laps, LOD decode,
    // chunk decodes) carry this session/frame in the trace.
    obs::FrameTag tag(config_.id, frame);
    const Camera &cam =
        scene_.trajectory->frame(static_cast<std::size_t>(frame));
    // LOD sessions render the camera's cut; resident-cloud sessions
    // render the shared cloud.  Both are pure in (scene, camera).
    GaussianCloud cut;
    const GaussianCloud *cloud = scene_.cloud.get();
    double decode_ms = 0.0;
    if (scene_.lod) {
        obs::PerfScope decode_scope(obs::Stage::Decode, &decode_ms);
        cut = scene_.lod->buildCut(cam, config_.lod_cut);
        cloud = &cut;
    }
    if (config_.renderer == SessionRenderer::Tile) {
        StandardFlowStats stats;
        const Image image =
            temporal_
                ? tile_.renderTemporal(*cloud, cam, stats, *temporal_, pool)
                : tile_.render(*cloud, cam, stats, pool);
        if (cost != nullptr) {
            cost->pre_ms = stats.stage.preprocess_ms;
            cost->bin_ms = stats.stage.binning_ms;
            cost->raster_ms = stats.stage.raster_ms;
            cost->warp_ms = stats.stage.warp_ms;
            cost->decode_ms = decode_ms;
        }
        return imageChecksum(image);
    }
    GaussianWiseStats stats;
    const Image image = gw_.render(*cloud, cam, stats, pool);
    if (cost != nullptr) {
        cost->pre_ms = stats.stage.preprocess_ms;
        cost->bin_ms = stats.stage.binning_ms;
        cost->raster_ms = stats.stage.raster_ms;
        cost->warp_ms = stats.stage.warp_ms;
        cost->decode_ms = decode_ms;
    }
    return imageChecksum(image);
}

bool
Session::tierAvailable(DegradeTier tier) const
{
    switch (tier) {
    case DegradeTier::Full:
        return true;
    case DegradeTier::Warp:
        return temporal_ != nullptr;
    case DegradeTier::HalfRes:
        return config_.degrade_render_scale > 0.0f &&
               config_.degrade_render_scale < 1.0f;
    case DegradeTier::CoarseLod:
        return scene_.lod != nullptr;
    case DegradeTier::Drop:
        return false;
    }
    return false;
}

double
Session::renderFrameDegraded(int frame, DegradeTier tier,
                             FrameStageCost *cost, DegradeTier *served,
                             ThreadPool *pool) const
{
    if (tier == DegradeTier::Full || tier == DegradeTier::Drop ||
        !tierAvailable(tier)) {
        if (served != nullptr)
            *served = DegradeTier::Full;
        return renderFrame(frame, cost, pool);
    }
    if (frame < 0 || frame >= config_.frames)
        throw std::out_of_range("session frame index out of range");
    obs::FrameTag tag(config_.id, frame);
    const Camera &cam =
        scene_.trajectory->frame(static_cast<std::size_t>(frame));

    if (tier == DegradeTier::Warp) {
        // Forced reprojection from the last exact frame.  Falls back
        // to an exact render when no warp source is valid yet (the
        // fallback also primes the source for the next request).
        StandardFlowStats stats;
        const std::int64_t warped_before =
            temporal_->counters().warped_frames;
        const std::int64_t copied_before =
            temporal_->counters().copied_frames;
        const Image image = tile_.renderTemporal(
            *scene_.cloud, cam, stats, *temporal_, pool,
            /*force_warp=*/true);
        if (cost != nullptr) {
            cost->pre_ms = stats.stage.preprocess_ms;
            cost->bin_ms = stats.stage.binning_ms;
            cost->raster_ms = stats.stage.raster_ms;
            cost->warp_ms = stats.stage.warp_ms;
        }
        if (served != nullptr)
            *served = (temporal_->counters().warped_frames > warped_before ||
                       temporal_->counters().copied_frames > copied_before)
                          ? DegradeTier::Warp
                          : DegradeTier::Full;
        return imageChecksum(image);
    }

    // HalfRes / CoarseLod: stateless exact renders with a cheaper
    // camera or cut — the temporal cache is never touched.
    GaussianCloud cut;
    const GaussianCloud *cloud = scene_.cloud.get();
    double decode_ms = 0.0;
    if (scene_.lod) {
        obs::PerfScope decode_scope(obs::Stage::Decode, &decode_ms);
        LodCutParams params = config_.lod_cut;
        if (tier == DegradeTier::CoarseLod)
            params.tau *= config_.degrade_tau_factor;
        cut = scene_.lod->buildCut(cam, params);
        cloud = &cut;
    }
    const Camera render_cam =
        tier == DegradeTier::HalfRes
            ? cam.scaledResolution(config_.degrade_render_scale)
            : cam;
    if (served != nullptr)
        *served = tier;
    if (config_.renderer == SessionRenderer::Tile) {
        StandardFlowStats stats;
        const Image image = tile_.render(*cloud, render_cam, stats, pool);
        if (cost != nullptr) {
            cost->pre_ms = stats.stage.preprocess_ms;
            cost->bin_ms = stats.stage.binning_ms;
            cost->raster_ms = stats.stage.raster_ms;
            cost->warp_ms = stats.stage.warp_ms;
            cost->decode_ms = decode_ms;
        }
        return imageChecksum(image);
    }
    GaussianWiseStats stats;
    const Image image = gw_.render(*cloud, render_cam, stats, pool);
    if (cost != nullptr) {
        cost->pre_ms = stats.stage.preprocess_ms;
        cost->bin_ms = stats.stage.binning_ms;
        cost->raster_ms = stats.stage.raster_ms;
        cost->warp_ms = stats.stage.warp_ms;
        cost->decode_ms = decode_ms;
    }
    return imageChecksum(image);
}

} // namespace gcc3d
