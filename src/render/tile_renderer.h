/**
 * @file
 * Standard-dataflow functional renderer: preprocess-then-render with
 * tile-wise rasterization (the pipeline GSCore and the reference GPU
 * rasterizer share, Sec. 2).
 *
 * For a frame: every Gaussian is preprocessed (projection + SH),
 * splats are bound to the fixed-size tiles they overlap (KV pairs),
 * each tile sorts its splats by depth and alpha-blends front-to-back
 * with per-pixel early termination.
 *
 * Besides the image, the renderer reports the dataflow statistics the
 * paper profiles: per-Gaussian tile loads (Fig. 2b), rendered vs
 * preprocessed counts (Fig. 2a), KV pair counts and per-pixel alpha
 * evaluation counts (Table 1, Fig. 11).
 *
 * One tile pipeline serves render(), renderTemporal() and
 * tilesPerSplat(), in three stages: a per-splat coverage walk (CSR of
 * covered tiles), a CSR bin of packed (depth key, slot) words into one
 * flat array, and a chunked raster fan-out that radix-sorts each
 * tile's slice on monotone depth keys, blends it with per-splat pixel
 * iteration bounded by the cutoff-safe footprint rect (skipped pixels
 * are accounted analytically, so the reported hardware stats do not
 * change) and merges per-chunk stats deterministically.  The temporal
 * path adds only its own tiers on top: the cached-state checks, the
 * reprojection warp and the incremental diff-and-patch of the
 * retained per-tile lists.
 *
 * renderReference() is the retained direct scalar transcription the
 * pipeline is validated against: nested per-tile vectors, comparator
 * stable_sort, full-tile pixel sweeps.  Both produce bit-identical
 * images and identical StandardFlowStats;
 * tests/test_renderer_equivalence.cc locks that in across bounding
 * modes, tile sizes and worker counts.
 */

#ifndef GCC3D_RENDER_TILE_RENDERER_H
#define GCC3D_RENDER_TILE_RENDERER_H

#include <cstdint>
#include <vector>

#include "render/image.h"
#include "render/preprocess.h"
#include "render/render_stats.h"
#include "render/splat_soa.h"
#include "render/temporal_cache.h"
#include "scene/camera.h"
#include "scene/gaussian_cloud.h"

namespace gcc3d {

/** Configuration of the standard-dataflow renderer. */
struct TileRendererConfig
{
    int tile_size = 16;                       ///< pixels per tile side
    BoundingMode bounding = BoundingMode::Obb3Sigma;
    float termination_t = 1e-4f;              ///< early-termination T
    float alpha_cutoff = kAlphaMin;           ///< min blended alpha

    /**
     * Opt-in fast-alpha mode: render() evaluates alpha with the
     * vectorized polynomial exponential (simd::simdExp, relative
     * error < 3e-7) instead of std::exp.  NOT bit-identical to
     * renderReference — the contract is perceptual: >= 55 dB PSNR
     * against the exact image on every preset scene
     * (tests/test_renderer_equivalence.cc).  Off by default; every
     * bit-exactness guarantee elsewhere in this header assumes it is
     * off.
     */
    bool fast_alpha = false;

    /**
     * Near-exact settings used as the quality ground truth of Table 2:
     * generous bounds, negligible cutoffs — removes every
     * approximation the three pipelines differ in.
     */
    static TileRendererConfig
    groundTruth()
    {
        TileRendererConfig c;
        c.bounding = BoundingMode::Conservative;
        c.termination_t = 1e-7f;
        c.alpha_cutoff = 1e-6f;
        return c;
    }
};

/**
 * Standard-dataflow renderer (tile-wise, decoupled two-stage).
 *
 * Thread safety: render() keeps all per-frame state on the stack and
 * only reads config_ and its const arguments, so one renderer (or
 * one per thread) may render concurrently, including from a shared
 * const GaussianCloud.  A ThreadPool passed to render() or
 * renderTemporal() fans out the preprocess stage and the per-tile
 * sort-and-raster loop, and may be shared between renderers.
 */
class TileRenderer
{
  public:
    explicit TileRenderer(TileRendererConfig config = {})
        : config_(config) {}

    const TileRendererConfig &config() const { return config_; }

    /**
     * Render a frame (optimized path).
     *
     * @param cloud  the scene
     * @param cam    viewpoint
     * @param stats  populated with dataflow counters
     * @param pool   optional worker pool: fans out the preprocess
     *               stage and the per-tile rasterization loop (tiles
     *               cover disjoint pixels and disjoint slices of the
     *               binned splat lists; per-chunk counters and
     *               unique-splat maps merge deterministically).  Null
     *               renders serially; the image and stats are
     *               bit-identical either way.
     */
    Image render(const GaussianCloud &cloud, const Camera &cam,
                 StandardFlowStats &stats,
                 ThreadPool *pool = nullptr) const;

    /**
     * Render a frame of a trajectory stream with temporal coherence.
     *
     * @p cache carries the cross-frame state (see temporal_cache.h
     * for the tier breakdown and ownership rules).  With
     * cache.options.every == 1 the output is bit-identical to
     * render() of the same (cloud, cam) no matter what the cache
     * held — unchanged tiles copy last frame's composited pixels, a
     * bit-equal camera copies the whole frame, and any scene/config
     * change falls back to a full rebuild.  With every == k > 1,
     * only every k-th frame renders exactly; frames in between are
     * synthesized by per-tile reprojection from the last exact frame
     * (>= 40 dB PSNR contract, bench-enforced).
     *
     * Stats semantics: the flow counters report the work actually
     * performed this frame (a reused tile contributes no sorts or
     * blends; a copied or warped frame contributes almost nothing),
     * so savings show up in the counters as well as the clock.
     * Unique-population counters (fetched/rendered Gaussians) cover
     * only the re-rasterized tiles.  cache.counters() attributes
     * frames and tiles to the path that produced them.
     *
     * Frames of one cache must be rendered sequentially (external
     * happens-before); @p pool only fans out the preprocess stage
     * and tile rasterization, never frame-level state.
     *
     * @p force_warp asks for a synthesized frame regardless of the
     * every-k cadence (the serving degradation ladder's warp tier;
     * requires cache.options.keep_exact or every > 1 so a warp
     * source exists).  Best-effort: if no exact source is valid yet,
     * the frame renders exactly instead — callers detect which path
     * served the frame via cache.counters().warped_frames.
     */
    Image renderTemporal(const GaussianCloud &cloud, const Camera &cam,
                         StandardFlowStats &stats, TemporalCache &cache,
                         ThreadPool *pool = nullptr,
                         bool force_warp = false) const;

    /**
     * Render a frame through the retained reference implementation
     * (scalar binning into nested vectors, comparator stable_sort,
     * full-tile pixel sweeps).  Used by the equivalence tests and the
     * frame-throughput benchmark as the speedup baseline; produces
     * bit-identical images and stats to render().
     */
    Image renderReference(const GaussianCloud &cloud, const Camera &cam,
                          StandardFlowStats &stats) const;

    /**
     * Tile-binning only: returns the number of tiles each splat maps
     * to under the configured bounding mode (used by Fig. 2b without
     * paying for full rendering).  Runs the render paths' coverage
     * walk, so the counts sum to render()'s kv_pairs.
     */
    std::vector<int> tilesPerSplat(const std::vector<Splat> &splats,
                                   const Camera &cam) const;

  private:
    TileRendererConfig config_;
};

} // namespace gcc3d

#endif // GCC3D_RENDER_TILE_RENDERER_H
