#include "render/tile_renderer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "gsmath/simd.h"
#include "gsmath/sort_keys.h"
#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace gcc3d {

namespace {

/**
 * Mirrors the deltas a temporal frame applies to its cache-local
 * TemporalCounters into the global metrics registry, whatever path
 * the frame exits through.  The per-cache counters stay the source
 * of truth for stats/equivalence; the registry copies are for fleet
 * dashboards and --metrics-out.
 */
class TemporalCounterMirror
{
  public:
    explicit TemporalCounterMirror(const TemporalCounters &c)
        : c_(c), before_(c)
    {
    }

    ~TemporalCounterMirror()
    {
        static obs::Counter &frames =
            obs::MetricsRegistry::global().counter("render.temporal.frames");
        static obs::Counter &exact = obs::MetricsRegistry::global().counter(
            "render.temporal.exact_frames");
        static obs::Counter &copied = obs::MetricsRegistry::global().counter(
            "render.temporal.copied_frames");
        static obs::Counter &warped = obs::MetricsRegistry::global().counter(
            "render.temporal.warped_frames");
        static obs::Counter &reused = obs::MetricsRegistry::global().counter(
            "render.temporal.tiles_reused");
        static obs::Counter &rastered =
            obs::MetricsRegistry::global().counter(
                "render.temporal.tiles_rastered");
        frames.add(c_.frames - before_.frames);
        exact.add(c_.exact_frames - before_.exact_frames);
        copied.add(c_.copied_frames - before_.copied_frames);
        warped.add(c_.warped_frames - before_.warped_frames);
        reused.add(c_.tiles_reused - before_.tiles_reused);
        rastered.add(c_.tiles_rastered - before_.tiles_rastered);
    }

    TemporalCounterMirror(const TemporalCounterMirror &) = delete;
    TemporalCounterMirror &operator=(const TemporalCounterMirror &) = delete;

  private:
    const TemporalCounters &c_;
    const TemporalCounters before_;
};

/**
 * Dispatch grain of the per-tile rasterization fan-out: a chunk must
 * cover at least this many pixels of tiles, or pool dispatch costs
 * more than the chunk's work and the frame runs inline on the caller
 * (the parallel_for grain heuristic).
 */
constexpr std::size_t kMinPixelsPerRasterChunk = 4096;

/**
 * Bitonic-sorter pass accounting shared by every sort site: a
 * 16-wide bitonic merge sort sorts chunks of 16 in one pass and
 * merges ceil(n/16) chunks in log2 more passes.
 */
std::int64_t
bitonicPassKeys(std::size_t list_len)
{
    std::int64_t chunks = static_cast<std::int64_t>((list_len + 15) / 16);
    std::int64_t passes = 1;
    while ((std::int64_t{1} << (passes - 1)) < chunks)
        ++passes;
    return static_cast<std::int64_t>(list_len) * passes;
}

/** Sub-tile granularity of the VRU array-pass accounting. */
constexpr int kSub = 8;

/** Reusable per-worker buffers of the tile sort and raster kernel. */
struct TileScratch
{
    std::vector<std::uint64_t> sort; ///< radix-sort ping-pong buffer
    std::vector<float> tile_t;   ///< per-pixel transmittance
    std::vector<int> sub_live;   ///< live-pixel counts per 8x8 subtile
    std::vector<int> row_live;   ///< live-pixel counts per tile row
};

/**
 * Rasterize one tile from its depth-sorted entry list: the kernel
 * under rasterTiles, so a dirty tile the temporal path re-blends is
 * bit-identical to the cold render of the same list.  The tile's
 * pixels in @p image must be zero on entry; writes stay inside them,
 * so disjoint tiles rasterize concurrently.
 *
 * When @p depth_out is non-null (with @p splat_depth supplying the
 * per-slot view depths), the kernel also records a per-pixel surface
 * depth for the reprojection warp: the depth of the splat that first
 * drags the pixel's transmittance below one half — the pixel's median
 * surface — falling back to the first contributor for pixels that
 * never get that opaque.  The tile's depth_out block must be zero on
 * entry, like the pixels.  Blending math and stats are untouched, so
 * bit-identity with the depth-less call is preserved.
 */
void
rasterOneTile(const TileRendererConfig &config, const SplatSoA &soa,
              const std::uint64_t *entries, std::size_t list_len,
              int bx, int by, int width, int height, Image &image,
              StandardFlowStats &st, std::uint64_t *contributed,
              std::uint64_t *fetched, TileScratch &scratch,
              const float *splat_depth, float *depth_out)
{
    const int tile = config.tile_size;
    const int sub_n = (tile + kSub - 1) / kSub;
    const bool fast_alpha = config.fast_alpha;

    int x0 = bx * tile;
    int y0 = by * tile;
    int x1 = std::min(x0 + tile, width);
    int y1 = std::min(y0 + tile, height);
    int live = (x1 - x0) * (y1 - y0);
    scratch.tile_t.assign(static_cast<std::size_t>(tile) * tile, 1.0f);
    std::vector<float> &tile_t = scratch.tile_t;

    // Per-subtile live-pixel counts (8x8 granularity): the VRU
    // processes one subtile per array pass in lockstep.  Per-row
    // counts let the blend loop skip rows whose every pixel already
    // terminated.
    scratch.sub_live.assign(static_cast<std::size_t>(sub_n) * sub_n, 0);
    scratch.row_live.assign(static_cast<std::size_t>(tile), 0);
    std::vector<int> &sub_live = scratch.sub_live;
    std::vector<int> &row_live = scratch.row_live;
    for (int y = y0; y < y1; ++y) {
        row_live[y - y0] = x1 - x0;
        for (int x = x0; x < x1; ++x)
            ++sub_live[((y - y0) / kSub) * sub_n + (x - x0) / kSub];
    }

    for (std::size_t e = 0; e < list_len; ++e) {
        if (live == 0)
            break;  // whole tile terminated: skip the rest
        const std::uint32_t si = packedValue(entries[e]);
        ++st.tile_fetches;
        fetched[si >> 6] |= std::uint64_t{1} << (si & 63);
        const SplatSoA::Blend &b = soa.blend[si];

        // Array passes: live subtiles the splat's bounds reach.
        for (int sy = 0; sy < sub_n; ++sy) {
            for (int sx = 0; sx < sub_n; ++sx) {
                if (sub_live[sy * sub_n + sx] == 0)
                    continue;
                int rx0 = x0 + sx * kSub;
                int ry0 = y0 + sy * kSub;
                if (b.sb_x1 < rx0 || b.sb_x0 > rx0 + kSub - 1 ||
                    b.sb_y1 < ry0 || b.sb_y0 > ry0 + kSub - 1)
                    continue;
                ++st.subtile_passes;
            }
        }

        // The reference path alpha-tests every live pixel of the
        // tile; pixels outside the cutoff-safe rect are provably
        // below the alpha cutoff, so only the rect is walked and the
        // skipped evaluations are accounted from the live count
        // (identical totals, less work).
        st.alpha_evals += live;
        st.pixels_touched += live;
        const int rx0 = std::max(x0, b.it_x0);
        const int rx1 = std::min(x1 - 1, b.it_x1);
        const int ry0 = std::max(y0, b.it_y0);
        const int ry1 = std::min(y1 - 1, b.it_y1);
        // Conic and thresholds broadcast once per splat; the row
        // loop below evaluates q for kWidth pixels per step with
        // each lane running the scalar op sequence exactly (same
        // dx/dy derivation, same multiply/add order), so the
        // pass/fail decisions — and therefore the image and stats —
        // are bit-identical to the scalar reference.
        const simd::FloatV c00v(b.c00), c01v(b.c01);
        const simd::FloatV c10v(b.c10), c11v(b.c11);
        const simd::FloatV cxv(b.cx);
        const simd::FloatV q_skip_v(b.q_skip);
        const simd::FloatV half_v(0.5f);
        for (int y = ry0; y <= ry1; ++y) {
            if (row_live[y - y0] == 0)
                continue;  // every pixel in the row terminated
            const simd::FloatV dyv(static_cast<float>(y) + 0.5f - b.cy);
            float *trow =
                tile_t.data() + static_cast<std::size_t>(y - y0) * tile;
            for (int x = rx0; x <= rx1; x += simd::kWidth) {
                const int nlane = std::min<int>(simd::kWidth, rx1 - x + 1);
                simd::FloatV dx =
                    (simd::FloatV::iotaFrom(x) + half_v) - cxv;
                simd::FloatV q = dx * (c00v * dx + c01v * dyv) +
                                 dyv * (c10v * dx + c11v * dyv);
                // Mirrors the scalar `q > q_skip -> skip` comparison
                // exactly (incl. NaN ordering).
                unsigned bits = simd::MaskV::firstN(nlane).bits() &
                                ~(q > q_skip_v).bits();
                if (bits == 0)
                    continue;  // all lanes provably sub-cutoff
                float qlane[simd::kWidth];
                float alane[simd::kWidth];
                if (fast_alpha)
                    simd::min(simd::FloatV(0.99f),
                              simd::FloatV(b.opacity) *
                                  simd::simdExp(q * simd::FloatV(-0.5f)))
                        .store(alane);
                else
                    q.store(qlane);
                // Surviving lanes compact into the exact scalar
                // alpha/blend path, front-to-back in x order.
                do {
                    const int i = std::countr_zero(bits);
                    bits &= bits - 1;
                    const int px = x + i;
                    float &t = trow[px - x0];
                    if (t < config.termination_t)
                        continue;
                    float a;
                    if (fast_alpha) {
                        a = alane[i];
                    } else {
                        a = b.opacity * std::exp(-0.5f * qlane[i]);
                        if (a > 0.99f)
                            a = 0.99f;
                    }
                    if (a < config.alpha_cutoff)
                        continue;
                    ++st.blend_ops;
                    contributed[si >> 6] |= std::uint64_t{1} << (si & 63);
                    image.at(px, y) += Vec3(b.r, b.g, b.b) * (a * t);
                    const float t_prev = t;
                    t *= 1.0f - a;
                    if (depth_out != nullptr) {
                        float &dz =
                            depth_out[static_cast<std::size_t>(y) *
                                          width +
                                      px];
                        if (dz == 0.0f ||
                            (t_prev >= 0.5f && t < 0.5f))
                            dz = splat_depth[si];
                    }
                    if (t < config.termination_t) {
                        --live;
                        --row_live[y - y0];
                        --sub_live[((y - y0) / kSub) * sub_n +
                                   (px - x0) / kSub];
                    }
                } while (bits != 0);
            }
        }
    }
}

/**
 * Synthesize a frame at @p dst_cam by backward-warping the exact
 * frame rendered at @p src_cam (tier 3 of the temporal engine).
 *
 * Each destination pixel is lifted to view space at the exact frame's
 * per-pixel median-surface depth (captured by rasterOneTile), carried
 * to world space, re-projected into the exact camera and bilinearly
 * sampled.  Pixels nothing contributed to (depth sentinel 0) and
 * points that land behind the exact camera's near plane fall back to
 * a straight same-pixel copy — trajectory steps between exact frames
 * are small, so the copy is a close approximation there too.
 */
Image
warpFromExact(const Camera &src_cam, const Image &src,
              const std::vector<float> &depth, const Camera &dst_cam)
{
    const int width = dst_cam.width();
    const int height = dst_cam.height();
    Image out(width, height);
    const float fx = dst_cam.focalX();
    const float fy = dst_cam.focalY();
    const float hw = 0.5f * static_cast<float>(width);
    const float hh = 0.5f * static_cast<float>(height);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            // The source depth at the same pixel coordinate stands in
            // for the (unknown) destination depth — the cameras are a
            // sub-degree step apart, where the depth field is close
            // to coordinate-invariant away from occlusion edges.
            const float d =
                depth[static_cast<std::size_t>(y) * width + x];
            if (d <= 0.0f) {
                out.at(x, y) = src.at(x, y);
                continue;
            }
            const Vec3 v((static_cast<float>(x) + 0.5f - hw) * d / fx,
                         (static_cast<float>(y) + 0.5f - hh) * d / fy,
                         d);
            const Vec3 pe = src_cam.worldToView(dst_cam.viewToWorld(v));
            if (pe.z <= src_cam.nearPlane()) {
                out.at(x, y) = src.at(x, y);
                continue;
            }
            const Vec2 pp = src_cam.viewToPixel(pe);
            // Pixel centers sit at i + 0.5, so the continuous sample
            // coordinate is the projected position minus half a pixel.
            const float sx = std::clamp(pp.x - 0.5f, 0.0f,
                                        static_cast<float>(width - 1));
            const float sy = std::clamp(pp.y - 0.5f, 0.0f,
                                        static_cast<float>(height - 1));
            const int ix = static_cast<int>(sx);
            const int iy = static_cast<int>(sy);
            const int jx = std::min(ix + 1, width - 1);
            const int jy = std::min(iy + 1, height - 1);
            const float ax = sx - static_cast<float>(ix);
            const float ay = sy - static_cast<float>(iy);
            out.at(x, y) =
                src.at(ix, iy) * ((1.0f - ax) * (1.0f - ay)) +
                src.at(jx, iy) * (ax * (1.0f - ay)) +
                src.at(ix, jy) * ((1.0f - ax) * ay) +
                src.at(jx, jy) * (ax * ay);
        }
    }
    return out;
}

/** Per-splat tile coverage in CSR form (row si = splat si). */
struct Coverage
{
    std::vector<std::uint32_t> offsets;  ///< n + 1 row starts
    std::vector<std::uint32_t> tiles;    ///< tile indices, ascending
};

/**
 * The coverage walk: every tile of each splat's binning range, minus
 * the corner tiles the oriented-box test rejects in Obb3Sigma mode.
 */
Coverage
coverTiles(const SplatSoA &soa, int tile, int tiles_x)
{
    Coverage cov;
    cov.offsets.assign(soa.size() + 1, 0);
    for (std::size_t si = 0; si < soa.size(); ++si) {
        const TileRange &r = soa.range[si];
        for (int by = r.by0; by <= r.by1; ++by) {
            for (int bx = r.bx0; bx <= r.bx1; ++bx) {
                const float tx0 = static_cast<float>(bx * tile);
                const float ty0 = static_cast<float>(by * tile);
                if (soa.obb_refine &&
                    !obbOverlapsTile(soa.obb[si], tx0, ty0, tx0 + tile,
                                     ty0 + tile))
                    continue;
                cov.tiles.push_back(
                    static_cast<std::uint32_t>(by) * tiles_x + bx);
            }
        }
        cov.offsets[si + 1] = static_cast<std::uint32_t>(cov.tiles.size());
    }
    return cov;
}

/** A tile queued for rasterization, with its packed entry list. */
struct TileList
{
    std::uint32_t tile;      ///< scanline tile index
    std::uint64_t *entries;  ///< packed (depth key, slot) words
    std::size_t len;
};

/**
 * The CSR bin: count tile populations, prefix-sum them into slice
 * starts, and scatter each splat's packed (depth key, slot) word into
 * @p entries in splat order, the tie-break the stable radix sort
 * keeps.  Returns the non-empty slices in scanline order.
 */
std::vector<TileList>
binTiles(const SplatSoA &soa, const Coverage &cov, std::size_t num_tiles,
         std::vector<std::uint64_t> &entries)
{
    std::vector<std::size_t> cursor(num_tiles, 0);
    for (std::uint32_t t : cov.tiles)
        ++cursor[t];
    entries.resize(cov.tiles.size());
    std::vector<TileList> lists;
    std::size_t begin = 0;
    for (std::size_t t = 0; t < num_tiles; ++t) {
        const std::size_t len = cursor[t];
        if (len != 0)
            lists.push_back({static_cast<std::uint32_t>(t),
                             entries.data() + begin, len});
        cursor[t] = begin;
        begin += len;
    }
    for (std::size_t si = 0; si < soa.size(); ++si) {
        const std::uint64_t kv = packKeyValue(
            soa.depth_key[si], static_cast<std::uint32_t>(si));
        for (std::uint32_t c = cov.offsets[si]; c != cov.offsets[si + 1]; ++c)
            entries[cursor[cov.tiles[c]]++] = kv;
    }
    return lists;
}

/**
 * The raster fan-out.  @p fresh lists are unsorted bins of a zeroed
 * image: each is radix-sorted in place first (stable LSD radix on
 * monotone keys reproduces stable_sort's order).  Otherwise the lists
 * are sorted and each tile of the retained image (and @p depth_out)
 * is cleared first.  Chunks of @p lists fan out over the pool; stats
 * merge in chunk order, and the unique-splat populations come from
 * the OR of per-chunk bitmaps, so image and stats are bit-identical
 * at any worker count.
 */
void
rasterTiles(const TileRendererConfig &config, const SplatSoA &soa,
            const std::vector<TileList> &lists, bool fresh, Image &image,
            ThreadPool *pool, StandardFlowStats &stats,
            const float *splat_depth = nullptr, float *depth_out = nullptr)
{
    const int tile = config.tile_size;
    const int width = image.width();
    const int tiles_x = (width + tile - 1) / tile;
    const std::size_t map_words = (soa.size() + 63) / 64;
    struct ChunkOut
    {
        StandardFlowStats stats;  ///< sort and raster counters only
        std::vector<std::uint64_t> contributed;  ///< splat bitmaps
        std::vector<std::uint64_t> fetched;
    };

    // More chunks than workers smooths the imbalance between crowded
    // and sparse tiles; the pixel-derived grain keeps every chunk
    // heavy enough to amortize dispatch.
    const bool fan_out = pool != nullptr && pool->workerCount() >= 2;
    const std::size_t grain = std::max<std::size_t>(
        1, kMinPixelsPerRasterChunk / (static_cast<std::size_t>(tile) * tile));
    auto ranges = chunkRanges(
        lists.size(), fan_out ? pool->workerCount() * 4 : 1, grain);
    std::vector<ChunkOut> chunk_out(ranges.size());
    runChunks(fan_out ? pool : nullptr, ranges,
              [&](std::size_t c, std::size_t begin, std::size_t end) {
        ChunkOut &out = chunk_out[c];
        out.contributed.assign(map_words, 0);
        out.fetched.assign(map_words, 0);
        TileScratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
            const TileList &l = lists[i];
            const int bx = static_cast<int>(l.tile % tiles_x);
            const int by = static_cast<int>(l.tile / tiles_x);
            if (fresh) {
                radixSortByKey(l.entries, l.len, scratch.sort);
                out.stats.sorted_keys += static_cast<std::int64_t>(l.len);
                out.stats.sort_pass_keys += bitonicPassKeys(l.len);
            } else {
                const int x0 = bx * tile;
                const int w = std::min(tile, width - x0);
                const int y1 = std::min((by + 1) * tile, image.height());
                for (int y = by * tile; y < y1; ++y) {
                    std::fill_n(&image.at(x0, y), w, Vec3(0, 0, 0));
                    if (depth_out != nullptr)
                        std::fill_n(depth_out + y * width + x0, w, 0.0f);
                }
            }
            rasterOneTile(config, soa, l.entries, l.len, bx, by, width,
                          image.height(), image, out.stats,
                          out.contributed.data(), out.fetched.data(),
                          scratch, splat_depth, depth_out);
        }
    });

    std::vector<std::uint64_t> contributed_any(map_words, 0);
    std::vector<std::uint64_t> fetched_any(map_words, 0);
    for (const ChunkOut &out : chunk_out) {
        stats.tile_fetches += out.stats.tile_fetches;
        stats.sorted_keys += out.stats.sorted_keys;
        stats.sort_pass_keys += out.stats.sort_pass_keys;
        stats.subtile_passes += out.stats.subtile_passes;
        stats.alpha_evals += out.stats.alpha_evals;
        stats.pixels_touched += out.stats.pixels_touched;
        stats.blend_ops += out.stats.blend_ops;
        for (std::size_t w = 0; w < map_words; ++w) {
            contributed_any[w] |= out.contributed[w];
            fetched_any[w] |= out.fetched[w];
        }
    }
    for (std::size_t w = 0; w < map_words; ++w) {
        stats.fetched_gaussians += std::popcount(fetched_any[w]);
        stats.rendered_gaussians += std::popcount(contributed_any[w]);
    }
}

} // namespace

std::vector<int>
TileRenderer::tilesPerSplat(const std::vector<Splat> &splats,
                            const Camera &cam) const
{
    const int tile = config_.tile_size;
    const Coverage cov = coverTiles(
        SplatSoA::build(splats, config_.bounding, tile,
                        config_.alpha_cutoff, cam.width(), cam.height()),
        tile, (cam.width() + tile - 1) / tile);
    std::vector<int> counts(splats.size());
    for (std::size_t si = 0; si < counts.size(); ++si)
        counts[si] = static_cast<int>(cov.offsets[si + 1] - cov.offsets[si]);
    return counts;
}

Image
TileRenderer::render(const GaussianCloud &cloud, const Camera &cam,
                     StandardFlowStats &stats, ThreadPool *pool) const
{
    const int width = cam.width();
    const int height = cam.height();
    const int tile = config_.tile_size;
    const int tiles_x = (width + tile - 1) / tile;
    const int tiles_y = (height + tile - 1) / tile;

    // ---- Stage 1: preprocess every Gaussian (decoupled). ----
    obs::StageTimer stage_timer;
    std::vector<Splat> splats = preprocessAll(cloud, cam, stats.pre, pool);
    SplatSoA soa = SplatSoA::build(splats, config_.bounding, tile,
                                   config_.alpha_cutoff, width, height);
    stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);

    // ---- Tile binning into one flat CSR key-value array. ----
    std::vector<std::uint64_t> entries;
    const std::vector<TileList> lists =
        binTiles(soa, coverTiles(soa, tile, tiles_x),
                 static_cast<std::size_t>(tiles_x) * tiles_y, entries);
    stats.kv_pairs += static_cast<std::int64_t>(entries.size());
    stage_timer.lap(obs::Stage::Binning, &stats.stage.binning_ms);

    // ---- Stage 2: per-tile depth sort and raster. ----
    Image image(width, height);
    rasterTiles(config_, soa, lists, /*fresh=*/true, image, pool, stats);
    stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);
    return image;
}

Image
TileRenderer::renderTemporal(const GaussianCloud &cloud,
                             const Camera &cam,
                             StandardFlowStats &stats,
                             TemporalCache &cache,
                             ThreadPool *pool,
                             bool force_warp) const
{
    const int width = cam.width();
    const int height = cam.height();
    const int tile = config_.tile_size;
    const int tiles_x = (width + tile - 1) / tile;
    const int tiles_y = (height + tile - 1) / tile;
    const std::size_t num_tiles =
        static_cast<std::size_t>(tiles_x) * tiles_y;
    TemporalCounters &tc = cache.counters_;
    TemporalCounterMirror tc_mirror(tc);
    ++tc.frames;

    // ---- Snapshot check: any change of viewport, renderer config or
    // scene population invalidates every cached tier. ----
    if (cache.valid_ &&
        (cache.width_ != width || cache.height_ != height ||
         cache.tile_size_ != tile ||
         cache.bounding_ != config_.bounding ||
         cache.termination_t_ != config_.termination_t ||
         cache.alpha_cutoff_ != config_.alpha_cutoff ||
         cache.fast_alpha_ != config_.fast_alpha ||
         cache.cloud_size_ != cloud.size())) {
        cache.valid_ = false;
        cache.exact_valid_ = false;
        cache.warp_cached_ = false;
    }
    if (cache.options.every <= 1 && !cache.options.keep_exact) {
        cache.exact_valid_ = false;
        cache.warp_cached_ = false;
    }

    // ---- Held camera: the previous exact output is this frame's
    // exact output, bit for bit. ----
    if (cache.valid_ && camerasBitIdentical(cache.camera_, cam)) {
        ++tc.copied_frames;
        return cache.image_;
    }

    // ---- Tier 3: synthesize by reprojection unless the cadence
    // demands an exact frame.  force_warp asks for a synthesized
    // frame outside the cadence (degradation ladder); it falls
    // through to exact rendering when no valid warp source exists. ----
    if (cache.exact_valid_ &&
        (force_warp ||
         (cache.options.every > 1 && cache.warp_phase_ > 0))) {
        if (cache.warp_cached_ &&
            camerasBitIdentical(cache.warp_camera_, cam)) {
            ++tc.copied_frames;
            return cache.warp_image_;
        }
        Image out;
        {
            obs::PerfScope warp_scope(obs::Stage::Warp,
                                      &stats.stage.warp_ms);
            out = warpFromExact(cache.exact_camera_, cache.exact_image_,
                                cache.depth_, cam);
        }
        ++tc.warped_frames;
        if (cache.warp_phase_ > 0)
            --cache.warp_phase_;
        cache.warp_cached_ = true;
        cache.warp_camera_ = cam;
        cache.warp_image_ = out;
        return out;
    }

    // ---- Exact frame: preprocess + SoA (identical to render()). ----
    obs::StageTimer stage_timer;
    std::vector<Splat> splats = preprocessAll(cloud, cam, stats.pre, pool);
    SplatSoA soa = SplatSoA::build(splats, config_.bounding, tile,
                                   config_.alpha_cutoff, width, height);
    const std::size_t n = soa.size();
    std::vector<std::uint32_t> ids(n);
    std::vector<float> depths(n);
    for (std::size_t si = 0; si < n; ++si) {
        ids[si] = splats[si].id;
        depths[si] = splats[si].depth;
    }
    stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);

    // ---- Per-splat coverage, kept so next frame can diff it. ----
    Coverage cov = coverTiles(soa, tile, tiles_x);
    stats.kv_pairs += static_cast<std::int64_t>(cov.tiles.size());

    ++tc.exact_frames;
    std::vector<std::uint64_t> entries;  // full-rebuild bins
    std::vector<TileList> lists;         // tiles to rasterize

    // Warp mode additionally maintains the per-pixel depth buffer the
    // reprojection samples; clean tiles keep last frame's depths, so
    // the incremental path also requires a valid buffer to inherit.
    const bool want_depth =
        cache.options.every > 1 || cache.options.keep_exact;

    // The incremental diff assumes frame-to-frame identity of the
    // splat population (same source Gaussians surviving culling, in
    // the same SoA slots); any mismatch falls back to a full rebuild
    // inside the temporal path.
    const bool incremental = cache.valid_ && cache.ids_ == ids &&
                             (!want_depth || cache.depth_valid_);
    if (!incremental) {
        // ---- Full rebuild: render()'s CSR bin; every non-empty tile
        // sorts and rasterizes below. ----
        ++tc.full_rebuilds;
        lists = binTiles(soa, cov, num_tiles, entries);
        cache.tile_entries_.assign(num_tiles, {});
        cache.image_ = Image(width, height);
        if (want_depth)
            cache.depth_.assign(
                static_cast<std::size_t>(width) * height, 0.0f);
    } else {
        // ---- Incremental path: diff each splat against last frame
        // and patch only what changed. ----
        ++tc.incremental_frames;
        tc.tiles_total += static_cast<std::int64_t>(num_tiles);
        std::vector<std::uint8_t> dirty(num_tiles, 0);
        std::vector<std::uint8_t> patched(num_tiles, 0);
        std::vector<std::uint8_t> fullsort(num_tiles, 0);
        std::vector<std::uint8_t> keyfix(num_tiles, 0);
        std::vector<std::uint32_t> appended(num_tiles, 0);

        for (std::size_t si = 0; si < n; ++si) {
            const bool blend_changed =
                std::memcmp(&soa.blend[si], &cache.soa_.blend[si],
                            sizeof(SplatSoA::Blend)) != 0;
            const bool key_changed =
                soa.depth_key[si] != cache.soa_.depth_key[si];
            const std::uint32_t *ob =
                cache.cov_tiles_.data() + cache.cov_offsets_[si];
            const std::uint32_t *oe =
                cache.cov_tiles_.data() + cache.cov_offsets_[si + 1];
            const std::uint32_t *nb = cov.tiles.data() + cov.offsets[si];
            const std::uint32_t *ne =
                cov.tiles.data() + cov.offsets[si + 1];
            if (!blend_changed && !key_changed && oe - ob == ne - nb &&
                std::memcmp(ob, nb,
                            static_cast<std::size_t>(oe - ob) *
                                sizeof(std::uint32_t)) == 0)
                continue;  // splat fully unchanged
            if (blend_changed)
                ++tc.splats_changed;
            const std::uint64_t kv_old = packKeyValue(
                cache.soa_.depth_key[si], static_cast<std::uint32_t>(si));
            const std::uint64_t kv_new = packKeyValue(
                soa.depth_key[si], static_cast<std::uint32_t>(si));
            // Both coverage lists ascend in tile index (the (by, bx)
            // emission walk), so a merge walk yields the exact set
            // difference.
            while (ob != oe || nb != ne) {
                if (nb == ne || (ob != oe && *ob < *nb)) {
                    // Left this tile: erase its old entry.  The
                    // sorted prefix excludes entries appended this
                    // frame (they sit past end - appended).
                    auto &v = cache.tile_entries_[*ob];
                    auto it = std::lower_bound(
                        v.begin(), v.end() - appended[*ob], kv_old);
                    v.erase(it);
                    dirty[*ob] = 1;
                    patched[*ob] = 1;
                    ++ob;
                } else if (ob == oe || *nb < *ob) {
                    // Entered this tile: append; the tile re-sorts.
                    auto &v = cache.tile_entries_[*nb];
                    v.push_back(kv_new);
                    ++appended[*nb];
                    fullsort[*nb] = 1;
                    dirty[*nb] = 1;
                    patched[*nb] = 1;
                    ++nb;
                } else {
                    if (blend_changed)
                        dirty[*ob] = 1;
                    if (key_changed)
                        keyfix[*ob] = 1;
                    ++ob;
                    ++nb;
                }
            }
        }

        // Per-tile fix-up: rewrite stale depth keys from the current
        // frame (stored entries must always carry current keys — the
        // next frame's erase lookups depend on it), restore the
        // ascending invariant where it broke and queue dirty tiles.
        auto rewrite_keys = [&](std::vector<std::uint64_t> &v) {
            for (std::uint64_t &kv : v) {
                const std::uint32_t si = packedValue(kv);
                kv = packKeyValue(soa.depth_key[si], si);
            }
        };
        for (std::size_t t = 0; t < num_tiles; ++t) {
            auto &v = cache.tile_entries_[t];
            if (fullsort[t]) {
                rewrite_keys(v);
                std::sort(v.begin(), v.end());
                stats.sorted_keys +=
                    static_cast<std::int64_t>(v.size());
                stats.sort_pass_keys += bitonicPassKeys(v.size());
                ++tc.tiles_resorted;
            } else if (keyfix[t]) {
                rewrite_keys(v);
                // Still ascending after the rewrite: the old position
                // order is the unique sorted order of the new keys,
                // so the blend order — and the tile's pixels, if
                // nothing else changed — are untouched.
                if (!std::is_sorted(v.begin(), v.end())) {
                    std::sort(v.begin(), v.end());
                    stats.sorted_keys +=
                        static_cast<std::int64_t>(v.size());
                    stats.sort_pass_keys += bitonicPassKeys(v.size());
                    dirty[t] = 1;
                    ++tc.tiles_resorted;
                }
            }
            if (patched[t])
                ++tc.tiles_patched;
            if (dirty[t])
                lists.push_back(
                    {static_cast<std::uint32_t>(t), v.data(), v.size()});
        }
        tc.tiles_reused += static_cast<std::int64_t>(num_tiles) -
                           static_cast<std::int64_t>(lists.size());
    }
    tc.tiles_rastered += static_cast<std::int64_t>(lists.size());
    stage_timer.lap(obs::Stage::Binning, &stats.stage.binning_ms);

    // ---- Raster: every non-empty tile of a fresh image after a full
    // rebuild, else only the dirty tiles (clean tiles keep their
    // pixels; unique-population counters cover the dirty ones). ----
    rasterTiles(config_, soa, lists, !incremental, cache.image_, pool,
                stats, want_depth ? depths.data() : nullptr,
                want_depth ? cache.depth_.data() : nullptr);
    if (!incremental) {
        // Stable radix order is ascending packed (key, si) order (si
        // ascends within a slice): the invariant the next frame's diff
        // relies on.
        for (const TileList &l : lists)
            cache.tile_entries_[l.tile].assign(l.entries, l.entries + l.len);
    }
    stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);

    // ---- Retain this frame's state for the next one. ----
    cache.valid_ = true;
    cache.width_ = width;
    cache.height_ = height;
    cache.tile_size_ = tile;
    cache.bounding_ = config_.bounding;
    cache.termination_t_ = config_.termination_t;
    cache.alpha_cutoff_ = config_.alpha_cutoff;
    cache.fast_alpha_ = config_.fast_alpha;
    cache.cloud_size_ = cloud.size();
    cache.camera_ = cam;
    cache.soa_ = std::move(soa);
    cache.ids_ = std::move(ids);
    cache.cov_offsets_ = std::move(cov.offsets);
    cache.cov_tiles_ = std::move(cov.tiles);
    cache.depth_valid_ = want_depth;

    if (want_depth) {
        // Warp-source snapshot: this exact frame anchors the next
        // every-1 synthesized frames (or on-demand force_warp ones).
        cache.exact_valid_ = true;
        cache.exact_camera_ = cam;
        cache.exact_image_ = cache.image_;
        cache.warp_phase_ = std::max(0, cache.options.every - 1);
        cache.warp_cached_ = false;
    }
    return cache.image_;
}

Image
TileRenderer::renderReference(const GaussianCloud &cloud,
                              const Camera &cam,
                              StandardFlowStats &stats) const
{
    const int width = cam.width();
    const int height = cam.height();
    const int tile = config_.tile_size;
    const int tiles_x = (width + tile - 1) / tile;
    const int tiles_y = (height + tile - 1) / tile;

    // ---- Stage 1: preprocess every Gaussian (decoupled). ----
    obs::StageTimer stage_timer;
    std::vector<Splat> splats = preprocessAll(cloud, cam, stats.pre);
    stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);

    // ---- Tile binning: build Gaussian-tile KV pairs. ----
    std::vector<std::vector<std::uint32_t>> tile_lists(
        static_cast<std::size_t>(tiles_x) * tiles_y);
    for (std::uint32_t si = 0; si < splats.size(); ++si) {
        const Splat &s = splats[si];
        TileRange r =
            tileRangeFor(s, config_.bounding, tile, width, height);
        ObbParams o;
        if (config_.bounding == BoundingMode::Obb3Sigma)
            o = obbParamsFor(s);
        for (int by = r.by0; by <= r.by1; ++by) {
            for (int bx = r.bx0; bx <= r.bx1; ++bx) {
                if (config_.bounding == BoundingMode::Obb3Sigma) {
                    float tx0 = static_cast<float>(bx * tile);
                    float ty0 = static_cast<float>(by * tile);
                    if (!obbOverlapsTile(o, tx0, ty0, tx0 + tile,
                                         ty0 + tile))
                        continue;
                }
                tile_lists[static_cast<std::size_t>(by) * tiles_x + bx]
                    .push_back(si);
                ++stats.kv_pairs;
            }
        }
    }

    stage_timer.lap(obs::Stage::Binning, &stats.stage.binning_ms);

    // ---- Stage 2: render tile by tile in scanline order. ----
    Image image(width, height);
    std::vector<float> tile_t(static_cast<std::size_t>(tile) * tile);
    std::vector<std::uint8_t> contributed(splats.size(), 0);
    std::vector<std::uint8_t> fetched(splats.size(), 0);
    const int sub_n = (tile + kSub - 1) / kSub;
    std::vector<int> sub_live(static_cast<std::size_t>(sub_n) * sub_n);

    for (int by = 0; by < tiles_y; ++by) {
        for (int bx = 0; bx < tiles_x; ++bx) {
            auto &list =
                tile_lists[static_cast<std::size_t>(by) * tiles_x + bx];
            if (list.empty())
                continue;

            // Per-tile depth sort (radix sort on the GPU, bitonic
            // network in GSCore; functionally a stable sort by depth).
            std::stable_sort(list.begin(), list.end(),
                             [&](std::uint32_t a, std::uint32_t b) {
                                 return splats[a].depth < splats[b].depth;
                             });
            stats.sorted_keys += static_cast<std::int64_t>(list.size());
            stats.sort_pass_keys += bitonicPassKeys(list.size());

            int x0 = bx * tile;
            int y0 = by * tile;
            int x1 = std::min(x0 + tile, width);
            int y1 = std::min(y0 + tile, height);
            int live = (x1 - x0) * (y1 - y0);
            std::fill(tile_t.begin(), tile_t.end(), 1.0f);

            // Per-subtile live-pixel counts (8x8 granularity): the
            // VRU processes one subtile per array pass in lockstep.
            std::fill(sub_live.begin(), sub_live.end(), 0);
            for (int y = y0; y < y1; ++y)
                for (int x = x0; x < x1; ++x)
                    ++sub_live[((y - y0) / kSub) * sub_n +
                               (x - x0) / kSub];

            for (std::uint32_t si : list) {
                if (live == 0)
                    break;  // whole tile terminated: skip the rest
                ++stats.tile_fetches;
                if (!fetched[si]) {
                    fetched[si] = 1;
                    ++stats.fetched_gaussians;
                }
                const Splat &s = splats[si];

                // Array passes: live subtiles the splat's bounds reach.
                PixelRect sb =
                    aabbFromRadius(s.ellipse.center,
                                   std::max(s.radius_3sigma,
                                            s.radius_omega))
                        .clipped(width, height);
                for (int sy = 0; sy < sub_n; ++sy) {
                    for (int sx = 0; sx < sub_n; ++sx) {
                        if (sub_live[sy * sub_n + sx] == 0)
                            continue;
                        int rx0 = x0 + sx * kSub;
                        int ry0 = y0 + sy * kSub;
                        if (sb.x1 < rx0 || sb.x0 > rx0 + kSub - 1 ||
                            sb.y1 < ry0 || sb.y0 > ry0 + kSub - 1)
                            continue;
                        ++stats.subtile_passes;
                    }
                }

                for (int y = y0; y < y1; ++y) {
                    for (int x = x0; x < x1; ++x) {
                        float &t =
                            tile_t[static_cast<std::size_t>(y - y0) *
                                       tile + (x - x0)];
                        if (t < config_.termination_t)
                            continue;
                        ++stats.alpha_evals;
                        ++stats.pixels_touched;
                        Vec2 p(static_cast<float>(x) + 0.5f,
                               static_cast<float>(y) + 0.5f);
                        float a = s.ellipse.alphaAt(p, s.opacity);
                        if (a < config_.alpha_cutoff)
                            continue;
                        ++stats.blend_ops;
                        if (!contributed[si]) {
                            contributed[si] = 1;
                            ++stats.rendered_gaussians;
                        }
                        image.at(x, y) += s.color * (a * t);
                        t *= 1.0f - a;
                        if (t < config_.termination_t) {
                            --live;
                            --sub_live[((y - y0) / kSub) * sub_n +
                                       (x - x0) / kSub];
                        }
                    }
                }
            }
        }
    }
    stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);
    return image;
}

} // namespace gcc3d
