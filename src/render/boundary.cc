#include "render/boundary.h"

namespace gcc3d {

BoundaryStats
pixelBoundary(const Ellipse &e, float omega, int width, int height,
              const PixelVisitor &visit)
{
    namespace bd = boundary_detail;
    BoundaryStats stats;
    float cutoff = bd::quadraticCutoff(omega);
    if (cutoff < 0.0f || width <= 0 || height <= 0)
        return stats;

    auto [cx, cy] = bd::nearestInBounds(e.center, width, height);

    // Bound the visited map by the omega-sigma AABB (plus margin) so
    // scratch memory stays proportional to the footprint.
    int r = radiusOmegaSigma(e.eig, omega) + 2;
    int x_lo = std::max(0, cx - r), x_hi = std::min(width - 1, cx + r);
    int y_lo = std::max(0, cy - r), y_hi = std::min(height - 1, cy + r);
    int span_x = x_hi - x_lo + 1;
    int span_y = y_hi - y_lo + 1;
    if (span_x <= 0 || span_y <= 0)
        return stats;

    std::vector<std::uint8_t> seen(
        static_cast<std::size_t>(span_x) * span_y, 0);
    auto idx = [&](int x, int y) {
        return static_cast<std::size_t>(y - y_lo) * span_x + (x - x_lo);
    };

    std::deque<std::pair<int, int>> queue;
    // Seed with the 3x3 neighborhood of the start pixel: when the
    // projected center sits on a pixel boundary the start pixel itself
    // can fail E(p) while an immediate neighbor passes.
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            int x = cx + dx, y = cy + dy;
            if (x < x_lo || x > x_hi || y < y_lo || y > y_hi)
                continue;
            seen[idx(x, y)] = 1;
            queue.emplace_back(x, y);
        }
    }

    while (!queue.empty()) {
        auto [x, y] = queue.front();
        queue.pop_front();

        ++stats.alpha_evals;
        float q = e.quadraticForm(bd::pixelCenter(x, y));
        if (q > cutoff)
            continue;  // fails E(p): convexity lets us stop here

        ++stats.influence_pixels;
        if (visit)
            visit(x, y, splatAlpha(omega, q));

        static constexpr int kDx[8] = {1, -1, 0, 0, 1, 1, -1, -1};
        static constexpr int kDy[8] = {0, 0, 1, -1, 1, -1, 1, -1};
        for (int k = 0; k < 8; ++k) {
            int nx = x + kDx[k], ny = y + kDy[k];
            if (nx < x_lo || nx > x_hi || ny < y_lo || ny > y_hi)
                continue;
            std::uint8_t &flag = seen[idx(nx, ny)];
            if (flag)
                continue;
            flag = 1;
            queue.emplace_back(nx, ny);
        }
    }
    return stats;
}

BlockTraversal::BlockTraversal(int block_size, int width, int height)
    : block_size_(block_size), width_(width), height_(height),
      blocks_x_((width + block_size - 1) / block_size),
      blocks_y_((height + block_size - 1) / block_size)
{
}

bool
BlockTraversal::blockReachable(const Ellipse &e, float omega, int bx,
                               int by) const
{
    namespace bd = boundary_detail;
    float cutoff = bd::quadraticCutoff(omega);
    if (cutoff < 0.0f)
        return false;
    float x0 = static_cast<float>(bx * block_size_);
    float y0 = static_cast<float>(by * block_size_);
    float x1 = std::min<float>(x0 + static_cast<float>(block_size_),
                               static_cast<float>(width_));
    float y1 = std::min<float>(y0 + static_cast<float>(block_size_),
                               static_cast<float>(height_));
    return bd::rectMayIntersect(e, cutoff, x0, y0, x1, y1);
}

BoundaryStats
BlockTraversal::traverse(const Ellipse &e, float omega,
                         const std::vector<std::uint8_t> *t_mask,
                         const PixelVisitor &visit,
                         const BlockVisitor &block_visit,
                         ExpFn exp) const
{
    namespace bd = boundary_detail;
    BoundaryStats stats;
    float cutoff = bd::quadraticCutoff(omega);
    if (cutoff < 0.0f || blocks_x_ <= 0 || blocks_y_ <= 0)
        return stats;

    auto [cx, cy] = bd::nearestInBounds(e.center, width_, height_);
    int cbx = cx / block_size_;
    int cby = cy / block_size_;

    // Reusable scratch with generation stamping so repeated traversals
    // don't pay a per-call allocation of the full block map.
    thread_local std::vector<std::uint32_t> stamp;
    thread_local std::uint32_t generation = 0;
    std::size_t nblocks =
        static_cast<std::size_t>(blocks_x_) * blocks_y_;
    if (stamp.size() < nblocks) {
        stamp.assign(nblocks, 0);
        generation = 0;
    }
    if (++generation == 0) {
        // 2^32 traversals on this thread: stale stamps would alias
        // the restarted counter, so wipe them once.
        std::fill(stamp.begin(), stamp.end(), 0u);
        generation = 1;
    }
    auto seen = [&](int bx, int by) -> std::uint32_t & {
        return stamp[static_cast<std::size_t>(by) * blocks_x_ + bx];
    };

    // A block is enqueued only if the runtime identifier's boundary
    // test says the elliptical footprint can reach it — this is the
    // directional early termination of Sec. 4.4: directions whose
    // boundary alphas all fail the threshold are pruned, so perimeter
    // blocks outside the ellipse are never streamed into the PE array.
    auto intersects = [&](int bx, int by) {
        float x0 = static_cast<float>(bx * block_size_);
        float y0 = static_cast<float>(by * block_size_);
        float x1 = std::min<float>(x0 + static_cast<float>(block_size_),
                                   static_cast<float>(width_));
        float y1 = std::min<float>(y0 + static_cast<float>(block_size_),
                                   static_cast<float>(height_));
        return bd::rectMayIntersect(e, cutoff, x0, y0, x1, y1);
    };

    std::deque<std::pair<int, int>> queue;
    auto push = [&](int bx, int by) {
        if (bx < 0 || bx >= blocks_x_ || by < 0 || by >= blocks_y_)
            return;
        std::uint32_t &s = seen(bx, by);
        if (s == generation)
            return;
        s = generation;
        if (intersects(bx, by))
            queue.emplace_back(bx, by);
    };

    // Seed: the block holding the projected center (or nearest
    // in-bounds block) and its 8 neighbors, so a center on a block
    // edge cannot strand the traversal.
    for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
            push(cbx + dx, cby + dy);

    while (!queue.empty()) {
        auto [bx, by] = queue.front();
        queue.pop_front();

        int x0 = bx * block_size_;
        int y0 = by * block_size_;
        int x1 = std::min(x0 + block_size_, width_) - 1;
        int y1 = std::min(y0 + block_size_, height_) - 1;

        bool masked =
            t_mask != nullptr &&
            (*t_mask)[static_cast<std::size_t>(by) * blocks_x_ + bx] != 0;

        if (!masked) {
            // The whole block streams through the n x n PE array.
            ++stats.visited_blocks;
            bool visited_block = false;
            for (int y = y0; y <= y1; ++y) {
                for (int x = x0; x <= x1; ++x) {
                    ++stats.alpha_evals;
                    float q = e.quadraticForm(bd::pixelCenter(x, y));
                    if (q > cutoff)
                        continue;
                    ++stats.influence_pixels;
                    if (!visited_block) {
                        ++stats.active_blocks;
                        if (block_visit)
                            block_visit(bx, by);
                        visited_block = true;
                    }
                    if (visit)
                        visit(x, y, splatAlpha(omega, q, exp));
                }
            }
        }
        // T-masked blocks are excluded from alpha computation
        // (Sec. 4.5) but the walk continues through them: the push
        // filter above already restricts expansion to blocks the
        // ellipse reaches.
        static constexpr int kDx[8] = {1, -1, 0, 0, 1, 1, -1, -1};
        static constexpr int kDy[8] = {0, 0, 1, -1, 1, -1, 1, -1};
        for (int k = 0; k < 8; ++k)
            push(bx + kDx[k], by + kDy[k]);
    }
    return stats;
}

} // namespace gcc3d
