/**
 * @file
 * Bit-identity assertions shared by the equivalence suites: float-exact
 * image comparison and field-by-field render-stats comparison.
 */

#ifndef GCC3D_TESTS_EQUIVALENCE_UTIL_H
#define GCC3D_TESTS_EQUIVALENCE_UTIL_H

#include <gtest/gtest.h>

#include <cstring>

#include "render/image.h"
#include "render/render_stats.h"

namespace gcc3d::test {

/** Bitwise image comparison: float-exact, reporting the first diff. */
inline ::testing::AssertionResult
imagesBitIdentical(const Image &a, const Image &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return ::testing::AssertionFailure() << "shape mismatch";
    const auto &pa = a.pixels();
    const auto &pb = b.pixels();
    if (std::memcmp(pa.data(), pb.data(),
                    pa.size() * sizeof(Vec3)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < pa.size(); ++i) {
        if (std::memcmp(&pa[i], &pb[i], sizeof(Vec3)) != 0)
            return ::testing::AssertionFailure()
                   << "first differing pixel " << i << ": " << pa[i]
                   << " vs " << pb[i];
    }
    return ::testing::AssertionFailure() << "memcmp/pixel walk disagree";
}

inline void
expectStatsIdentical(const StandardFlowStats &a, const StandardFlowStats &b)
{
    EXPECT_EQ(a.pre.total, b.pre.total);
    EXPECT_EQ(a.pre.near_culled, b.pre.near_culled);
    EXPECT_EQ(a.pre.frustum_culled, b.pre.frustum_culled);
    EXPECT_EQ(a.pre.in_frustum, b.pre.in_frustum);
    EXPECT_EQ(a.pre.screen_culled, b.pre.screen_culled);
    EXPECT_EQ(a.pre.projected, b.pre.projected);
    EXPECT_EQ(a.kv_pairs, b.kv_pairs);
    EXPECT_EQ(a.tile_fetches, b.tile_fetches);
    EXPECT_EQ(a.fetched_gaussians, b.fetched_gaussians);
    EXPECT_EQ(a.sorted_keys, b.sorted_keys);
    EXPECT_EQ(a.rendered_gaussians, b.rendered_gaussians);
    EXPECT_EQ(a.alpha_evals, b.alpha_evals);
    EXPECT_EQ(a.blend_ops, b.blend_ops);
    EXPECT_EQ(a.pixels_touched, b.pixels_touched);
    EXPECT_EQ(a.subtile_passes, b.subtile_passes);
    EXPECT_EQ(a.sort_pass_keys, b.sort_pass_keys);
}

inline void
expectStatsIdentical(const GaussianWiseStats &a, const GaussianWiseStats &b)
{
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.depth_culled, b.depth_culled);
    EXPECT_EQ(a.projected, b.projected);
    EXPECT_EQ(a.survived_cull, b.survived_cull);
    EXPECT_EQ(a.sh_evaluated, b.sh_evaluated);
    EXPECT_EQ(a.sh_skipped, b.sh_skipped);
    EXPECT_EQ(a.rendered_gaussians, b.rendered_gaussians);
    EXPECT_EQ(a.skipped_by_termination, b.skipped_by_termination);
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_EQ(a.groups_processed, b.groups_processed);
    EXPECT_EQ(a.stage2_invocations, b.stage2_invocations);
    EXPECT_EQ(a.survivor_invocations, b.survivor_invocations);
    EXPECT_EQ(a.sh_eval_invocations, b.sh_eval_invocations);
    EXPECT_EQ(a.sh_skip_invocations, b.sh_skip_invocations);
    EXPECT_EQ(a.termination_skip_invocations,
              b.termination_skip_invocations);
    EXPECT_EQ(a.bin_records, b.bin_records);
    EXPECT_EQ(a.alpha_evals, b.alpha_evals);
    EXPECT_EQ(a.blend_ops, b.blend_ops);
    EXPECT_EQ(a.visited_blocks, b.visited_blocks);
    EXPECT_EQ(a.influence_pixels, b.influence_pixels);

    ASSERT_EQ(a.group_trace.size(), b.group_trace.size());
    for (std::size_t i = 0; i < a.group_trace.size(); ++i) {
        const GroupActivity &ga = a.group_trace[i];
        const GroupActivity &gb = b.group_trace[i];
        EXPECT_EQ(ga.members, gb.members) << "group " << i;
        EXPECT_EQ(ga.projected, gb.projected) << "group " << i;
        EXPECT_EQ(ga.survivors, gb.survivors) << "group " << i;
        EXPECT_EQ(ga.sh_evals, gb.sh_evals) << "group " << i;
        EXPECT_EQ(ga.sh_skipped, gb.sh_skipped) << "group " << i;
        EXPECT_EQ(ga.terminated, gb.terminated) << "group " << i;
        EXPECT_EQ(ga.rendered, gb.rendered) << "group " << i;
        EXPECT_EQ(ga.visited_blocks, gb.visited_blocks) << "group " << i;
        EXPECT_EQ(ga.active_blocks, gb.active_blocks) << "group " << i;
        EXPECT_EQ(ga.alpha_evals, gb.alpha_evals) << "group " << i;
        EXPECT_EQ(ga.blend_ops, gb.blend_ops) << "group " << i;
        EXPECT_EQ(ga.skipped, gb.skipped) << "group " << i;
    }
}

} // namespace gcc3d::test

#endif // GCC3D_TESTS_EQUIVALENCE_UTIL_H
