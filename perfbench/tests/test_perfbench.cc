/**
 * @file
 * Tests of the benchmark itself: the tail-percentile rule, seed
 * determinism of the generated inputs, failure accounting of the
 * output checks, and the metric dictionary's names.
 */
#include <stdexcept>

#include <gtest/gtest.h>

#include "inputs.h"
#include "metrics.h"
#include "oracle.h"
#include "scene/scene_presets.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gcc3d::DegradeTier;
using gcc3d::FrameRecord;
using gcc3d::ServeReport;
using gcc3d::SessionStats;
using gcc3d::ShedReason;
using gcc3d::serve::SessionArrival;

// ---- Tail-percentile rule. ----

TEST(TailRule, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
    EXPECT_EQ(samplesBeyond(99, 90.0), 9u);
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(10000, 99.9), 10u);
    EXPECT_EQ(tailPercentile(0), 0.0);
    EXPECT_EQ(tailPercentile(99), 0.0);
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(999), 90.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(9999), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
}

TEST(TailRule, SummaryStatesSampleCountAndTail)
{
    std::vector<double> v;
    for (int i = 1; i <= 150; ++i)
        v.push_back(i);
    const TimingSummary s = summarize(v);
    EXPECT_EQ(s.n, 150u);
    EXPECT_DOUBLE_EQ(s.p50, 75.5);
    EXPECT_EQ(s.tail_pct, 90.0);
    EXPECT_DOUBLE_EQ(s.tail_value, s.p90);

    v.resize(50);
    const TimingSummary few = summarize(v);
    EXPECT_EQ(few.n, 50u);
    EXPECT_EQ(few.tail_pct, 0.0);  // p90 would rest on 5 samples
    EXPECT_DOUBLE_EQ(few.tail_value, few.p50);
}

TEST(TailRule, PercentileSortsItsInput)
{
    EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 4.0, 2.0}, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 4.0, 2.0}, 100.0), 4.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
}

// ---- Seed determinism of the generated inputs. ----

bool
sameArrivals(const std::vector<SessionArrival> &a,
             const std::vector<SessionArrival> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].start_ms != b[i].start_ms || a[i].frames != b[i].frames ||
            a[i].scene_slot != b[i].scene_slot ||
            a[i].renderer_slot != b[i].renderer_slot ||
            a[i].fps_target != b[i].fps_target)
            return false;
    return true;
}

TEST(Seeds, SameSeedSameArrivalTables)
{
    EXPECT_TRUE(sameArrivals(overloadPlan(7, 30.0).arrivals,
                             overloadPlan(7, 30.0).arrivals));
    EXPECT_EQ(overloadPlan(7, 30.0).phases, overloadPlan(7, 30.0).phases);
    EXPECT_TRUE(sameArrivals(lightPlan(7, 30.0).arrivals,
                             lightPlan(7, 30.0).arrivals));
    EXPECT_EQ(lightPlan(7, 30.0).phases, lightPlan(7, 30.0).phases);
}

TEST(Seeds, DifferentSeedDifferentArrivalTable)
{
    EXPECT_FALSE(sameArrivals(overloadPlan(7, 30.0).arrivals,
                              overloadPlan(8, 30.0).arrivals));
    EXPECT_FALSE(sameArrivals(lightPlan(7, 30.0).arrivals,
                              lightPlan(8, 30.0).arrivals));
}

TEST(Seeds, OverloadOffersAFixedSteadyLoadInsideTheWindow)
{
    const double period = 1000.0 / kOverloadSessionFps;
    const std::uint64_t total = gcc3d::serve::totalOfferedFrames(
        overloadPlan(1, 30.0).arrivals);
    // The offered rate over the span frames release in.
    EXPECT_NEAR(static_cast<double>(total) / (30.0 - period / 1000.0),
                kOverloadOfferedFps, 0.5);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const ServePlan plan = overloadPlan(seed, 30.0);
        EXPECT_EQ(gcc3d::serve::totalOfferedFrames(plan.arrivals), total);
        ASSERT_EQ(plan.phases.size(), plan.arrivals.size());
        bool joined_before = false;
        for (const SessionArrival &a : plan.arrivals) {
            EXPECT_GE(a.start_ms, 0.0);
            EXPECT_GE(a.frames, 1);
            EXPECT_LE(a.start_ms + a.frames * period, 30000.0 + 1e-6);
            joined_before |= a.start_ms < period && a.frames < kOverloadFrames;
        }
        // Sessions already running when the window opens keep the
        // offered rate steady from t=0.
        EXPECT_TRUE(joined_before);
    }
}

TEST(Seeds, SameSeedSameCameraLists)
{
    const gcc3d::SceneSpec spec = gcc3d::scenePreset(gcc3d::SceneId::Lego);
    const gcc3d::Trajectory path =
        gcc3d::Trajectory::forScene(spec, kFrameCameras);
    EXPECT_TRUE(sameCameras(rotatedCameras(path, 3, 0),
                            rotatedCameras(path, 3, 0)));
    const gcc3d::Trajectory arc =
        gcc3d::Trajectory::forSceneArc(spec, kLightCameras, kLightArc);
    const auto order = pingPong(kLightCameras, 40, lightPlan(3, 30.0).phases[0]);
    EXPECT_TRUE(sameCameras(reorder(arc, order).frames(),
                            reorder(arc, order).frames()));
}

TEST(Seeds, PingPongSweepsBackAndForth)
{
    EXPECT_EQ(pingPong(3, 7, 0), (std::vector<int>{0, 1, 2, 1, 0, 1, 2}));
    EXPECT_EQ(pingPong(3, 4, 3), (std::vector<int>{1, 0, 1, 2}));
    EXPECT_EQ(pingPong(1, 3, 5), (std::vector<int>{0, 0, 0}));
}

TEST(Seeds, SeededOrderIsAPermutation)
{
    auto order = seededOrder(24, 9);
    EXPECT_EQ(order, seededOrder(24, 9));
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

// ---- Failure accounting. ----

TEST(Failures, InjectedChecksumMismatchIsOneFailedOperation)
{
    const std::map<std::string, double> oracle = {{"a", 1.5}, {"b", 2.5}};
    std::vector<ChecksumRecord> records = {
        {"a", 1.5}, {"b", 2.5}, {"a", 1.5}, {"b", 2.5}};
    RunResult ok;
    checkChecksums(records, oracle, ok);
    EXPECT_EQ(ok.attempted, 4);
    EXPECT_EQ(ok.failed, 0);

    records[2].checksum = std::nextafter(1.5, 2.0);  // injected mismatch
    RunResult bad;
    checkChecksums(records, oracle, bad);
    EXPECT_EQ(bad.attempted, 4);
    EXPECT_EQ(bad.failed, 1);
}

FrameRecord
frame(int index, bool rendered, DegradeTier tier, double checksum,
      bool late = false)
{
    FrameRecord f;
    f.frame = index;
    f.rendered = rendered;
    f.tier = tier;
    f.checksum = checksum;
    f.deadline_missed = late;
    if (!rendered)
        f.shed_reason = ShedReason::Late;
    return f;
}

ServeReport
fakeReport()
{
    ServeReport r;
    SessionStats s;
    s.frames_total = 4;
    s.frames.push_back(frame(0, true, DegradeTier::Full, 10.0));
    s.frames.push_back(frame(1, true, DegradeTier::Full, 11.0, true));
    s.frames.push_back(frame(2, false, DegradeTier::Full, 0.0));
    s.frames.push_back(frame(3, true, DegradeTier::Warp, 99.0));
    r.sessions.push_back(s);
    return r;
}

TEST(Failures, ServeBooksCountMissesApartFromFailures)
{
    const auto expected = [](std::size_t, int f) { return 10.0 + f; };
    RunResult res;
    const FrameBooks b = checkServeReport(fakeReport(), expected, 4, res);
    EXPECT_EQ(res.attempted, 4);
    EXPECT_EQ(res.failed, 0);  // late, shed and warped frames are misses
    EXPECT_EQ(b.rendered, 3);
    EXPECT_EQ(b.on_time, 2);
    EXPECT_EQ(b.late, 1);
    EXPECT_EQ(b.shed, 1);
    EXPECT_EQ(b.checked, 2);
}

TEST(Failures, ServeChecksumMismatchIsOneFailedOperation)
{
    ServeReport r = fakeReport();
    r.sessions[0].frames[1].checksum += 1.0;  // injected mismatch
    RunResult res;
    checkServeReport(r, [](std::size_t, int f) { return 10.0 + f; }, 4, res);
    EXPECT_EQ(res.attempted, 4);
    EXPECT_EQ(res.failed, 1);
}

TEST(Failures, BrokenConservationIsAFailure)
{
    ServeReport r = fakeReport();
    r.sessions[0].frames.pop_back();  // a frame vanished
    RunResult res;
    checkServeReport(r, [](std::size_t, int f) { return 10.0 + f; }, 4, res);
    EXPECT_EQ(res.failed, 2);  // the session's books and the total
}

TEST(Failures, ReferenceExceptionIsAFailure)
{
    RunResult res;
    checkServeReport(
        fakeReport(),
        [](std::size_t, int f) -> double {
            if (f == 1)
                throw std::runtime_error("boom");
            return 10.0 + f;
        },
        4, res);
    EXPECT_EQ(res.failed, 1);
}

TEST(Failures, RenderExceptionIsAFailureNotAShed)
{
    ServeReport r = fakeReport();
    // The scheduler books a render that threw as not rendered with no
    // shed reason.
    FrameRecord &f = r.sessions[0].frames[0];
    f.rendered = false;
    f.shed_reason = ShedReason::None;
    RunResult res;
    const FrameBooks b = checkServeReport(
        r, [](std::size_t, int f) { return 10.0 + f; }, 4, res);
    EXPECT_EQ(res.attempted, 4);
    EXPECT_EQ(res.failed, 1);  // the throw only; the books still balance
    EXPECT_EQ(b.threw, 1);
    EXPECT_EQ(b.shed, 1);      // frame 2, shed as Late
    EXPECT_EQ(b.rendered, 2);
}

// ---- Metric dictionary. ----

TEST(Metrics, NamesAreValidUniqueAndWithinLimits)
{
    EXPECT_TRUE(metricTableErrors().empty());
    EXPECT_LE(endToEndMetrics().size(), kMaxEndToEnd);
    EXPECT_LE(perLayerMetrics().size(), kMaxPerLayer);
    for (const auto *table : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &m : *table)
            EXPECT_TRUE(validMetricName(m.name)) << m.name;
}

TEST(Metrics, NameRuleRejectsBadNames)
{
    EXPECT_TRUE(validMetricName("render.tile.kv_pairs"));
    EXPECT_TRUE(validMetricName("setup_s"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".hidden"));
    EXPECT_FALSE(validMetricName("p90 latency"));
    EXPECT_FALSE(validMetricName("ms/frame"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(Metrics, SetupSecondsIsAnEndToEndMetric)
{
    bool found = false;
    for (const MetricDef &m : endToEndMetrics())
        if (std::string(m.name) == "setup_s") {
            found = true;
            EXPECT_STREQ(m.unit, "s");
            EXPECT_FALSE(m.higher_is_better);
        }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace perfbench
