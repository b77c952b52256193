/** @file Tests for the Gaussian model, cloud, generators and presets. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <random>
#include <sstream>

#include "obs/fault_hooks.h"
#include "obs/metrics_registry.h"
#include "scene/scene_io.h"
#include "test_util.h"

namespace gcc3d {
namespace {

TEST(Gaussian, ParameterBudgetIs59Floats)
{
    EXPECT_EQ(Gaussian::kGeomFloats + Gaussian::kShFloats, 59u);
    EXPECT_EQ(Gaussian::kTotalBytes, 236u);
    EXPECT_EQ(Gaussian::kShBytes, 192u);  // the 81.4% the paper cites
}

TEST(Gaussian, Covariance3dIsSymmetricPsd)
{
    Gaussian g = test::makeGaussian(Vec3(0, 0, 0), 0.5f);
    g.scale = Vec3(0.5f, 0.2f, 0.1f);
    g.rotation = Quat::fromAxisAngle(Vec3(1, 2, 3), 0.8f);
    Mat3 cov = g.covariance3d();
    for (size_t r = 0; r < 3; ++r)
        for (size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(cov(r, c), cov(c, r), 1e-5f);
    // Quadratic form positive for a few probes.
    for (Vec3 v : {Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(1, -1, 2)})
        EXPECT_GT(v.dot(cov * v), 0.0f);
    // det = prod(scale^2)
    float expect_det = 0.5f * 0.5f * 0.2f * 0.2f * 0.1f * 0.1f;
    EXPECT_NEAR(cov.determinant(), expect_det, expect_det * 1e-2f);
}

TEST(Gaussian, CovarianceRotationInvariantTrace)
{
    Gaussian g = test::makeGaussian(Vec3(0, 0, 0));
    g.scale = Vec3(0.4f, 0.3f, 0.2f);
    Mat3 c1 = g.covariance3d();
    g.rotation = Quat::fromAxisAngle(Vec3(0, 1, 0), 1.3f);
    Mat3 c2 = g.covariance3d();
    float t1 = c1(0, 0) + c1(1, 1) + c1(2, 2);
    float t2 = c2(0, 0) + c2(1, 1) + c2(2, 2);
    EXPECT_NEAR(t1, t2, 1e-4f);
}

TEST(GaussianCloud, BoundsAndCentroid)
{
    GaussianCloud cloud("t");
    cloud.add(test::makeGaussian(Vec3(-1, 0, 0)));
    cloud.add(test::makeGaussian(Vec3(1, 2, -3)));
    Vec3 lo, hi;
    cloud.bounds(lo, hi);
    EXPECT_EQ(lo, Vec3(-1, 0, -3));
    EXPECT_EQ(hi, Vec3(1, 2, 0));
    EXPECT_EQ(cloud.centroid(), Vec3(0, 1, -1.5f));
    EXPECT_EQ(cloud.sizeBytes(), 2 * Gaussian::kTotalBytes);
}

TEST(SceneGenerator, DeterministicForSameSeed)
{
    SceneSpec spec = test::tinySpec(7);
    GaussianCloud a = generateScene(spec, 0.5f);
    GaussianCloud b = generateScene(spec, 0.5f);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 97) {
        EXPECT_EQ(a[i].mean, b[i].mean);
        EXPECT_EQ(a[i].opacity, b[i].opacity);
    }
}

TEST(SceneGenerator, DifferentSeedsDiffer)
{
    GaussianCloud a = generateScene(test::tinySpec(1), 0.5f);
    GaussianCloud b = generateScene(test::tinySpec(2), 0.5f);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_NE(a[0].mean, b[0].mean);
}

TEST(SceneGenerator, ScaleControlsCount)
{
    SceneSpec spec = test::tinySpec();
    EXPECT_EQ(generateScene(spec, 1.0f).size(), spec.gaussian_count);
    EXPECT_EQ(generateScene(spec, 0.5f).size(), spec.gaussian_count / 2);
    // Floor of 16 Gaussians.
    EXPECT_GE(generateScene(spec, 1e-6f).size(), 16u);
}

TEST(SceneGenerator, OpacityInValidRange)
{
    GaussianCloud cloud = generateScene(test::tinySpec(), 1.0f);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_GT(cloud[i].opacity, 0.0f);
        EXPECT_LE(cloud[i].opacity, 0.99f);
    }
}

TEST(SceneGenerator, ScalesArePositive)
{
    GaussianCloud cloud = generateScene(test::tinySpec(), 1.0f);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_GT(cloud[i].scale.x, 0.0f);
        EXPECT_GT(cloud[i].scale.y, 0.0f);
        EXPECT_GT(cloud[i].scale.z, 0.0f);
    }
}

class PresetScenes : public ::testing::TestWithParam<SceneId>
{
};

TEST_P(PresetScenes, GeneratesAndPlacesCamera)
{
    SceneSpec spec = scenePreset(GetParam());
    EXPECT_FALSE(spec.name.empty());
    GaussianCloud cloud = generateScene(spec, 0.002f);
    EXPECT_GE(cloud.size(), 16u);
    Camera cam = makeCamera(spec);
    EXPECT_EQ(cam.width(), spec.image_width);
    EXPECT_EQ(cam.height(), spec.image_height);
    // At least some of the scene should be in front of the camera.
    int in_front = 0;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        if (cam.worldToView(cloud[i].mean).z > cam.nearPlane())
            ++in_front;
    EXPECT_GT(in_front, static_cast<int>(cloud.size()) / 4);
}

INSTANTIATE_TEST_SUITE_P(
    All, PresetScenes,
    ::testing::Values(SceneId::Palace, SceneId::Lego, SceneId::Train,
                      SceneId::Truck, SceneId::Playroom,
                      SceneId::Drjohnson),
    [](const ::testing::TestParamInfo<SceneId> &info) {
        return sceneName(info.param);
    });

TEST(ScenePresets, NameRoundTrip)
{
    for (SceneId id : allScenes()) {
        EXPECT_EQ(sceneFromName(sceneName(id)), id);
    }
    EXPECT_EQ(sceneFromName("lego"), SceneId::Lego);  // case-insensitive
    EXPECT_THROW(sceneFromName("nonexistent"), std::invalid_argument);
}

TEST(ScenePresets, PaperPopulations)
{
    EXPECT_EQ(scenePreset(SceneId::Lego).gaussian_count, 340000u);
    EXPECT_EQ(scenePreset(SceneId::Drjohnson).gaussian_count, 3280000u);
    EXPECT_GT(scenePreset(SceneId::Drjohnson).gaussian_count,
              scenePreset(SceneId::Playroom).gaussian_count);
}

TEST(SceneIo, RoundTripPreservesEverything)
{
    GaussianCloud cloud = generateScene(test::tinySpec(5, 200), 1.0f);
    std::stringstream buf;
    ASSERT_TRUE(saveCloud(cloud, buf));
    GaussianCloud back = loadCloud(buf);
    ASSERT_EQ(back.size(), cloud.size());
    EXPECT_EQ(back.name(), cloud.name());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_EQ(back[i].mean, cloud[i].mean);
        EXPECT_EQ(back[i].scale, cloud[i].scale);
        EXPECT_EQ(back[i].opacity, cloud[i].opacity);
        EXPECT_EQ(back[i].sh, cloud[i].sh);
    }
}

TEST(SceneIo, RejectsGarbage)
{
    std::stringstream buf("not a scene file at all");
    EXPECT_THROW(loadCloud(buf), std::runtime_error);
}

TEST(SceneIo, RejectsTruncated)
{
    GaussianCloud cloud = generateScene(test::tinySpec(5, 50), 1.0f);
    std::stringstream buf;
    ASSERT_TRUE(saveCloud(cloud, buf));
    std::string data = buf.str();
    std::stringstream cut(data.substr(0, data.size() / 2));
    EXPECT_THROW(loadCloud(cut), std::runtime_error);
}

TEST(SceneIo, FileRoundTripAndTruncatedFile)
{
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/roundtrip.gsc";
    GaussianCloud cloud = generateScene(test::tinySpec(9, 80), 1.0f);
    ASSERT_TRUE(saveCloudFile(cloud, path));

    GaussianCloud back = loadCloudFile(path);
    ASSERT_EQ(back.size(), cloud.size());
    EXPECT_EQ(back.name(), cloud.name());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_EQ(back[i].mean, cloud[i].mean);
        EXPECT_EQ(back[i].rotation.w, cloud[i].rotation.w);
        EXPECT_EQ(back[i].sh, cloud[i].sh);
    }

    // Truncate the file on disk: loading must throw, not read junk.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    EXPECT_THROW(loadCloudFile(path), std::runtime_error);

    EXPECT_THROW(loadCloudFile(dir + "/does-not-exist.gsc"),
                 std::runtime_error);
}

TEST(SceneIo, RejectsCorruptedCountWithoutAllocating)
{
    // Intact magic + absurd count: must fail as a truncated stream,
    // not die trying to reserve petabytes.
    std::stringstream buf;
    buf.write("GSC1", 4);
    std::uint32_t name_len = 3;
    std::uint64_t count = ~0ull;
    buf.write(reinterpret_cast<const char *>(&name_len), sizeof name_len);
    buf.write(reinterpret_cast<const char *>(&count), sizeof count);
    buf.write("bad", 3);
    EXPECT_THROW(loadCloud(buf), std::runtime_error);
}

TEST(SceneIoV2, LosslessRoundTripIsBitExact)
{
    GaussianCloud cloud = generateScene(test::tinySpec(21, 300), 1.0f);
    GscV2Options opt;
    opt.quantize = false;
    opt.chunk_target = 64;  // force multiple chunks
    std::stringstream buf;
    ASSERT_TRUE(saveCloudV2(cloud, buf, opt));

    GaussianCloud back = loadCloud(buf);
    ASSERT_EQ(back.size(), cloud.size());
    EXPECT_EQ(back.name(), cloud.name());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_EQ(back[i].mean, cloud[i].mean);
        EXPECT_EQ(back[i].scale, cloud[i].scale);
        EXPECT_EQ(back[i].rotation.w, cloud[i].rotation.w);
        EXPECT_EQ(back[i].rotation.x, cloud[i].rotation.x);
        EXPECT_EQ(back[i].rotation.y, cloud[i].rotation.y);
        EXPECT_EQ(back[i].rotation.z, cloud[i].rotation.z);
        EXPECT_EQ(back[i].opacity, cloud[i].opacity);
        EXPECT_EQ(back[i].sh, cloud[i].sh);
    }
}

TEST(SceneIoV2, QuantizedRoundTripWithinDocumentedBounds)
{
    GaussianCloud cloud = generateScene(test::tinySpec(22, 300), 1.0f);
    GscV2Options opt;
    opt.quantize = true;
    opt.chunk_target = 64;
    std::stringstream buf;
    ASSERT_TRUE(saveCloudV2(cloud, buf, opt));
    // Quantized records are 118 B + u32 index vs 236 + u32: the
    // payload shrinks accordingly (header/footer overhead is small).
    EXPECT_LT(buf.str().size(), cloud.sizeBytes() * 6 / 10);

    GaussianCloud back = loadCloud(buf);
    ASSERT_EQ(back.size(), cloud.size());
    Vec3 lo, hi;
    cloud.bounds(lo, hi);
    // Chunk frames are at most the scene AABB, so the scene-level
    // half-extent bounds every chunk's position step from above.
    Vec3 half = (hi - lo) * 0.5f;
    const float kUnitStep = 1.0f / 32768.0f;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        // Documented bound: half_extent * 2^-15 per axis (the +1 edge
        // saturates at a full step); the 1e-6 term absorbs the fp
        // rounding of the chunk frame itself.
        EXPECT_NEAR(back[i].mean.x, cloud[i].mean.x,
                    std::max(half.x, 1e-5f) * kUnitStep +
                        std::abs(cloud[i].mean.x) * 1e-6f);
        EXPECT_NEAR(back[i].mean.y, cloud[i].mean.y,
                    std::max(half.y, 1e-5f) * kUnitStep +
                        std::abs(cloud[i].mean.y) * 1e-6f);
        EXPECT_NEAR(back[i].mean.z, cloud[i].mean.z,
                    std::max(half.z, 1e-5f) * kUnitStep +
                        std::abs(cloud[i].mean.z) * 1e-6f);
        // Log-quantized scales: relative error within half the ln-step
        // of the [-14, 6] range (~1.6e-4), with slack for fp.
        EXPECT_NEAR(back[i].scale.x, cloud[i].scale.x,
                    cloud[i].scale.x * 4e-4f);
        EXPECT_NEAR(back[i].opacity, cloud[i].opacity,
                    cloud[i].opacity * 4e-4f + 1e-5f);
        // Unit quaternions agree up to the Q1.15 step per component.
        float dot = back[i].rotation.w * cloud[i].rotation.normalized().w +
                    back[i].rotation.x * cloud[i].rotation.normalized().x +
                    back[i].rotation.y * cloud[i].rotation.normalized().y +
                    back[i].rotation.z * cloud[i].rotation.normalized().z;
        EXPECT_GT(std::abs(dot), 0.9999f);
        // SH coefficients survive fp16 (relative error <= 2^-11).
        for (std::size_t k = 0; k < kShCoeffsTotal; ++k)
            EXPECT_NEAR(back[i].sh[k], cloud[i].sh[k],
                        std::abs(cloud[i].sh[k]) * 1e-3f + 1e-6f);
    }
}

TEST(SceneIoV2, EmptyCloudRoundTrips)
{
    GaussianCloud empty("nothing");
    std::stringstream buf;
    ASSERT_TRUE(saveCloudV2(empty, buf));
    GaussianCloud back = loadCloud(buf);
    EXPECT_EQ(back.size(), 0u);
    EXPECT_EQ(back.name(), "nothing");
}

TEST(SceneIoV2, DetectsV2Magic)
{
    const std::string dir = ::testing::TempDir();
    GaussianCloud cloud = generateScene(test::tinySpec(23, 40), 1.0f);
    const std::string v1 = dir + "/fmt-v1.gsc";
    const std::string v2 = dir + "/fmt-v2.gsc";
    ASSERT_TRUE(saveCloudFile(cloud, v1));
    ASSERT_TRUE(saveCloudV2File(cloud, v2));
    EXPECT_FALSE(isGscV2File(v1));
    EXPECT_TRUE(isGscV2File(v2));
    EXPECT_FALSE(isGscV2File(dir + "/fmt-missing.gsc"));
    // Both load through the same negotiating entry point.
    EXPECT_EQ(loadCloudFile(v1).size(), cloud.size());
    EXPECT_EQ(loadCloudFile(v2).size(), cloud.size());
}

/** A valid small v2 image to corrupt, plus its private layout. */
std::string
v2Image(bool quantize = false)
{
    GaussianCloud cloud = generateScene(test::tinySpec(24, 100), 1.0f);
    GscV2Options opt;
    opt.quantize = quantize;
    opt.chunk_target = 32;
    std::stringstream buf;
    if (!saveCloudV2(cloud, buf, opt))
        return {};
    return buf.str();
}

void
expectLoadThrows(std::string data)
{
    std::stringstream buf(std::move(data));
    EXPECT_THROW(loadCloud(buf), std::runtime_error);
}

TEST(SceneIoV2, RejectsBadMagicVersionAndFlags)
{
    std::string good = v2Image();
    ASSERT_FALSE(good.empty());

    std::string bad_magic = good;
    bad_magic[3] = '3';  // "GSC3"
    expectLoadThrows(bad_magic);

    std::string bad_version = good;
    bad_version[4] = 9;  // u32 version at offset 4
    expectLoadThrows(bad_version);

    std::string bad_flags = good;
    bad_flags[9] = 0x80;  // unknown flag bit in u32 at offset 8
    expectLoadThrows(bad_flags);
}

TEST(SceneIoV2, RejectsTruncationAnywhere)
{
    std::string good = v2Image(true);
    ASSERT_FALSE(good.empty());
    // Cuts in the header, the name, the payload and the footer: every
    // prefix must fail cleanly (never crash, never return junk).
    for (std::size_t keep :
         {std::size_t(2), std::size_t(17), std::size_t(41),
          good.size() / 3, good.size() / 2, good.size() - 3}) {
        ASSERT_LT(keep, good.size());
        expectLoadThrows(good.substr(0, keep));
    }
}

TEST(SceneIoV2, RejectsChunkCountMismatch)
{
    std::string good = v2Image();
    ASSERT_FALSE(good.empty());
    std::uint64_t footer_off = 0;
    std::memcpy(&footer_off, good.data() + 24, sizeof footer_off);
    ASSERT_LT(footer_off + 8, good.size());

    // The footer's chunk count (right after "GSCF") must cross-check
    // against the header's.
    std::string mismatch = good;
    std::uint32_t fcount = 0;
    std::memcpy(&fcount, mismatch.data() + footer_off + 4, sizeof fcount);
    ++fcount;
    std::memcpy(mismatch.data() + footer_off + 4, &fcount, sizeof fcount);
    expectLoadThrows(mismatch);

    std::string bad_fmagic = good;
    bad_fmagic[footer_off] = 'X';
    expectLoadThrows(bad_fmagic);
}

TEST(SceneIoV2, RejectsOversizedHeaderFields)
{
    std::string good = v2Image();
    ASSERT_FALSE(good.empty());

    auto patch32 = [&](std::size_t off, std::uint32_t v) {
        std::string bad = good;
        std::memcpy(bad.data() + off, &v, sizeof v);
        return bad;
    };
    expectLoadThrows(patch32(12, 0x7fffffffu));  // name_len: absurd
    expectLoadThrows(patch32(32, 0x00ffffffu));  // proxy_levels: absurd
    expectLoadThrows(patch32(36, 0x7fffffffu));  // chunk_count: absurd

    // footer_offset pointing past EOF must be caught up front.
    std::string bad_footer = good;
    std::uint64_t huge = good.size() + 1024;
    std::memcpy(bad_footer.data() + 24, &huge, sizeof huge);
    expectLoadThrows(bad_footer);
}

TEST(SceneIoV2, RejectsDuplicateLeafIndex)
{
    std::string good = v2Image(false);  // lossless: record = u32 + 236 B
    ASSERT_FALSE(good.empty());
    std::uint32_t name_len = 0;
    std::memcpy(&name_len, good.data() + 12, sizeof name_len);
    std::size_t payload = 40 + name_len;

    // Overwrite the second record's source index with the first's:
    // the decoded indices no longer form a permutation.
    std::string dup = good;
    std::memcpy(dup.data() + payload + 240, dup.data() + payload, 4);
    expectLoadThrows(dup);
}

TEST(SceneIoV2, HeaderFuzzNeverCrashes)
{
    // 256 deterministic random header blobs behind a valid magic:
    // every one must be rejected by validation, not by crashing.
    std::mt19937_64 rng(0xf00du);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int round = 0; round < 256; ++round) {
        std::string blob = "GSC2";
        std::size_t len = 4 + static_cast<std::size_t>(rng() % 96);
        for (std::size_t i = 4; i < len; ++i)
            blob.push_back(static_cast<char>(byte(rng)));
        expectLoadThrows(std::move(blob));
    }
}

TEST(SceneIo, CacheSkipsGenerationAndSurvivesCorruption)
{
    const std::string dir =
        ::testing::TempDir() + "/gcc3d-cache-test";
    std::filesystem::remove_all(dir);
    SceneSpec spec = test::tinySpec(11, 120);

    // First call generates and writes the cache file.
    GaussianCloud fresh = loadOrGenerateScene(spec, 1.0f, dir);
    const std::string path = sceneCachePath(dir, spec, 1.0f);
    ASSERT_TRUE(std::filesystem::exists(path));
    EXPECT_EQ(fresh.size(), scaledGaussianCount(spec, 1.0f));

    // Second call reads the cache: plant a marker value in the cached
    // file and observe it coming back (a regeneration would not).
    GaussianCloud marked = fresh;
    marked[0].opacity = 0.123456f;
    ASSERT_TRUE(saveCloudFile(marked, path));
    GaussianCloud cached = loadOrGenerateScene(spec, 1.0f, dir);
    EXPECT_EQ(cached[0].opacity, 0.123456f);

    // A truncated cache file is regenerated (and repaired), never
    // trusted.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 3);
    GaussianCloud repaired = loadOrGenerateScene(spec, 1.0f, dir);
    ASSERT_EQ(repaired.size(), fresh.size());
    EXPECT_EQ(repaired[0].opacity, fresh[0].opacity);
    EXPECT_EQ(loadCloudFile(path).size(), fresh.size());

    // Different scales cache side by side without colliding.
    EXPECT_NE(sceneCachePath(dir, spec, 1.0f),
              sceneCachePath(dir, spec, 0.5f));

    // Editing any generation-determining field moves the cache path,
    // so a stale file from the old spec misses instead of being
    // silently trusted (name, seed and count alone would collide).
    SceneSpec edited = spec;
    edited.extent *= 2.0f;
    EXPECT_NE(sceneCachePath(dir, spec, 1.0f),
              sceneCachePath(dir, edited, 1.0f));
    SceneSpec reshaped = spec;
    reshaped.high_opacity_fraction += 0.1f;
    EXPECT_NE(sceneGenKey(spec, 1.0f), sceneGenKey(reshaped, 1.0f));
    GaussianCloud other = loadOrGenerateScene(edited, 1.0f, dir);
    EXPECT_NE(other[0].mean, fresh[0].mean);
    GaussianCloud half = loadOrGenerateScene(spec, 0.5f, dir);
    EXPECT_EQ(half.size(), scaledGaussianCount(spec, 0.5f));
    EXPECT_TRUE(std::filesystem::exists(
        sceneCachePath(dir, spec, 0.5f)));

    // Empty cache dir means plain generation, no files written.
    GaussianCloud plain = loadOrGenerateScene(spec, 1.0f, "");
    EXPECT_EQ(plain.size(), fresh.size());

    std::filesystem::remove_all(dir);
}

/** Fails the first @p fail_first SceneRead probes, then goes quiet —
 *  models a transient (or, with a large count, persistent) cache
 *  fault without any serve-layer dependency. */
struct SceneReadFaulter final : obs::FaultInjector
{
    int fail_first = 0;
    int probes = 0;  // single-threaded test: plain int is fine

    obs::FaultAction
    at(obs::FaultSite site, std::uint64_t) override
    {
        if (site != obs::FaultSite::SceneRead)
            return {false, 0.0};
        ++probes;
        return {probes <= fail_first, 1.0};
    }
};

TEST(SceneIo, InjectedCacheFaultsRetryThenFallBackToGeneration)
{
    const std::string dir =
        ::testing::TempDir() + "/gcc3d-cache-chaos";
    std::filesystem::remove_all(dir);
    SceneSpec spec = test::tinySpec(12, 120);

    // Seed the cache, then plant a marker so cache reads are
    // distinguishable from regeneration.
    GaussianCloud fresh = loadOrGenerateScene(spec, 1.0f, dir);
    const std::string path = sceneCachePath(dir, spec, 1.0f);
    GaussianCloud marked = fresh;
    marked[0].opacity = 0.123456f;
    ASSERT_TRUE(saveCloudFile(marked, path));

    // Transient fault: the first read attempt fails, the bounded
    // retry clears it, and the (marked) cache is still served.
    {
        SceneReadFaulter inj;
        inj.fail_first = 1;
        obs::setFaultInjector(&inj);
        GaussianCloud cloud = loadOrGenerateScene(spec, 1.0f, dir);
        obs::setFaultInjector(nullptr);
        EXPECT_EQ(cloud[0].opacity, 0.123456f);
        EXPECT_EQ(inj.probes, 2);  // failed once, retried once
    }

    // Persistent fault: every attempt fails, the retry budget
    // exhausts, and the scene is regenerated in memory — the call
    // still succeeds and the cache file is repaired on the way out.
    const std::int64_t fallbacks_before =
        obs::MetricsRegistry::global()
            .counter("scene.io.cache_fallbacks")
            .value();
    {
        SceneReadFaulter inj;
        inj.fail_first = 1 << 20;
        obs::setFaultInjector(&inj);
        GaussianCloud cloud = loadOrGenerateScene(spec, 1.0f, dir);
        obs::setFaultInjector(nullptr);
        ASSERT_EQ(cloud.size(), fresh.size());
        EXPECT_EQ(cloud[0].opacity, fresh[0].opacity);  // regenerated
        EXPECT_EQ(inj.probes, obs::RetryPolicy{}.max_attempts);
    }
    // The repair rewrote the cache: the marker is gone on disk.
    EXPECT_EQ(loadCloudFile(path)[0].opacity, fresh[0].opacity);
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("scene.io.cache_fallbacks")
                  .value(),
              fallbacks_before);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace gcc3d
