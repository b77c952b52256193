#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

using gcc3d::Camera;
using gcc3d::Trajectory;
using gcc3d::serve::SessionArrival;

namespace {

// Salts of the independent draws.
constexpr std::uint64_t kSaltLightStart = 11;
constexpr std::uint64_t kSaltLightPhase = 12;
constexpr std::uint64_t kSaltOrder = 13;
constexpr std::uint64_t kSaltOverloadPhase = 14;

} // namespace

std::uint64_t
mix64(std::uint64_t seed, std::uint64_t salt, std::uint64_t key)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL ^
                      (salt + 0x632BE59BD9B4E019ULL) * 0xBF58476D1CE4E5B9ULL ^
                      (key + 1) * 0x94D049BB133111EBULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
mix01(std::uint64_t seed, std::uint64_t salt, std::uint64_t key)
{
    return static_cast<double>(mix64(seed, salt, key) >> 11) * 0x1.0p-53;
}

std::vector<Camera>
rotatedCameras(const Trajectory &path, std::uint64_t seed,
               std::uint64_t salt)
{
    const std::size_t n = path.frameCount();
    std::vector<Camera> out;
    if (n == 0)
        return out;
    const std::size_t phase = mix64(seed, salt, 0) % n;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(path.frame((phase + i) % n));
    return out;
}

std::vector<int>
pingPong(int distinct, int length, int phase)
{
    std::vector<int> out;
    if (distinct < 1 || length < 1)
        return out;
    const int cycle = distinct > 1 ? 2 * (distinct - 1) : 1;
    for (int i = 0; i < length; ++i) {
        const int k = ((phase + i) % cycle + cycle) % cycle;
        out.push_back(k < distinct ? k : cycle - k);
    }
    return out;
}

Trajectory
reorder(const Trajectory &base, const std::vector<int> &order)
{
    Trajectory out;
    for (const int k : order)
        out.add(base.frame(static_cast<std::size_t>(k)));
    return out;
}

ServePlan
lightPlan(std::uint64_t seed, double seconds)
{
    ServePlan plan;
    const double fps[2] = {kLightTileFps, kLightGwFps};
    for (std::size_t s = 0; s < 2; ++s) {
        SessionArrival a;
        a.start_ms = kLightMaxStartMs * mix01(seed, kSaltLightStart, s);
        // Frame i is due at start + (i + 1) / fps: keep every deadline
        // inside the window.
        a.frames = static_cast<int>(
            std::floor((seconds * 1000.0 - a.start_ms) * fps[s] / 1000.0));
        if (a.frames < 1)
            throw std::invalid_argument("serve-light window too short");
        a.scene_slot = s;
        a.renderer_slot = s;
        a.fps_target = static_cast<float>(fps[s]);
        plan.arrivals.push_back(a);
        const int cycle = 2 * (kLightCameras - 1);
        plan.phases.push_back(
            static_cast<int>(mix64(seed, kSaltLightPhase, s) % cycle));
    }
    return plan;
}

ServePlan
overloadPlan(std::uint64_t seed, double seconds)
{
    const double period_ms = 1000.0 / kOverloadSessionFps;
    // Frames release on [0, span) and are due one period later, so
    // every deadline falls inside the window.
    const double span_ms = seconds * 1000.0 - period_ms;
    const auto count = static_cast<std::size_t>(std::lround(
        kOverloadOfferedFps * span_ms / 1000.0 / kOverloadFrames));
    if (span_ms <= 0.0 || count < 1)
        throw std::invalid_argument("serve-overload window too short");

    gcc3d::serve::LoadGenConfig load;
    load.seed = seed;
    load.base_rate_hz = kOverloadOfferedFps / kOverloadFrames;
    load.duration_ms = 1e12;  // the session cap ends the table
    load.frames_min = kOverloadFrames;
    load.frames_max = kOverloadFrames;
    load.fps_target = static_cast<float>(kOverloadSessionFps);
    load.max_sessions = count + 1;
    const std::vector<SessionArrival> arrivals =
        gcc3d::serve::generateArrivals(load);
    if (arrivals.size() != count + 1)
        throw std::runtime_error("load generator returned a short table");

    // Time runs on a circle of length span: a session whose frames
    // would release past its end goes on from t=0, as a session that
    // joined before the window opened.  The offered rate is then the
    // same all through the window.
    const double stretch = span_ms / arrivals.back().start_ms;
    const int cycle = 2 * (kOverloadCameras - 1);
    ServePlan plan;
    for (std::size_t i = 0; i < count; ++i) {
        SessionArrival a = arrivals[i];
        a.scene_slot = i;
        a.renderer_slot = i / 2;
        double start = a.start_ms * stretch;
        int phase =
            static_cast<int>(mix64(seed, kSaltOverloadPhase, i) % cycle);
        for (int left = kOverloadFrames; left > 0;) {
            const int fit = static_cast<int>(
                std::ceil((span_ms - start) / period_ms));
            a.start_ms = start;
            a.frames = std::min(left, std::max(fit, 1));
            plan.arrivals.push_back(a);
            plan.phases.push_back(phase);
            left -= a.frames;
            phase = (phase + a.frames) % cycle;
            start = std::max(0.0, start + a.frames * period_ms - span_ms);
        }
    }
    return plan;
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = mix64(seed, kSaltOrder, i) % i;
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

bool
sameCameras(const std::vector<Camera> &a, const std::vector<Camera> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Camera &x = a[i];
        const Camera &y = b[i];
        if (x.width() != y.width() || x.height() != y.height() ||
            std::memcmp(&x.viewMatrix().m, &y.viewMatrix().m,
                        sizeof x.viewMatrix().m) != 0 ||
            std::memcmp(&x.position(), &y.position(),
                        sizeof x.position()) != 0)
            return false;
    }
    return true;
}

} // namespace perfbench
