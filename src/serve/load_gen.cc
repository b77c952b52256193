#include "serve/load_gen.h"

#include <algorithm>
#include <cmath>

#include "serve/chaos.h"

namespace gcc3d::serve {

namespace {
constexpr std::uint64_t kArrivalSalt = 101;
constexpr std::uint64_t kThinSalt = 102;
constexpr std::uint64_t kFramesSalt = 103;
}  // namespace

std::vector<SessionArrival>
generateArrivals(const LoadGenConfig &config)
{
    std::vector<SessionArrival> arrivals;
    const double rate_hz = std::max(0.0, config.base_rate_hz);
    if (rate_hz <= 0.0 || config.duration_ms <= 0.0) return arrivals;

    const double amplitude =
        std::clamp(config.diurnal_amplitude, 0.0, 0.999);
    const double period_ms = std::max(1.0, config.diurnal_period_ms);
    const int frames_min = std::max(1, config.frames_min);
    const int frames_max = std::max(frames_min, config.frames_max);

    // Thinning: draw candidates at the peak rate, accept each with
    // probability lambda(t)/lambda_peak.
    const double peak_rate_hz = rate_hz * (1.0 + amplitude);
    const double two_pi = 6.283185307179586;

    double t_ms = 0.0;
    std::uint64_t draw = 0;
    std::size_t accepted = 0;
    while (arrivals.size() < config.max_sessions) {
        const double u1 =
            chaosHash01(config.seed, kArrivalSalt, draw);
        // Exponential inter-arrival at the peak rate, in ms.
        const double dt_ms =
            -std::log(1.0 - u1) / peak_rate_hz * 1000.0;
        t_ms += dt_ms;
        if (t_ms >= config.duration_ms) break;

        const double envelope =
            1.0 + amplitude * std::sin(two_pi * t_ms / period_ms);
        const double accept_p = envelope / (1.0 + amplitude);
        const double u2 = chaosHash01(config.seed, kThinSalt, draw);
        ++draw;
        if (u2 >= accept_p) continue;

        const double u3 = chaosHash01(config.seed, kFramesSalt, accepted);
        SessionArrival a;
        a.start_ms = t_ms;
        a.frames = frames_min +
                   static_cast<int>(u3 * (frames_max - frames_min + 1));
        a.frames = std::min(a.frames, frames_max);
        a.scene_slot = accepted;
        a.renderer_slot = accepted;
        a.fps_target = config.fps_target;
        arrivals.push_back(a);
        ++accepted;
    }
    return arrivals;
}

std::uint64_t
totalOfferedFrames(const std::vector<SessionArrival> &arrivals)
{
    std::uint64_t n = 0;
    for (const SessionArrival &a : arrivals)
        n += static_cast<std::uint64_t>(a.frames);
    return n;
}

}  // namespace gcc3d::serve
