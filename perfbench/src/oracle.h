/**
 * @file
 * Output checks and failure accounting.
 *
 * Checks run once per invocation, after the measured window and
 * outside setup_s.  A wrong checksum, an exception or broken frame
 * books counts as a failed operation; a late or shed frame is a
 * deadline miss (on_time_frac), not a failure.
 */
#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"
#include "serve/serve_stats.h"

namespace perfbench {

/** One checked output: what produced it and its image checksum. */
struct ChecksumRecord
{
    std::string key;      ///< oracle key (scene/renderer/camera)
    double checksum = 0;  ///< imageChecksum of the output
};

/**
 * Compare every record against @p oracle (bit equality); each record
 * is one attempted operation, each mismatch or missing key one
 * failure.
 */
void checkChecksums(const std::vector<ChecksumRecord> &records,
                    const std::map<std::string, double> &oracle,
                    RunResult &result);

/** How a serve run disposed of its offered frames. */
struct FrameBooks
{
    std::int64_t offered = 0;
    std::int64_t rendered = 0;
    std::int64_t on_time = 0;
    std::int64_t late = 0;       ///< rendered past the deadline
    std::int64_t shed = 0;       ///< refused by a scheduler gate
    std::int64_t dropped = 0;    ///< ladder walked to Drop
    std::int64_t unserved = 0;   ///< session left before the frame
    std::int64_t threw = 0;      ///< render threw (a failure, not a miss)
    std::int64_t checked = 0;    ///< Full-tier frames checksum-checked
};

/**
 * Book a serve run: every offered frame is one attempted operation.
 * A frame whose render threw (not rendered, no shed reason) is a
 * failure.  Each Full-tier frame's checksum must equal
 * @p expected(session index, frame) (an exception there is a failure
 * too), and rendered + shed + dropped + unserved + threw must equal
 * @p offered in every session and in total.
 */
FrameBooks checkServeReport(
    const gcc3d::ServeReport &report,
    const std::function<double(std::size_t, int)> &expected,
    std::int64_t offered, RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
