#include "oracle.h"

#include <exception>

namespace perfbench {

using gcc3d::DegradeTier;
using gcc3d::FrameRecord;
using gcc3d::SessionStats;
using gcc3d::ShedReason;

void
checkChecksums(const std::vector<ChecksumRecord> &records,
               const std::map<std::string, double> &oracle,
               RunResult &result)
{
    for (const ChecksumRecord &r : records) {
        ++result.attempted;
        const auto it = oracle.find(r.key);
        if (it == oracle.end())
            result.fail("no reference output for " + r.key);
        else if (it->second != r.checksum)
            result.fail("checksum mismatch: " + r.key);
    }
}

FrameBooks
checkServeReport(const gcc3d::ServeReport &report,
                 const std::function<double(std::size_t, int)> &expected,
                 std::int64_t offered, RunResult &result)
{
    FrameBooks books;
    books.offered = offered;
    result.attempted += offered;
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
        const SessionStats &s = report.sessions[i];
        std::int64_t booked = s.frames_unserved;
        books.unserved += s.frames_unserved;
        for (const FrameRecord &f : s.frames) {
            ++booked;
            const std::string what = "session " + std::to_string(i) +
                                     " frame " + std::to_string(f.frame);
            if (!f.rendered) {
                // The scheduler books a render that threw as not
                // rendered with no shed reason.
                if (f.shed_reason == ShedReason::None) {
                    ++books.threw;
                    result.fail("render threw: " + what);
                } else if (f.shed_reason == ShedReason::Degrade) {
                    ++books.dropped;
                } else {
                    ++books.shed;
                }
                continue;
            }
            ++books.rendered;
            if (f.deadline_missed)
                ++books.late;
            else
                ++books.on_time;
            if (f.tier != DegradeTier::Full)
                continue;
            ++books.checked;
            try {
                if (expected(i, f.frame) != f.checksum)
                    result.fail("checksum mismatch: " + what);
            } catch (const std::exception &e) {
                result.fail("reference render failed: " + what + ": " +
                            e.what());
            }
        }
        if (booked != s.frames_total)
            result.fail("frame books broken in session " +
                        std::to_string(i));
    }
    if (books.rendered + books.shed + books.dropped + books.unserved +
            books.threw !=
        offered)
        result.fail("rendered + shed + dropped + unserved + threw != "
                    "offered");
    return books;
}

} // namespace perfbench
