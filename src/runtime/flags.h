/**
 * @file
 * One strict command-line flag parser for every gcc3d CLI.  Each
 * binary declares each flag once, bound to its variable, whose value
 * at add() time is the default:
 *
 *   flags::Parser cli;
 *   cli.add("--sessions N", &sessions, "concurrent sessions").min(1);
 *   cli.add("--scale F", &scale, "population scale").above(0).max(1);
 *   cli.add("--quiet", &quiet, "suppress the per-session table");
 *   cli.parseOrExit(argc, argv);
 *
 * The contract, for flags and numeric environment variables alike:
 * the whole string must parse (empty text, leading whitespace,
 * trailing junk, NaN/inf and overflow are rejected, and '-' is never
 * wrapped into an unsigned value); the value must lie in the flag's
 * range (a default may sit outside it, meaning "off"); and bad input
 * exits 2 with one line naming the flag.  `--help` prints a usage
 * text generated from the table.  Depends only on the standard
 * library.
 */

#ifndef GCC3D_RUNTIME_FLAGS_H
#define GCC3D_RUNTIME_FLAGS_H

#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace gcc3d::flags {

/**
 * Bounds a numeric value must meet, each end closed or open, compared
 * in double (exact for magnitudes <= 2^53).  Setters chain:
 * `Range().above(0).max(1)` is (0,1].
 */
struct Range
{
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
    bool hi_open = false;

    Range &min(double v) { lo = v; lo_open = false; return *this; }
    Range &above(double v) { lo = v; lo_open = true; return *this; }
    Range &max(double v) { hi = v; hi_open = false; return *this; }
    Range &below(double v) { hi = v; hi_open = true; return *this; }

    bool contains(double v) const;
    /** Interval notation, e.g. "[1,1024]" or "(0,1]". */
    std::string text() const;
};

/**
 * Parse @p text into @p out under the contract above; returns "" on
 * success (and only then writes @p out), else what is wrong.  T is
 * int, std::int64_t, std::uint64_t, double or float.
 */
template <class T>
std::string parseValue(const std::string &text, const Range &range,
                       T *out);

/** Set @p value from environment variable @p name if set; a value
 *  parseValue() rejects prints one line naming @p name and exits 2. */
template <class T>
void fromEnv(const char *name, const Range &range, T *value);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &text);

/** A table of flags bound to the caller's variables. */
class Parser
{
public:
    struct Result
    {
        enum class Status { Ok, Help, Error };
        Status status = Status::Ok;
        std::string message;  ///< the error line, naming the flag
    };

    /**
     * Declare a flag: @p spec is its name, plus a metavariable for
     * valued flags ("--frames N").  T is a parseValue() type, a
     * std::vector of int or double (a comma-separated list, each item
     * parsed and range-checked), std::string, or bool (a switch,
     * which takes no value).  Chain bounds onto the returned range.
     */
    template <class T>
    Range &add(const std::string &spec, T *value, std::string help);

    /** Parse argv[1..argc); stops at the first error or --help/-h. */
    Result parse(int argc, const char *const *argv);

    /** parse(); --help prints usage() and exits 0, errors exit 2. */
    void parseOrExit(int argc, const char *const *argv);

    /** One entry per flag with its range and default. */
    std::string usage(const std::string &program) const;

private:
    struct Flag
    {
        std::string name, metavar, help, default_text;
        Range range;
        bool *on = nullptr;  ///< switch target; set is empty then
        std::function<std::string(const std::string &, const Range &)> set;
    };

    std::deque<Flag> flags_;  ///< deque: add() hands out references
};

} // namespace gcc3d::flags

#endif // GCC3D_RUNTIME_FLAGS_H
