/**
 * @file
 * Tests of the strict CLI flag parser (runtime/flags.h): a table of
 * rejected and accepted inputs, the generated usage text, and the
 * exit codes of parseOrExit()/fromEnv().  Thread and worker bounds
 * are checked here, at the parser, never by starting a pool.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "runtime/flags.h"

namespace gcc3d {
namespace {

/** Every value type of the parser, bound to one flag each. */
struct Cli
{
    int sessions = 8;
    int threads = 0;
    int plain = 0;
    std::int64_t city = 0;
    std::uint64_t seed = 1;
    double rate = 0.0;
    double amplitude = 0.0;
    float scale = 0.25f;
    std::vector<int> counts;
    std::vector<double> sizes;
    std::string name = "lego";
    bool quiet = false;
    flags::Parser parser;

    Cli()
    {
        parser.add("--sessions N", &sessions, "sessions").min(1);
        parser.add("--threads N", &threads, "workers").min(0).max(1024);
        parser.add("--plain N", &plain, "unbounded int");
        parser.add("--city N", &city, "splats").min(0);
        parser.add("--seed N", &seed, "seed");
        parser.add("--open-loop R", &rate, "rate").above(0);
        parser.add("--diurnal A", &amplitude, "amplitude").min(0).below(1);
        parser.add("--scale F", &scale, "scale").above(0).max(1);
        parser.add("--counts LIST", &counts, "counts").min(1).max(1024);
        parser.add("--sizes LIST", &sizes, "sizes").above(0);
        parser.add("--name S", &name, "name");
        parser.add("--quiet", &quiet, "quiet");
    }

    flags::Parser::Result
    parse(std::vector<std::string> args)
    {
        args.insert(args.begin(), "prog");
        std::vector<const char *> argv;
        for (const std::string &a : args)
            argv.push_back(a.c_str());
        return parser.parse(static_cast<int>(argv.size()), argv.data());
    }
};

using Status = flags::Parser::Result::Status;

TEST(Flags, RejectsMalformedAndOutOfRangeInputNamingTheFlag)
{
    struct Case
    {
        std::vector<std::string> args;
        std::string flag;  ///< must appear in the error line
    };
    const std::vector<Case> cases = {
        {{"--sessions", "1x"}, "--sessions"},
        {{"--sessions", ""}, "--sessions"},
        {{"--sessions", " 1"}, "--sessions"},
        {{"--sessions", "1 "}, "--sessions"},
        {{"--sessions", "1.5"}, "--sessions"},
        {{"--sessions", "0x10"}, "--sessions"},
        {{"--scale", "nan"}, "--scale"},
        {{"--scale", "inf"}, "--scale"},
        {{"--open-loop", "-inf"}, "--open-loop"},
        {{"--open-loop", "infinity"}, "--open-loop"},
        {{"--seed", "-1"}, "--seed"},
        {{"--seed", "18446744073709551616"}, "--seed"},
        {{"--plain", "2147483648"}, "--plain"},
        {{"--plain", "-2147483649"}, "--plain"},
        {{"--city", "9223372036854775808"}, "--city"},
        {{"--scale", "1e39"}, "--scale"},
        {{"--open-loop", "1e999"}, "--open-loop"},
        {{"--sessions", "0"}, "--sessions"},
        {{"--sessions", "-3"}, "--sessions"},
        {{"--threads", "-1"}, "--threads"},
        {{"--threads", "1025"}, "--threads"},
        {{"--city", "-1"}, "--city"},
        {{"--open-loop", "0"}, "--open-loop"},
        {{"--diurnal", "1"}, "--diurnal"},
        {{"--diurnal", "-0.1"}, "--diurnal"},
        {{"--scale", "0"}, "--scale"},
        {{"--scale", "1.5"}, "--scale"},
        {{"--counts", "1,x"}, "--counts"},
        {{"--counts", "1,0"}, "--counts"},
        {{"--counts", "1,2000"}, "--counts"},
        {{"--sizes", "32,-1"}, "--sizes"},
        {{"--sessions"}, "--sessions"},
        {{"--quiet", "--name"}, "--name"},
        {{"--bogus"}, "--bogus"},
        {{"--bogus", "1"}, "--bogus"},
        {{"stray"}, "stray"},
        {{"--quiet=1"}, "--quiet"},
        {{"--sessions=4"}, "--sessions"},
        {{"--quiet", "1"}, "1"},
    };
    for (const Case &c : cases) {
        Cli cli;
        const flags::Parser::Result r = cli.parse(c.args);
        std::string shown;
        for (const std::string &a : c.args)
            shown += "[" + a + "]";
        EXPECT_EQ(r.status, Status::Error) << shown;
        EXPECT_NE(r.message.find(c.flag), std::string::npos)
            << shown << " -> " << r.message;
        EXPECT_EQ(r.message.find('\n'), std::string::npos) << shown;
    }
}

TEST(Flags, RejectedValueLeavesTheTargetUntouched)
{
    Cli cli;
    EXPECT_EQ(cli.parse({"--sessions", "1x"}).status, Status::Error);
    EXPECT_EQ(cli.sessions, 8);
    EXPECT_EQ(cli.parse({"--counts", "2,x"}).status, Status::Error);
    EXPECT_TRUE(cli.counts.empty());
}

TEST(Flags, AcceptsBoundaryValues)
{
    Cli cli;
    const flags::Parser::Result r = cli.parse(
        {"--sessions", "1", "--threads", "1024", "--plain", "-2147483648",
         "--city", "9223372036854775807", "--seed",
         "18446744073709551615", "--open-loop", "1e-300", "--diurnal",
         "0", "--scale", "1", "--counts", "1,,1024,", "--sizes",
         "32,0.5", "--name", "", "--quiet"});
    ASSERT_EQ(r.status, Status::Ok) << r.message;
    EXPECT_EQ(cli.sessions, 1);
    EXPECT_EQ(cli.threads, 1024);
    EXPECT_EQ(cli.plain, -2147483647 - 1);
    EXPECT_EQ(cli.city, INT64_MAX);
    EXPECT_EQ(cli.seed, UINT64_MAX);
    EXPECT_EQ(cli.rate, 1e-300);
    EXPECT_EQ(cli.amplitude, 0.0);
    EXPECT_EQ(cli.scale, 1.0f);
    EXPECT_EQ(cli.counts, (std::vector<int>{1, 1024}));
    EXPECT_EQ(cli.sizes, (std::vector<double>{32.0, 0.5}));
    EXPECT_EQ(cli.name, "");
    EXPECT_TRUE(cli.quiet);

    Cli low;
    ASSERT_EQ(low.parse({"--threads", "0", "--diurnal", "0.999",
                         "--scale", "0.02", "--sessions", "+5"})
                  .status,
              Status::Ok);
    EXPECT_EQ(low.threads, 0);
    EXPECT_EQ(low.amplitude, 0.999);
    // Same rounding as the static_cast<float>(atof(...)) it replaces.
    EXPECT_EQ(low.scale, static_cast<float>(0.02));
    EXPECT_EQ(low.sessions, 5);
}

TEST(Flags, LastOccurrenceWinsAndListsReplace)
{
    Cli cli;
    ASSERT_EQ(cli.parse({"--sessions", "2", "--sessions", "3", "--counts",
                         "1,2", "--counts", "4"})
                  .status,
              Status::Ok);
    EXPECT_EQ(cli.sessions, 3);
    EXPECT_EQ(cli.counts, std::vector<int>{4});
}

TEST(Flags, HelpListsEveryFlagWithItsDefaultAndRange)
{
    Cli cli;
    EXPECT_EQ(cli.parse({"--sessions", "2", "--help"}).status,
              Status::Help);
    EXPECT_EQ(cli.parse({"-h"}).status, Status::Help);

    Cli listed;
    std::vector<int> counts = {1, 2, 4};
    flags::Parser p;
    p.add("--sessions N", &listed.sessions, "sessions").min(1);
    p.add("--scale F", &listed.scale, "scale").above(0).max(1);
    p.add("--open-loop R", &listed.rate, "rate").above(0);
    p.add("--seed N", &listed.seed, "seed");
    p.add("--counts LIST", &counts, "counts").min(1).max(1024);
    p.add("--name S", &listed.name, "name");
    p.add("--quiet", &listed.quiet, "quiet");
    const std::string usage = p.usage("prog");
    EXPECT_EQ(usage.rfind("usage: prog [options]\n", 0), 0u) << usage;

    // Each entry runs from its flag to the next flag's line.
    auto entry = [&](const std::string &flag) {
        const std::size_t at = usage.find("  " + flag);
        EXPECT_NE(at, std::string::npos) << flag << " missing:\n" << usage;
        const std::size_t next = usage.find("\n  -", at);
        return usage.substr(at, next - at);
    };
    const struct
    {
        const char *flag;
        const char *want;
    } listed_entries[] = {
        {"--sessions N", "[1,inf) (default: 8)"},
        {"--scale F", "(0,1] (default: 0.25)"},
        {"--open-loop R", "(0,inf) (default: 0)"},
        {"--seed N", "(default: 1)"},
        {"--counts LIST", "[1,1024] (default: 1,2,4)"},
        {"--name S", "(default: lego)"},
        {"--quiet", "quiet"},
        {"-h, --help", "print this text"},
    };
    for (const auto &e : listed_entries)
        EXPECT_NE(entry(e.flag).find(e.want), std::string::npos)
            << e.flag << " lacks " << e.want << ":\n"
            << usage;
    // A switch is off by default and shows no default.
    EXPECT_EQ(entry("--quiet").find("default"), std::string::npos);
}

TEST(Flags, ParseValueIsTheSameStrictParserForEnvironmentInput)
{
    const flags::Range workers = flags::Range().min(0).max(1024);
    int n = 7;
    EXPECT_FALSE(flags::parseValue("abc", workers, &n).empty());
    EXPECT_FALSE(flags::parseValue("1025", workers, &n).empty());
    EXPECT_FALSE(flags::parseValue("", workers, &n).empty());
    EXPECT_EQ(n, 7);
    EXPECT_TRUE(flags::parseValue("1024", workers, &n).empty());
    EXPECT_EQ(n, 1024);

    float scale = 0.25f;
    const flags::Range unit = flags::Range().above(0).max(1);
    EXPECT_NE(flags::parseValue("2", unit, &scale).find("(0,1]"),
              std::string::npos);
    EXPECT_EQ(scale, 0.25f);
}

TEST(FlagsDeathTest, ParseOrExitExitsTwoOnErrorAndZeroOnHelp)
{
    const char *bad[] = {"prog", "--sessions", "1x"};
    EXPECT_EXIT(Cli().parser.parseOrExit(3, bad),
                testing::ExitedWithCode(2), "prog: --sessions: '1x'");
    const char *help[] = {"prog", "--help"};
    EXPECT_EXIT(Cli().parser.parseOrExit(2, help),
                testing::ExitedWithCode(0), "");
}

TEST(FlagsDeathTest, FromEnvExitsTwoNamingTheVariable)
{
    const flags::Range unit = flags::Range().above(0).max(1);
    float scale = 0.25f;
    flags::fromEnv("GCC3D_FLAGS_TEST_UNSET", unit, &scale);
    EXPECT_EQ(scale, 0.25f);
    EXPECT_EXIT(
        {
            setenv("GCC3D_FLAGS_TEST_SCALE", "abc", 1);
            flags::fromEnv("GCC3D_FLAGS_TEST_SCALE", unit, &scale);
        },
        testing::ExitedWithCode(2), "GCC3D_FLAGS_TEST_SCALE: 'abc'");
    EXPECT_EXIT(
        {
            setenv("GCC3D_FLAGS_TEST_SCALE", "2", 1);
            flags::fromEnv("GCC3D_FLAGS_TEST_SCALE", unit, &scale);
        },
        testing::ExitedWithCode(2), "GCC3D_FLAGS_TEST_SCALE: '2'");
    setenv("GCC3D_FLAGS_TEST_SCALE", "0.05", 1);
    flags::fromEnv("GCC3D_FLAGS_TEST_SCALE", unit, &scale);
    EXPECT_EQ(scale, static_cast<float>(0.05));
    unsetenv("GCC3D_FLAGS_TEST_SCALE");
}

} // namespace
} // namespace gcc3d
