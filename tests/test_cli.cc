/** @file Tests for harness::Cli, the declarative flag registry behind
 *  every bench binary: typed parsing, both --flag V and --flag=V
 *  spellings, aliases, positionals, generated help, and the structured
 *  kBadArgument errors guardedMain maps to exit code 2. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "simcore/sim_error.h"

namespace grit::harness {
namespace {

/** Run parse() over a brace-list argv (argv[0] is added). */
bool
parse(Cli &cli, std::vector<std::string> args)
{
    std::vector<char *> argv = {const_cast<char *>("prog")};
    for (std::string &a : args)
        argv.push_back(a.data());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, TypedFlagsParseBothSpellings)
{
    Cli cli("prog", "title");
    unsigned jobs = 0;
    double deadline = 0.0;
    std::uint64_t budget = 0;
    std::string path;
    bool audit = false;
    cli.flag("--jobs", &jobs, "N", "workers", "-j");
    cli.flag("--deadline", &deadline, "SEC", "wall budget");
    cli.flag("--event-budget", &budget, "N", "event budget");
    cli.flag("--json", &path, "PATH", "output");
    cli.flag("--audit", &audit, "audits on");

    EXPECT_TRUE(parse(cli, {"--jobs", "4", "--deadline=2.5",
                            "--event-budget", "123456789012345",
                            "--json=-", "--audit"}));
    EXPECT_EQ(jobs, 4u);
    EXPECT_DOUBLE_EQ(deadline, 2.5);
    EXPECT_EQ(budget, 123456789012345ull);
    EXPECT_EQ(path, "-");
    EXPECT_TRUE(audit);
}

TEST(Cli, AliasResolvesToTheSameFlag)
{
    Cli cli("prog", "title");
    unsigned jobs = 0;
    cli.flag("--jobs", &jobs, "N", "workers", "-j");
    EXPECT_TRUE(parse(cli, {"-j", "8"}));
    EXPECT_EQ(jobs, 8u);
}

TEST(Cli, DefaultsSurviveWhenFlagsAbsent)
{
    Cli cli("prog", "title");
    unsigned jobs = 3;
    std::string path = "keep.json";
    cli.flag("--jobs", &jobs, "N", "workers");
    cli.flag("--json", &path, "PATH", "output");
    EXPECT_TRUE(parse(cli, {}));
    EXPECT_EQ(jobs, 3u);
    EXPECT_EQ(path, "keep.json");
}

TEST(Cli, PositionalsFillInOrderAndMayBeOptional)
{
    Cli cli("prog", "title");
    std::string app = "BFS";
    std::string policy = "on-touch";
    bool audit = false;
    cli.flag("--audit", &audit, "audits on");
    cli.positional("APP", &app, "application", /*required=*/false);
    cli.positional("POLICY", &policy, "policy", /*required=*/false);

    EXPECT_TRUE(parse(cli, {"GEMM", "--audit", "grit"}));
    EXPECT_EQ(app, "GEMM");  // interleaved with flags
    EXPECT_EQ(policy, "grit");
    EXPECT_TRUE(audit);

    app = "BFS";
    policy = "on-touch";
    EXPECT_TRUE(parse(cli, {}));
    EXPECT_EQ(app, "BFS");  // optional: defaults survive
    EXPECT_EQ(policy, "on-touch");
}

TEST(Cli, MissingRequiredPositionalThrows)
{
    Cli cli("prog", "title");
    std::string input;
    cli.positional("INPUT", &input, "input file");
    try {
        parse(cli, {});
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kBadArgument);
        EXPECT_NE(e.error().str().find("INPUT"), std::string::npos);
    }
}

TEST(Cli, UnknownFlagAndExtraPositionalThrow)
{
    Cli cli("prog", "title");
    EXPECT_THROW(parse(cli, {"--bogus"}), sim::SimException);
    EXPECT_THROW(parse(cli, {"stray"}), sim::SimException);
}

TEST(Cli, MalformedAndMissingValuesThrow)
{
    Cli cli("prog", "title");
    unsigned jobs = 0;
    std::uint64_t budget = 0;
    double deadline = 0.0;
    bool audit = false;
    cli.flag("--jobs", &jobs, "N", "workers");
    cli.flag("--event-budget", &budget, "N", "event budget");
    cli.flag("--deadline", &deadline, "SEC", "wall budget");
    cli.flag("--audit", &audit, "audits on");

    EXPECT_THROW(parse(cli, {"--jobs", "four"}), sim::SimException);
    EXPECT_THROW(parse(cli, {"--jobs=4x"}), sim::SimException);
    // No sign, and nothing a strtoul wrap or truncation would bring
    // back into range.
    EXPECT_THROW(parse(cli, {"--jobs", "-1"}), sim::SimException);
    EXPECT_THROW(parse(cli, {"--jobs", "4294967296"}), sim::SimException);
    EXPECT_THROW(parse(cli, {"--event-budget", "-5"}), sim::SimException);
    EXPECT_THROW(parse(cli, {"--event-budget", "18446744073709551616"}),
                 sim::SimException);
    EXPECT_EQ(jobs, 0u);
    EXPECT_EQ(budget, 0u);
    EXPECT_THROW(parse(cli, {"--deadline", "fast"}), sim::SimException);
    EXPECT_THROW(parse(cli, {"--jobs"}), sim::SimException);  // no value
    EXPECT_THROW(parse(cli, {"--audit=yes"}),
                 sim::SimException);  // bool takes no value
}

TEST(Cli, HelpReturnsFalseAndListsEveryRegistration)
{
    Cli cli("prog", "does things");
    unsigned jobs = 0;
    std::string app;
    cli.flag("--jobs", &jobs, "N", "parallel workers", "-j");
    cli.positional("APP", &app, "application name", /*required=*/false);

    EXPECT_FALSE(parse(cli, {"--help"}));
    EXPECT_FALSE(parse(cli, {"-h"}));

    std::ostringstream os;
    cli.printHelp(os);
    const std::string help = os.str();
    for (const char *needle :
         {"prog - does things", "[APP]", "application name", "-j, --jobs N",
          "parallel workers", "-h, --help"})
        EXPECT_NE(help.find(needle), std::string::npos) << needle;
}

TEST(Cli, ErrorsNameTheProgramAndSuggestHelp)
{
    Cli cli("fig17_overall", "title");
    try {
        parse(cli, {"--bogus"});
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        const std::string msg = e.error().str();
        EXPECT_NE(msg.find("fig17_overall"), std::string::npos);
        EXPECT_NE(msg.find("--bogus"), std::string::npos);
        EXPECT_NE(msg.find("--help"), std::string::npos);
    }
}

}  // namespace
}  // namespace grit::harness
