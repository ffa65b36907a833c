//===- tests/tools_test.cpp - Tests for the CLI support layer -------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The CommandLine contract after the Status redesign: unknown flags,
// missing values and malformed integers are reported through status()
// instead of exiting from inside the parser, so these paths are testable
// at all — constructing a CommandLine from bad argv used to kill the
// test process. Exit policy (usage printing, exit codes) stays in each
// tool's main().
//
//===----------------------------------------------------------------------===//

#include "../tools/ToolSupport.h"

#include <gtest/gtest.h>

#include <vector>

using namespace seer;
using namespace seer::tools;

namespace {

/// Builds an argv from string literals (argv[0] is the tool name).
class Argv {
public:
  explicit Argv(std::initializer_list<const char *> Args) {
    Storage.emplace_back("tool");
    for (const char *Arg : Args)
      Storage.emplace_back(Arg);
    for (std::string &Arg : Storage)
      Pointers.push_back(Arg.data());
  }
  int argc() const { return static_cast<int>(Pointers.size()); }
  char **argv() { return Pointers.data(); }

private:
  std::vector<std::string> Storage;
  std::vector<char *> Pointers;
};

constexpr const char *Usage = "usage: tool [options]\n";

FlagSpec testSpec() {
  FlagSpec Spec;
  Spec.Value = {"out", "models"};
  Spec.Int = {"clients", "repeat"};
  Spec.Bool = {"execute", "json"};
  return Spec;
}

} // namespace

TEST(CommandLineTest, ParsesDeclaredFlagsAndPositionals) {
  Argv Args({"--out", "dir", "--clients=4", "--execute", "input.mtx",
             "--repeat", "2"});
  const CommandLine Cmd(Args.argc(), Args.argv(), Usage, testSpec());
  EXPECT_TRUE(Cmd.status().ok());
  EXPECT_FALSE(Cmd.helpRequested());
  EXPECT_FALSE(Cmd.earlyExit().has_value());
  EXPECT_EQ(Cmd.flag("out"), "dir");
  EXPECT_EQ(Cmd.intFlag("clients", 1), 4);
  EXPECT_EQ(Cmd.intFlag("repeat", 1), 2);
  EXPECT_TRUE(Cmd.boolFlag("execute"));
  EXPECT_FALSE(Cmd.boolFlag("json"));
  ASSERT_EQ(Cmd.positional().size(), 1u);
  EXPECT_EQ(Cmd.positional()[0], "input.mtx");
  // A declared bool flag does not swallow the following argument (the
  // seed bug PR 2 fixed, now expressible as a test).
  EXPECT_EQ(Cmd.intFlag("clients", 1), 4);
}

TEST(CommandLineTest, UnknownFlagIsAStatusNotAnExit) {
  Argv Args({"--frobnicate", "7"});
  const CommandLine Cmd(Args.argc(), Args.argv(), Usage, testSpec());
  EXPECT_FALSE(Cmd.status().ok());
  EXPECT_EQ(Cmd.status().code(), StatusCode::InvalidArgument);
  EXPECT_NE(Cmd.status().message().find("--frobnicate"), std::string::npos);
  ASSERT_TRUE(Cmd.earlyExit().has_value());
  EXPECT_EQ(*Cmd.earlyExit(), 1);
}

TEST(CommandLineTest, MalformedIntegerIsAStatus) {
  Argv Args({"--clients", "many"});
  const CommandLine Cmd(Args.argc(), Args.argv(), Usage, testSpec());
  EXPECT_FALSE(Cmd.status().ok());
  EXPECT_NE(Cmd.status().message().find("expects an integer"),
            std::string::npos);
  // The bad value is not stored; the default still applies.
  EXPECT_EQ(Cmd.intFlag("clients", 3), 3);
}

TEST(CommandLineTest, MissingValueIsAStatus) {
  Argv Args({"--out"});
  const CommandLine Cmd(Args.argc(), Args.argv(), Usage, testSpec());
  EXPECT_FALSE(Cmd.status().ok());
  EXPECT_NE(Cmd.status().message().find("needs a value"), std::string::npos);
}

TEST(CommandLineTest, FirstDiagnosticWins) {
  Argv Args({"--bogus", "1", "--clients", "many"});
  const CommandLine Cmd(Args.argc(), Args.argv(), Usage, testSpec());
  EXPECT_FALSE(Cmd.status().ok());
  EXPECT_NE(Cmd.status().message().find("--bogus"), std::string::npos);
}

TEST(CommandLineTest, HelpIsReportedNotExecuted) {
  Argv Args({"--help"});
  const CommandLine Cmd(Args.argc(), Args.argv(), Usage, testSpec());
  EXPECT_TRUE(Cmd.status().ok());
  EXPECT_TRUE(Cmd.helpRequested());
  ASSERT_TRUE(Cmd.earlyExit().has_value());
  EXPECT_EQ(*Cmd.earlyExit(), 0);
}

TEST(CommandLineTest, EqualsFormAndBoolSemantics) {
  Argv Args({"--json=0", "--execute=false", "--models=m"});
  const CommandLine Cmd(Args.argc(), Args.argv(), Usage, testSpec());
  EXPECT_TRUE(Cmd.status().ok());
  EXPECT_FALSE(Cmd.boolFlag("json"));
  EXPECT_FALSE(Cmd.boolFlag("execute"));
  EXPECT_EQ(Cmd.flag("models"), "m");
}

TEST(StatsSnapshotTest, SumsEveryShardSection) {
  // What seer-lb answers for `stats` in front of two shards: one section
  // per shard, each under its own header.
  const std::string Fleet = "# shard 0 127.0.0.1:7001\n"
                            "stat requests 3\n"
                            "stat breaker_opens 0\n"
                            "stat latency_us_p50 41.5\n"
                            "# shard 1 127.0.0.1:7002\n"
                            "stat requests 3\n"
                            "stat breaker_opens 2\n";
  EXPECT_EQ(statSum(Fleet, "requests"), 6u);
  EXPECT_EQ(statSum(Fleet, "breaker_opens"), 2u);
  EXPECT_EQ(statSum(Fleet, "retries_exhausted"), 0u);
  // A name is matched whole, never as a prefix of a longer one.
  EXPECT_EQ(statSum(Fleet, "request"), 0u);
  EXPECT_EQ(missingShardSections(Fleet), 0u);

  // A single server's snapshot has no headers and no trailing newline
  // requirement.
  EXPECT_EQ(statSum("stat requests 5", "requests"), 5u);

  // A shard that did not answer leaves a marker instead of its lines.
  const std::string Degraded = "# shard 0 127.0.0.1:7001\n"
                               "stat requests 3\n"
                               "# shard 1 127.0.0.1:7002\n"
                               "# unavailable: connection refused\n"
                               "# shard 2 127.0.0.1:7003\n"
                               "# malformed reply: truncated text\n";
  EXPECT_EQ(statSum(Degraded, "requests"), 3u);
  EXPECT_EQ(missingShardSections(Degraded), 2u);
}
