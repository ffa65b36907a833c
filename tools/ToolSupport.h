//===- tools/ToolSupport.h - Shared helpers for the CLI tools -------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiny flag parser, diagnostics, stats-snapshot readers and the close of
/// a trace replay, shared by the seer-* command line tools. Flags are
/// `--name value` or `--name=value`; anything else is a positional
/// argument.
///
/// Each tool declares its flag vocabulary up front (string-, integer- and
/// boolean-valued), and the parser validates against it: unknown flags,
/// missing values and unparseable integers are reported as a `Status`
/// through status() instead of exiting from inside the parser. Tests can
/// therefore exercise bad-flag paths, and each tool's main() decides what
/// an error or `--help` is worth — typically `return *Cmd.earlyExit()`.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_TOOLS_TOOLSUPPORT_H
#define SEER_TOOLS_TOOLSUPPORT_H

#include "api/Status.h"
#include "serve/RequestTrace.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seer::tools {

/// The flag vocabulary of one tool.
struct FlagSpec {
  /// Flags taking a string value (`--out DIR`).
  std::vector<std::string> Value;
  /// Flags taking an integer value (`--clients 4`); validated at parse
  /// time, queried with intFlag().
  std::vector<std::string> Int;
  /// Valueless switches (`--execute file.mtx` leaves the file
  /// positional).
  std::vector<std::string> Bool;
};

/// Parsed command line: flag map + positional arguments, validated
/// against a declared FlagSpec. Never exits: parse problems surface in
/// status(), `--help` in helpRequested().
class CommandLine {
public:
  CommandLine(int Argc, char **Argv, const char *Usage, FlagSpec Spec)
      : Usage(Usage) {
    const auto In = [](const std::vector<std::string> &List,
                       const std::string &Name) {
      return std::find(List.begin(), List.end(), Name) != List.end();
    };
    const auto Fail = [&](Status S) {
      if (ParseStatus.ok()) // keep the first diagnostic
        ParseStatus = std::move(S);
    };
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.rfind("--", 0) != 0) {
        Positional.push_back(std::move(Arg));
        continue;
      }
      Arg = Arg.substr(2);
      if (Arg == "help") {
        HelpRequested = true;
        continue;
      }
      const size_t Eq = Arg.find('=');
      std::string Name = Eq == std::string::npos ? Arg : Arg.substr(0, Eq);
      const bool IsValue = In(Spec.Value, Name);
      const bool IsInt = In(Spec.Int, Name);
      const bool IsBool = In(Spec.Bool, Name);
      if (!IsValue && !IsInt && !IsBool) {
        Fail(Status::invalidArgument("unknown flag --" + Name));
        continue;
      }
      std::string Value;
      if (Eq != std::string::npos) {
        Value = Arg.substr(Eq + 1);
      } else if (IsBool) {
        Value = "1";
      } else if (I + 1 < Argc) {
        Value = Argv[++I];
      } else {
        Fail(Status::invalidArgument("flag --" + Name + " needs a value"));
        continue;
      }
      if (IsInt) {
        int64_t Parsed = 0;
        if (!parseInt(Value, Parsed)) {
          Fail(Status::invalidArgument("flag --" + Name +
                                       " expects an integer, got '" + Value +
                                       "'"));
          continue;
        }
      }
      Flags[std::move(Name)] = std::move(Value);
    }
  }

  /// OK when every flag was declared and well-formed; otherwise the first
  /// diagnostic.
  const Status &status() const { return ParseStatus; }

  /// True when `--help` was given.
  bool helpRequested() const { return HelpRequested; }

  /// The standard main() prologue: the exit code this command line has
  /// already decided, if any — 0 for `--help` (usage on stdout), 1 for a
  /// parse error (diagnostic + usage on stderr), nullopt to proceed.
  std::optional<int> earlyExit() const {
    if (HelpRequested) {
      std::fprintf(stdout, "%s", Usage);
      return 0;
    }
    if (!ParseStatus.ok()) {
      std::fprintf(stderr, "error: %s\n%s", ParseStatus.message().c_str(),
                   Usage);
      return 1;
    }
    return std::nullopt;
  }

  const std::vector<std::string> &positional() const { return Positional; }

  std::string flag(const std::string &Name,
                   const std::string &Default = "") const {
    const auto It = Flags.find(Name);
    return It == Flags.end() ? Default : It->second;
  }

  /// Value of a declared integer flag (validated at parse time), or
  /// \p Default when absent.
  int64_t intFlag(const std::string &Name, int64_t Default) const {
    const auto It = Flags.find(Name);
    if (It == Flags.end())
      return Default;
    int64_t Value = 0;
    if (!parseInt(It->second, Value))
      return Default; // unreachable for declared Int flags
    return Value;
  }

  bool boolFlag(const std::string &Name) const {
    const auto It = Flags.find(Name);
    return It != Flags.end() && It->second != "0" && It->second != "false";
  }

  /// Prints the usage text and exits — for main()-level policy like a
  /// missing required flag. Never called by the parser itself.
  [[noreturn]] void exitWithUsage(int Code) const {
    std::fprintf(Code == 0 ? stdout : stderr, "%s", Usage);
    // NOLINTNEXTLINE(concurrency-mt-unsafe): main()-thread flag handling
    // before any worker exists; terminating the process is the point.
    std::exit(Code);
  }

private:
  const char *Usage;
  Status ParseStatus;
  bool HelpRequested = false;
  std::map<std::string, std::string> Flags;
  std::vector<std::string> Positional;
};

/// The sum of every `stat NAME VALUE` line's value in a stats snapshot, 0
/// when there is none. A seer-serve snapshot has one such line; a seer-lb
/// snapshot has one section per shard, each under a `# shard N` header,
/// so the sum is the whole fleet's count.
inline uint64_t statSum(std::string_view StatsText, std::string_view Name) {
  const std::string Needle = "stat " + std::string(Name) + " ";
  uint64_t Sum = 0;
  for (const std::string &Line : splitString(StatsText, '\n')) {
    int64_t Value = 0;
    if (startsWith(Line, Needle) &&
        parseInt(std::string_view(Line).substr(Needle.size()), Value) &&
        Value > 0)
      Sum += static_cast<uint64_t>(Value);
  }
  return Sum;
}

/// Shard sections a seer-lb stats snapshot could not fill: the balancer
/// writes `# unavailable: ...` or `# malformed reply: ...` in place of
/// a shard's lines when the shard did not answer.
inline uint64_t missingShardSections(std::string_view StatsText) {
  uint64_t Missing = 0;
  for (const std::string &Line : splitString(StatsText, '\n'))
    Missing += startsWith(Line, "# unavailable") ||
               startsWith(Line, "# malformed reply");
  return Missing;
}

/// Prints `error: <message>` and exits 1. main()-level policy only; the
/// library reports Status values instead.
[[noreturn]] inline void fatal(const std::string &Message) {
  std::fprintf(stderr, "error: %s\n", Message.c_str());
  // NOLINTNEXTLINE(concurrency-mt-unsafe): fatal is main()-level policy;
  // tools call it before spawning workers or after joining them.
  std::exit(1);
}

/// Prints a Status diagnostic (`error: CODE: message`) and exits 1.
[[noreturn]] inline void fatal(const Status &Error) {
  fatal(Error.toString());
}

/// Writes a session's answer to stdout as it comes.
inline void printToStdout(const std::string &Lines) {
  std::fwrite(Lines.data(), 1, Lines.size(), stdout);
}

/// The close of a trace replay that began at \p Start, shared by
/// `seer-serve --trace` and seer-netclient: prints the backend's stat
/// lines and the `replayed` summary. With \p Strict (the chaos gate) the replay fails when it
/// printed an error line, or its stats, summed over every shard section
/// behind seer-lb, show an exhausted retry budget, an opened circuit
/// breaker or a shard that gave no stats; the diagnosis and the metrics
/// exposition then go to stderr. \returns the exit code.
inline int finishReplay(const char *Tool, TraceBackend &Backend, size_t Ops,
                        unsigned Clients, unsigned Repeat,
                        std::chrono::steady_clock::time_point Start,
                        uint64_t Errors, bool Strict) {
  const double WallSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - Start)
                                 .count();
  const auto Stats = Backend.stats();
  if (!Stats)
    fatal(Stats.status());
  const auto Sum = [&Stats](const char *Name) {
    return static_cast<unsigned long long>(statSum(*Stats, Name));
  };
  std::printf("%s", Stats->c_str());
  std::printf("replayed %zu ops x %u clients x %u in %.3fs "
              "(%.0f req/s, %llu errors)\n",
              Ops, Clients, Repeat, WallSeconds,
              WallSeconds > 0 ? Sum("requests") / WallSeconds : 0.0,
              static_cast<unsigned long long>(Errors));
  std::fflush(stdout);
  const unsigned long long Exhausted = Sum("retries_exhausted");
  const unsigned long long Opens = Sum("breaker_opens");
  const unsigned long long Missing = missingShardSections(*Stats);
  if (!Strict ||
      (Errors == 0 && Exhausted == 0 && Opens == 0 && Missing == 0))
    return 0;
  std::fprintf(stderr,
               "%s: --strict: %llu error line(s), %llu retry budget(s) "
               "exhausted, %llu breaker open(s), %llu shard(s) without "
               "stats\n",
               Tool, static_cast<unsigned long long>(Errors), Exhausted,
               Opens, Missing);
  if (const auto Metrics = Backend.metrics())
    std::fprintf(stderr, "%s", Metrics->c_str());
  return 1;
}

} // namespace seer::tools

#endif // SEER_TOOLS_TOOLSUPPORT_H
