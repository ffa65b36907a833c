//===- perfbench/src/Main.cpp - seer_perfbench entry point ----------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The in-process half of the repository benchmark. run.py builds it,
// starts the fleet when a workload needs one, and calls
//
//   seer_perfbench WORKLOAD --seed N --seconds S --trace 0|1 --state DIR
//                  [--smoke] [--trace-out FILE]
//                  [--lb-port P --fleet-pids LB,SHARD,...]
//   seer_perfbench prepare-bundle --state DIR [--smoke]
//
// WORKLOAD is sweep-train, serve-hot or fleet-churn. A run prints one
// JSON line of raw samples and computed values on stdout; run.py reduces
// it to the benchmark's result line. prepare-bundle trains this build's
// serving bundle (once) and prints its directory.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "seer_perfbench: %s\nusage: seer_perfbench "
               "sweep-train|serve-hot|fleet-churn|prepare-bundle --state DIR "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--trace-out FILE] [--lb-port P] [--fleet-pids A,B,...]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usage("missing workload");
  Options Opts;
  Opts.Workload = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      Opts.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const std::string Value = Argv[++I];
    if (Flag == "--seed")
      Opts.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      Opts.Trace = Value == "1";
    else if (Flag == "--state")
      Opts.StateDir = Value;
    else if (Flag == "--trace-out")
      Opts.TraceOut = Value;
    else if (Flag == "--lb-port")
      Opts.LbPort = static_cast<uint16_t>(std::atoi(Value.c_str()));
    else if (Flag == "--fleet-pids") {
      size_t Pos = 0;
      while (Pos < Value.size()) {
        size_t Comma = Value.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = Value.size();
        Opts.FleetPids.push_back(std::atoi(Value.substr(Pos, Comma - Pos).c_str()));
        Pos = Comma + 1;
      }
    } else
      usage(("unknown flag " + Flag).c_str());
  }
  if (Opts.StateDir.empty())
    usage("--state is required");
  if (Opts.Trace && Opts.TraceOut.empty())
    usage("--trace 1 needs --trace-out");
  Opts.Build = buildDigest();

  if (Opts.Workload == "prepare-bundle")
    return prepareBundle(Opts, bundleDirectory(Opts));

  RunResult R;
  int Code = 0;
  if (Opts.Workload == "sweep-train")
    Code = runSweepTrain(Opts, R);
  else if (Opts.Workload == "serve-hot")
    Code = runServeHot(Opts, R);
  else if (Opts.Workload == "fleet-churn")
    Code = runFleetChurn(Opts, R);
  else
    usage(("unknown workload " + Opts.Workload).c_str());
  for (const std::string &Error : R.Out.Errors)
    std::fprintf(stderr, "seer_perfbench: %s\n", Error.c_str());
  R.Notes["build_digest"] = Opts.Build;
  std::printf("%s\n", toJson(R).c_str());
  return Code;
}
