//===- perfbench/src/Serving.cpp - Inputs and readings shared by serving --===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Benchmarker.h"
#include "core/ModelBundle.h"
#include "sim/GpuSimulator.h"
#include "sparse/Collection.h"
#include "sparse/Generators.h"
#include "support/Tracing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>

using namespace seer;

namespace perfbench {

std::vector<Slot> familySlots(const std::vector<uint32_t> &Rows,
                              uint32_t TailedMaxRows) {
  const char *Families[] = {"banded",   "uniform",  "powerlaw", "blockdiag",
                            "rmat",     "denserow", "constrow", "diagonal"};
  std::vector<Slot> Slots;
  for (uint32_t R : Rows)
    for (const char *Family : Families) {
      const std::string F = Family;
      const bool Tailed = F == "powerlaw" || F == "denserow" || F == "rmat";
      if (!Tailed || R <= TailedMaxRows)
        Slots.push_back({Family, R});
    }
  return Slots;
}

std::vector<NamedMatrix> buildWorkingSet(const std::vector<Slot> &Slots,
                                         uint64_t Seed, Outcome &Out) {
  std::vector<NamedMatrix> Set;
  std::map<std::string, size_t> Seen;
  for (const Slot &Member : Slots) {
    const std::string F = Member.Family;
    const uint32_t Rows = Member.Rows;
    const uint64_t S = Seed * 0x9e3779b97f4a7c15ull + Set.size() * 0x632be5ull;
    uint32_t Scale = 0;
    while ((2u << Scale) <= Rows)
      ++Scale;
    CsrMatrix M = [&] {
      ScopedSpan Span("bench.sparse.generate");
      return
        F == "banded"    ? genBanded(Rows, 6, 0.8, S)
        : F == "uniform" ? genUniformRandom(Rows, Rows, 10.0, 0.2, S)
        : F == "powerlaw"
            ? genPowerLaw(Rows, Rows, 1.6, 2, std::min<uint32_t>(Rows, 128), S)
        : F == "blockdiag" ? genBlockDiagonal(Rows, 24, 0.4, S)
        : F == "rmat"      ? genRmat(Scale, 8, S)
        : F == "denserow"
            ? genDenseRowOutlier(Rows, Rows, 6.0, 4,
                                 std::min<uint32_t>(Rows, 256), S)
        : F == "constrow" ? genConstantRowRandom(Rows, Rows, 9, S)
                          : genDiagonal(Rows, S);
    }();
    Out.attempt();
    if (!M.verify()) {
      ++Out.GenerateFaults;
      Out.fail("generated matrix " + F + " is invalid");
    }
    // A slot listed twice is a second variant of the same shape.
    std::string Name = F + "_r" + std::to_string(Rows);
    if (const size_t Earlier = Seen[Name]++)
      Name += "_v" + std::to_string(Earlier + 1);
    Set.push_back({Name, std::make_shared<const CsrMatrix>(std::move(M))});
  }
  return Set;
}

std::string bundleDirectory(const Options &Opts) {
  return Opts.StateDir + (Opts.Smoke ? "/bundle-smoke-" : "/bundle-full-") +
         Opts.Build;
}

int prepareBundle(const Options &Opts, const std::string &Directory) {
  namespace fs = std::filesystem;
  if (fs::exists(Directory + "/" + modelBundleFileNames().back())) {
    std::printf("%s\n", Directory.c_str());
    return 0;
  }
  // A fixed training collection, independent of any run's seed: every
  // serving run of a build loads the same model triple.
  CollectionConfig Config;
  Config.VariantsPerCell = Opts.Smoke ? 1 : 2;
  Config.MaxRows = Opts.Smoke ? 1024 : 16384;
  Config.IncludeReplicas = false;
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  BenchmarkConfig Protocol;
  Protocol.Parallelism = 1;
  const Benchmarker Bench(Registry, Sim, Protocol);
  TrainerConfig Trainer;
  Trainer.Parallelism = 1;
  const SeerModels Models = trainSeerModels(
      Bench.benchmarkCollection(buildCollection(Config)), Registry.names(),
      Trainer);
  // Store next to the target and rename, so a run never sees half a
  // bundle.
  const std::string Staging = Directory + ".staging";
  fs::remove_all(Staging);
  fs::create_directories(Staging);
  if (const Status S = storeModelBundle(Models, Staging); !S.ok()) {
    std::fprintf(stderr, "seer_perfbench: %s\n", S.toString().c_str());
    return 1;
  }
  fs::remove_all(Directory);
  fs::rename(Staging, Directory);
  std::printf("%s\n", Directory.c_str());
  return 0;
}

std::optional<SeerModels> loadBundle(const Options &Opts,
                                     const KernelRegistry &Registry,
                                     Outcome &Out) {
  auto Models = loadModelBundle(bundleDirectory(Opts), Registry.names());
  if (!Models.ok()) {
    Out.fail("bundle: " + Models.status().toString());
    return std::nullopt;
  }
  return std::move(*Models);
}

std::vector<std::map<std::string, double>>
parsePrometheus(const std::string &Text) {
  std::vector<std::map<std::string, double>> Sections(1);
  std::istringstream In(Text);
  std::string Line;
  bool Sharded = false;
  while (std::getline(In, Line)) {
    if (Line.rfind("# shard", 0) == 0) {
      if (Sharded)
        Sections.emplace_back();
      Sharded = true;
      continue;
    }
    if (Line.empty() || Line[0] == '#' || Line.find('{') != std::string::npos)
      continue;
    const size_t Space = Line.rfind(' ');
    if (Space == std::string::npos)
      continue;
    Sections.back()[Line.substr(0, Space)] = std::atof(Line.c_str() + Space + 1);
  }
  return Sections;
}

namespace {

double sumOf(const std::vector<std::map<std::string, double>> &Sections,
             const std::string &Name) {
  double Sum = 0.0;
  for (const auto &Section : Sections)
    if (const auto It = Section.find(Name); It != Section.end())
      Sum += It->second;
  return Sum;
}

} // namespace

double serverLayers(const std::string &Before, const std::string &After,
                    std::map<std::string, double> &Layers) {
  const auto B = parsePrometheus(Before);
  const auto A = parsePrometheus(After);
  const auto Delta = [&](const std::string &Name) {
    return sumOf(A, Name) - sumOf(B, Name);
  };
  const auto Ratio = [](double Num, double Den) {
    return Den > 0 ? Num / Den : 0.0;
  };
  const auto HistogramMean = [&](const std::string &Name) {
    return Ratio(Delta(Name + "_sum"), Delta(Name + "_count"));
  };
  Layers["core.select_us"] = HistogramMean("seer_stage_select_us");
  Layers["core.prepare_us"] = HistogramMean("seer_stage_prepare_us");
  Layers["kernels.stage_run_us"] = HistogramMean("seer_stage_run_us");
  Layers["serve.oracle_us"] = HistogramMean("seer_stage_oracle_us");
  Layers["serve.cache_probe_us"] = HistogramMean("seer_cache_probe_us");
  Layers["support.queue_wait_us"] = HistogramMean("seer_queue_wait_us");
  Layers["net.server_frame_us"] = HistogramMean("seer_net_request_us");

  const double Requests = Delta("seer_requests_total");
  Layers["serve.hit_ratio"] = Ratio(Delta("seer_cache_hits_total"), Requests);
  const double Built = Delta("seer_plans_built_total");
  const double Reused = Delta("seer_plans_reused_total");
  Layers["serve.plan_reuse_ratio"] = Ratio(Reused, Built + Reused);
  Layers["serve.evictions_per_request"] = Ratio(Delta("seer_evictions"), Requests);
  Layers["serve.reanalyses_per_request"] =
      Ratio(Delta("seer_reanalyses"), Requests);
  const double Paid = Delta("seer_paid_preprocesses_total");
  Layers["serve.paid_preprocess_ratio"] =
      Ratio(Paid, Paid + Delta("seer_amortized_preprocesses_total"));
  Layers["serve.mispredict_rate"] = Ratio(Delta("seer_mispredictions_total"),
                                          Delta("seer_oracle_checks_total"));
  // Largest excess of any budgeted section's accounted bytes over its own
  // budget after the timed phase (negative: the headroom left); 0 when no
  // section has a budget.
  double Over = -std::numeric_limits<double>::infinity();
  for (const auto &Section : A) {
    const auto Budget = Section.find("seer_cache_budget_bytes");
    const auto Cached = Section.find("seer_bytes_cached");
    if (Budget != Section.end() && Cached != Section.end() &&
        Budget->second > 0)
      Over = std::max(Over, Cached->second - Budget->second);
  }
  Layers["serve.max_bytes_over_budget"] = std::isfinite(Over) ? Over : 0.0;
  Layers["net.bytes_per_request"] =
      Ratio(Delta("seer_net_bytes_read_total") +
                Delta("seer_net_bytes_written_total"),
            Requests);
  return Requests;
}

} // namespace perfbench
