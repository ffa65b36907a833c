//===- perfbench/src/Harness.h - Shared machinery of the repo benchmark ---===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of `seer_perfbench` shares: clocks (wall, process
/// CPU, another process's CPU from /proc), the result record each run
/// prints, failure accounting, percentile helpers, and the one-shot
/// reference computation that set-up uses to know every request's
/// expected kernel, route, modeled cost and Y before timing starts.
///
/// The benchmark only calls the library's public API. When a run is
/// traced, it wraps those calls in `bench.`-prefixed `ScopedSpan`s, so
/// they land in one Chrome trace with the program's own `plan.*`,
/// `serve.*`, `cache.*` and `net.request` spans; run.py turns that trace
/// into per-layer self times.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_PERFBENCH_HARNESS_H
#define SEER_PERFBENCH_HARNESS_H

#include "core/ExecutionPlan.h"
#include "core/SeerTrainer.h"
#include "sparse/CsrMatrix.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run (see Main.cpp for the flags).
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the timed phase; rounds of fixed work repeat until it is
  /// spent (at least MinRounds of them).
  double Seconds = 10.0;
  bool Trace = false;
  /// Tiny inputs: every layer runs, in seconds.
  bool Smoke = false;
  /// Benchmark-owned scratch state (serving bundle, tree digests).
  std::string StateDir;
  /// Digest of this executable (see buildDigest); keys everything kept in
  /// StateDir to the build that made it.
  std::string Build;
  /// Traced runs: where the in-process spans go (Chrome trace JSON).
  std::string TraceOut;
  /// fleet-churn: the balancer's port and the fleet's pids (balancer
  /// first), whose CPU time is read from /proc around each round.
  uint16_t LbPort = 0;
  std::vector<int> FleetPids;
};

/// FNV-1a digest of /proc/self/exe, in decimal. The executable links the
/// library statically, so any change to the trainer, the features or the
/// kernels changes it.
std::string buildDigest();

/// Rounds a run repeats at least, however short --seconds is.
inline constexpr size_t MinRounds = 3;

/// Iteration counts requests draw from (the paper's Sec. IV-E axis).
inline constexpr uint32_t IterationChoices[] = {1, 5, 19};

// -- Clocks ----------------------------------------------------------------

/// Monotonic wall clock, seconds.
double wallNow();
/// CPU time (user+sys) of this process, all threads, seconds.
double processCpuNow();
/// utime+stime of process \p Pid from /proc/<pid>/stat, seconds; -1 when
/// unreadable.
double pidCpuSeconds(int Pid);
/// Peak resident set (VmHWM) of /proc/<Which>/status in MB ("self" for
/// this process); -1 when unreadable.
double peakRssMb(const std::string &Which);

// -- Statistics ------------------------------------------------------------

/// Linear-interpolated \p Q-quantile of \p Values (0 on empty input).
double quantile(std::vector<double> Values, double Q);
/// The tail latency the benchmark reports as p99: the 99th percentile, or
/// on a small sample the highest percentile with at least ten samples
/// beyond it.
double tailLatency(std::vector<double> Values);

/// FNV-1a over the bit patterns of \p Y: the output check compares hashes
/// of bit-identical vectors.
uint64_t hashVector(const std::vector<double> &Y);

/// Metric-name form of a kernel name: "CSR,WM" -> "csr_wm".
std::string kernelKey(const std::string &KernelName);

// -- Failure accounting ----------------------------------------------------

/// Operations attempted and failed in one run. A failure is any non-OK
/// Status, any degraded response and any output mismatch.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< the first few, for the log
  /// Layer fault counts: generated matrices that fail CsrMatrix::verify,
  /// and per kernel, preparations that threw.
  uint64_t GenerateFaults = 0;
  std::vector<uint64_t> PrepareFaults;

  void attempt() { ++Attempted; }
  void fail(const std::string &Why);
};

// -- Reference computation -------------------------------------------------

/// One kernel's noise-free modeled costs on one matrix, and the hash of
/// its Y on the all-ones operand.
struct KernelReference {
  double PreprocessMs = 0.0;
  double IterationMs = 0.0;
  uint64_t OnesYHash = 0;

  double totalMs(double Iterations, double Operands = 1.0) const {
    return PreprocessMs + Operands * Iterations * IterationMs;
  }
};

/// Everything the output checks need about one matrix: every kernel's
/// reference and the model's choice at each of IterationChoices.
struct MatrixReference {
  std::vector<KernelReference> Kernels;
  std::vector<size_t> Chosen;    ///< per IterationChoices entry
  std::vector<bool> Gathered;    ///< route, per IterationChoices entry
  std::vector<size_t> Oracle;    ///< fastest kernel, per entry
  double CollectionMs = 0.0;     ///< modeled feature-collection cost

  /// Index of \p Iterations in IterationChoices.
  static size_t slot(uint32_t Iterations);
};

/// Computes the reference of \p M with the one-shot public Planner calls:
/// analyze, plan (when \p WithModels), then planForKernel and run for every
/// kernel, plus the raw CsrMatrix::multiply the kernels are checked
/// against. Each call sits in its `bench.` span; run.py reads the per-
/// kernel spans (tagged with the kernel index) as the kernels layer.
MatrixReference computeReference(const seer::Planner &Pipeline,
                                 const seer::CsrMatrix &M, bool WithModels,
                                 Outcome &Out);

/// Serving-side paper metrics over executed requests, from their
/// reference costs. Fed request by request, read once.
class ModeledTally {
public:
  /// One executed request: its matrix's reference, the iteration count,
  /// the operand count, the kernel the service chose, and whether the
  /// request was oracle-verified (regret uses verified ones only).
  void add(const MatrixReference &Ref, uint32_t Iterations, double Operands,
           size_t Chosen, bool Verified);
  /// Charged modeled cost of any request (selects included).
  void charge(double Ms) {
    ChargedMs += Ms;
    ++Requests;
  }

  /// Writes modeled_ms_per_request, regret_pct, speedup_vs_best_kernel,
  /// geomean_speedup and selector_accuracy into \p Metrics.
  void emit(std::map<std::string, double> &Metrics) const;

private:
  std::vector<double> PerKernelMs;
  double ChosenMs = 0.0;
  double VerifiedChosenMs = 0.0;
  double VerifiedOracleMs = 0.0;
  uint64_t Executed = 0;
  uint64_t Correct = 0;
  double ChargedMs = 0.0;
  uint64_t Requests = 0;
};

// -- Serving inputs ----------------------------------------------------------

/// One matrix of a serving working set.
struct NamedMatrix {
  std::string Name;
  std::shared_ptr<const seer::CsrMatrix> Matrix;
};

/// One member of a serving working set: a generator family ("banded",
/// "uniform", "powerlaw", "blockdiag", "rmat", "denserow", "constrow",
/// "diagonal") at a row count.
struct Slot {
  const char *Family;
  uint32_t Rows;
};

/// Every family at each of \p Rows, except that the heavy-tailed ones
/// (powerlaw, denserow, rmat) stop at \p TailedMaxRows: ELL pads every
/// row to the longest, so their states grow with rows x longest row.
std::vector<Slot> familySlots(const std::vector<uint32_t> &Rows,
                              uint32_t TailedMaxRows);

/// Builds a serving working set, one matrix per slot. The workload fixes
/// every shape parameter; \p Seed draws only the generators' random
/// streams, so seeds change the inputs without changing their kind.
std::vector<NamedMatrix> buildWorkingSet(const std::vector<Slot> &Slots,
                                         uint64_t Seed, Outcome &Out);

/// Loads the serving bundle, or records a failure.
std::optional<seer::SeerModels> loadBundle(const Options &Opts,
                                           const seer::KernelRegistry &Registry,
                                           Outcome &Out);

/// Directory of the serving bundle for this run's size and build: a
/// bundle trained by another build is never loaded.
std::string bundleDirectory(const Options &Opts);

/// One Prometheus exposition, split into `# shard N` sections (one
/// section when there are none), each a name -> value map.
std::vector<std::map<std::string, double>>
parsePrometheus(const std::string &Text);

/// Writes the server-side per-layer values shared by both serving
/// workloads (stage histogram means, cache and ledger ratios, wire bytes,
/// bytes cached against each section's own seer_cache_budget_bytes) from
/// two Prometheus expositions taken around the timed phase — the
/// in-process service's own, or the shards' concatenated through the
/// balancer (`# shard N` sections, summed). \returns the requests served
/// in between.
double serverLayers(const std::string &Before, const std::string &After,
                    std::map<std::string, double> &Layers);

// -- Result record -----------------------------------------------------------

/// Timing of one round of fixed work.
struct Round {
  double WallS = 0.0;
  double CpuS = 0.0;
};

/// What one run hands to run.py: raw samples and computed values. run.py
/// takes medians and prints the contract's result line.
struct RunResult {
  Outcome Out;
  std::vector<double> SetupS;
  std::vector<Round> Rounds;
  std::vector<double> LatenciesUs;
  /// Deterministic metrics (modeled cost, regret, paper ratios).
  std::map<std::string, double> Modeled;
  /// Per-layer values measured outside spans (counters, histograms,
  /// /proc readings); run.py adds the span-derived ones.
  std::map<std::string, double> Layers;
  /// Free-form facts for the provenance record.
  std::map<std::string, std::string> Notes;
  /// Traced runs: median round wall time before and after arming.
  double UntracedWallS = 0.0;
  double TracedWallS = 0.0;
  std::vector<std::string> KernelNames;
};

/// Serializes \p R as one JSON line.
std::string toJson(const RunResult &R);

/// Arms the span recorder for a traced phase.
void armTracing();
/// Drains the recorder into the accumulated span list (call between
/// rounds so no ring overflows) and, on \p Final, writes the Chrome trace
/// to \p Path.
void drainTracing(const std::string &Path, bool Final);

/// Rounds a traced phase runs at most: enough for stable per-layer means,
/// few enough that the trace stays small (a serve-hot round records about
/// 1600 spans).
inline constexpr size_t MaxTracedRounds = 40;

/// Runs \p Body (one round of fixed work, which returns its own timing)
/// until \p Seconds have passed and at least MinRounds ran, or until
/// \p MaxRounds ran.
template <typename F>
void runRounds(double Seconds, std::vector<Round> &Rounds, F &&Body,
               size_t MaxRounds = SIZE_MAX) {
  const double Start = wallNow();
  while (Rounds.size() < MaxRounds &&
         (Rounds.size() < MinRounds || wallNow() - Start < Seconds))
    Rounds.push_back(Body());
}

/// Median wall time of \p Rounds.
double medianWall(const std::vector<Round> &Rounds);

// Workloads (one file each).
int runSweepTrain(const Options &Opts, RunResult &R);
int runServeHot(const Options &Opts, RunResult &R);
int runFleetChurn(const Options &Opts, RunResult &R);

/// Trains the serving bundle into \p Directory unless this build already
/// did, then prints the directory on stdout (run.py hands it to the
/// fleet's shards).
int prepareBundle(const Options &Opts, const std::string &Directory);

} // namespace perfbench

#endif // SEER_PERFBENCH_HARNESS_H
