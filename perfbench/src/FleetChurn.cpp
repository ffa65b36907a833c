//===- perfbench/src/FleetChurn.cpp - The write path over the wire --------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// fleet-churn, client side. run.py starts two `seer-serve --listen` shards
// behind `seer-lb` on loopback, each shard's cache budgeted so the working
// set is several times the fleet's combined budget; this client is the
// one closed-loop connection. Every request is open -> execute -> close
// of one matrix, drawn from a fixed skewed multiset in a seeded order; a
// fixed share of the executes is oracle-verified. That covers wire encode
// and decode of whole matrices, balancer fingerprinting, registration,
// eviction, re-analysis, re-paid preprocessing and oracle recomputation —
// the write path serve-hot never touches.
//
// The fleet's CPU time is read from /proc/<pid>/stat around each round,
// and its counters through the balancer's metrics op after the timed
// phase. Set-up measures every member's cache entry with an in-process
// service over the same bundle and checks that each fits one shard's
// budget slice, so evictions follow popularity, never entry size.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "api/SeerService.h"
#include "net/NetClient.h"
#include "net/Wire.h"
#include "sim/GpuSimulator.h"
#include "support/Random.h"
#include "support/Tracing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace seer;
using namespace seer::net;

namespace perfbench {
namespace {

struct ChurnRequest {
  size_t Matrix = 0;
  uint32_t Iterations = 1;
  bool Verify = false;
};

/// The fixed multiset (matrix of popularity rank r requested about
/// Total / (r+1)^0.9 times, iteration counts cycling 1/5/19, every fourth
/// occurrence verified) in a seeded order.
std::vector<ChurnRequest> requestSequence(size_t Matrices, size_t Total,
                                          uint64_t Seed) {
  double Norm = 0.0;
  for (size_t Rank = 0; Rank < Matrices; ++Rank)
    Norm += std::pow(double(Rank + 1), -0.9);
  // Popularity ranks stride across the size-major working set, so hot
  // and cold matrices both span every size; a stride coprime with the
  // set's size visits every member once.
  size_t Stride = 5;
  while (std::gcd(Stride, Matrices) != 1)
    ++Stride;
  std::vector<ChurnRequest> Sequence;
  for (size_t Rank = 0; Rank < Matrices; ++Rank) {
    const size_t Count = std::max<size_t>(
        1, static_cast<size_t>(std::lround(
               double(Total) * std::pow(double(Rank + 1), -0.9) / Norm)));
    const size_t Matrix = (Rank * Stride) % Matrices;
    for (size_t I = 0; I < Count; ++I)
      Sequence.push_back({Matrix,
                          IterationChoices[(Rank + I) % std::size(IterationChoices)],
                          (Rank + I) % 4 == 0});
  }
  Rng Shuffle(Seed ^ 0xc4a2e5ull);
  for (size_t I = Sequence.size(); I > 1; --I)
    std::swap(Sequence[I - 1], Sequence[Shuffle.bounded(I)]);
  return Sequence;
}

/// Accounted cache bytes of one member's entry.
struct EntrySize {
  /// With the kernels its executes chose paid for: what stays resident
  /// once the cache has shed everything recomputable. The shard's slice
  /// must hold this whole, or the entry is evicted as soon as its handle
  /// closes, however popular it is.
  double Paid = 0.0;
  /// After an oracle-verified execute too: plus the oracle's measurements
  /// and every kernel's stashed state, which the cache sheds first.
  double WithOracle = 0.0;
};

/// Measures each member's entry on an in-process SeerService over the
/// same bundle with one unbudgeted cache shard: the growth of its
/// bytes_cached gauge over executes at every iteration count, then over
/// one oracle-verified execute.
std::vector<EntrySize> measureEntries(const Options &Opts,
                                      const KernelRegistry &Registry,
                                      const std::vector<NamedMatrix> &Set,
                                      Outcome &Out) {
  std::vector<EntrySize> Sizes(Set.size());
  std::optional<SeerModels> Models = loadBundle(Opts, Registry, Out);
  if (!Models)
    return Sizes;
  ServiceConfig Config;
  Config.Server.CacheShards = 1;
  Config.Server.CacheBudgetBytes = 0;
  SeerService Service(std::move(*Models), Config);
  for (size_t I = 0; I < Set.size(); ++I) {
    const double Before = static_cast<double>(Service.stats().BytesCached);
    Out.attempt();
    auto Handle = Service.registerMatrix(Set[I].Matrix);
    if (!Handle.ok()) {
      Out.fail("register " + Set[I].Name + ": " + Handle.status().toString());
      continue;
    }
    const auto Serve = [&](uint32_t Iterations, bool Verify) {
      Request Req;
      Req.Handle = *Handle;
      Req.Iterations = Iterations;
      Req.Execute = true;
      Req.VerifyOracle = Verify;
      Out.attempt();
      Expected<ServeResponse> Response = Service.serve(Req);
      if (!Response.ok() || Response->Degraded)
        Out.fail("sizing request on " + Set[I].Name + " failed");
      return static_cast<double>(Service.stats().BytesCached) - Before;
    };
    for (uint32_t Iterations : IterationChoices)
      Sizes[I].Paid = Serve(Iterations, false);
    Sizes[I].WithOracle = Serve(IterationChoices[0], true);
    Out.attempt();
    if (const Status S = Service.release(*Handle); !S.ok())
      Out.fail("release " + Set[I].Name + ": " + S.toString());
  }
  return Sizes;
}

/// The working set: every family at 1024 rows, the light-tailed ones at
/// 4096 and 32768, and two more variants of each light-tailed family but
/// the diagonal at 32768. From 4096 to 16384 rows the model picks CSR
/// kernels whose paid states take tens of KB; at 32768 it picks COO and
/// ELL kernels with paid states of several MB, which are what the shards'
/// budgets have to evict.
std::vector<Slot> fleetSlots(bool Smoke) {
  // At smoke size the model may pick ELL for a heavy-tailed family, or
  // COO from 512 rows on, whose paid state then outweighs every other
  // entry; light-tailed ones at 256 rows keep entries small and alike.
  if (Smoke)
    return familySlots({256}, 0);
  std::vector<Slot> Slots = familySlots({1024, 4096, 32768}, 1024);
  for (int Variant = 2; Variant <= 3; ++Variant)
    for (const Slot &Extra : familySlots({32768}, 0))
      if (std::string(Extra.Family) != "diagonal")
        Slots.push_back(Extra);
  return Slots;
}

double fleetCpu(const std::vector<int> &Pids, size_t From, size_t To) {
  double Sum = 0.0;
  for (size_t I = From; I < To && I < Pids.size(); ++I)
    Sum += pidCpuSeconds(Pids[I]);
  return Sum;
}

} // namespace

int runFleetChurn(const Options &Opts, RunResult &R) {
  const std::vector<Slot> Slots = fleetSlots(Opts.Smoke);
  const size_t RequestsPerRound = Opts.Smoke ? 16 : 160;
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  R.KernelNames = Registry.names();

  if (Opts.Trace)
    armTracing();
  const std::vector<NamedMatrix> Set = buildWorkingSet(Slots, Opts.Seed, R.Out);
  std::optional<SeerModels> Models = loadBundle(Opts, Registry, R.Out);
  if (!Models)
    return 1;
  const Planner Reference(*Models, Registry, Sim);
  std::vector<MatrixReference> Refs;
  for (const NamedMatrix &M : Set)
    Refs.push_back(computeReference(Reference, *M.Matrix, true, R.Out));
  if (Opts.Trace) {
    drainTracing(Opts.TraceOut, /*Final=*/false);
    SpanRecorder::instance().disarm();
  }
  const std::vector<EntrySize> Sizes = measureEntries(Opts, Registry, Set, R.Out);
  const std::vector<ChurnRequest> Sequence =
      requestSequence(Set.size(), RequestsPerRound, Opts.Seed);
  R.Notes["working_set"] =
      std::to_string(Set.size()) + " matrices at rows " +
      (Opts.Smoke ? "256, light-tailed ones only"
                  : "1024..32768 (three variants at 32768), heavy-tailed "
                    "ones at 1024");
  R.Notes["requests_per_round"] = std::to_string(Sequence.size());

  auto ClientOr = NetClient::connect("127.0.0.1", Opts.LbPort);
  if (!ClientOr.ok()) {
    R.Out.fail("connect: " + ClientOr.status().toString());
    return 1;
  }
  NetClient &Client = *ClientOr;

  // Every shard runs one cache shard, so its budget is one slice, and
  // each member's paid entry must fit the smallest.
  auto Budgets = Client.metricsText();
  double SmallestBudget = 0.0, CombinedBudget = 0.0;
  if (Budgets.ok())
    for (const auto &Section : parsePrometheus(*Budgets))
      if (const auto It = Section.find("seer_cache_budget_bytes");
          It != Section.end() && It->second > 0) {
        SmallestBudget = SmallestBudget == 0.0
                             ? It->second
                             : std::min(SmallestBudget, It->second);
        CombinedBudget += It->second;
      }
  R.Out.attempt();
  if (SmallestBudget == 0.0) {
    R.Out.fail("the shards report no cache budget");
    return 1;
  }
  size_t Largest = 0;
  double PaidSum = 0.0, LargestWithOracle = 0.0;
  std::string SizeList;
  for (size_t I = 0; I < Set.size(); ++I) {
    PaidSum += Sizes[I].Paid;
    LargestWithOracle = std::max(LargestWithOracle, Sizes[I].WithOracle);
    if (Sizes[I].Paid > Sizes[Largest].Paid)
      Largest = I;
    SizeList += (I ? " " : "") + Set[I].Name + "=" +
                std::to_string(std::lround(Sizes[I].Paid)) + "/" +
                std::to_string(std::lround(Sizes[I].WithOracle));
  }
  R.Notes["shard_budget_bytes"] = std::to_string(std::lround(SmallestBudget));
  R.Notes["entry_bytes_paid_over_with_oracle"] = SizeList;
  R.Notes["largest_paid_entry_bytes"] =
      std::to_string(std::lround(Sizes[Largest].Paid));
  R.Notes["largest_entry_with_oracle_bytes"] =
      std::to_string(std::lround(LargestWithOracle));
  R.Notes["paid_working_set_over_combined_budget"] =
      std::to_string(PaidSum / CombinedBudget);
  R.Out.attempt();
  if (Sizes[Largest].Paid > SmallestBudget)
    R.Out.fail("paid entry of " + Set[Largest].Name + " (" +
               std::to_string(std::lround(Sizes[Largest].Paid)) +
               " bytes) does not fit one shard's cache budget");

  bool Tallying = false;
  ModeledTally Tally;
  double LbCpuS = 0.0, ShardCpuS = 0.0, FrameUs = 0.0;
  uint64_t Frames = 0, Timed = 0;
  std::vector<ServeResponse> LastResponse(Set.size());

  const auto Round = [&]() -> perfbench::Round {
    perfbench::Round Timing;
    const double Lb0 = fleetCpu(Opts.FleetPids, 0, 1);
    const double Shards0 = fleetCpu(Opts.FleetPids, 1, Opts.FleetPids.size());
    for (const ChurnRequest &Q : Sequence) {
      const NamedMatrix &M = Set[Q.Matrix];
      const MatrixReference &Ref = Refs[Q.Matrix];
      R.Out.attempt();
      const double Wall0 = wallNow();
      const double Cpu0 = processCpuNow();
      ScopedSpan RequestSpan("bench.net.request");
      Expected<OpenReply> Opened = [&] {
        ScopedSpan Span("bench.net.open");
        return Client.open(M.Name, *M.Matrix);
      }();
      if (!Opened.ok()) {
        R.Out.fail("open " + M.Name + ": " + Opened.status().toString());
        continue;
      }
      Expected<ServeResponse> Response = [&] {
        ScopedSpan Span("bench.net.execute");
        return Client.execute(Opened->Handle, Q.Iterations, Q.Verify, {});
      }();
      const Status Closed = [&] {
        ScopedSpan Span("bench.net.close");
        return Client.close(Opened->Handle);
      }();
      const double Wall1 = wallNow();
      Timing.WallS += Wall1 - Wall0;
      Timing.CpuS += processCpuNow() - Cpu0;
      R.LatenciesUs.push_back(1e6 * (Wall1 - Wall0));
      FrameUs += 1e6 * (Wall1 - Wall0);
      Frames += 3;
      ++Timed;

      if (!Closed.ok())
        R.Out.fail("close " + M.Name + ": " + Closed.toString());
      if (!Response.ok()) {
        R.Out.fail("execute " + M.Name + ": " + Response.status().toString());
        continue;
      }
      const size_t Slot = MatrixReference::slot(Q.Iterations);
      const size_t Chosen = Response->Selection.KernelIndex;
      if (Response->Degraded) {
        R.Out.fail("degraded response on " + M.Name);
        continue;
      }
      if (Chosen != Ref.Chosen[Slot] ||
          Response->Selection.UsedGatheredModel != Ref.Gathered[Slot] ||
          !Response->Executed ||
          hashVector(Response->Y) != Ref.Kernels[Chosen].OnesYHash ||
          Response->IterationMs != Ref.Kernels[Chosen].IterationMs) {
        R.Out.fail("kernel, route or Y differs from the reference on " + M.Name);
        continue;
      }
      if (Q.Verify &&
          (!Response->OracleChecked ||
           Response->OracleKernelIndex != Ref.Oracle[Slot] ||
           Response->RegretMs !=
               Ref.Kernels[Chosen].totalMs(Q.Iterations) -
                   Ref.Kernels[Ref.Oracle[Slot]].totalMs(Q.Iterations)))
        R.Out.fail("oracle verdict differs from the reference on " + M.Name);
      if (Tallying) {
        Tally.charge(Response->totalMs());
        Tally.add(Ref, Q.Iterations, 1.0, Chosen, Q.Verify);
      }
      LastResponse[Q.Matrix] = std::move(*Response);
    }
    const double Lb = fleetCpu(Opts.FleetPids, 0, 1) - Lb0;
    const double Shards =
        fleetCpu(Opts.FleetPids, 1, Opts.FleetPids.size()) - Shards0;
    LbCpuS += Lb;
    ShardCpuS += Shards;
    Timing.CpuS += Lb + Shards;
    return Timing;
  };

  // One untimed round brings the caches to the sequence's steady state;
  // the modeled metrics come from the first timed round.
  Round();
  R.LatenciesUs.clear();
  LbCpuS = ShardCpuS = FrameUs = 0.0;
  Frames = Timed = 0;
  auto Before = Client.metricsText();
  if (Opts.Trace)
    armTracing();
  Tallying = true;
  R.Rounds.push_back(Round());
  Tallying = false;
  runRounds(
      Opts.Seconds, R.Rounds,
      [&] {
        const perfbench::Round Timing = Round();
        if (Opts.Trace)
          drainTracing(Opts.TraceOut, /*Final=*/false);
        return Timing;
      },
      Opts.Trace ? MaxTracedRounds : SIZE_MAX);
  auto After = Client.metricsText();
  if (!Before.ok() || !After.ok()) {
    R.Out.fail("metrics op through the balancer failed");
    return 1;
  }
  Tally.emit(R.Modeled);
  serverLayers(*Before, *After, R.Layers);
  R.Out.attempt();
  if (R.Layers["serve.max_bytes_over_budget"] > 0)
    R.Out.fail("a shard holds more bytes than its cache budget");

  if (Opts.Trace) {
    drainTracing(Opts.TraceOut, /*Final=*/true);
    const double PerRequest = Timed ? 1e6 / double(Timed) : 0.0;
    R.Layers["net.cpu_us_per_request.lb"] = LbCpuS * PerRequest;
    R.Layers["net.cpu_us_per_request.shard"] = ShardCpuS * PerRequest;
    R.Layers["net.transport_us"] =
        (Frames ? FrameUs / double(Frames) : 0.0) -
        R.Layers["net.server_frame_us"];
    // Codec: the same frames this workload sends and receives, encoded
    // and decoded in-process (open, execute, the execute reply, close).
    double CodecS = 0.0;
    for (const ChurnRequest &Q : Sequence) {
      const double Start = wallNow();
      const std::string Open = encodeOpen(Set[Q.Matrix].Name, *Set[Q.Matrix].Matrix);
      const std::string Exec = encodeExecute(1, Q.Iterations, Q.Verify, {});
      const std::string Reply = encodeResponseReply(LastResponse[Q.Matrix]);
      const std::string Close = encodeClose(1);
      const bool Decoded = decodeOpen(Open).ok() && decodeExecute(Exec).ok() &&
                           decodeResponseReply(Reply).ok() &&
                           decodeClose(Close).ok();
      CodecS += wallNow() - Start;
      R.Out.attempt();
      if (!Decoded)
        R.Out.fail("wire codec failed to round-trip a frame");
    }
    R.Layers["net.codec_us"] = 1e6 * CodecS / double(Sequence.size());
  }
  return 0;
}

} // namespace perfbench
