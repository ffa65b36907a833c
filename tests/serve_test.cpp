//===- tests/serve_test.cpp - Tests for the Seer serving layer ------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The serving-layer contract: concurrent clients get answers bit-identical
// to one-shot SeerRuntime calls, cache hits charge zero collection cost,
// the amortization ledger charges preprocessing once, telemetry counters
// add up, and the protocol/trace/bundle plumbing round-trips. The
// concurrency tests run real std::thread clients so the ThreadSanitizer CI
// job exercises the locking for data races.
//
//===----------------------------------------------------------------------===//

#include "api/SeerService.h"
#include "core/ModelBundle.h"
#include "core/Seer.h"
#include "serve/RequestTrace.h"
#include "serve/SeerServer.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace seer;

namespace {

/// A tiny but diverse collection for fast serving tests.
std::vector<MatrixSpec> tinyCollection() {
  CollectionConfig Config;
  Config.MaxRows = 4096;
  Config.VariantsPerCell = 2;
  Config.IncludeReplicas = false;
  return buildCollection(Config);
}

/// Models trained once on the tiny collection (shared across tests).
const SeerModels &tinyModels() {
  static const SeerModels Models = [] {
    const KernelRegistry Registry;
    const GpuSimulator Sim(DeviceModel::mi100());
    BenchmarkConfig Protocol;
    Protocol.Parallelism = 0;
    const Benchmarker Runner(Registry, Sim, Protocol);
    TrainerConfig Trainer;
    Trainer.Parallelism = 0;
    return trainSeerModels(Runner.benchmarkCollection(tinyCollection()),
                           Registry.names(), Trainer);
  }();
  return Models;
}

/// A pool of request matrices with varied shapes.
const std::vector<CsrMatrix> &requestPool() {
  static const std::vector<CsrMatrix> Pool = [] {
    std::vector<CsrMatrix> P;
    P.push_back(genBanded(1024, 8, 0.9, 7));
    P.push_back(genPowerLaw(2048, 2048, 1.8, 1, 256, 11));
    P.push_back(genUniformRandom(512, 512, 12.0, 0.5, 13));
    P.push_back(genDiagonal(4096, 17));
    P.push_back(genDenseRowOutlier(1024, 1024, 6.0, 4, 128, 19));
    P.push_back(genConstantRowRandom(768, 768, 9, 23));
    return P;
  }();
  return Pool;
}

/// Zero-copy registration of a pool matrix (the pool outlives servers).
RegisteredMatrix registerAliased(SeerServer &Server, const CsrMatrix &M) {
  return Server.registerMatrix(
      std::shared_ptr<const CsrMatrix>(std::shared_ptr<void>(), &M));
}

ServeOptions options(uint32_t Iterations, bool Execute = false,
                     bool VerifyOracle = false) {
  ServeOptions Options;
  Options.Iterations = Iterations;
  Options.Execute = Execute;
  Options.VerifyOracle = VerifyOracle;
  return Options;
}

/// One request through the handle API: register, serve, release.
/// Releasing at once leaves the entry unpinned, so the cache-budget tests
/// see ordinary eviction victims between requests. \p WhileLive, if set,
/// receives a snapshot taken while the registration still pins the entry.
ServeResponse serveOnce(SeerServer &Server, const CsrMatrix &M,
                        const ServeOptions &Options,
                        ServerStats *WhileLive = nullptr) {
  const RegisteredMatrix Reg = registerAliased(Server, M);
  Expected<ServeResponse> Response = Server.handleRegistered(Reg, Options);
  if (WhileLive)
    *WhileLive = Server.stats();
  Server.releaseMatrix(Reg);
  EXPECT_TRUE(Response) << Response.status().toString();
  return Response ? std::move(*Response) : ServeResponse();
}

/// A single execute and a batch agree in every field they share but the
/// host's service time.
void expectSameSharedFields(const ResponseBase &A, const ResponseBase &B) {
  EXPECT_EQ(A.Selection.KernelIndex, B.Selection.KernelIndex);
  EXPECT_EQ(A.Selection.UsedGatheredModel, B.Selection.UsedGatheredModel);
  EXPECT_EQ(A.Selection.FeatureCollectionMs, B.Selection.FeatureCollectionMs);
  EXPECT_EQ(A.Selection.InferenceMs, B.Selection.InferenceMs);
  EXPECT_EQ(A.ModeledCollectionMs, B.ModeledCollectionMs);
  EXPECT_EQ(A.Fingerprint, B.Fingerprint);
  EXPECT_EQ(A.CacheHit, B.CacheHit);
  EXPECT_EQ(A.Iterations, B.Iterations);
  EXPECT_EQ(A.PreprocessAmortized, B.PreprocessAmortized);
  EXPECT_EQ(A.PreprocessMs, B.PreprocessMs);
  EXPECT_EQ(A.ModeledPreprocessMs, B.ModeledPreprocessMs);
  EXPECT_EQ(A.IterationMs, B.IterationMs);
  EXPECT_EQ(A.Degraded, B.Degraded);
}

/// How far \p Config's budget can give way while one live registration
/// pins an entry of \p EntryBytes: pinned entries are never whole-evicted,
/// so a shard may run over its slice only while it holds nothing but the
/// pinned entry.
uint64_t pinnedOvershoot(const ServerConfig &Config, uint64_t EntryBytes) {
  const uint64_t Slice = Config.CacheBudgetBytes / Config.CacheShards;
  return EntryBytes > Slice ? EntryBytes - Slice : 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprinting
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, ContentAddressing) {
  const CsrMatrix A = genBanded(100, 4, 0.8, 1);
  const CsrMatrix SameContent = genBanded(100, 4, 0.8, 1);
  const CsrMatrix OtherSeed = genBanded(100, 4, 0.8, 2);
  const CsrMatrix OtherShape = genBanded(101, 4, 0.8, 1);
  EXPECT_EQ(matrixFingerprint(A), matrixFingerprint(SameContent));
  EXPECT_NE(matrixFingerprint(A), matrixFingerprint(OtherSeed));
  EXPECT_NE(matrixFingerprint(A), matrixFingerprint(OtherShape));
}

TEST(FingerprintTest, ValueSensitive) {
  // Same structure, one value changed: the fingerprint must differ.
  std::vector<Triplet> Entries = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}};
  const CsrMatrix A = CsrMatrix::fromTriplets(2, 2, Entries);
  Entries[2].Value = 4.0;
  const CsrMatrix B = CsrMatrix::fromTriplets(2, 2, Entries);
  EXPECT_NE(matrixFingerprint(A), matrixFingerprint(B));
}

//===----------------------------------------------------------------------===//
// SeerServer: correctness vs. the one-shot runtime
//===----------------------------------------------------------------------===//

TEST(SeerServerTest, SelectionsMatchRuntimeSerially) {
  SeerServer Server(tinyModels());
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);

  for (const CsrMatrix &M : requestPool())
    for (const uint32_t Iterations : {1u, 5u, 19u}) {
      const SelectionResult Direct = Reference.select(M, Iterations);
      const ServeResponse Response =
          serveOnce(Server, M, options(Iterations));
      EXPECT_EQ(Response.Selection.KernelIndex, Direct.KernelIndex);
      EXPECT_EQ(Response.Selection.UsedGatheredModel,
                Direct.UsedGatheredModel);
    }
}

TEST(SeerServerTest, ConcurrentClientsBitIdentical) {
  // >= 8 client threads hammer one server with interleaved repeat
  // requests; every response must equal the serial one-shot answer, both
  // select-only and executed with oracle verification.
  const std::vector<CsrMatrix> &Pool = requestPool();
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  const uint32_t IterationPattern[3] = {1, 5, 19};

  // Serial ground truth per (matrix, iterations): the selection and the
  // product of the all-ones operand the server uses by default.
  std::vector<std::vector<SelectionResult>> Direct(Pool.size());
  std::vector<std::vector<std::vector<double>>> DirectY(Pool.size());
  for (size_t M = 0; M < Pool.size(); ++M)
    for (uint32_t I : IterationPattern) {
      Direct[M].push_back(Reference.select(Pool[M], I));
      const std::vector<double> Ones(Pool[M].numCols(), 1.0);
      DirectY[M].push_back(Reference.execute(Pool[M], Ones, I).Y);
    }

  for (const bool Execute : {false, true}) {
    SeerServer Server(tinyModels());
    constexpr size_t NumClients = 8;
    constexpr size_t RequestsPerClient = 60;
    std::vector<std::string> Failures(NumClients);
    std::vector<std::thread> Clients;
    for (size_t C = 0; C < NumClients; ++C)
      Clients.emplace_back([&, C] {
        for (size_t R = 0; R < RequestsPerClient; ++R) {
          const size_t MatrixIndex = (C + R) % Pool.size();
          const size_t IterIndex = R % 3;
          const ServeResponse Response =
              serveOnce(Server, Pool[MatrixIndex],
                        options(IterationPattern[IterIndex], Execute,
                                /*VerifyOracle=*/Execute));
          const SelectionResult &Expected = Direct[MatrixIndex][IterIndex];
          if (Response.Selection.KernelIndex != Expected.KernelIndex ||
              Response.Selection.UsedGatheredModel !=
                  Expected.UsedGatheredModel ||
              (Execute && Response.Y != DirectY[MatrixIndex][IterIndex]))
            Failures[C] = "client " + std::to_string(C) + " request " +
                          std::to_string(R) + " diverged";
        }
      });
    for (std::thread &T : Clients)
      T.join();
    for (const std::string &Failure : Failures)
      EXPECT_TRUE(Failure.empty()) << Failure;

    const ServerStats Stats = Server.stats();
    EXPECT_EQ(Stats.Requests, NumClients * RequestsPerClient);
    EXPECT_EQ(Stats.Requests, Stats.CacheHits + Stats.CacheMisses);
    EXPECT_EQ(Stats.Requests, Stats.KnownRoutes + Stats.GatheredRoutes);
    EXPECT_EQ(Stats.CachedMatrices, Pool.size());
    EXPECT_EQ(Stats.LatencySamples, Stats.Requests);
    EXPECT_EQ(Stats.OracleChecks, Execute ? Stats.Requests : 0u);
    // Registration paid every analysis, so every request hit; every
    // registration was released again.
    EXPECT_EQ(Stats.CacheHits, Stats.Requests);
    EXPECT_EQ(Stats.Registrations, NumClients * RequestsPerClient);
    EXPECT_EQ(Stats.ActiveHandles, 0u);
    EXPECT_EQ(Stats.Reanalyses, 0u);
  }
}

TEST(SeerServerTest, StatsNeverWrapUnderConcurrentLoad) {
  // Each request commits Requests before CacheHits/GatheredRoutes. A
  // snapshot racing those commits must still report derived counts that
  // add up instead of wrapping the unsigned misses/known-route
  // differences (or pushing the hit rate past 1).
  SeerServer Server(tinyModels());
  const RegisteredMatrix Reg = registerAliased(Server, requestPool()[1]);
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Clients;
  for (int C = 0; C < 3; ++C)
    Clients.emplace_back([&] {
      while (!Stop.load(std::memory_order_relaxed))
        (void)Server.handleRegistered(Reg, options(5));
    });
  size_t Bad = 0;
  for (int I = 0; I < 200000; ++I) {
    const ServerStats S = Server.stats();
    if (S.CacheMisses > S.Requests || S.KnownRoutes > S.Requests ||
        S.CacheHits + S.CacheMisses != S.Requests ||
        S.KnownRoutes + S.GatheredRoutes != S.Requests ||
        S.hitRate() > 1.0)
      ++Bad;
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Clients)
    T.join();
  Server.releaseMatrix(Reg);
  EXPECT_EQ(Bad, 0u) << "snapshots with inconsistent derived counts";
}

TEST(SeerServerTest, CacheHitChargesZeroCollection) {
  // Registration pays the analysis, so no request is charged collection
  // — not the first one after a fresh analysis, nor one whose
  // registration reused a cached analysis — while the decision stays
  // the one-shot runtime's, which does charge it on the gathered route.
  SeerServer Server(tinyModels());
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  for (const CsrMatrix &M : requestPool()) {
    const SelectionResult Direct = Reference.select(M, 5);
    const RegisteredMatrix Fresh = registerAliased(Server, M);
    EXPECT_FALSE(Fresh.AnalysisReused);
    const ServeResponse First = *Server.handleRegistered(Fresh, options(5));
    Server.releaseMatrix(Fresh);
    const RegisteredMatrix Again = registerAliased(Server, M);
    EXPECT_TRUE(Again.AnalysisReused);
    const ServeResponse Second = *Server.handleRegistered(Again, options(5));
    Server.releaseMatrix(Again);
    for (const ServeResponse *R : {&First, &Second}) {
      EXPECT_TRUE(R->CacheHit);
      EXPECT_EQ(R->Selection.KernelIndex, Direct.KernelIndex);
      EXPECT_EQ(R->Selection.UsedGatheredModel, Direct.UsedGatheredModel);
      EXPECT_EQ(R->Selection.FeatureCollectionMs, 0.0);
      EXPECT_EQ(R->ModeledCollectionMs, Direct.FeatureCollectionMs);
    }
    if (Direct.UsedGatheredModel) {
      EXPECT_GT(Direct.FeatureCollectionMs, 0.0);
    }
  }
  // The pool's gathered-routed matrices saved their collection cost.
  const ServerStats Stats = Server.stats();
  if (Stats.GatheredRoutes > 0) {
    EXPECT_GT(Stats.SavedCollectionMs, 0.0);
  }
}

TEST(SeerServerTest, PreprocessingAmortizedAcrossRequests) {
  const CsrMatrix &M = requestPool()[1]; // power-law: irregular input
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  const std::vector<double> X(M.numCols(), 1.0);
  const ExecutionReport Direct = Reference.execute(M, X, 19);

  SeerServer Server(tinyModels());
  const ServeResponse First = serveOnce(Server, M, options(19, true));
  const ServeResponse Second = serveOnce(Server, M, options(19, true));

  // First execution pays exactly what the one-shot runtime pays.
  EXPECT_EQ(First.Selection.KernelIndex, Direct.Selection.KernelIndex);
  EXPECT_FALSE(First.PreprocessAmortized);
  EXPECT_EQ(First.PreprocessMs, Direct.PreprocessMs);
  EXPECT_EQ(First.IterationMs, Direct.IterationMs);
  EXPECT_EQ(First.Y, Direct.Y);

  // The repeat charges zero preprocessing and returns the identical
  // product (the cached kernel state is reused, not recomputed).
  EXPECT_TRUE(Second.PreprocessAmortized);
  EXPECT_EQ(Second.PreprocessMs, 0.0);
  EXPECT_EQ(Second.IterationMs, Direct.IterationMs);
  EXPECT_EQ(Second.Y, Direct.Y);

  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Executions, 2u);
  EXPECT_EQ(Stats.PaidPreprocesses, 1u);
  EXPECT_EQ(Stats.AmortizedPreprocesses, 1u);
  if (Direct.PreprocessMs > 0.0) {
    EXPECT_GT(Stats.SavedPreprocessMs, 0.0);
  }
}

TEST(SeerServerTest, ConcurrentExecutionsShareTheLedger) {
  const CsrMatrix &M = requestPool()[1];
  SeerServer Server(tinyModels());
  constexpr size_t NumClients = 8;
  constexpr size_t PerClient = 10;
  std::vector<std::thread> Clients;
  std::vector<std::vector<double>> FirstY(NumClients);
  for (size_t C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      for (size_t R = 0; R < PerClient; ++R) {
        const ServeResponse Response = serveOnce(Server, M, options(5, true));
        if (R == 0)
          FirstY[C] = Response.Y;
      }
    });
  for (std::thread &T : Clients)
    T.join();
  for (size_t C = 1; C < NumClients; ++C)
    EXPECT_EQ(FirstY[C], FirstY[0]);

  // Exactly one request paid preprocessing for the (single) chosen kernel;
  // everyone else amortized.
  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Executions, NumClients * PerClient);
  EXPECT_EQ(Stats.PaidPreprocesses, 1u);
  EXPECT_EQ(Stats.AmortizedPreprocesses, NumClients * PerClient - 1);
}

TEST(SeerServerTest, OracleFeedbackCountsMispredictions) {
  SeerServer Server(tinyModels());
  uint64_t ExpectedMispredictions = 0;
  for (const CsrMatrix &M : requestPool()) {
    const ServeResponse Response =
        serveOnce(Server, M, options(5, true, /*VerifyOracle=*/true));
    ASSERT_TRUE(Response.OracleChecked);
    EXPECT_EQ(Response.Mispredicted,
              Response.OracleKernelIndex != Response.Selection.KernelIndex);
    EXPECT_GE(Response.RegretMs, 0.0);
    if (!Response.Mispredicted) {
      EXPECT_EQ(Response.RegretMs, 0.0);
    }
    ExpectedMispredictions += Response.Mispredicted ? 1 : 0;
  }
  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.OracleChecks, requestPool().size());
  EXPECT_EQ(Stats.Mispredictions, ExpectedMispredictions);
  EXPECT_EQ(Stats.mispredictRate(),
            static_cast<double>(ExpectedMispredictions) /
                static_cast<double>(requestPool().size()));
}

TEST(SeerServerTest, OracleStashCarriesTheLaunchTime) {
  // A verified execute prepares every kernel to read its timing, and
  // stashes the states it built, unpaid. A later execute whose kernel
  // finds such a stash adopts the state and the launch time simulated
  // with it: its Y and IterationMs must be the one-shot runtime's.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Runtime(tinyModels(), Registry, Sim);
  const Planner &P = Runtime.planner();
  size_t Checked = 0;
  for (const CsrMatrix &M : requestPool()) {
    SeerServer Server(tinyModels());
    const RegisteredMatrix Reg = registerAliased(Server, M);
    const auto Verified = Server.handleRegistered(Reg, options(1, true, true));
    ASSERT_TRUE(Verified) << Verified.status().toString();
    ASSERT_TRUE(Verified->OracleChecked);

    // An iteration count whose kernel has preprocessing state the
    // verified execute did not pay for: only the oracle stash holds it.
    const AnalyzedMatrix A = P.analyze(M);
    for (uint32_t Iterations = 2; Iterations <= 40; ++Iterations) {
      const size_t Kernel = Runtime.select(M, Iterations).KernelIndex;
      if (Kernel == Verified->Selection.KernelIndex ||
          !P.planForKernel(A, Kernel).State)
        continue;
      const uint64_t ReusedBefore = Server.stats().PlansReused;
      const auto Stashed =
          Server.handleRegistered(Reg, options(Iterations, true));
      ASSERT_TRUE(Stashed) << Stashed.status().toString();
      EXPECT_EQ(Server.stats().PlansReused, ReusedBefore + 1);
      EXPECT_FALSE(Stashed->PreprocessAmortized);
      const std::vector<double> Ones(M.numCols(), 1.0);
      const ExecutionReport Report = Runtime.execute(M, Ones, Iterations);
      EXPECT_EQ(Stashed->Selection.KernelIndex, Kernel);
      EXPECT_EQ(Stashed->IterationMs, Report.IterationMs);
      EXPECT_EQ(Stashed->PreprocessMs, Report.PreprocessMs);
      EXPECT_EQ(Stashed->Y, Report.Y);
      ++Checked;
      break;
    }
    Server.releaseMatrix(Reg);
  }
  EXPECT_GT(Checked, 0u) << "no request reached an oracle stash";
}

TEST(SeerServerTest, StatsResetZeroesTelemetryButKeepsCache) {
  SeerServer Server(tinyModels());
  const CsrMatrix &M = requestPool()[0];
  serveOnce(Server, M, options(1));
  Server.resetStats();
  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Requests, 0u);
  EXPECT_EQ(Stats.LatencySamples, 0u);
  EXPECT_EQ(Stats.CachedMatrices, 1u); // the cache survives
  // And the cached analysis is still reused.
  const RegisteredMatrix Again = registerAliased(Server, M);
  EXPECT_TRUE(Again.AnalysisReused);
  Server.releaseMatrix(Again);
}

//===----------------------------------------------------------------------===//
// The Planner pipeline (core/ExecutionPlan.h)
//===----------------------------------------------------------------------===//

TEST(PlannerTest, StagesComposeToOneShotAnswers) {
  // The one pipeline every adapter drives: its explicit stages
  // (analyze/route/collect/select/prepare/run) must compose to exactly
  // what the one-shot SeerRuntime answers — same kernel, same route,
  // same charges, same product bits.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Runtime(tinyModels(), Registry, Sim);
  const Planner &P = Runtime.planner();
  for (const CsrMatrix &M : requestPool())
    for (const uint32_t Iterations : {1u, 5u, 19u}) {
      const SelectionResult Direct = Runtime.select(M, Iterations);
      const AnalyzedMatrix A = P.analyze(M, /*WithFingerprint=*/true);
      EXPECT_EQ(A.Fingerprint, matrixFingerprint(M));

      // route() is the selection's first stage.
      const RouteDecision Route = P.route(A.Stats.Known, Iterations);
      EXPECT_EQ(Route.UseGathered, Direct.UsedGatheredModel);

      // plan() fuses route+collect+select, bit-identical to the lazy
      // one-shot path.
      ExecutionPlan Plan =
          P.plan(A, Iterations, CollectionCharging::Charged);
      EXPECT_EQ(Plan.Iterations, Iterations);
      EXPECT_EQ(Plan.Selection.KernelIndex, Direct.KernelIndex);
      EXPECT_EQ(Plan.Selection.UsedGatheredModel, Direct.UsedGatheredModel);
      EXPECT_EQ(Plan.Selection.FeatureCollectionMs,
                Direct.FeatureCollectionMs);
      EXPECT_EQ(Plan.Selection.InferenceMs, Direct.InferenceMs);
      EXPECT_EQ(Plan.ModeledCollectionMs,
                Direct.UsedGatheredModel ? Direct.FeatureCollectionMs : 0.0);

      // Precollected charging zeroes the charge, never the decision or
      // the modeled cost.
      const ExecutionPlan Cached =
          P.plan(A, Iterations, CollectionCharging::Precollected);
      EXPECT_EQ(Cached.Selection.KernelIndex, Direct.KernelIndex);
      EXPECT_EQ(Cached.Selection.UsedGatheredModel,
                Direct.UsedGatheredModel);
      EXPECT_EQ(Cached.Selection.FeatureCollectionMs, 0.0);
      EXPECT_EQ(Cached.ModeledCollectionMs, Plan.ModeledCollectionMs);

      // prepare + run compose to the one-shot execute().
      const std::vector<double> X(M.numCols(), 1.0);
      const ExecutionReport Report = Runtime.execute(M, X, Iterations);
      P.prepare(Plan, A);
      const SpmvRun Run = P.run(Plan, A, X);
      EXPECT_EQ(Plan.PreprocessMs, Report.PreprocessMs);
      EXPECT_EQ(Plan.ModeledPreprocessMs, Report.PreprocessMs);
      EXPECT_FALSE(Plan.PreprocessAmortized);
      EXPECT_EQ(Run.Timing.TotalMs, Report.IterationMs);
      EXPECT_EQ(Run.Y, Report.Y);
    }
}

TEST(PlannerTest, PreparedPlanReuseChargesPerPayment) {
  // exportPrepared/reusePrepared are the serving layer's plan cache in
  // miniature: an exported fragment is Paid, reusing it amortized
  // charges zero; an unpaid stash is reusable but still owes the
  // one-time cost.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Runtime(tinyModels(), Registry, Sim);
  const Planner &P = Runtime.planner();
  const CsrMatrix &M = requestPool()[1]; // power-law: needs preprocessing
  const AnalyzedMatrix A = P.analyze(M);

  ExecutionPlan Fresh = P.plan(A, 19, CollectionCharging::Charged);
  P.prepare(Fresh, A);
  const PreparedKernel Fragment = P.exportPrepared(Fresh);
  EXPECT_TRUE(Fragment.Paid);
  EXPECT_EQ(Fragment.PreprocessMs, Fresh.PreprocessMs);
  EXPECT_EQ(Fragment.State, Fresh.State);

  // The fragment carries the launch time the fresh plan simulated.
  const std::vector<double> X(M.numCols(), 1.0);
  const SpmvRun FreshRun = P.run(Fresh, A, X);
  EXPECT_EQ(FreshRun.Timing.TotalMs,
            Registry.kernel(Fresh.kernelIndex())
                .timing(M, A.Stats, Fresh.State.get(), Sim)
                .TotalMs);
  EXPECT_EQ(Fragment.IterationMs, FreshRun.Timing.TotalMs);

  // Amortized reuse: zero charge, shared state, identical product and
  // launch time.
  ExecutionPlan Reused = P.plan(A, 19, CollectionCharging::Precollected);
  P.reusePrepared(Reused, Fragment, /*AlreadyPaid=*/true);
  EXPECT_TRUE(Reused.PreprocessAmortized);
  EXPECT_EQ(Reused.PreprocessMs, 0.0);
  EXPECT_EQ(Reused.ModeledPreprocessMs, Fresh.PreprocessMs);
  const SpmvRun ReusedRun = P.run(Reused, A, X);
  EXPECT_EQ(ReusedRun.Y, FreshRun.Y);
  EXPECT_EQ(ReusedRun.Timing.TotalMs, FreshRun.Timing.TotalMs);

  // Unpaid stash: the state is reused, the charge is not waived, and the
  // launch time travels with it.
  PreparedKernel Stash = Fragment;
  Stash.Paid = false;
  ExecutionPlan Charged = P.plan(A, 19, CollectionCharging::Precollected);
  P.reusePrepared(Charged, Stash, /*AlreadyPaid=*/false);
  EXPECT_FALSE(Charged.PreprocessAmortized);
  EXPECT_EQ(Charged.PreprocessMs, Fresh.PreprocessMs);
  const SpmvRun ChargedRun = P.run(Charged, A, X);
  EXPECT_EQ(ChargedRun.Y, FreshRun.Y);
  EXPECT_EQ(ChargedRun.Timing.TotalMs, FreshRun.Timing.TotalMs);
}

TEST(PlannerTest, RouteFlipsWithIterationCount) {
  // Sec. IV-E: collection cost amortizes over iterations, so the
  // classifier-selector's routing depends on the iteration count. Scan
  // it: the per-iteration route must always agree with the full
  // selection flow, and somewhere in the pool the route actually flips.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Runtime(tinyModels(), Registry, Sim);
  const Planner &P = Runtime.planner();
  // The pool plus larger/denser probes: the boundary region sits at
  // higher row/nnz scales than the small request pool covers.
  std::vector<CsrMatrix> Scan = requestPool();
  Scan.push_back(genUniformRandom(4096, 4096, 12.0, 0.5, 29));
  Scan.push_back(genPowerLaw(4096, 4096, 1.8, 1, 512, 31));
  Scan.push_back(genBanded(8192, 6, 0.9, 37));
  size_t Flips = 0;
  for (const CsrMatrix &M : Scan) {
    const AnalyzedMatrix A = P.analyze(M);
    bool Previous = P.route(A.Stats.Known, 1).UseGathered;
    EXPECT_EQ(P.select(M, 1).UsedGatheredModel, Previous);
    for (uint32_t Iterations = 2; Iterations <= 64; ++Iterations) {
      const bool Gathered = P.route(A.Stats.Known, Iterations).UseGathered;
      if (Gathered != Previous) {
        ++Flips;
        // Both sides of the boundary agree with the full pipeline (and
        // with the fused-analysis overload).
        EXPECT_EQ(P.select(M, Iterations - 1).UsedGatheredModel, Previous);
        EXPECT_EQ(P.select(M, Iterations).UsedGatheredModel, Gathered);
        EXPECT_EQ(P.plan(A, Iterations, CollectionCharging::Charged)
                      .Selection.UsedGatheredModel,
                  Gathered);
      }
      Previous = Gathered;
    }
  }
  EXPECT_GT(Flips, 0u)
      << "no known-vs-gathered routing boundary in 1..64 iterations";
}

//===----------------------------------------------------------------------===//
// Batched execution
//===----------------------------------------------------------------------===//

TEST(SeerServerTest, BatchExecutionBitIdenticalToSingleRequests) {
  const CsrMatrix &M = requestPool()[1];
  const auto Operands = buildBatchOperands(6, M.numCols());

  // Reference: the same operands as one self-contained request each.
  SeerServer Single(tinyModels());
  const RegisteredMatrix RegSingle = registerAliased(Single, M);
  std::vector<ServeResponse> Singles;
  for (const std::vector<double> &X : Operands) {
    ServeOptions Options;
    Options.Iterations = 5;
    Options.Execute = true;
    Options.Operand = &X;
    Singles.push_back(*Single.handleRegistered(RegSingle, Options));
  }
  Single.releaseMatrix(RegSingle);

  // One plan, one batch.
  SeerServer Batched(tinyModels());
  const RegisteredMatrix Reg = registerAliased(Batched, M);
  const BatchResponse B = *Batched.executeBatchRegistered(Reg, 5, Operands);

  ASSERT_EQ(B.operands(), Operands.size());
  EXPECT_EQ(B.Selection.KernelIndex, Singles[0].Selection.KernelIndex);
  EXPECT_EQ(B.Selection.UsedGatheredModel,
            Singles[0].Selection.UsedGatheredModel);
  EXPECT_EQ(B.Fingerprint, Singles[0].Fingerprint);
  EXPECT_EQ(B.PreprocessMs, Singles[0].PreprocessMs);
  EXPECT_EQ(B.IterationMs, Singles[0].IterationMs);
  for (size_t K = 0; K < Operands.size(); ++K)
    EXPECT_EQ(B.Y[K], Singles[K].Y) << "operand " << K;

  // The batched-charge rule makes the batch strictly cheaper than the
  // request-per-operand stream: selection overhead is charged once
  // instead of N times (preprocessing amortizes on both paths).
  double SingleTotalMs = 0.0;
  for (const ServeResponse &R : Singles)
    SingleTotalMs += R.totalMs();
  EXPECT_LT(B.totalMs(), SingleTotalMs);
  // The batched-charge rule, exactly: overhead and preprocessing once per
  // plan, iterations per operand.
  EXPECT_EQ(B.totalMs(), B.Selection.overheadMs() + B.PreprocessMs +
                             6.0 * 5 * B.IterationMs);

  // Telemetry: one request, one route, one preprocessing charge, one
  // plan — N operand executions.
  const ServerStats Stats = Batched.stats();
  EXPECT_EQ(Stats.Requests, 1u);
  EXPECT_EQ(Stats.CacheHits, 1u);
  EXPECT_EQ(Stats.Executions, Operands.size());
  EXPECT_EQ(Stats.PaidPreprocesses, 1u);
  EXPECT_EQ(Stats.AmortizedPreprocesses, 0u);
  EXPECT_EQ(Stats.PlansBuilt, 1u);
  EXPECT_EQ(Stats.PlansReused, 0u);
  EXPECT_EQ(Stats.BatchRequests, 1u);
  EXPECT_EQ(Stats.BatchedOperands, Operands.size());

  // The same plan served a second time is reused and amortized,
  // bit-identically.
  const BatchResponse Again = *Batched.executeBatchRegistered(Reg, 5, Operands);
  EXPECT_TRUE(Again.PreprocessAmortized);
  EXPECT_EQ(Again.PreprocessMs, 0.0);
  EXPECT_EQ(Again.Y, B.Y);
  EXPECT_EQ(Batched.stats().PlansReused, 1u);
  EXPECT_EQ(Batched.stats().PlansBuilt, 1u);
  Batched.releaseMatrix(Reg);

  // A batch of one is a single execute: on a fresh server it pays what
  // the first single request paid and returns the same product.
  SeerServer One(tinyModels());
  const RegisteredMatrix RegOne = registerAliased(One, M);
  const std::vector<std::vector<double>> First = {Operands[0]};
  const BatchResponse OneBatch = *One.executeBatchRegistered(RegOne, 5, First);
  expectSameSharedFields(OneBatch, Singles[0]);
  ASSERT_EQ(OneBatch.operands(), 1u);
  EXPECT_EQ(OneBatch.Y[0], Singles[0].Y);
  EXPECT_EQ(OneBatch.totalMs(), Singles[0].totalMs());

  // So is a degraded one: with every selection failing terminally, both
  // fall back to the baseline kernel with the same charges and product.
  struct DisarmGuard {
    ~DisarmGuard() { FaultInjector::instance().disarm(); }
  } Guard;
  const auto Plan = FaultPlan::parse("plan.select every=1 status=INTERNAL\n");
  ASSERT_TRUE(Plan) << Plan.status().toString();
  ASSERT_TRUE(FaultInjector::instance().arm(*Plan).ok());
  ServeOptions Exec = options(5, true);
  Exec.Operand = &Operands[0];
  const ServeResponse DegradedSingle = *One.handleRegistered(RegOne, Exec);
  const BatchResponse DegradedBatch =
      *One.executeBatchRegistered(RegOne, 5, First);
  EXPECT_TRUE(DegradedSingle.Degraded);
  expectSameSharedFields(DegradedBatch, DegradedSingle);
  ASSERT_EQ(DegradedBatch.operands(), 1u);
  EXPECT_EQ(DegradedBatch.Y[0], DegradedSingle.Y);
  EXPECT_EQ(DegradedBatch.totalMs(), DegradedSingle.totalMs());
  One.releaseMatrix(RegOne);
}

//===----------------------------------------------------------------------===//
// Byte-budgeted eviction
//===----------------------------------------------------------------------===//

TEST(CacheBudgetTest, ZeroBudgetIsUnboundedButAccounted) {
  SeerServer Server(tinyModels());
  for (const CsrMatrix &M : requestPool())
    serveOnce(Server, M, options(1));
  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.CacheBudgetBytes, 0u);
  EXPECT_EQ(Stats.Evictions, 0u);
  EXPECT_EQ(Stats.Reanalyses, 0u);
  EXPECT_EQ(Stats.CachedMatrices, requestPool().size());
  // Accounting runs even without a budget, so an operator can size one.
  EXPECT_GT(Stats.BytesCached, 0u);
}

TEST(CacheBudgetTest, ChurnStaysWithinBudgetAndBitIdentical) {
  const std::vector<CsrMatrix> &Pool = requestPool();
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  std::vector<SelectionResult> Direct;
  std::vector<std::vector<double>> DirectY;
  for (const CsrMatrix &M : Pool) {
    Direct.push_back(Reference.select(M, 5));
    DirectY.push_back(
        Reference.execute(M, std::vector<double>(M.numCols(), 1.0), 5).Y);
  }

  // Select-only, then executed with oracle verification.
  for (const bool Execute : {false, true}) {
    // Size the budget from the lean working set, what the pool's entries
    // hold without oracle sweeps (all of a select-only entry): a third of
    // it, so the six-matrix pool churns hard through the bounded server
    // even once every recomputable byte is shed. A live entry over its
    // shard's slice sheds its oracle bytes at once, so its lean bytes
    // bound what its registration can pin.
    uint64_t WorkingSet = 0;
    std::vector<uint64_t> LeanBytes;
    {
      SeerServer Unbounded(tinyModels());
      for (const CsrMatrix &M : Pool) {
        serveOnce(Unbounded, M, options(5, Execute));
        LeanBytes.push_back(Unbounded.stats().BytesCached - WorkingSet);
        WorkingSet = Unbounded.stats().BytesCached;
      }
    }

    ServerConfig Config;
    Config.CacheShards = 2;
    Config.CacheBudgetBytes = static_cast<size_t>(WorkingSet / 3);
    SeerServer Server(tinyModels(), Config);
    for (int Pass = 0; Pass < 3; ++Pass)
      for (size_t I = 0; I < Pool.size(); ++I) {
        ServerStats Live;
        const ServeResponse Response = serveOnce(
            Server, Pool[I], options(5, Execute, /*VerifyOracle=*/Execute),
            &Live);
        // Evicted-then-revisited matrices re-analyze deterministically:
        // the kernel choice and the product never change.
        EXPECT_EQ(Response.Selection.KernelIndex, Direct[I].KernelIndex);
        EXPECT_EQ(Response.Selection.UsedGatheredModel,
                  Direct[I].UsedGatheredModel);
        if (Execute) {
          EXPECT_EQ(Response.Y, DirectY[I]);
        }
        // Insertion polices the budget at once: while the registration is
        // live only its own entry may overflow its shard's slice...
        EXPECT_LE(Live.BytesCached,
                  Config.CacheBudgetBytes +
                      pinnedOvershoot(Config, LeanBytes[I]));
        // ...and once released the budget holds exactly.
        EXPECT_LE(Server.stats().BytesCached, Config.CacheBudgetBytes);
      }

    const ServerStats Stats = Server.stats();
    EXPECT_EQ(Stats.CacheBudgetBytes, Config.CacheBudgetBytes);
    EXPECT_GT(Stats.Evictions, 0u);
    EXPECT_GT(Stats.BytesEvicted, 0u);
    EXPECT_GT(Stats.Reanalyses, 0u);
    EXPECT_LE(Stats.CachedMatrices, Pool.size());
  }
}

TEST(CacheBudgetTest, EvictionRechargesPreprocessingPerResidency) {
  const CsrMatrix &A = requestPool()[1]; // power-law: needs preprocessing
  const CsrMatrix &B = requestPool()[4];

  // Measure the executed entries so the budget can hold exactly one.
  const ServeOptions Exec = options(19, true);
  uint64_t OneEntryBytes = 0, BEntryBytes = 0;
  {
    SeerServer Unbounded(tinyModels());
    serveOnce(Unbounded, A, Exec);
    OneEntryBytes = Unbounded.stats().BytesCached;
    serveOnce(Unbounded, B, Exec);
    BEntryBytes = Unbounded.stats().BytesCached - OneEntryBytes;
  }

  ServerConfig Config;
  Config.CacheShards = 1;
  // Exactly one executed entry fits; admitting B must evict A no matter
  // how their sizes compare.
  Config.CacheBudgetBytes = static_cast<size_t>(OneEntryBytes);
  SeerServer Server(tinyModels(), Config);

  const ServeResponse First = serveOnce(Server, A, Exec);
  EXPECT_FALSE(First.PreprocessAmortized);

  // B's executed entry pushes the shard over budget; A is the LRU victim,
  // evicted while B's registration is still live.
  ServerStats Live;
  serveOnce(Server, B, Exec, &Live);
  EXPECT_LE(Live.BytesCached,
            Config.CacheBudgetBytes + pinnedOvershoot(Config, BEntryBytes));
  EXPECT_LE(Server.stats().BytesCached, Config.CacheBudgetBytes);

  // A's return is a new residency: re-analyzed, re-charged, bit-identical.
  const RegisteredMatrix Back = registerAliased(Server, A);
  EXPECT_FALSE(Back.AnalysisReused);
  const ServeResponse Second = *Server.handleRegistered(Back, Exec);
  Server.releaseMatrix(Back);
  EXPECT_FALSE(Second.PreprocessAmortized);
  EXPECT_EQ(Second.Selection.KernelIndex, First.Selection.KernelIndex);
  EXPECT_EQ(Second.PreprocessMs, First.PreprocessMs);
  EXPECT_EQ(Second.IterationMs, First.IterationMs);
  EXPECT_EQ(Second.Y, First.Y);

  const ServerStats Stats = Server.stats();
  EXPECT_GE(Stats.Evictions, 1u);
  EXPECT_GE(Stats.Reanalyses, 1u);
  EXPECT_EQ(Stats.PaidPreprocesses, 3u); // A, B, then A's second residency
}

TEST(CacheBudgetTest, PlanReuseAcrossEvictionRebuildsBitIdentically) {
  // The plan cache obeys charge-once-per-residency: within a residency a
  // batch's plan is reused (amortized); after eviction the next
  // registration re-analyzes and the plan is rebuilt — charged afresh,
  // bit-identical output.
  const CsrMatrix &A = requestPool()[1]; // power-law: needs preprocessing
  const CsrMatrix &B = requestPool()[4];
  const auto Operands = buildBatchOperands(4, A.numCols());

  uint64_t OneEntryBytes = 0;
  {
    SeerServer Unbounded(tinyModels());
    serveOnce(Unbounded, A, options(19, true));
    OneEntryBytes = Unbounded.stats().BytesCached;
  }

  ServerConfig Config;
  Config.CacheShards = 1;
  Config.CacheBudgetBytes = static_cast<size_t>(OneEntryBytes);
  SeerServer Server(tinyModels(), Config);

  const RegisteredMatrix First = registerAliased(Server, A);
  const BatchResponse Built = *Server.executeBatchRegistered(First, 19,
                                                             Operands);
  EXPECT_FALSE(Built.PreprocessAmortized);
  const BatchResponse Reused = *Server.executeBatchRegistered(First, 19,
                                                              Operands);
  EXPECT_TRUE(Reused.PreprocessAmortized);
  EXPECT_EQ(Reused.Y, Built.Y);
  Server.releaseMatrix(First);

  // B's executed entry overflows the one-entry budget; A (no longer
  // pinned) is the victim.
  serveOnce(Server, B, options(19, true));

  // A's return is a new residency: deterministic re-analysis, plan
  // rebuilt and re-charged, identical bits.
  const RegisteredMatrix Second = registerAliased(Server, A);
  EXPECT_FALSE(Second.AnalysisReused);
  const BatchResponse Rebuilt = *Server.executeBatchRegistered(Second, 19,
                                                               Operands);
  EXPECT_FALSE(Rebuilt.PreprocessAmortized);
  EXPECT_EQ(Rebuilt.PreprocessMs, Built.PreprocessMs);
  EXPECT_EQ(Rebuilt.Selection.KernelIndex, Built.Selection.KernelIndex);
  EXPECT_EQ(Rebuilt.IterationMs, Built.IterationMs);
  EXPECT_EQ(Rebuilt.Y, Built.Y);
  Server.releaseMatrix(Second);

  const ServerStats Stats = Server.stats();
  EXPECT_GE(Stats.Evictions, 1u);
  EXPECT_GE(Stats.Reanalyses, 1u);
  EXPECT_EQ(Stats.PlansBuilt, 3u);  // A's first batch, B, A rebuilt
  EXPECT_EQ(Stats.PlansReused, 1u); // A's second batch
  EXPECT_EQ(Stats.BatchRequests, 3u);
  EXPECT_EQ(Stats.BatchedOperands, 3 * Operands.size());
}

TEST(CacheBudgetTest, OracleShedsBeforeWholeEntries) {
  const CsrMatrix &A = requestPool()[1];

  // Full = entry bytes with the oracle sweep and its stashed states
  // resident; a budget one byte below forces a shed, which must free the
  // recomputable bytes while keeping the entry (and its paid state).
  const ServeOptions Verified = options(5, true, /*VerifyOracle=*/true);
  uint64_t FullBytes = 0;
  {
    SeerServer Unbounded(tinyModels());
    serveOnce(Unbounded, A, Verified);
    FullBytes = Unbounded.stats().BytesCached;
  }

  ServerConfig Config;
  Config.CacheShards = 1;
  Config.CacheBudgetBytes = static_cast<size_t>(FullBytes - 1);
  SeerServer Server(tinyModels(), Config);
  ServerStats Live;
  const ServeResponse First = serveOnce(Server, A, Verified, &Live);
  // Shedding does not wait for the release: the live entry's own
  // recomputable bytes go as soon as they overflow the budget.
  EXPECT_LE(Live.BytesCached, Config.CacheBudgetBytes);

  ServerStats Stats = Server.stats();
  EXPECT_LE(Stats.BytesCached, Config.CacheBudgetBytes);
  EXPECT_GE(Stats.PartialEvictions, 1u);
  EXPECT_EQ(Stats.Evictions, 0u);
  EXPECT_EQ(Stats.CachedMatrices, 1u);

  // The entry survived: its analysis is reused, the selection is
  // identical, and the next verify recomputes the (deterministic) oracle
  // to the same verdict.
  const RegisteredMatrix Again = registerAliased(Server, A);
  EXPECT_TRUE(Again.AnalysisReused);
  const ServeResponse Second = *Server.handleRegistered(Again, Verified);
  Server.releaseMatrix(Again);
  EXPECT_EQ(Second.Selection.KernelIndex, First.Selection.KernelIndex);
  EXPECT_TRUE(Second.OracleChecked);
  EXPECT_EQ(Second.OracleKernelIndex, First.OracleKernelIndex);
  EXPECT_EQ(Second.Mispredicted, First.Mispredicted);
  EXPECT_EQ(Second.RegretMs, First.RegretMs);
  EXPECT_EQ(Second.Y, First.Y);
}

TEST(CacheBudgetTest, ConcurrentChurnRespectsBudgetAndStaysBitIdentical) {
  const std::vector<CsrMatrix> &Pool = requestPool();
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  const uint32_t IterationPattern[3] = {1, 5, 19};
  std::vector<std::vector<SelectionResult>> Direct(Pool.size());
  std::vector<std::vector<std::vector<double>>> DirectY(Pool.size());
  for (size_t M = 0; M < Pool.size(); ++M)
    for (uint32_t I : IterationPattern) {
      Direct[M].push_back(Reference.select(Pool[M], I));
      const std::vector<double> Ones(Pool[M].numCols(), 1.0);
      DirectY[M].push_back(Reference.execute(Pool[M], Ones, I).Y);
    }

  // Select-only, then executed with oracle verification.
  for (const bool Execute : {false, true}) {
    // The largest entry any request leaves bounds what one live
    // registration can pin.
    uint64_t WorkingSet = 0, MaxEntryBytes = 0;
    {
      SeerServer Unbounded(tinyModels());
      for (const CsrMatrix &M : Pool) {
        for (uint32_t I : IterationPattern)
          serveOnce(Unbounded, M, options(I, Execute, Execute));
        const uint64_t Bytes = Unbounded.stats().BytesCached;
        MaxEntryBytes = std::max(MaxEntryBytes, Bytes - WorkingSet);
        WorkingSet = Bytes;
      }
    }

    ServerConfig Config;
    Config.CacheShards = 2;
    Config.CacheBudgetBytes = static_cast<size_t>(WorkingSet / 3);
    SeerServer Server(tinyModels(), Config);
    constexpr size_t NumClients = 8;
    constexpr size_t RequestsPerClient = 40;
    std::vector<std::string> Failures(NumClients);
    std::vector<std::thread> Clients;
    for (size_t C = 0; C < NumClients; ++C)
      Clients.emplace_back([&, C] {
        for (size_t R = 0; R < RequestsPerClient; ++R) {
          const size_t MatrixIndex = (C + R) % Pool.size();
          const size_t IterIndex = R % 3;
          ServerStats Live;
          const ServeResponse Response = serveOnce(
              Server, Pool[MatrixIndex],
              options(IterationPattern[IterIndex], Execute, Execute), &Live);
          const SelectionResult &Expected = Direct[MatrixIndex][IterIndex];
          if (Response.Selection.KernelIndex != Expected.KernelIndex ||
              Response.Selection.UsedGatheredModel !=
                  Expected.UsedGatheredModel ||
              (Execute && Response.Y != DirectY[MatrixIndex][IterIndex]))
            Failures[C] = "client " + std::to_string(C) + " request " +
                          std::to_string(R) + " diverged under churn";
          // Every shard over its slice holds only pinned entries, and the
          // snapshot reads each shard's bytes and pin count together, so
          // only the pinned entries may stand over the budget.
          if (Live.BytesCached >
              Config.CacheBudgetBytes + Live.PinnedMatrices * MaxEntryBytes)
            Failures[C] = "client " + std::to_string(C) + " request " +
                          std::to_string(R) +
                          " saw unpinned bytes over the budget";
        }
      });
    for (std::thread &T : Clients)
      T.join();
    for (const std::string &Failure : Failures)
      EXPECT_TRUE(Failure.empty()) << Failure;

    // Once every registration is released, the budget holds exactly.
    const ServerStats Stats = Server.stats();
    EXPECT_EQ(Stats.Requests, NumClients * RequestsPerClient);
    EXPECT_EQ(Stats.PinnedMatrices, 0u);
    EXPECT_LE(Stats.BytesCached, Config.CacheBudgetBytes);
    EXPECT_GT(Stats.Evictions, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Trace protocol
//===----------------------------------------------------------------------===//

TEST(RequestTraceTest, ParsesCommandsAndRejectsGarbage) {
  TraceCommand Command;
  EXPECT_TRUE(parseTraceLine("", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Blank);
  EXPECT_TRUE(parseTraceLine("  # just a comment", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Blank);

  ASSERT_TRUE(parseTraceLine("gen web banded 1000 8 0.9 42", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Gen);
  EXPECT_EQ(Command.Name, "web");
  EXPECT_EQ(Command.GenFamily, "banded");
  EXPECT_EQ(Command.GenArgs.size(), 4u);

  ASSERT_TRUE(parseTraceLine("select web 19", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Select);
  EXPECT_EQ(Command.Iterations, 19u);
  EXPECT_FALSE(Command.Verify);

  ASSERT_TRUE(parseTraceLine("execute web 5 verify", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Execute);
  EXPECT_TRUE(Command.Verify);

  EXPECT_FALSE(parseTraceLine("select", Command).ok());
  EXPECT_FALSE(parseTraceLine("select web 0", Command).ok());
  EXPECT_FALSE(parseTraceLine("select web 5 verify", Command).ok());
  EXPECT_FALSE(parseTraceLine("frobnicate web", Command).ok());
  EXPECT_FALSE(parseTraceLine("gen web banded ten 8 0.9 42", Command).ok());
}

TEST(RequestTraceTest, ParsesBatchCommands) {
  TraceCommand Command;
  ASSERT_TRUE(parseTraceLine("batch web 32", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Batch);
  EXPECT_EQ(Command.Name, "web");
  EXPECT_EQ(Command.BatchCount, 32u);
  EXPECT_EQ(Command.Iterations, 1u);

  ASSERT_TRUE(parseTraceLine("batch web 8 19", Command).ok());
  EXPECT_EQ(Command.BatchCount, 8u);
  EXPECT_EQ(Command.Iterations, 19u);

  // Malformed counts and arities are typed errors.
  EXPECT_FALSE(parseTraceLine("batch web", Command).ok());
  EXPECT_FALSE(parseTraceLine("batch web 0", Command).ok());
  EXPECT_FALSE(parseTraceLine("batch web 5000", Command).ok());
  // The cap itself parses; one operand past it does not.
  ASSERT_TRUE(parseTraceLine("batch web 4096", Command).ok());
  EXPECT_EQ(Command.BatchCount, MaxBatchOperands);
  EXPECT_FALSE(parseTraceLine("batch web 4097", Command).ok());
  EXPECT_FALSE(parseTraceLine("batch web many", Command).ok());
  EXPECT_FALSE(parseTraceLine("batch web 4 5 verify", Command).ok());

  // In a trace it parses into a Batch op with its operand count.
  const auto Script = parseTrace("gen a banded 256 4 0.9 1\n"
                                 "batch a 4 5\n");
  ASSERT_TRUE(Script) << Script.status().toString();
  ASSERT_EQ(Script->Ops.size(), 1u);
  EXPECT_EQ(Script->Ops[0].Command, TraceCommand::Kind::Batch);
  EXPECT_EQ(Script->Ops[0].BatchCount, 4u);
  EXPECT_EQ(Script->Ops[0].Iterations, 5u);
}

TEST(RequestTraceTest, BatchOperandsAreDeterministic) {
  const auto A = buildBatchOperands(3, 64);
  const auto B = buildBatchOperands(3, 64);
  ASSERT_EQ(A.size(), 3u);
  EXPECT_EQ(A, B); // bit-identical replays
  EXPECT_EQ(A[0].size(), 64u);
  EXPECT_NE(A[0], A[1]); // distinct operands per index
  for (const auto &Operand : A)
    for (double V : Operand) {
      EXPECT_GE(V, -1.0);
      EXPECT_LT(V, 1.0);
    }
}

TEST(RequestTraceTest, ParsesWholeTraceAndServesIt) {
  const std::string Text = "# two matrices, three requests\n"
                           "gen a banded 512 4 0.9 1\n"
                           "gen b powerlaw 512 1.8 1 64 2\n"
                           "select a 1\n"
                           "execute b 19\n"
                           "select a 5\n";
  const auto Script = parseTrace(Text);
  ASSERT_TRUE(Script) << Script.status().toString();
  EXPECT_EQ(Script->Matrices.size(), 2u);
  ASSERT_EQ(Script->Ops.size(), 3u);
  EXPECT_EQ(Script->Ops[0].Name, "a");
  EXPECT_EQ(Script->Ops[0].Command, TraceCommand::Kind::Select);
  EXPECT_EQ(Script->Ops[1].Command, TraceCommand::Kind::Execute);
  EXPECT_EQ(Script->Ops[1].Iterations, 19u);

  SeerServer Server(tinyModels());
  std::vector<RegisteredMatrix> Registered;
  for (const auto &Named : Script->Matrices)
    Registered.push_back(registerAliased(Server, Named.second));
  for (const TraceCommand &Op : Script->Ops) {
    const size_t Index = Op.Name == "a" ? 0 : 1;
    ASSERT_EQ(Script->Matrices[Index].first, Op.Name);
    const auto Response = Server.handleRegistered(
        Registered[Index],
        options(Op.Iterations, Op.Command == TraceCommand::Kind::Execute));
    ASSERT_TRUE(Response) << Response.status().toString();
    const std::string Line =
        formatResponseLine(Op.Name, *Response, Server.registry());
    EXPECT_NE(Line.find("kernel="), std::string::npos);
  }
  for (const RegisteredMatrix &Reg : Registered)
    Server.releaseMatrix(Reg);
  EXPECT_EQ(Server.stats().Requests, 3u);
}

TEST(RequestTraceTest, ParsesV2HeaderAndHandleCommands) {
  const std::string Body = "gen web powerlaw 2048 1.8 1 256 11\n"
                           "gen road banded 4096 4 0.95 7\n"
                           "select web 1\n"
                           "close web\n"
                           "select web 1\n"
                           "open web\n"
                           "execute road 19 verify\n"
                           "batch web 8 5\n";
  const auto Script = parseTrace("seer-trace v2\n" + Body);
  ASSERT_TRUE(Script) << Script.status().toString();
  ASSERT_EQ(Script->Ops.size(), 6u);
  EXPECT_EQ(Script->Ops[1].Command, TraceCommand::Kind::Close);
  EXPECT_EQ(Script->Ops[3].Command, TraceCommand::Kind::Open);

  // The header is a no-op: without it the trace parses to the same
  // script, matrix for matrix and op for op, and both replay to the same
  // lines...
  const auto Headerless = parseTrace(Body);
  ASSERT_TRUE(Headerless) << Headerless.status().toString();
  ASSERT_EQ(Headerless->Matrices.size(), Script->Matrices.size());
  for (size_t I = 0; I < Script->Matrices.size(); ++I) {
    EXPECT_EQ(Headerless->Matrices[I].first, Script->Matrices[I].first);
    EXPECT_EQ(matrixFingerprint(Headerless->Matrices[I].second),
              matrixFingerprint(Script->Matrices[I].second));
  }
  ASSERT_EQ(Headerless->Ops.size(), Script->Ops.size());
  for (size_t I = 0; I < Script->Ops.size(); ++I) {
    const TraceCommand &A = Headerless->Ops[I];
    const TraceCommand &B = Script->Ops[I];
    EXPECT_EQ(A.Command, B.Command) << "op " << I;
    EXPECT_EQ(A.Name, B.Name) << "op " << I;
    EXPECT_EQ(A.Iterations, B.Iterations) << "op " << I;
    EXPECT_EQ(A.Verify, B.Verify) << "op " << I;
    EXPECT_EQ(A.BatchCount, B.BatchCount) << "op " << I;
  }
  const auto Replay = [](const TraceScript &S) {
    SeerService Service(tinyModels());
    SpanSink Spans;
    ServiceTraceBackend Backend(Service, Spans);
    std::string Out;
    // The one error: the select on the closed name.
    EXPECT_EQ(replayTrace(S, Backend, 1,
                          [&Out](const std::string &Lines) { Out += Lines; }),
              1u);
    return Out;
  };
  const std::string Lines = Replay(*Script);
  EXPECT_EQ(Replay(*Headerless), Lines);
  EXPECT_NE(Lines.find("\nerror FAILED_PRECONDITION matrix 'web' is closed "
                       "(open it first)\n"),
            std::string::npos)
      << Lines;
  EXPECT_NE(Lines.find("\nweb kernel="), std::string::npos) << Lines;
  // ...but when present it must come first.
  EXPECT_FALSE(parseTrace("gen a banded 256 4 0.9 1\nseer-trace v2\n"));
  // Unknown versions are rejected.
  EXPECT_FALSE(parseTrace("seer-trace v3\n"));
}

TEST(RequestTraceTest, ErrorLinesCarryStatusCodes) {
  const std::string Line =
      formatErrorLine(Status::notFound("no handle for 'web'"));
  EXPECT_EQ(Line, "error NOT_FOUND no handle for 'web'");
  EXPECT_EQ(formatErrorLine(Status::resourceExhausted("queue full")),
            "error RESOURCE_EXHAUSTED queue full");
}

TEST(RequestTraceTest, StatLinesCoverEveryRegistryMetric) {
  SeerService Service(tinyModels());
  const auto Handle = Service.registerMatrix(requestPool()[1]);
  ASSERT_TRUE(Handle) << Handle.status().toString();
  ASSERT_TRUE(Service.execute(*Handle, 5, /*VerifyOracle=*/true));
  ASSERT_TRUE(Service.release(*Handle).ok());
  // Leading newline: every needle below is matched at a line start.
  const std::string Stats = "\n" + Service.metricsStatLines();

  // The exposition lists every registered metric with its kind; each
  // counter and gauge has exactly one stat line named by the rule (no
  // `seer_` prefix, no `_total` suffix), each histogram four.
  std::istringstream Exposition(Service.metricsPrometheus());
  std::string Line;
  size_t ExpectedLines = 0;
  while (std::getline(Exposition, Line)) {
    if (Line.rfind("# TYPE seer_", 0) != 0)
      continue;
    std::istringstream Fields(Line.substr(std::strlen("# TYPE seer_")));
    std::string Name, Kind;
    Fields >> Name >> Kind;
    if (Kind == "counter")
      Name.erase(Name.size() - std::strlen("_total"));
    const std::vector<std::string> Suffixes =
        Kind == "histogram"
            ? std::vector<std::string>{"_count", "_mean", "_p50", "_p99"}
            : std::vector<std::string>{""};
    for (const std::string &Suffix : Suffixes) {
      EXPECT_NE(Stats.find("\nstat " + Name + Suffix + " "),
                std::string::npos)
          << Kind << " " << Name << Suffix;
      ++ExpectedLines;
    }
  }
  EXPECT_GT(ExpectedLines, 40u);
  EXPECT_EQ(static_cast<size_t>(
                std::count(Stats.begin(), Stats.end(), '\n')) - 1,
            ExpectedLines);

  // Values are the registry's: integers print exactly, and the names the
  // tools parse (seer-netclient --strict, the serving bench) are stable.
  const ServerStats Snapshot = Service.stats();
  EXPECT_NE(Stats.find("\nstat requests 1\n"), std::string::npos);
  EXPECT_NE(Stats.find("\nstat executions 1\n"), std::string::npos);
  EXPECT_NE(Stats.find("\nstat oracle_checks 1\n"), std::string::npos);
  EXPECT_NE(Stats.find("\nstat retries_exhausted 0\n"), std::string::npos);
  EXPECT_NE(Stats.find("\nstat breaker_opens 0\n"), std::string::npos);
  EXPECT_NE(Stats.find("\nstat latency_us_count 1\n"), std::string::npos);
  EXPECT_NE(Stats.find("\nstat bytes_cached " +
                       std::to_string(Snapshot.BytesCached) + "\n"),
            std::string::npos);
  EXPECT_NE(Stats.find("\nstat reanalyses " +
                       std::to_string(Snapshot.Reanalyses) + "\n"),
            std::string::npos);
}

TEST(RequestTraceTest, BatchResponseLinesCarryPerBatchCharges) {
  SeerServer Server(tinyModels());
  const CsrMatrix &M = requestPool()[0];
  const RegisteredMatrix Reg = registerAliased(Server, M);
  const BatchResponse B = *Server.executeBatchRegistered(
      Reg, 5, buildBatchOperands(3, M.numCols()));
  const std::string Line = formatBatchResponseLine("web", B,
                                                   Server.registry());
  EXPECT_EQ(Line.find("web kernel="), 0u);
  EXPECT_NE(Line.find(" batch=3"), std::string::npos);
  EXPECT_NE(Line.find(" iterations=5"), std::string::npos);
  EXPECT_NE(Line.find(" cache=hit"), std::string::npos);
  EXPECT_NE(Line.find(" preprocess_ms="), std::string::npos);
  EXPECT_NE(Line.find(" total_ms="), std::string::npos);
  Server.releaseMatrix(Reg);
}

TEST(RequestTraceTest, RejectsBadTraces) {
  const auto Unknown = parseTrace("select nosuch 1\n");
  ASSERT_FALSE(Unknown);
  EXPECT_NE(Unknown.status().message().find("unknown matrix"),
            std::string::npos);
  const auto Duplicate =
      parseTrace("gen a banded 10 2 0.5 1\ngen a diagonal 10 1\n");
  ASSERT_FALSE(Duplicate);
  EXPECT_NE(Duplicate.status().message().find("duplicate"),
            std::string::npos);
  EXPECT_FALSE(parseTrace("stats\n"));
  EXPECT_FALSE(parseTrace("gen a warp 10 1\n"));
}

TEST(RequestTraceTest, GenArgumentsAreRangeChecked) {
  // Casting negative / huge / fractional doubles would be UB (and a
  // hostile line could otherwise make a long-running server allocate
  // gigabytes): all must fail cleanly.
  TraceCommand Command;
  for (const char *Line : {
           "gen a banded -1 8 0.9 7",      // negative rows
           "gen a banded 1e9 8 0.9 7",     // rows above the 2^24 cap
           "gen a banded 10.5 8 0.9 7",    // fractional rows
           "gen a banded 0 8 0.9 7",       // zero rows
           "gen a banded 100 8 0.9 -3",    // negative seed
           "gen a diagonal nan 1",         // non-finite (parse or build)
           "gen a powerlaw 100 1.8 1 1e30 7", // huge max row length
       }) {
    ASSERT_TRUE(parseTraceLine(Line, Command).ok() ||
                Command.Command == TraceCommand::Kind::Blank)
        << Line; // "nan" fails at parse time; the rest parse fine
    if (Command.Command == TraceCommand::Kind::Gen) {
      EXPECT_FALSE(materializeMatrixInput(traceMatrixSource(Command)))
          << Line;
    }
  }
  // Half-band 0 stays legal (a pure diagonal band).
  ASSERT_TRUE(parseTraceLine("gen a banded 64 0 0.9 7", Command).ok());
  const auto Built = materializeMatrixInput(traceMatrixSource(Command));
  EXPECT_TRUE(Built) << Built.status().toString();
}

//===----------------------------------------------------------------------===//
// Model bundle
//===----------------------------------------------------------------------===//

TEST(ModelBundleTest, RoundTripsThroughDisk) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "seer_bundle_test").string();
  std::filesystem::create_directories(Dir);
  const SeerModels &Models = tinyModels();
  ASSERT_TRUE(storeModelBundle(Models, Dir).ok());
  const KernelRegistry Registry;
  const auto Loaded = loadModelBundle(Dir, Registry.names());
  ASSERT_TRUE(Loaded) << Loaded.status().toString();
  EXPECT_EQ(Loaded->Known.serialize(), Models.Known.serialize());
  EXPECT_EQ(Loaded->Gathered.serialize(), Models.Gathered.serialize());
  EXPECT_EQ(Loaded->Selector.serialize(), Models.Selector.serialize());
  EXPECT_EQ(Loaded->KernelNames, Registry.names());
  std::filesystem::remove_all(Dir);
}

TEST(ModelBundleTest, MissingAndMalformedFilesAreErrors) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "seer_bundle_bad").string();
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const KernelRegistry Registry;
  const auto Missing = loadModelBundle(Dir, Registry.names());
  ASSERT_FALSE(Missing);
  EXPECT_EQ(Missing.status().code(), StatusCode::NotFound);
  EXPECT_NE(Missing.status().message().find("cannot open"),
            std::string::npos);

  ASSERT_TRUE(storeModelBundle(tinyModels(), Dir).ok());
  std::ofstream(Dir + "/seer_selector.tree") << "not a tree\n";
  const auto Malformed = loadModelBundle(Dir, Registry.names());
  ASSERT_FALSE(Malformed);
  EXPECT_NE(Malformed.status().message().find("malformed"),
            std::string::npos);
  std::filesystem::remove_all(Dir);
}
