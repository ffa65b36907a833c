//===- tests/fault_test.cpp - Fault injection and failure semantics -------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The fault-tolerance contract: fault plans parse and fire exactly on
// their counter-based schedules (bit-reproducibly serially, count-
// reproducibly under 8 threads), deadlines reject expired work at both
// pipeline checkpoints, transient faults are absorbed by bounded retry
// while exhaustion surfaces the typed error, terminal faults degrade to a
// baseline response whose Y is bit-identical to running the baseline
// kernel directly, the circuit breaker walks closed -> open -> half-open
// -> closed deterministically, and bundle stores are atomic (a failed
// store leaves the previous files byte-identical).
//
// The injector is process-wide, so every test that arms a plan holds a
// DisarmGuard; tests assert deltas of the cumulative injected counter.
//
//===----------------------------------------------------------------------===//

#include "api/SeerService.h"
#include "core/ModelBundle.h"
#include "core/Seer.h"
#include "serve/RequestTrace.h"
#include "serve/SeerServer.h"
#include "support/AtomicFile.h"
#include "support/CircuitBreaker.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace seer;

namespace {

/// Every armed plan must be scoped: the injector is process-wide and the
/// next test expects a quiet one.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm(); }
};

/// Parses and arms \p PlanText, failing the test on any defect.
void armPlan(const std::string &PlanText) {
  const auto Plan = FaultPlan::parse(PlanText);
  ASSERT_TRUE(Plan) << Plan.status().toString();
  const Status Armed = FaultInjector::instance().arm(*Plan);
  ASSERT_TRUE(Armed.ok()) << Armed.toString();
}

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

/// Registers \p M with \p Service, failing the test on error.
MatrixHandle mustRegister(SeerService &Service, const CsrMatrix &M) {
  auto Handle = Service.registerMatrix(
      std::shared_ptr<const CsrMatrix>(std::shared_ptr<void>(), &M));
  EXPECT_TRUE(Handle) << Handle.status().toString();
  return Handle ? *Handle : MatrixHandle();
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan grammar
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, ParsesRulesSeedAndComments) {
  const auto Plan = FaultPlan::parse("# chaos plan\n"
                                     "seed 42\n"
                                     "\n"
                                     "kernel.prepare nth=3 status=UNAVAILABLE "
                                     "prep down\n"
                                     "plan.select every=7 latency-ms=1.5\n"
                                     "cache.insert nth=1 bad-alloc\n");
  ASSERT_TRUE(Plan) << Plan.status().toString();
  EXPECT_EQ(Plan->Seed, 42u);
  ASSERT_EQ(Plan->Rules.size(), 3u);

  EXPECT_EQ(Plan->Rules[0].Site, faultsite::KernelPrepare);
  EXPECT_EQ(Plan->Rules[0].Nth, 3u);
  EXPECT_EQ(Plan->Rules[0].Act, FaultRule::Action::ErrorStatus);
  EXPECT_EQ(Plan->Rules[0].Code, StatusCode::Unavailable);
  EXPECT_EQ(Plan->Rules[0].Message, "prep down");

  EXPECT_EQ(Plan->Rules[1].Site, faultsite::PlanSelect);
  EXPECT_EQ(Plan->Rules[1].Every, 7u);
  EXPECT_EQ(Plan->Rules[1].Act, FaultRule::Action::LatencyMs);
  EXPECT_DOUBLE_EQ(Plan->Rules[1].DelayMs, 1.5);

  EXPECT_EQ(Plan->Rules[2].Act, FaultRule::Action::BadAlloc);
}

TEST(FaultPlanTest, RejectsMalformedRules) {
  // A typo in a site name must fail loudly, not never fire.
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepaer nth=1 bad-alloc"));
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepare nth=0 bad-alloc"));
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepare sometimes bad-alloc"));
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepare nth=1 status=OK"));
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepare nth=1 status=BOGUS"));
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepare nth=1 latency-ms=-2"));
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepare nth=1 latency-ms=2 x"));
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepare nth=1 bad-alloc extra"));
  EXPECT_FALSE(FaultPlan::parseRule("kernel.prepare nth=1"));
  const auto Plan = FaultPlan::parse("seed 1\nparse.mm nth=x bad-alloc\n");
  ASSERT_FALSE(Plan);
  // Plan-level errors carry the 1-based line number.
  EXPECT_NE(Plan.status().message().find("line 2"), std::string::npos);
}

TEST(FaultPlanTest, ApplyFaultSpecValidatesBeforeArming) {
  DisarmGuard Guard;
  EXPECT_FALSE(applyFaultSpec("bogus.site nth=1 bad-alloc").ok());
  EXPECT_FALSE(applyFaultSpec("seed notanumber").ok());
  EXPECT_FALSE(FaultInjector::instance().armed());

  ASSERT_TRUE(applyFaultSpec("parse.mm nth=1 status=INTERNAL oops").ok());
  EXPECT_TRUE(FaultInjector::instance().armed());
  const Status F = FaultInjector::instance().check(faultsite::ParseMm);
  EXPECT_EQ(F.code(), StatusCode::Internal);

  ASSERT_TRUE(applyFaultSpec("clear").ok());
  EXPECT_FALSE(FaultInjector::instance().armed());
}

//===----------------------------------------------------------------------===//
// Schedule determinism
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, NthFiresExactlyOnceOnTheNthHit) {
  DisarmGuard Guard;
  armPlan("parse.mm nth=3 status=UNAVAILABLE\n");
  for (int Round = 0; Round < 2; ++Round) {
    std::vector<bool> Fired;
    for (int Hit = 0; Hit < 10; ++Hit)
      Fired.push_back(!FaultInjector::instance().check(faultsite::ParseMm).ok());
    const std::vector<bool> Expected = {false, false, true, false, false,
                                        false, false, false, false, false};
    EXPECT_EQ(Fired, Expected);
    // Re-arming resets the hit counters: the sequence replays identically.
    armPlan("parse.mm nth=3 status=UNAVAILABLE\n");
  }
}

TEST(FaultInjectorTest, SeededEveryKSequenceIsReproducible) {
  DisarmGuard Guard;
  const char *Plan = "seed 7\nparse.mm every=4 status=INTERNAL\n";
  std::vector<bool> FirstRun;
  for (int Round = 0; Round < 3; ++Round) {
    armPlan(Plan);
    std::vector<bool> Fired;
    int Count = 0;
    for (int Hit = 0; Hit < 32; ++Hit) {
      const bool F = !FaultInjector::instance().check(faultsite::ParseMm).ok();
      Fired.push_back(F);
      Count += F;
    }
    // The seed phase-shifts the schedule but the density is exact:
    // every=4 fires on exactly 8 of 32 hits whatever the phase.
    EXPECT_EQ(Count, 8);
    if (Round == 0)
      FirstRun = Fired;
    else
      EXPECT_EQ(Fired, FirstRun) << "round " << Round;
  }
}

TEST(FaultInjectorTest, ConcurrentHitCountsAreExact) {
  // The interleaving chooses which thread absorbs a fault, never how many
  // fire: 8 threads x 100 hits of an every=5 schedule is exactly 160.
  DisarmGuard Guard;
  armPlan("seed 3\nparse.mm every=5 status=UNAVAILABLE\n");
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&Failures] {
      for (int Hit = 0; Hit < 100; ++Hit)
        if (!FaultInjector::instance().check(faultsite::ParseMm).ok())
          Failures.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 800 / 5);
}

TEST(FaultInjectorTest, BadAllocActionThrows) {
  DisarmGuard Guard;
  armPlan("parse.mm nth=1 bad-alloc\n");
  EXPECT_THROW(FaultInjector::instance().check(faultsite::ParseMm),
               std::bad_alloc);
  // Second hit: the nth rule already fired.
  EXPECT_TRUE(FaultInjector::instance().check(faultsite::ParseMm).ok());
}

TEST(FaultInjectorTest, LatencyActionDelaysButSucceeds) {
  DisarmGuard Guard;
  armPlan("parse.mm nth=1 latency-ms=25\n");
  const auto Start = std::chrono::steady_clock::now();
  EXPECT_TRUE(FaultInjector::instance().check(faultsite::ParseMm).ok());
  const double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  EXPECT_GE(Ms, 20.0); // scheduler slop margin below the injected 25
}

TEST(FaultInjectorTest, DisarmedCheckIsOkAndCountsNothing) {
  const uint64_t Before = FaultInjector::instance().injectedCount();
  for (int Hit = 0; Hit < 100; ++Hit)
    EXPECT_TRUE(FaultInjector::instance().check(faultsite::PlanRun).ok());
  EXPECT_EQ(FaultInjector::instance().injectedCount(), Before);
}

//===----------------------------------------------------------------------===//
// Circuit breaker
//===----------------------------------------------------------------------===//

TEST(CircuitBreakerTest, WalksClosedOpenHalfOpenClosed) {
  CircuitBreaker Breaker(/*Threshold=*/3, /*Cooldown=*/4);
  EXPECT_EQ(Breaker.state(), CircuitBreaker::State::Closed);

  // Two failures, then a success: the streak resets, still closed.
  Breaker.recordFailure();
  Breaker.recordFailure();
  Breaker.recordSuccess();
  EXPECT_EQ(Breaker.state(), CircuitBreaker::State::Closed);

  // Three consecutive failures open it.
  for (int I = 0; I < 3; ++I) {
    EXPECT_TRUE(Breaker.allow());
    Breaker.recordFailure();
  }
  EXPECT_EQ(Breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(Breaker.opens(), 1u);

  // Cooldown denials, then exactly one half-open probe is let through.
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(Breaker.allow());
  EXPECT_TRUE(Breaker.allow());
  EXPECT_EQ(Breaker.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(Breaker.allow()); // only the probe flows

  // A failed probe re-opens and restarts the cooldown.
  Breaker.recordFailure();
  EXPECT_EQ(Breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(Breaker.opens(), 2u);
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(Breaker.allow());
  EXPECT_TRUE(Breaker.allow());

  // A successful probe closes it again.
  Breaker.recordSuccess();
  EXPECT_EQ(Breaker.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(Breaker.allow());
}

TEST(CircuitBreakerTest, ZeroThresholdDisables) {
  CircuitBreaker Breaker;
  for (int I = 0; I < 100; ++I) {
    Breaker.recordFailure();
    EXPECT_TRUE(Breaker.allow());
  }
  EXPECT_EQ(Breaker.opens(), 0u);
}

//===----------------------------------------------------------------------===//
// Serving under faults: retry, degradation, deadlines
//===----------------------------------------------------------------------===//

TEST(ServeFaultTest, TransientFaultRecoveredByRetry) {
  DisarmGuard Guard;
  SeerService Service(tinyModels());
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
  const MatrixHandle Handle = mustRegister(Service, M);

  armPlan("kernel.prepare nth=1 status=UNAVAILABLE transient\n");
  Request R;
  R.Handle = Handle;
  R.Iterations = 5;
  R.Execute = true;
  const auto Response = Service.serve(R);
  ASSERT_TRUE(Response) << Response.status().toString();
  EXPECT_FALSE(Response->Degraded);
  EXPECT_TRUE(Response->Executed);

  const ServerStats Stats = Service.stats();
  EXPECT_EQ(Stats.Retries, 1u);
  EXPECT_EQ(Stats.RetriesExhausted, 0u);
  EXPECT_EQ(Stats.DegradedServes, 0u);

  // The retried answer is the clean one, bit for bit (the nth=1 rule is
  // spent, so this serve runs clean).
  const auto Clean = Service.serve(R);
  ASSERT_TRUE(Clean) << Clean.status().toString();
  EXPECT_EQ(Response->Selection.KernelIndex, Clean->Selection.KernelIndex);
  EXPECT_EQ(Response->Y, Clean->Y);
}

TEST(ServeFaultTest, RetryExhaustionSurfacesTheTypedError) {
  DisarmGuard Guard;
  SeerService Service(tinyModels());
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
  const MatrixHandle Handle = mustRegister(Service, M);

  armPlan("kernel.prepare every=1 status=UNAVAILABLE prep down\n");
  Request R;
  R.Handle = Handle;
  R.Iterations = 5;
  R.Execute = true;
  const auto Response = Service.serve(R);
  ASSERT_FALSE(Response);
  EXPECT_EQ(Response.status().code(), StatusCode::Unavailable);
  EXPECT_EQ(Response.status().message(), "prep down");

  // MaxAttempts=3: the first call plus two retries, then exhaustion.
  const ServerStats Stats = Service.stats();
  EXPECT_EQ(Stats.Retries, 2u);
  EXPECT_EQ(Stats.RetriesExhausted, 1u);

  // Disarmed, the same request succeeds: nothing was poisoned.
  FaultInjector::instance().disarm();
  const auto Recovered = Service.serve(R);
  ASSERT_TRUE(Recovered) << Recovered.status().toString();
  EXPECT_FALSE(Recovered->Degraded);
}

TEST(ServeFaultTest, TerminalFaultDegradesBitIdenticalToBaseline) {
  DisarmGuard Guard;
  SeerService Service(tinyModels());
  const CsrMatrix M = genPowerLaw(2048, 2048, 1.8, 1, 256, 11);
  const MatrixHandle Handle = mustRegister(Service, M);

  armPlan("plan.select nth=1 status=INTERNAL selector crashed\n");
  Request R;
  R.Handle = Handle;
  R.Iterations = 5;
  R.Execute = true;
  const auto Response = Service.serve(R);
  ASSERT_TRUE(Response) << Response.status().toString();
  EXPECT_TRUE(Response->Degraded);
  EXPECT_TRUE(Response->Executed);
  EXPECT_EQ(Response->Selection.KernelIndex,
            Service.server().baselineKernel());

  // The degraded Y must be the baseline kernel's product, bit for bit.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const Planner Pipeline(Registry, Sim);
  const AnalyzedMatrix A = Pipeline.analyze(M);
  const std::vector<double> Ones(M.numCols(), 1.0);
  const SpmvRun Direct =
      Registry.kernel(Service.server().baselineKernel())
          .run(M, A.Stats, /*State=*/nullptr, Ones, Sim);
  EXPECT_EQ(Response->Y, Direct.Y);

  EXPECT_GE(Service.stats().DegradedServes, 1u);
  // Terminal faults are not retried.
  EXPECT_EQ(Service.stats().Retries, 0u);
}

TEST(ServeFaultTest, CacheInsertFaultServesUncachedButCorrect) {
  DisarmGuard Guard;
  const CsrMatrix M = genUniformRandom(512, 512, 12.0, 0.5, 13);

  SeerService Clean(tinyModels());
  const auto Expected = Clean.execute(mustRegister(Clean, M), 5);
  ASSERT_TRUE(Expected) << Expected.status().toString();

  armPlan("cache.insert every=1 status=RESOURCE_EXHAUSTED cache full\n");
  SeerService Faulty(tinyModels());
  const auto Got = Faulty.execute(mustRegister(Faulty, M), 5);
  ASSERT_TRUE(Got) << Got.status().toString();
  EXPECT_FALSE(Got->Degraded);
  EXPECT_EQ(Got->Selection.KernelIndex, Expected->Selection.KernelIndex);
  EXPECT_EQ(Got->Y, Expected->Y);
}

TEST(ServeFaultTest, DeadlineExpiredAtAdmissionIsTerminal) {
  SeerService Service(tinyModels());
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
  const MatrixHandle Handle = mustRegister(Service, M);

  Request R;
  R.Handle = Handle;
  R.Iterations = 5;
  R.Execute = true;
  R.DeadlineMs = 1e-6; // expires before the admission checkpoint
  const auto Response = Service.serve(R);
  ASSERT_FALSE(Response);
  EXPECT_EQ(Response.status().code(), StatusCode::DeadlineExceeded);
  EXPECT_FALSE(Response.status().isRetryable());

  const ServerStats Stats = Service.stats();
  EXPECT_EQ(Stats.DeadlineExceeded, 1u);
  // DEADLINE_EXCEEDED is never retried.
  EXPECT_EQ(Stats.Retries, 0u);
  // Rejected work is not an answered request.
  EXPECT_EQ(Stats.Requests, 0u);
}

TEST(ServeFaultTest, DeadlineExpiredBetweenStagesIsCaught) {
  // An injected 30 ms stall inside the selection stage, or inside the
  // prepare stage, blows a 5 ms budget: the checkpoint after selection,
  // or the one before the operand's run, must refuse to execute.
  for (const char *Stall : {"plan.select nth=1 latency-ms=30\n",
                            "kernel.prepare nth=1 latency-ms=30\n"}) {
    DisarmGuard Guard;
    SeerService Service(tinyModels());
    const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
    const MatrixHandle Handle = mustRegister(Service, M);

    armPlan(Stall);
    Request R;
    R.Handle = Handle;
    R.Iterations = 5;
    R.Execute = true;
    R.DeadlineMs = 5.0;
    const auto Response = Service.serve(R);
    ASSERT_FALSE(Response) << Stall;
    EXPECT_EQ(Response.status().code(), StatusCode::DeadlineExceeded)
        << Stall;
    EXPECT_EQ(Service.stats().DeadlineExceeded, 1u) << Stall;

    // Without the stall the same budget is plenty.
    const auto Fast = Service.serve(R);
    ASSERT_TRUE(Fast) << Stall << Fast.status().toString();
  }
}

TEST(ServeFaultTest, BatchDeadlineExpiresMidOperands) {
  DisarmGuard Guard;
  SeerService Service(tinyModels());
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
  const MatrixHandle Handle = mustRegister(Service, M);

  // Stall each kernel run 20 ms: a 30 ms budget admits the batch and
  // survives selection but cannot finish 8 operands.
  armPlan("plan.run every=1 latency-ms=20\n");
  const auto Operands = buildBatchOperands(8, M.numCols());
  const auto Response =
      Service.executeBatch(Handle, Operands, /*Iterations=*/1,
                           /*DeadlineMs=*/30.0);
  ASSERT_FALSE(Response);
  EXPECT_EQ(Response.status().code(), StatusCode::DeadlineExceeded);
  EXPECT_NE(Response.status().message().find("mid-batch"),
            std::string::npos)
      << Response.status().toString();
}

TEST(ServeFaultTest, BreakerOpensAfterPersistentFaultsAndDegrades) {
  DisarmGuard Guard;
  ServiceConfig Config;
  Config.Server.BreakerThreshold = 4;
  Config.Server.BreakerCooldown = 2;
  SeerService Service(tinyModels(), Config);
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
  const MatrixHandle Handle = mustRegister(Service, M);

  armPlan("plan.select every=1 bad-alloc\n");
  const uint64_t InjectedBefore = FaultInjector::instance().injectedCount();
  // bad_alloc in selection is terminal: each request degrades and feeds
  // the breaker until it opens; open-breaker requests degrade without
  // touching the selector at all.
  Request R;
  R.Handle = Handle;
  R.Iterations = 5;
  R.Execute = true;
  for (int I = 0; I < 8; ++I) {
    const auto Response = Service.serve(R);
    ASSERT_TRUE(Response) << Response.status().toString();
    EXPECT_TRUE(Response->Degraded);
  }
  const ServerStats Stats = Service.stats();
  EXPECT_EQ(Stats.DegradedServes, 8u);
  EXPECT_GE(Stats.BreakerOpens, 1u);
  // Once open, requests stop hitting the faulty selector: fewer faults
  // fired than requests served. (injectedCount is cumulative across the
  // process, so compare the delta, not the snapshot.)
  EXPECT_LT(FaultInjector::instance().injectedCount() - InjectedBefore, 8u);
}

//===----------------------------------------------------------------------===//
// Fault-site coverage. Every faultsite:: constant must be exercised by at
// least one test — tools/seer_lint.py enforces the full set, and these
// pick up the sites the behavioral tests above do not already drive.
//===----------------------------------------------------------------------===//

TEST(FaultSiteTest, MmWriteFaultFiresBeforeTouchingDisk) {
  DisarmGuard Guard;
  const CsrMatrix M = genBanded(256, 4, 0.9, 3);
  const auto Dir = std::filesystem::temp_directory_path() / "seer_fault_mm";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const std::string Path = (Dir / "m.mtx").string();

  armPlan("mm.write nth=1 status=UNAVAILABLE disk offline\n");
  const Status Failed = writeMatrixMarketFile(M, Path);
  EXPECT_EQ(Failed.code(), StatusCode::Unavailable);
  EXPECT_FALSE(std::filesystem::exists(Path)); // rejected before any write

  const Status Ok = writeMatrixMarketFile(M, Path); // nth=1 is spent
  EXPECT_TRUE(Ok.ok()) << Ok.toString();
  EXPECT_TRUE(std::filesystem::exists(Path));
  std::filesystem::remove_all(Dir);
}

TEST(FaultSiteTest, BundleLoadFaultSurfacesTypedError) {
  DisarmGuard Guard;
  const auto Dir = std::filesystem::temp_directory_path() / "seer_fault_bl";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const std::string DirStr = Dir.string();
  ASSERT_TRUE(storeModelBundle(tinyModels(), DirStr).ok());

  const KernelRegistry Registry;
  armPlan("bundle.load nth=1 status=UNAVAILABLE\n");
  const auto Failed = loadModelBundle(DirStr, Registry.names());
  ASSERT_FALSE(Failed);
  EXPECT_EQ(Failed.status().code(), StatusCode::Unavailable);

  const auto Loaded = loadModelBundle(DirStr, Registry.names());
  EXPECT_TRUE(Loaded) << Loaded.status().toString();
  std::filesystem::remove_all(Dir);
}

TEST(FaultSiteTest, ServiceRegisterFaultRejectsRegistration) {
  DisarmGuard Guard;
  SeerService Service(tinyModels());
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);

  armPlan("service.register nth=1 status=INTERNAL\n");
  const auto Failed = Service.registerMatrix(
      std::shared_ptr<const CsrMatrix>(std::shared_ptr<void>(), &M));
  ASSERT_FALSE(Failed);
  EXPECT_EQ(Failed.status().code(), StatusCode::Internal);
  EXPECT_EQ(Service.stats().ActiveHandles, 0u);

  const MatrixHandle Handle = mustRegister(Service, M); // nth=1 is spent
  EXPECT_TRUE(Service.select(Handle, 5).ok());
}

TEST(FaultSiteTest, QueueAdmitFaultRejectsSubmission) {
  DisarmGuard Guard;
  SeerService Service(tinyModels());
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
  const MatrixHandle Handle = mustRegister(Service, M);

  // INTERNAL is terminal, so the admission retry loop must not absorb it.
  armPlan("queue.admit nth=1 status=INTERNAL\n");
  Request R;
  R.Handle = Handle;
  R.Iterations = 5;
  const auto Rejected = Service.submit(R);
  ASSERT_FALSE(Rejected);
  EXPECT_EQ(Rejected.status().code(), StatusCode::Internal);

  auto Future = Service.submit(std::move(R)); // nth=1 is spent
  ASSERT_TRUE(Future) << Future.status().toString();
  const auto Got = Future->get();
  EXPECT_TRUE(Got) << Got.status().toString();
  Service.drain();
}

TEST(FaultSiteTest, ServeOracleFaultSkipsVerificationNotTheServe) {
  DisarmGuard Guard;
  SeerService Service(tinyModels());
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
  const MatrixHandle Handle = mustRegister(Service, M);

  const uint64_t Before = FaultInjector::instance().injectedCount();
  armPlan("serve.oracle every=1 status=INTERNAL\n");
  const auto Unverified = Service.execute(Handle, 5, /*VerifyOracle=*/true);
  ASSERT_TRUE(Unverified) << Unverified.status().toString();
  EXPECT_FALSE(Unverified->OracleChecked); // verification skipped...
  EXPECT_FALSE(Unverified->Degraded);      // ...but the serve succeeded
  EXPECT_GE(FaultInjector::instance().injectedCount() - Before, 1u);

  FaultInjector::instance().disarm();
  const auto Verified = Service.execute(Handle, 5, /*VerifyOracle=*/true);
  ASSERT_TRUE(Verified) << Verified.status().toString();
  EXPECT_TRUE(Verified->OracleChecked);
}

TEST(FaultSiteTest, BatchExecuteFaultFollowsBatchErrorRules) {
  DisarmGuard Guard;
  SeerService Service(tinyModels());
  const CsrMatrix M = genBanded(1024, 8, 0.9, 7);
  const MatrixHandle Handle = mustRegister(Service, M);
  const std::vector<std::vector<double>> Operands(
      3, std::vector<double>(M.numCols(), 1.0));

  // Terminal codes degrade the whole batch to the baseline kernel.
  armPlan("batch.execute every=1 status=INTERNAL\n");
  const auto Degraded = Service.executeBatch(Handle, Operands, 5);
  ASSERT_TRUE(Degraded) << Degraded.status().toString();
  EXPECT_TRUE(Degraded->Degraded);

  FaultInjector::instance().disarm();
  const auto Clean = Service.executeBatch(Handle, Operands, 5);
  ASSERT_TRUE(Clean) << Clean.status().toString();
  EXPECT_FALSE(Clean->Degraded);
}

//===----------------------------------------------------------------------===//
// Atomic persistence (satellite: temp-file + rename stores)
//===----------------------------------------------------------------------===//

TEST(AtomicWriteTest, WriteCommitsAndLeavesNoTempFiles) {
  const auto Dir = std::filesystem::temp_directory_path() / "seer_atomic_t";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const std::string Path = (Dir / "data.txt").string();

  ASSERT_TRUE(atomicWriteFile(Path, "first").ok());
  ASSERT_TRUE(atomicWriteFile(Path, "second").ok());
  std::ifstream In(Path);
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(Contents, "second");
  // The temp file was renamed away, not left behind.
  size_t FileCount = 0;
  for ([[maybe_unused]] const auto &Entry :
       std::filesystem::directory_iterator(Dir))
    ++FileCount;
  EXPECT_EQ(FileCount, 1u);
  std::filesystem::remove_all(Dir);
}

TEST(AtomicWriteTest, FailedBundleStoreLeavesPreviousFilesIntact) {
  DisarmGuard Guard;
  const auto Dir = std::filesystem::temp_directory_path() / "seer_bundle_t";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const std::string DirStr = Dir.string();

  const Status First = storeModelBundle(tinyModels(), DirStr);
  ASSERT_TRUE(First.ok()) << First.toString();
  const auto Snapshot = [&] {
    std::vector<std::pair<std::string, std::string>> Files;
    for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
      std::ifstream In(Entry.path(), std::ios::binary);
      Files.emplace_back(Entry.path().filename().string(),
                         std::string((std::istreambuf_iterator<char>(In)),
                                     std::istreambuf_iterator<char>()));
    }
    std::sort(Files.begin(), Files.end());
    return Files;
  };
  const auto Before = Snapshot();
  EXPECT_FALSE(Before.empty());

  armPlan("bundle.store nth=1 status=UNAVAILABLE disk gone\n");
  const Status Failed = storeModelBundle(tinyModels(), DirStr);
  EXPECT_EQ(Failed.code(), StatusCode::Unavailable);
  EXPECT_EQ(Snapshot(), Before); // byte-identical, no temp litter

  FaultInjector::instance().disarm();
  const Status Restored = storeModelBundle(tinyModels(), DirStr);
  EXPECT_TRUE(Restored.ok()) << Restored.toString();
  std::filesystem::remove_all(Dir);
}
