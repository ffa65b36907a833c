//===- tests/api_test.cpp - Tests for the public serving API (v2) ---------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The serving API v2 contract: Status/Expected error semantics,
// format-agnostic ingestion (CSR/COO/ELL/.mtx/generator specs all land on
// the same fingerprint), the register -> serve -> release handle
// lifecycle under concurrency (use-after-release is a typed error, never
// a crash; refcount-pinned entries survive eviction pressure), and the
// async submission path with admission-queue backpressure, and the
// interactive line-protocol session over the in-process backend. The
// concurrency tests run real std::thread clients so the ThreadSanitizer
// and AddressSanitizer CI jobs exercise them.
//
//===----------------------------------------------------------------------===//

#include "api/SeerService.h"
#include "core/Seer.h"
#include "serve/RequestTrace.h"
#include "sparse/MatrixMarket.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

using namespace seer;

namespace {

/// Models trained once on a tiny but diverse collection.
const SeerModels &tinyModels() {
  static const SeerModels Models = [] {
    CollectionConfig Config;
    Config.MaxRows = 4096;
    Config.VariantsPerCell = 2;
    Config.IncludeReplicas = false;
    const KernelRegistry Registry;
    const GpuSimulator Sim(DeviceModel::mi100());
    BenchmarkConfig Protocol;
    Protocol.Parallelism = 0;
    const Benchmarker Runner(Registry, Sim, Protocol);
    TrainerConfig Trainer;
    Trainer.Parallelism = 0;
    return trainSeerModels(Runner.benchmarkCollection(buildCollection(Config)),
                           Registry.names(), Trainer);
  }();
  return Models;
}

/// A small pool of request matrices.
const std::vector<CsrMatrix> &requestPool() {
  static const std::vector<CsrMatrix> Pool = [] {
    std::vector<CsrMatrix> P;
    P.push_back(genBanded(1024, 8, 0.9, 7));
    P.push_back(genPowerLaw(2048, 2048, 1.8, 1, 256, 11));
    P.push_back(genUniformRandom(512, 512, 12.0, 0.5, 13));
    P.push_back(genDenseRowOutlier(1024, 1024, 6.0, 4, 128, 19));
    return P;
  }();
  return Pool;
}

} // namespace

//===----------------------------------------------------------------------===//
// Status / Expected
//===----------------------------------------------------------------------===//

TEST(StatusTest, CodesAndMessages) {
  const Status Ok;
  EXPECT_TRUE(Ok.ok());
  EXPECT_EQ(Ok.code(), StatusCode::Ok);
  EXPECT_EQ(Ok.toString(), "OK");

  const Status E = Status::notFound("no such matrix");
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.code(), StatusCode::NotFound);
  EXPECT_EQ(E.message(), "no such matrix");
  EXPECT_EQ(E.toString(), "NOT_FOUND: no such matrix");
  EXPECT_STREQ(statusCodeName(StatusCode::ResourceExhausted),
               "RESOURCE_EXHAUSTED");
}

TEST(StatusTest, ExpectedHoldsValueOrStatus) {
  const auto Make = [](bool Good) -> Expected<int> {
    if (Good)
      return 42;
    return Status::invalidArgument("nope");
  };
  auto Good = Make(true);
  ASSERT_TRUE(Good);
  EXPECT_EQ(*Good, 42);
  EXPECT_TRUE(Good.status().ok());
  auto Bad = Make(false);
  ASSERT_FALSE(Bad);
  EXPECT_EQ(Bad.status().code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Format-agnostic ingestion
//===----------------------------------------------------------------------===//

TEST(MatrixInputTest, AllFormatsLandOnTheSameFingerprint) {
  const CsrMatrix Csr = genPowerLaw(512, 512, 1.8, 1, 64, 5);
  const uint64_t Reference = matrixFingerprint(Csr);

  // COO and ELL (materialized and virtual) round-trip bit-exactly.
  auto FromCoo = materializeMatrixInput(CooMatrix::fromCsr(Csr));
  ASSERT_TRUE(FromCoo) << FromCoo.status().toString();
  EXPECT_EQ(matrixFingerprint(*FromCoo), Reference);

  auto FromEll = materializeMatrixInput(EllMatrix::fromCsr(Csr));
  ASSERT_TRUE(FromEll) << FromEll.status().toString();
  EXPECT_EQ(matrixFingerprint(*FromEll), Reference);

  auto FromVirtualEll =
      materializeMatrixInput(EllMatrix::fromCsr(Csr, /*MaxCells=*/1));
  ASSERT_TRUE(FromVirtualEll) << FromVirtualEll.status().toString();
  EXPECT_FALSE(EllMatrix::fromCsr(Csr, 1).isMaterialized());
  EXPECT_EQ(matrixFingerprint(*FromVirtualEll), Reference);

  // A .mtx file written at max_digits10 parses back fingerprint-stable.
  const std::string Path =
      (std::filesystem::temp_directory_path() / "seer_api_input.mtx").string();
  ASSERT_TRUE(writeMatrixMarketFile(Csr, Path).ok());
  auto FromFile = materializeMatrixInput(MatrixMarketSource{Path});
  ASSERT_TRUE(FromFile) << FromFile.status().toString();
  EXPECT_EQ(matrixFingerprint(*FromFile), Reference);
  std::filesystem::remove(Path);

  // A generator spec builds the same matrix the trace command would.
  auto FromSpec = materializeMatrixInput(
      GeneratorSpec{"powerlaw", {512, 1.8, 1, 64, 5}});
  ASSERT_TRUE(FromSpec) << FromSpec.status().toString();
  EXPECT_EQ(matrixFingerprint(*FromSpec), Reference);
}

TEST(MatrixInputTest, IngestionErrorsAreTyped) {
  auto Missing = materializeMatrixInput(
      MatrixMarketSource{"/nonexistent/seer_api_test.mtx"});
  ASSERT_FALSE(Missing);
  EXPECT_EQ(Missing.status().code(), StatusCode::NotFound);

  const std::string Path =
      (std::filesystem::temp_directory_path() / "seer_api_garbage.mtx")
          .string();
  {
    std::ofstream Out(Path);
    Out << "not a matrix market file\n";
  }
  auto Garbage = materializeMatrixInput(MatrixMarketSource{Path});
  ASSERT_FALSE(Garbage);
  EXPECT_EQ(Garbage.status().code(), StatusCode::InvalidArgument);
  std::filesystem::remove(Path);

  auto BadFamily = materializeMatrixInput(GeneratorSpec{"warp", {10, 1}});
  ASSERT_FALSE(BadFamily);
  EXPECT_EQ(BadFamily.status().code(), StatusCode::InvalidArgument);

  auto BadArgs =
      materializeMatrixInput(GeneratorSpec{"banded", {-1, 8, 0.9, 7}});
  ASSERT_FALSE(BadArgs);
  EXPECT_EQ(BadArgs.status().code(), StatusCode::InvalidArgument);
}

TEST(MatrixInputTest, FormatNames) {
  EXPECT_STREQ(matrixInputFormatName(MatrixInput(CsrMatrix())), "csr");
  EXPECT_STREQ(matrixInputFormatName(MatrixInput(CooMatrix())), "coo");
  EXPECT_STREQ(matrixInputFormatName(MatrixInput(EllMatrix())), "ell");
  EXPECT_STREQ(matrixInputFormatName(MatrixInput(MatrixMarketSource{})),
               "mtx");
  EXPECT_STREQ(matrixInputFormatName(MatrixInput(GeneratorSpec{})), "gen");
}

//===----------------------------------------------------------------------===//
// Handle lifecycle
//===----------------------------------------------------------------------===//

TEST(SeerServiceTest, RegisterServeReleaseRoundTrip) {
  SeerService Service(tinyModels());
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);

  for (const CsrMatrix &M : requestPool()) {
    auto Handle = Service.registerMatrix(M);
    ASSERT_TRUE(Handle) << Handle.status().toString();

    const auto Info = Service.describe(*Handle);
    ASSERT_TRUE(Info);
    EXPECT_EQ(Info->Fingerprint, matrixFingerprint(M));
    EXPECT_EQ(Info->NumRows, M.numRows());
    EXPECT_EQ(Info->Nnz, M.nnz());

    for (const uint32_t Iterations : {1u, 5u, 19u}) {
      const SelectionResult Direct = Reference.select(M, Iterations);
      const auto Response = Service.select(*Handle, Iterations);
      ASSERT_TRUE(Response) << Response.status().toString();
      EXPECT_EQ(Response->Selection.KernelIndex, Direct.KernelIndex);
      EXPECT_EQ(Response->Selection.UsedGatheredModel,
                Direct.UsedGatheredModel);
      // Registration paid the analysis: zero collection charged here.
      EXPECT_TRUE(Response->CacheHit);
      EXPECT_EQ(Response->Selection.FeatureCollectionMs, 0.0);
    }

    const std::vector<double> X(M.numCols(), 1.0);
    const ExecutionReport Direct = Reference.execute(M, X, 19);
    const auto Executed = Service.execute(*Handle, 19);
    ASSERT_TRUE(Executed) << Executed.status().toString();
    EXPECT_EQ(Executed->Selection.KernelIndex, Direct.Selection.KernelIndex);
    EXPECT_EQ(Executed->PreprocessMs, Direct.PreprocessMs);
    EXPECT_EQ(Executed->IterationMs, Direct.IterationMs);
    EXPECT_EQ(Executed->Y, Direct.Y);

    EXPECT_TRUE(Service.release(*Handle).ok());
  }

  const ServerStats Stats = Service.stats();
  EXPECT_EQ(Stats.Registrations, requestPool().size());
  EXPECT_EQ(Stats.ActiveHandles, 0u);
  EXPECT_EQ(Stats.PinnedMatrices, 0u);
}

TEST(SeerServiceTest, LifecycleErrorsAreTypedNotFatal) {
  SeerService Service(tinyModels());
  const CsrMatrix &M = requestPool()[0];

  // Null / unknown handles.
  EXPECT_EQ(Service.select(MatrixHandle()).status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(Service.select(MatrixHandle{999}).status().code(),
            StatusCode::NotFound);
  EXPECT_EQ(Service.release(MatrixHandle{999}).code(), StatusCode::NotFound);

  auto Handle = Service.registerMatrix(M);
  ASSERT_TRUE(Handle);

  // Bad request knobs.
  EXPECT_EQ(Service.select(*Handle, 0).status().code(),
            StatusCode::InvalidArgument);
  Request Mismatched;
  Mismatched.Handle = *Handle;
  Mismatched.Execute = true;
  Mismatched.Operand.assign(M.numCols() + 1, 1.0);
  EXPECT_EQ(Service.serve(Mismatched).status().code(),
            StatusCode::InvalidArgument);

  // Use-after-release is NOT_FOUND, on both sync and async paths; a
  // second release too.
  EXPECT_TRUE(Service.release(*Handle).ok());
  EXPECT_EQ(Service.select(*Handle).status().code(), StatusCode::NotFound);
  Request R;
  R.Handle = *Handle;
  EXPECT_EQ(Service.submit(std::move(R)).status().code(),
            StatusCode::NotFound);
  EXPECT_EQ(Service.release(*Handle).code(), StatusCode::NotFound);
  EXPECT_EQ(Service.describe(*Handle).status().code(), StatusCode::NotFound);

  // Handle ids are never reused.
  auto Second = Service.registerMatrix(M);
  ASSERT_TRUE(Second);
  EXPECT_NE(Second->Id, Handle->Id);
  EXPECT_TRUE(Service.release(*Second).ok());
}

TEST(SeerServiceTest, SharedPointerRegistrationAdoptsWithoutCopying) {
  SeerService Service(tinyModels());
  auto Shared = std::make_shared<const CsrMatrix>(genBanded(512, 8, 0.9, 3));
  auto Handle = Service.registerMatrix(Shared);
  ASSERT_TRUE(Handle) << Handle.status().toString();
  EXPECT_EQ(Service.describe(*Handle)->Fingerprint,
            matrixFingerprint(*Shared));
  // Shared ownership, not a copy: the service holds a reference on the
  // client's object (use_count grew past the client's own).
  EXPECT_GT(Shared.use_count(), 1);
  const auto Response = Service.select(*Handle, 5);
  ASSERT_TRUE(Response);
  EXPECT_TRUE(Service.release(*Handle).ok());

  // A null shared pointer is a typed error.
  EXPECT_EQ(Service.registerMatrix(std::shared_ptr<const CsrMatrix>())
                .status()
                .code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(materializeMatrixInput(std::shared_ptr<const CsrMatrix>())
                .status()
                .code(),
            StatusCode::InvalidArgument);
}

TEST(SeerServiceTest, RegistrationReusesCachedAnalysis) {
  SeerService Service(tinyModels());
  const CsrMatrix &M = requestPool()[1];
  auto First = Service.registerMatrix(M);
  ASSERT_TRUE(First);
  EXPECT_FALSE(Service.describe(*First)->AnalysisReused);
  // Same content, separate handle: the analysis (and the cache entry) is
  // shared, each handle pins it once.
  auto Second = Service.registerMatrix(CooMatrix::fromCsr(M));
  ASSERT_TRUE(Second);
  EXPECT_TRUE(Service.describe(*Second)->AnalysisReused);
  EXPECT_EQ(Service.describe(*Second)->Fingerprint,
            Service.describe(*First)->Fingerprint);
  const ServerStats Stats = Service.stats();
  EXPECT_EQ(Stats.Registrations, 2u);
  EXPECT_EQ(Stats.ActiveHandles, 2u);
  EXPECT_EQ(Stats.PinnedMatrices, 1u); // one entry, two pins
  EXPECT_TRUE(Service.release(*First).ok());
  EXPECT_EQ(Service.stats().PinnedMatrices, 1u); // still pinned by Second
  EXPECT_TRUE(Service.release(*Second).ok());
  EXPECT_EQ(Service.stats().PinnedMatrices, 0u);
}

//===----------------------------------------------------------------------===//
// Handle lifecycle under concurrency
//===----------------------------------------------------------------------===//

TEST(SeerServiceTest, ConcurrentRegisterReleaseRaces) {
  // 8 threads register, serve and release handles to the same three
  // matrices concurrently. Every response must be bit-identical to the
  // one-shot runtime; the session must end balanced.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  const std::vector<CsrMatrix> &Pool = requestPool();
  std::vector<SelectionResult> Direct;
  for (const CsrMatrix &M : Pool)
    Direct.push_back(Reference.select(M, 5));

  SeerService Service(tinyModels());
  constexpr size_t NumClients = 8;
  constexpr size_t RoundsPerClient = 25;
  std::vector<std::string> Failures(NumClients);
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      for (size_t Round = 0; Round < RoundsPerClient; ++Round) {
        const size_t I = (C + Round) % Pool.size();
        auto Handle = Service.registerMatrix(Pool[I]);
        if (!Handle) {
          Failures[C] = "registration failed: " + Handle.status().toString();
          return;
        }
        const auto Response = Service.select(*Handle, 5);
        if (!Response) {
          Failures[C] = "serve failed: " + Response.status().toString();
          return;
        }
        if (Response->Selection.KernelIndex != Direct[I].KernelIndex ||
            Response->Selection.UsedGatheredModel !=
                Direct[I].UsedGatheredModel) {
          Failures[C] = "client " + std::to_string(C) + " round " +
                        std::to_string(Round) + " diverged";
          return;
        }
        if (const Status S = Service.release(*Handle); !S.ok()) {
          Failures[C] = "release failed: " + S.toString();
          return;
        }
      }
    });
  for (std::thread &T : Clients)
    T.join();
  for (const std::string &Failure : Failures)
    EXPECT_TRUE(Failure.empty()) << Failure;

  const ServerStats Stats = Service.stats();
  EXPECT_EQ(Stats.Registrations, NumClients * RoundsPerClient);
  EXPECT_EQ(Stats.ActiveHandles, 0u);
  EXPECT_EQ(Stats.PinnedMatrices, 0u);
  EXPECT_EQ(Stats.Requests, NumClients * RoundsPerClient);
}

TEST(SeerServiceTest, ConcurrentUseAfterReleaseIsTypedNeverACrash) {
  SeerService Service(tinyModels());
  const CsrMatrix &M = requestPool()[0];
  auto Handle = Service.registerMatrix(M);
  ASSERT_TRUE(Handle);
  const auto Expected = Service.select(*Handle, 5);
  ASSERT_TRUE(Expected);

  constexpr size_t NumClients = 4;
  std::atomic<size_t> Successes{0};
  std::vector<std::string> Failures(NumClients);
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      for (;;) {
        const auto Response = Service.select(*Handle, 5);
        if (!Response) {
          // The handle raced with release(): the error must be the typed
          // NOT_FOUND, nothing else, and the loop ends cleanly.
          if (Response.status().code() != StatusCode::NotFound)
            Failures[C] = "unexpected error: " + Response.status().toString();
          return;
        }
        if (Response->Selection.KernelIndex !=
            Expected->Selection.KernelIndex) {
          Failures[C] = "diverged before release";
          return;
        }
        Successes.fetch_add(1);
      }
    });

  // Let every client land at least one successful request, then yank the
  // handle out from under them.
  while (Successes.load() < NumClients)
    std::this_thread::yield();
  EXPECT_TRUE(Service.release(*Handle).ok());
  for (std::thread &T : Clients)
    T.join();
  for (const std::string &Failure : Failures)
    EXPECT_TRUE(Failure.empty()) << Failure;
  EXPECT_EQ(Service.stats().ActiveHandles, 0u);
}

TEST(SeerServiceTest, PinnedEntriesSurviveEvictionPressure) {
  const CsrMatrix &Pinned = requestPool()[1];

  // Measure one registered (analysis-only) entry so the budget can hold
  // exactly it and nothing else.
  uint64_t OneEntryBytes = 0;
  {
    SeerService Probe(tinyModels());
    auto Handle = Probe.registerMatrix(Pinned);
    ASSERT_TRUE(Handle);
    OneEntryBytes = Probe.stats().BytesCached;
  }

  ServiceConfig Config;
  Config.Server.CacheShards = 1;
  Config.Server.CacheBudgetBytes = static_cast<size_t>(OneEntryBytes);
  SeerService Service(tinyModels(), Config);
  auto Handle = Service.registerMatrix(Pinned);
  ASSERT_TRUE(Handle);

  // Churn a stream of other matrices through short-lived registrations
  // (register, select, release): every insertion overflows the one-entry
  // budget, and once its handle is released each churn entry is the only
  // eviction candidate — never the pinned entry.
  std::vector<CsrMatrix> Churn;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    Churn.push_back(genUniformRandom(512, 512, 8.0, 0.5, Seed));
  const auto ChurnOnce = [&](const CsrMatrix &M) {
    auto Transient = Service.registerMatrix(M);
    ASSERT_TRUE(Transient) << Transient.status().toString();
    EXPECT_TRUE(Service.select(*Transient, 5).ok());
    EXPECT_TRUE(Service.release(*Transient).ok());
  };
  for (int Pass = 0; Pass < 3; ++Pass)
    for (const CsrMatrix &M : Churn)
      ChurnOnce(M);

  ServerStats Stats = Service.stats();
  EXPECT_GT(Stats.Evictions, 0u); // the churn really caused pressure
  EXPECT_EQ(Stats.PinnedMatrices, 1u);
  // The pinned matrix is the one entry still resident: every churn
  // insertion overflowed the one-entry budget and had to be evicted on
  // release, never the pinned entry. (No re-registration probe here — a
  // cache hit would promote the entry to the protected segment and let
  // it survive the post-release churn below on LRU merit instead of
  // proving the pin.)
  EXPECT_EQ(Stats.CachedMatrices, 1u);
  // And the handle still serves.
  EXPECT_TRUE(Service.select(*Handle, 5).ok());

  // After release the entry is an ordinary victim again: more churn
  // evicts it, and the next registration re-analyzes (bit-identically).
  EXPECT_TRUE(Service.release(*Handle).ok());
  for (const CsrMatrix &M : Churn)
    ChurnOnce(M);
  EXPECT_EQ(Service.stats().PinnedMatrices, 0u);
  const auto Back = Service.registerMatrix(Pinned);
  ASSERT_TRUE(Back) << Back.status().toString();
  EXPECT_FALSE(Service.describe(*Back)->AnalysisReused);
  EXPECT_TRUE(Service.select(*Back, 5).ok());
  EXPECT_GE(Service.stats().Reanalyses, 1u);
  EXPECT_TRUE(Service.release(*Back).ok());
}

//===----------------------------------------------------------------------===//
// Async submission
//===----------------------------------------------------------------------===//

TEST(SeerServiceTest, AsyncSubmissionsMatchSynchronousServing) {
  SeerService Service(tinyModels());
  const std::vector<CsrMatrix> &Pool = requestPool();
  std::vector<MatrixHandle> Handles;
  for (const CsrMatrix &M : Pool) {
    auto Handle = Service.registerMatrix(M);
    ASSERT_TRUE(Handle);
    Handles.push_back(*Handle);
  }

  // Synchronous ground truth.
  std::vector<ServeResponse> Direct;
  for (size_t I = 0; I < 24; ++I) {
    Request R;
    R.Handle = Handles[I % Handles.size()];
    R.Iterations = 1 + static_cast<uint32_t>(I % 7);
    R.Execute = I % 2 == 0;
    const auto Response = Service.serve(R);
    ASSERT_TRUE(Response);
    Direct.push_back(*Response);
  }

  // The same stream submitted asynchronously.
  std::vector<std::future<Expected<ServeResponse>>> Futures;
  for (size_t I = 0; I < 24; ++I) {
    Request R;
    R.Handle = Handles[I % Handles.size()];
    R.Iterations = 1 + static_cast<uint32_t>(I % 7);
    R.Execute = I % 2 == 0;
    auto Future = Service.submit(std::move(R));
    ASSERT_TRUE(Future) << Future.status().toString();
    Futures.push_back(std::move(*Future));
  }
  for (size_t I = 0; I < Futures.size(); ++I) {
    Expected<ServeResponse> Got = Futures[I].get();
    ASSERT_TRUE(Got) << Got.status().toString();
    const ServeResponse Response = *Got;
    EXPECT_EQ(Response.Selection.KernelIndex,
              Direct[I].Selection.KernelIndex);
    EXPECT_EQ(Response.Selection.UsedGatheredModel,
              Direct[I].Selection.UsedGatheredModel);
    EXPECT_EQ(Response.Y, Direct[I].Y);
  }
  Service.drain();
  EXPECT_EQ(Service.stats().AsyncAccepted, 24u);
  EXPECT_EQ(Service.stats().AsyncRejected, 0u);
  for (MatrixHandle Handle : Handles)
    EXPECT_TRUE(Service.release(Handle).ok());
}

TEST(SeerServiceTest, AsyncReleaseAfterSubmitStillCompletes) {
  // A request admitted before release() owns its registration: the
  // future resolves normally even though the handle is gone.
  SeerService Service(tinyModels());
  auto Handle = Service.registerMatrix(requestPool()[0]);
  ASSERT_TRUE(Handle);
  const auto Expected = Service.select(*Handle, 5);
  ASSERT_TRUE(Expected);

  Request R;
  R.Handle = *Handle;
  R.Iterations = 5;
  auto Future = Service.submit(std::move(R));
  ASSERT_TRUE(Future);
  EXPECT_TRUE(Service.release(*Handle).ok());
  const auto Got = Future->get();
  ASSERT_TRUE(Got) << Got.status().toString();
  EXPECT_EQ(Got->Selection.KernelIndex, Expected->Selection.KernelIndex);
  Service.drain();
  EXPECT_EQ(Service.stats().PinnedMatrices, 0u);
}

TEST(SeerServiceTest, AsyncResultIsVisibleOnlyAfterItsPinIsReturned) {
  // The wire's select and execute wait on submit()'s future, reply, and
  // may then close the handle at once. That release() must drop the
  // registration's last reference, so the unpin (and the budget check it
  // triggers) never lands later on a pool thread.
  SeerService Service(tinyModels());
  const auto M = std::make_shared<const CsrMatrix>(requestPool()[2]);
  size_t Leaked = 0;
  for (int I = 0; I < 2000; ++I) {
    auto Handle = Service.registerMatrix(M);
    ASSERT_TRUE(Handle);
    Request R;
    R.Handle = *Handle;
    R.Iterations = 5;
    auto Future = Service.submit(std::move(R));
    ASSERT_TRUE(Future);
    ASSERT_TRUE(Future->get());
    ASSERT_TRUE(Service.release(*Handle).ok());
    Leaked += Service.stats().PinnedMatrices != 0;
  }
  EXPECT_EQ(Leaked, 0u) << "of 2000 iterations left a pin after release()";
  Service.drain();
}

//===----------------------------------------------------------------------===//
// Batched execution
//===----------------------------------------------------------------------===//

TEST(SeerServiceTest, ExecuteBatchMatchesSerialServe) {
  SeerService Service(tinyModels());
  const CsrMatrix &M = requestPool()[1];
  auto Handle = Service.registerMatrix(M);
  ASSERT_TRUE(Handle);
  const auto Operands = buildBatchOperands(5, M.numCols());

  // Serial reference: one self-contained request per operand.
  std::vector<ServeResponse> Serial;
  for (const std::vector<double> &X : Operands) {
    Request R;
    R.Handle = *Handle;
    R.Iterations = 7;
    R.Execute = true;
    R.Operand = X;
    const auto Response = Service.serve(R);
    ASSERT_TRUE(Response) << Response.status().toString();
    Serial.push_back(*Response);
  }

  const auto B = Service.executeBatch(*Handle, Operands, 7);
  ASSERT_TRUE(B) << B.status().toString();
  ASSERT_EQ(B->operands(), Operands.size());
  EXPECT_EQ(B->Selection.KernelIndex, Serial[0].Selection.KernelIndex);
  EXPECT_EQ(B->Selection.UsedGatheredModel,
            Serial[0].Selection.UsedGatheredModel);
  EXPECT_EQ(B->IterationMs, Serial[0].IterationMs);
  for (size_t K = 0; K < Operands.size(); ++K)
    EXPECT_EQ(B->Y[K], Serial[K].Y) << "operand " << K;
  // The serial stream paid preprocessing on its first request; the batch
  // reuses that plan, amortized.
  EXPECT_TRUE(B->PreprocessAmortized);
  EXPECT_EQ(B->PreprocessMs, 0.0);
  EXPECT_TRUE(Service.release(*Handle).ok());
}

TEST(SeerServiceTest, ExecuteBatchErrorsAreTyped) {
  SeerService Service(tinyModels());
  const CsrMatrix &M = requestPool()[0];
  auto Handle = Service.registerMatrix(M);
  ASSERT_TRUE(Handle);
  const auto Operands = buildBatchOperands(2, M.numCols());

  // Unknown handle, empty batch, mismatched operand, zero iterations.
  EXPECT_EQ(Service.executeBatch(MatrixHandle{999}, Operands).status().code(),
            StatusCode::NotFound);
  EXPECT_EQ(Service.executeBatch(*Handle, {}).status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(Service
                .executeBatch(*Handle,
                              {std::vector<double>(M.numCols() + 1, 1.0)})
                .status()
                .code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(Service.executeBatch(*Handle, Operands, 0).status().code(),
            StatusCode::InvalidArgument);

  // Use-after-release is NOT_FOUND, never a crash.
  EXPECT_TRUE(Service.release(*Handle).ok());
  EXPECT_EQ(Service.executeBatch(*Handle, Operands).status().code(),
            StatusCode::NotFound);
}

TEST(SeerServiceTest, ConcurrentExecuteBatchBitIdenticalToSerial) {
  // 8 threads issue batches against shared handles concurrently; every
  // batch must equal the serial answer bit for bit, and the plan cache
  // must have built each (matrix, kernel) plan exactly once.
  SeerService Serial(tinyModels());
  SeerService Concurrent(tinyModels());
  const std::vector<CsrMatrix> &Pool = requestPool();
  std::vector<MatrixHandle> SerialHandles, Handles;
  for (const CsrMatrix &M : Pool) {
    auto H1 = Serial.registerMatrix(M);
    auto H2 = Concurrent.registerMatrix(M);
    ASSERT_TRUE(H1);
    ASSERT_TRUE(H2);
    SerialHandles.push_back(*H1);
    Handles.push_back(*H2);
  }
  std::vector<std::vector<std::vector<double>>> Operands;
  std::vector<BatchResponse> Expected;
  for (size_t I = 0; I < Pool.size(); ++I) {
    Operands.push_back(buildBatchOperands(4, Pool[I].numCols()));
    const auto B = Serial.executeBatch(SerialHandles[I], Operands[I], 5);
    ASSERT_TRUE(B) << B.status().toString();
    Expected.push_back(*B);
  }

  constexpr size_t NumClients = 8;
  constexpr size_t BatchesPerClient = 12;
  std::vector<std::string> Failures(NumClients);
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      for (size_t R = 0; R < BatchesPerClient; ++R) {
        const size_t I = (C + R) % Pool.size();
        const auto B = Concurrent.executeBatch(Handles[I], Operands[I], 5);
        if (!B) {
          Failures[C] = "batch failed: " + B.status().toString();
          return;
        }
        if (B->Selection.KernelIndex != Expected[I].Selection.KernelIndex ||
            B->Y != Expected[I].Y) {
          Failures[C] = "client " + std::to_string(C) + " batch " +
                        std::to_string(R) + " diverged from serial";
          return;
        }
      }
    });
  for (std::thread &T : Clients)
    T.join();
  for (const std::string &Failure : Failures)
    EXPECT_TRUE(Failure.empty()) << Failure;

  const ServerStats Stats = Concurrent.stats();
  EXPECT_EQ(Stats.BatchRequests, NumClients * BatchesPerClient);
  EXPECT_EQ(Stats.BatchedOperands, NumClients * BatchesPerClient * 4);
  EXPECT_EQ(Stats.Executions, NumClients * BatchesPerClient * 4);
  // Every (matrix, kernel) plan was built exactly once; all other
  // batches reused it (racing builders may both prepare, but only the
  // published plan counts as built).
  EXPECT_EQ(Stats.PlansBuilt + Stats.PlansReused,
            NumClients * BatchesPerClient);
  EXPECT_EQ(Stats.PlansBuilt, Pool.size());
  for (MatrixHandle H : SerialHandles)
    EXPECT_TRUE(Serial.release(H).ok());
  for (MatrixHandle H : Handles)
    EXPECT_TRUE(Concurrent.release(H).ok());
}

TEST(SeerServiceTest, AsyncQueueAppliesBackpressure) {
  // Park every pool worker on a latch so admitted submissions cannot
  // finish, then fill the bounded queue: the overflow submission must be
  // rejected with RESOURCE_EXHAUSTED, immediately and typed.
  ServiceConfig Config;
  Config.AsyncQueueCapacity = 2;
  SeerService Service(tinyModels(), Config);
  auto Handle = Service.registerMatrix(requestPool()[0]);
  ASSERT_TRUE(Handle);

  std::mutex Latch;
  std::condition_variable Released;
  bool Release = false;
  const unsigned Workers = ThreadPool::shared().workerCount();
  std::atomic<unsigned> Parked{0};
  for (unsigned W = 0; W < Workers; ++W)
    ThreadPool::shared().submit([&] {
      std::unique_lock<std::mutex> Lock(Latch);
      Parked.fetch_add(1);
      Released.wait(Lock, [&] { return Release; });
    });
  while (Parked.load() < Workers)
    std::this_thread::yield();

  const auto Submit = [&] {
    Request R;
    R.Handle = *Handle;
    R.Iterations = 5;
    return Service.submit(std::move(R));
  };
  auto First = Submit();
  auto Second = Submit();
  auto Overflow = Submit();
  ASSERT_TRUE(First);
  ASSERT_TRUE(Second);
  ASSERT_FALSE(Overflow);
  EXPECT_EQ(Overflow.status().code(), StatusCode::ResourceExhausted);

  {
    std::lock_guard<std::mutex> Lock(Latch);
    Release = true;
  }
  Released.notify_all();
  // Both admitted futures resolve; afterwards the queue has room again.
  First->get();
  Second->get();
  Service.drain();
  auto Retry = Submit();
  ASSERT_TRUE(Retry);
  Retry->get();

  const ServerStats Stats = Service.stats();
  EXPECT_EQ(Stats.AsyncAccepted, 3u);
  EXPECT_EQ(Stats.AsyncRejected, 1u);
  EXPECT_TRUE(Service.release(*Handle).ok());
}

//===----------------------------------------------------------------------===//
// The interactive (stdin) session over the in-process backend
//===----------------------------------------------------------------------===//

TEST(TraceSessionTest, InteractiveTranscript) {
  SeerService Service(tinyModels());
  SpanSink Spans;
  ServiceTraceBackend Backend(Service, Spans);
  std::istringstream In("seer-trace v2\n"
                        "gen web banded 512 4 0.9 1\n"
                        "gen web diagonal 64 1\n"
                        "open web\n"
                        "select nosuch 5\n"
                        "frobnicate web\n"
                        "\n"
                        "select web 5\n"
                        "close web\n"
                        "close web\n"
                        "open web\n"
                        "load bad /nonexistent/matrix.mtx\n"
                        "select bad 1\n"
                        "stats\n"
                        "quit\n"
                        "select web 5\n");
  std::vector<std::string> Answers;
  runInteractive(In, Backend, [&Answers](const std::string &Lines) {
    Answers.push_back(Lines);
  });

  const auto Web =
      materializeMatrixInput(GeneratorSpec{"banded", {512, 4, 0.9, 1}});
  ASSERT_TRUE(Web) << Web.status().toString();
  const auto Ack = [&](uint64_t Handle) {
    return "ok web 512x512 " + std::to_string(Web->nnz()) +
           " nnz handle=" + std::to_string(Handle) + "\n";
  };
  // One answer per line up to `quit`, which ends the session.
  ASSERT_EQ(Answers.size(), 14u);
  EXPECT_EQ(Answers[0], "ok seer-trace v2\n");
  EXPECT_EQ(Answers[1], Ack(1));
  EXPECT_EQ(Answers[2], "error ALREADY_EXISTS duplicate matrix name 'web'\n");
  EXPECT_EQ(Answers[3], "error ALREADY_EXISTS matrix 'web' is already open\n");
  EXPECT_EQ(Answers[4], "error NOT_FOUND unknown matrix 'nosuch'\n");
  EXPECT_EQ(Answers[5],
            "error INVALID_ARGUMENT unknown command 'frobnicate'\n");
  EXPECT_EQ(Answers[6], "");
  EXPECT_EQ(Answers[7].rfind("web kernel=", 0), 0u) << Answers[7];
  EXPECT_EQ(Answers[8], "ok closed web\n");
  // A close of a closed name is answered without reaching the service.
  EXPECT_EQ(Answers[9],
            "error FAILED_PRECONDITION matrix 'web' is closed (open it "
            "first)\n");
  EXPECT_EQ(Answers[10], Ack(2));
  // A definition whose registration fails is forgotten...
  EXPECT_EQ(Answers[11].rfind("error NOT_FOUND ", 0), 0u) << Answers[11];
  EXPECT_EQ(Answers[12], "error NOT_FOUND unknown matrix 'bad'\n");
  // ...and `stats` prints the registry's stat lines.
  EXPECT_NE(Answers[13].find("stat requests 1\n"), std::string::npos);
  EXPECT_NE(Answers[13].find("stat registrations 2\n"), std::string::npos);
  EXPECT_NE(Answers[13].find("stat active_handles 1\n"), std::string::npos);
  EXPECT_EQ(Service.stats().Requests, 1u);
}
