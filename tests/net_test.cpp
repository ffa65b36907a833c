//===- tests/net_test.cpp - Wire protocol and networked serving -----------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The networked-serving contract: every wire frame round-trips bit-
// exactly (doubles travel as IEEE-754 bit patterns), every malformed
// frame — truncated body, trailing bytes, unknown opcode, hostile
// declared length, CSR invariant violations — decodes to a typed
// INVALID_ARGUMENT instead of a misparse, the in-place handle rewrite
// the shard balancer relies on really does leave the rest of the frame
// untouched, wire-level faults (net.accept / net.read / net.write /
// net.frame sites, short reads, mid-stream drops) surface as the typed
// Status the fault plan or the transport dictates, a loopback
// NetServer+NetClient session produces responses bit-identical to the
// in-process API in both serve modes, the consistent-hash shard router
// is deterministic, covering, and honored end-to-end by the balancer
// handler, and a trace replayed through the balancer prints the lines an
// in-process replay prints.
//
//===----------------------------------------------------------------------===//

#include "api/MatrixInput.h"
#include "api/SeerService.h"
#include "core/Seer.h"
#include "net/NetClient.h"
#include "net/NetServer.h"
#include "net/ShardRouter.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "serve/RequestTrace.h"
#include "support/FaultInjector.h"
#include "support/XxHash64.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>

using namespace seer;
using namespace seer::net;

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

/// A deterministic matrix per seed, small enough for fast loopback runs.
CsrMatrix genMatrix(double Seed) {
  auto M = materializeMatrixInput(
      GeneratorSpec{"powerlaw", {512, 1.8, 1, 64, Seed}});
  EXPECT_TRUE(M) << M.status().toString();
  return std::move(*M);
}

/// Doubles whose bit patterns catch lossy round-trips: negative zero,
/// denormals, and values with no short decimal representation.
std::vector<double> trickyDoubles() {
  return {0.0, -0.0, 1.0 / 3.0, 5e-324, -2.2250738585072014e-308,
          1.7976931348623157e308, 123.4567891011121314};
}

bool bitsEqual(const std::vector<double> &A, const std::vector<double> &B) {
  if (A.size() != B.size())
    return false;
  return A.empty() ||
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

/// A response with every field set away from its default.
ServeResponse sampleResponse() {
  ServeResponse R;
  R.Selection.KernelIndex = 3;
  R.Selection.UsedGatheredModel = true;
  R.Selection.FeatureCollectionMs = 0.25;
  R.Selection.InferenceMs = 1.0 / 3.0;
  R.ModeledCollectionMs = 0.5;
  R.Fingerprint = 0x123456789abcdef0ull;
  R.CacheHit = true;
  R.Iterations = 19;
  R.Executed = true;
  R.PreprocessAmortized = true;
  R.PreprocessMs = 0.0625;
  R.ModeledPreprocessMs = 0.125;
  R.IterationMs = 0.0078125;
  R.Y = trickyDoubles();
  R.OracleChecked = true;
  R.OracleKernelIndex = 5;
  R.Mispredicted = true;
  R.RegretMs = 0.03125;
  R.ServiceMicros = 42.5;
  R.Degraded = true;
  return R;
}

//===----------------------------------------------------------------------===//
// Codec round-trips
//===----------------------------------------------------------------------===//

TEST(WireCodec, HelloRoundTripsAndRejectsNothing) {
  const std::string Req = encodeHello(7);
  const auto Version = decodeHello(Req);
  ASSERT_TRUE(Version) << Version.status().toString();
  EXPECT_EQ(*Version, 7u);
  const auto Reply = decodeHelloReply(encodeHelloReply(9));
  ASSERT_TRUE(Reply);
  EXPECT_EQ(*Reply, 9u);
}

TEST(WireCodec, OpenRoundTripsBitExactly) {
  const CsrMatrix M = genMatrix(11);
  const std::string Payload = encodeOpen("web", M);
  const auto Decoded = decodeOpen(Payload);
  ASSERT_TRUE(Decoded) << Decoded.status().toString();
  EXPECT_EQ(Decoded->Name, "web");
  EXPECT_EQ(Decoded->Matrix.numRows(), M.numRows());
  EXPECT_EQ(Decoded->Matrix.numCols(), M.numCols());
  EXPECT_EQ(Decoded->Matrix.nnz(), M.nnz());
  EXPECT_EQ(Decoded->Matrix.rowOffsets(), M.rowOffsets());
  EXPECT_EQ(Decoded->Matrix.columnIndices(), M.columnIndices());
  EXPECT_TRUE(bitsEqual(Decoded->Matrix.values(), M.values()));
}

TEST(WireCodec, RequestsRoundTrip) {
  const auto Close = decodeClose(encodeClose(42));
  ASSERT_TRUE(Close);
  EXPECT_EQ(*Close, 42u);

  const auto Select = decodeSelect(encodeSelect(7, 19));
  ASSERT_TRUE(Select);
  EXPECT_EQ(Select->Handle, 7u);
  EXPECT_EQ(Select->Iterations, 19u);
  EXPECT_FALSE(Select->Verify);
  EXPECT_TRUE(Select->Operand.empty());

  const std::vector<double> Operand = trickyDoubles();
  const auto Exec = decodeExecute(encodeExecute(9, 3, true, Operand));
  ASSERT_TRUE(Exec);
  EXPECT_EQ(Exec->Handle, 9u);
  EXPECT_EQ(Exec->Iterations, 3u);
  EXPECT_TRUE(Exec->Verify);
  EXPECT_TRUE(bitsEqual(Exec->Operand, Operand));

  const auto Batch = decodeBatch(encodeBatch(5, 64, 2));
  ASSERT_TRUE(Batch);
  EXPECT_EQ(Batch->Handle, 5u);
  EXPECT_EQ(Batch->Count, 64u);
  EXPECT_EQ(Batch->Iterations, 2u);

  const auto Fault = decodeFault(encodeFault("net.read nth=1 status=INTERNAL"));
  ASSERT_TRUE(Fault);
  EXPECT_EQ(*Fault, "net.read nth=1 status=INTERNAL");

  // The bodyless requests are just their opcode byte.
  for (Op Kind : {Op::Stats, Op::Metrics, Op::Shutdown}) {
    const std::string Payload(1, static_cast<char>(Kind));
    const auto Decoded = frameOp(Payload);
    ASSERT_TRUE(Decoded);
    EXPECT_EQ(*Decoded, Kind);
  }
}

TEST(WireCodec, RepliesRoundTrip) {
  HandleInfo Info;
  Info.Fingerprint = 0xdeadbeefcafe1234ull;
  Info.NumRows = 512;
  Info.NumCols = 512;
  Info.Nnz = 4097;
  Info.AnalysisReused = true;
  const auto Open = decodeOpenReply(encodeOpenReply(77, Info));
  ASSERT_TRUE(Open) << Open.status().toString();
  EXPECT_EQ(Open->Handle, 77u);
  EXPECT_EQ(Open->Info.Fingerprint, Info.Fingerprint);
  EXPECT_EQ(Open->Info.Nnz, Info.Nnz);
  EXPECT_TRUE(Open->Info.AnalysisReused);

  Status Carried = Status::okStatus();
  ASSERT_TRUE(decodeStatusReply(encodeStatusReply(Status::okStatus()), Carried)
                  .ok());
  EXPECT_TRUE(Carried.ok());
  ASSERT_TRUE(decodeStatusReply(
                  encodeStatusReply(Status::notFound("no handle 9")), Carried)
                  .ok());
  EXPECT_EQ(Carried.code(), StatusCode::NotFound);
  EXPECT_EQ(Carried.message(), "no handle 9");

  const ServeResponse R = sampleResponse();
  const auto Decoded = decodeResponseReply(encodeResponseReply(R));
  ASSERT_TRUE(Decoded) << Decoded.status().toString();
  EXPECT_EQ(Decoded->Selection.KernelIndex, R.Selection.KernelIndex);
  EXPECT_TRUE(Decoded->Selection.UsedGatheredModel);
  EXPECT_EQ(Decoded->Fingerprint, R.Fingerprint);
  EXPECT_EQ(Decoded->Iterations, R.Iterations);
  EXPECT_TRUE(Decoded->Executed);
  EXPECT_TRUE(Decoded->PreprocessAmortized);
  EXPECT_TRUE(bitsEqual(Decoded->Y, R.Y));
  EXPECT_TRUE(Decoded->OracleChecked);
  EXPECT_EQ(Decoded->OracleKernelIndex, R.OracleKernelIndex);
  EXPECT_TRUE(Decoded->Mispredicted);
  EXPECT_TRUE(Decoded->Degraded);
  const double Fields[] = {R.Selection.FeatureCollectionMs,
                           R.Selection.InferenceMs, R.ModeledCollectionMs,
                           R.PreprocessMs, R.ModeledPreprocessMs,
                           R.IterationMs, R.RegretMs, R.ServiceMicros};
  const double Back[] = {Decoded->Selection.FeatureCollectionMs,
                         Decoded->Selection.InferenceMs,
                         Decoded->ModeledCollectionMs, Decoded->PreprocessMs,
                         Decoded->ModeledPreprocessMs, Decoded->IterationMs,
                         Decoded->RegretMs, Decoded->ServiceMicros};
  EXPECT_EQ(0, std::memcmp(Fields, Back, sizeof(Fields)));

  BatchResponse B;
  B.Selection.KernelIndex = 2;
  B.Fingerprint = 99;
  B.Iterations = 4;
  B.IterationMs = 2.0 / 7.0;
  B.Y = {trickyDoubles(), {1.5, -2.5}, {}};
  const auto BDecoded = decodeBatchReply(encodeBatchReply(B));
  ASSERT_TRUE(BDecoded) << BDecoded.status().toString();
  EXPECT_EQ(BDecoded->Selection.KernelIndex, 2u);
  ASSERT_EQ(BDecoded->Y.size(), 3u);
  EXPECT_TRUE(bitsEqual(BDecoded->Y[0], B.Y[0]));
  EXPECT_TRUE(bitsEqual(BDecoded->Y[1], B.Y[1]));
  EXPECT_TRUE(BDecoded->Y[2].empty());

  const auto Text = decodeTextReply(
      encodeTextReply(Op::RText, "stat requests 5\nstat hits 2\n"));
  ASSERT_TRUE(Text);
  EXPECT_EQ(*Text, "stat requests 5\nstat hits 2\n");
}

// The frame layout, pinned byte for byte: every request and reply frame,
// encoded from fixed inputs, hashes to the value recorded for wire v1. A
// codec change that moves a byte fails here; a deliberate layout change
// bumps WireVersion and records these again.
TEST(WireCodec, EveryFrameKeepsItsV1Bytes) {
  const CsrMatrix M = CsrMatrix::fromArrays(
      4, 6, {0, 2, 2, 4, 5}, {0, 3, 1, 5, 2}, {1.5, -2.0, 0.25, 3.0, -0.5});
  const CsrMatrix Empty = CsrMatrix::fromArrays(0, 0, {0}, {}, {});
  HandleInfo Info;
  Info.Fingerprint = 0xdeadbeefcafe1234ull;
  Info.NumRows = 512;
  Info.NumCols = 384;
  Info.Nnz = 4097;
  Info.AnalysisReused = true;
  const ServeResponse R = sampleResponse();
  BatchResponse B;
  B.Selection.KernelIndex = 2;
  B.Selection.UsedGatheredModel = true;
  B.Selection.FeatureCollectionMs = 0.75;
  B.Selection.InferenceMs = 2.0 / 3.0;
  B.ModeledCollectionMs = 1.25;
  B.Fingerprint = 99;
  B.CacheHit = true;
  B.Iterations = 4;
  B.PreprocessAmortized = true;
  B.PreprocessMs = 0.5;
  B.ModeledPreprocessMs = 0.5;
  B.IterationMs = 2.0 / 7.0;
  B.Y = {trickyDoubles(), {1.5, -2.5}, {}};
  B.ServiceMicros = 7.25;
  B.Degraded = true;
  std::string Framed;
  appendFrame(Framed, encodeSelect(7, 19));

  struct Probe {
    const char *Name;
    std::string Payload;
    uint64_t Hash;
  };
  const Probe Probes[] = {
      {"hello", encodeHello(), 0x9e8a3c441b92e3f4ull},
      {"hello v7", encodeHello(7), 0x9c10b54f1b64c2ccull},
      {"open", encodeOpen("m", M), 0xb5b5432f466a4267ull},
      {"open empty", encodeOpen("", Empty), 0x7581119e03ee09bdull},
      {"close", encodeClose(0x0123456789abcdefull), 0x458368ab97fbe6eull},
      {"select", encodeSelect(7, 19), 0x2a62bd0876cfd7c1ull},
      {"execute", encodeExecute(9, 3, true, trickyDoubles()),
       0x5e82d9d73929291dull},
      {"execute ones", encodeExecute(9, 1, false, {}), 0x936ac59449b1dfd0ull},
      {"batch", encodeBatch(5, 64, 2), 0x106aeba099f920e9ull},
      {"fault", encodeFault("net.read nth=1 status=INTERNAL"),
       0xc2ddf227974979dull},
      {"stats", encodeStats(), 0x431f0f810a7002a7ull},
      {"metrics", encodeMetrics(), 0x669e741f161d1d56ull},
      {"shutdown", encodeShutdown(), 0xcafc7706cee4572bull},
      {"rhello", encodeHelloReply(), 0xc809c083f670bfdbull},
      {"ropen", encodeOpenReply(77, Info), 0x539ba2aa22f8b99ull},
      {"rstatus ok", encodeStatusReply(Status::okStatus()),
       0x90b7c16c4ae08c75ull},
      {"rstatus not found", encodeStatusReply(Status::notFound("no handle 9")),
       0x2a553563ba7d8f2dull},
      {"rstatus deadline",
       encodeStatusReply(Status::deadlineExceeded("too late")),
       0xb16606075df2219aull},
      {"rresponse", encodeResponseReply(R), 0x601f7860c70b2febull},
      {"rresponse default", encodeResponseReply(ServeResponse()),
       0x917f3491e9bc8af3ull},
      {"rbatch", encodeBatchReply(B), 0x88284d54a5abba5cull},
      {"rbatch default", encodeBatchReply(BatchResponse()),
       0xa228fb5bbf3c6e4bull},
      {"rtext", encodeTextReply(Op::RText, "stat requests 5\n"),
       0xe629a7342d25de37ull},
      {"framed select", Framed, 0xa99dbbdecb2b6f32ull},
  };
  EXPECT_EQ(WireVersion, 1u);
  for (const Probe &P : Probes)
    EXPECT_EQ(xxHash64(P.Payload), P.Hash)
        << P.Name << ": 0x" << std::hex << xxHash64(P.Payload) << "ull";
}

//===----------------------------------------------------------------------===//
// Malformed frames: typed errors, never misparses
//===----------------------------------------------------------------------===//

/// The decoder's and the balancer's verdicts on an Open frame.
void expectOpenRejected(const std::string &Payload, const std::string &What) {
  EXPECT_EQ(decodeOpen(Payload).status().code(), StatusCode::InvalidArgument)
      << What;
  EXPECT_EQ(openFrameFingerprint(Payload).status().code(),
            StatusCode::InvalidArgument)
      << What;
}

/// Overwrites the \p Bytes-wide little-endian field at \p At.
void forgeField(std::string &Payload, size_t At, uint64_t Value, size_t Bytes) {
  for (size_t I = 0; I < Bytes; ++I)
    Payload[At + I] = static_cast<char>((Value >> (8 * I)) & 0xff);
}

/// The verdict of \p Kind's decoder on \p Payload (OK when it decodes).
Status decodeAs(Op Kind, const std::string &Payload) {
  Status Carried = Status::okStatus();
  switch (Kind) {
  case Op::Hello:
    return decodeHello(Payload).status();
  case Op::Open:
    return decodeOpen(Payload).status();
  case Op::Close:
    return decodeClose(Payload).status();
  case Op::Select:
    return decodeSelect(Payload).status();
  case Op::Execute:
    return decodeExecute(Payload).status();
  case Op::Batch:
    return decodeBatch(Payload).status();
  case Op::Fault:
    return decodeFault(Payload).status();
  case Op::RHello:
    return decodeHelloReply(Payload).status();
  case Op::ROpen:
    return decodeOpenReply(Payload).status();
  case Op::RStatus:
    return decodeStatusReply(Payload, Carried);
  case Op::RResponse:
    return decodeResponseReply(Payload).status();
  case Op::RBatch:
    return decodeBatchReply(Payload).status();
  case Op::RText:
    return decodeTextReply(Payload).status();
  default:
    return Status::internal("no decoder for opcode " +
                            std::to_string(unsigned(Kind)));
  }
}

// The bulk array copies trust the count checks alone, so every truncation
// and every forged count must be a typed error before any copy.
TEST(WireCodec, MalformedFramesAreTypedErrors) {
  // Empty payload and unknown opcode.
  EXPECT_EQ(frameOp("").status().code(), StatusCode::InvalidArgument);
  EXPECT_EQ(frameOp(std::string(1, '\x7f')).status().code(),
            StatusCode::InvalidArgument);

  // Truncated body: every proper prefix of each well-formed frame, one of
  // every opcode that has a body. The matrix has an odd nnz, so its
  // column array ends mid-word.
  const CsrMatrix M = CsrMatrix::fromArrays(
      4, 6, {0, 2, 2, 4, 5}, {0, 3, 1, 5, 2}, {1.5, -2.0, 0.25, 3.0, -0.5});
  ServeResponse Response;
  Response.Y = trickyDoubles();
  BatchResponse Batch;
  Batch.Y = {trickyDoubles(), {}, {1.5}};
  HandleInfo Info;
  Info.NumRows = 4;
  const std::string Open = encodeOpen("m", M);
  const std::string Reply = encodeResponseReply(Response);
  const std::string Frames[] = {
      encodeHello(), Open, encodeClose(1), encodeSelect(1, 5),
      encodeExecute(1, 5, true, {1.0, 2.0}), encodeBatch(1, 8, 2),
      encodeFault("clear"), encodeHelloReply(), encodeOpenReply(3, Info),
      encodeStatusReply(Status::notFound("gone")), Reply,
      encodeBatchReply(Batch), encodeTextReply(Op::RText, "stat x 1\n")};
  for (const std::string &Payload : Frames) {
    const Op Kind = *frameOp(Payload);
    ASSERT_TRUE(decodeAs(Kind, Payload).ok()) << "opcode " << unsigned(Kind);
    for (size_t Len = 0; Len < Payload.size(); ++Len) {
      const std::string Short = Payload.substr(0, Len);
      if (Kind == Op::Open) {
        expectOpenRejected(Short, "open prefix " + std::to_string(Len));
        continue;
      }
      const Status Worst = decodeAs(Kind, Short);
      EXPECT_EQ(Worst.code(), StatusCode::InvalidArgument)
          << "opcode " << unsigned(Kind) << " prefix " << Len << ": "
          << Worst.toString();
    }

    // Trailing bytes are rejected, not ignored.
    for (const std::string &Tail : {std::string("x"), std::string(2, '\0')}) {
      if (Kind == Op::Open) {
        expectOpenRejected(Payload + Tail, "open with a tail");
        continue;
      }
      const Status Padded = decodeAs(Kind, Payload + Tail);
      EXPECT_EQ(Padded.code(), StatusCode::InvalidArgument)
          << "opcode " << unsigned(Kind) << " tail " << Tail.size() << ": "
          << Padded.toString();
    }
  }

  // A hostile operand count cannot request memory the frame lacks.
  std::string Exec = encodeExecute(1, 5, false, {});
  // The empty operand's u64 count is the last 8 bytes; forge it huge.
  for (size_t I = 0; I < 8; ++I)
    Exec[Exec.size() - 1 - I] = '\xff';
  EXPECT_EQ(decodeExecute(Exec).status().code(), StatusCode::InvalidArgument);

  // Forged dimensions, each larger and smaller than the arrays carry,
  // including counts whose byte size wraps 64 bits.
  const size_t RowsAt = 1 + 4 + 1, NnzAt = RowsAt + 8;
  for (uint64_t Rows : {uint64_t(M.numRows()) + 1, uint64_t(M.numRows()) - 1,
                        uint64_t(0), uint64_t(0xffffffffu)}) {
    std::string Forged = Open;
    forgeField(Forged, RowsAt, Rows, 4);
    expectOpenRejected(Forged, "rows " + std::to_string(Rows));
  }
  for (uint64_t Nnz : {M.nnz() + 1, M.nnz() - 1, uint64_t(0),
                       ~uint64_t(0), ~uint64_t(0) / 4 + 1}) {
    std::string Forged = Open;
    forgeField(Forged, NnzAt, Nnz, 8);
    expectOpenRejected(Forged, "nnz " + std::to_string(Nnz));
  }

  // Forged operand counts in a request and Y counts in a reply. The
  // count follows an execute frame's handle, iterations and verify flag,
  // and a response's first 73 bytes.
  const std::string Exec3 = encodeExecute(1, 5, false, {1.0, 2.0, 3.0});
  for (uint64_t Count : {uint64_t(2), uint64_t(4), ~uint64_t(0) / 8 + 1}) {
    std::string Forged = Exec3;
    forgeField(Forged, 1 + 8 + 4 + 1, Count, 8);
    EXPECT_EQ(decodeExecute(Forged).status().code(),
              StatusCode::InvalidArgument)
        << "operand count " << Count;
    std::string ForgedReply = Reply;
    forgeField(ForgedReply, 73, Count, 8);
    EXPECT_EQ(decodeResponseReply(ForgedReply).status().code(),
              StatusCode::InvalidArgument)
        << "Y count " << Count;
  }
}

TEST(WireCodec, FrameLengthValidation) {
  EXPECT_EQ(validateFrameLength(0, DefaultMaxFrameBytes).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(validateFrameLength(DefaultMaxFrameBytes + 1, DefaultMaxFrameBytes)
                .code(),
            StatusCode::InvalidArgument);
  EXPECT_TRUE(validateFrameLength(1, DefaultMaxFrameBytes).ok());
  EXPECT_TRUE(
      validateFrameLength(DefaultMaxFrameBytes, DefaultMaxFrameBytes).ok());
}

TEST(WireCodec, OpenRejectsInvariantViolations) {
  const CsrMatrix M = genMatrix(5);

  // Corrupt the final row offset (must equal nnz). Offsets start after
  // opcode + name (u32 len + bytes) + rows/cols (u32 each) + nnz (u64).
  std::string Payload = encodeOpen("m", M);
  const size_t OffsetsStart = 1 + 4 + 1 + 4 + 4 + 8;
  const size_t LastOffset = OffsetsStart + 8 * M.numRows();
  Payload[LastOffset] = static_cast<char>(Payload[LastOffset] + 1);
  const Status Bad = decodeOpen(Payload).status();
  EXPECT_EQ(Bad.code(), StatusCode::InvalidArgument) << Bad.toString();

  // A column index >= NumCols is rejected before fromArrays asserts.
  CsrMatrix Narrow = genMatrix(5);
  std::string Payload2 = encodeOpen("m", Narrow);
  const size_t ColumnsStart = OffsetsStart + 8 * (size_t(Narrow.numRows()) + 1);
  for (size_t I = 0; I < 4; ++I)
    Payload2[ColumnsStart + I] = '\xff';
  const Status BadCol = decodeOpen(Payload2).status();
  EXPECT_EQ(BadCol.code(), StatusCode::InvalidArgument) << BadCol.toString();
}

TEST(WireCodec, HandleRewriteTouchesOnlyTheHandle) {
  for (std::string Payload :
       {encodeClose(7), encodeSelect(7, 19),
        encodeExecute(7, 3, true, trickyDoubles()), encodeBatch(7, 64, 2)}) {
    const auto Before = requestHandle(Payload);
    ASSERT_TRUE(Before);
    EXPECT_EQ(*Before, 7u);
    const std::string Original = Payload;
    ASSERT_TRUE(rewriteRequestHandle(Payload, 0xfeedfacecafebeefull).ok());
    const auto After = requestHandle(Payload);
    ASSERT_TRUE(After);
    EXPECT_EQ(*After, 0xfeedfacecafebeefull);
    // Everything outside bytes [1, 9) is untouched.
    EXPECT_EQ(Payload[0], Original[0]);
    EXPECT_EQ(Payload.substr(9), Original.substr(9));
  }

  // Non-handle-bearing frames refuse the rewrite.
  std::string Hello = encodeHello();
  EXPECT_EQ(requestHandle(Hello).status().code(), StatusCode::InvalidArgument);
  EXPECT_EQ(rewriteRequestHandle(Hello, 1).code(),
            StatusCode::InvalidArgument);
  std::string Short(1, static_cast<char>(Op::Close));
  EXPECT_EQ(requestHandle(Short).status().code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Fingerprints: one function behind the shard and the balancer
//===----------------------------------------------------------------------===//

TEST(Fingerprint, XxHash64KnownAnswers) {
  EXPECT_EQ(xxHash64(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxHash64("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxHash64("abc"), 0x44bc2cf5ad770999ull);
}

TEST(Fingerprint, MatrixAndOpenFrameEntryPointsAgree) {
  std::vector<CsrMatrix> Shapes;
  Shapes.push_back(CsrMatrix::fromArrays(0, 0, {0}, {}, {}));
  Shapes.push_back(CsrMatrix::fromArrays(5, 5, {0, 0, 0, 0, 0, 0}, {}, {}));
  Shapes.push_back(CsrMatrix::fromArrays(1, 1, {0, 1}, {0}, {2.5}));
  // Odd nnz: the column array ends mid-word, so the values start at an
  // offset the name's length and the columns both shift.
  Shapes.push_back(CsrMatrix::fromArrays(3, 7, {0, 2, 3, 5},
                                         {1, 6, 0, 2, 4},
                                         {1.0, -0.0, 5e-324, 1.0 / 3.0, 7.0}));
  auto Uniform = materializeMatrixInput(
      GeneratorSpec{"uniform", {32768, 32768, 12, 0.5, 1}});
  ASSERT_TRUE(Uniform) << Uniform.status().toString();
  Shapes.push_back(std::move(*Uniform));

  std::vector<uint64_t> Seen;
  for (const CsrMatrix &M : Shapes) {
    const uint64_t Expected = matrixFingerprint(M);
    Seen.push_back(Expected);
    // Names of length 0-8 shift the arrays through every alignment.
    for (size_t NameLength = 0; NameLength <= 8; ++NameLength) {
      const std::string Frame = encodeOpen(std::string(NameLength, 'n'), M);
      const auto InFrame = openFrameFingerprint(Frame);
      ASSERT_TRUE(InFrame) << InFrame.status().toString();
      EXPECT_EQ(*InFrame, Expected)
          << M.numRows() << " rows, name length " << NameLength;
      const auto Decoded = decodeOpen(Frame);
      ASSERT_TRUE(Decoded) << Decoded.status().toString();
      EXPECT_EQ(matrixFingerprint(Decoded->Matrix), Expected);
    }
  }
  // The dimensions are hashed too: 0x0 and 5x5-empty carry no array
  // content beyond their offsets, yet fingerprint apart.
  std::sort(Seen.begin(), Seen.end());
  EXPECT_EQ(std::unique(Seen.begin(), Seen.end()), Seen.end());
}

//===----------------------------------------------------------------------===//
// Wire-level faults and transport edge cases
//===----------------------------------------------------------------------===//

TEST(NetFaults, SitesAreRegistered) {
  const auto Names = faultSiteNames();
  for (const char *Site : {"net.accept", "net.read", "net.write", "net.frame"})
    EXPECT_TRUE(std::find(Names.begin(), Names.end(), std::string(Site)) !=
                Names.end())
        << Site;
}

TEST(NetFaults, FrameSiteForgesShortFrameFailures) {
  DisarmGuard Guard;
  armPlan("net.frame nth=1 status=UNAVAILABLE forged short frame");
  const Status Forged = validateFrameLength(64, DefaultMaxFrameBytes);
  EXPECT_EQ(Forged.code(), StatusCode::Unavailable) << Forged.toString();
  // The rule fired once; the next validation is clean.
  EXPECT_TRUE(validateFrameLength(64, DefaultMaxFrameBytes).ok());
}

/// A listener + connected-pair fixture for raw socket tests.
struct SocketPair {
  Socket Server; // accepted end
  Socket Client;

  static SocketPair make() {
    auto Listener = Socket::listenOn("127.0.0.1", 0);
    EXPECT_TRUE(Listener.ok()) << Listener.status().toString();
    const auto Port = Listener->localPort();
    EXPECT_TRUE(Port.ok());
    auto Client = Socket::connectTo("127.0.0.1", *Port);
    EXPECT_TRUE(Client.ok()) << Client.status().toString();
    auto Accepted = Listener->accept();
    EXPECT_TRUE(Accepted.ok()) << Accepted.status().toString();
    return SocketPair{std::move(*Accepted), std::move(*Client)};
  }
};

TEST(NetFaults, CleanCloseVsMidFrameDrop) {
  {
    // EOF at a frame boundary is a clean close, not an error.
    SocketPair Pair = SocketPair::make();
    Pair.Client = Socket(); // close without sending anything
    std::string Payload;
    bool CleanClose = false;
    const Status S =
        readFrame(Pair.Server, DefaultMaxFrameBytes, Payload, &CleanClose);
    EXPECT_TRUE(S.ok()) << S.toString();
    EXPECT_TRUE(CleanClose);
    EXPECT_TRUE(Payload.empty());
  }
  {
    // A connection torn mid-frame is UNAVAILABLE: the length prefix
    // promised bytes that never arrive.
    SocketPair Pair = SocketPair::make();
    const std::string Frame = [] {
      std::string Wire;
      appendFrame(Wire, encodeSelect(1, 5));
      return Wire;
    }();
    ASSERT_TRUE(Pair.Client.sendAll(Frame.data(), Frame.size() / 2).ok());
    Pair.Client = Socket(); // drop mid-frame
    std::string Payload;
    bool CleanClose = false;
    const Status S =
        readFrame(Pair.Server, DefaultMaxFrameBytes, Payload, &CleanClose);
    EXPECT_EQ(S.code(), StatusCode::Unavailable) << S.toString();
    EXPECT_FALSE(CleanClose);
  }
}

TEST(NetFaults, OversizedDeclaredLengthIsRejectedBeforeAllocation) {
  SocketPair Pair = SocketPair::make();
  // 4-byte little-endian length prefix declaring ~4 GiB.
  const unsigned char Huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(Pair.Client.sendAll(Huge, sizeof(Huge)).ok());
  std::string Payload;
  const Status S = readFrame(Pair.Server, DefaultMaxFrameBytes, Payload);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument) << S.toString();
}

TEST(NetFaults, WriteFrameChecksTheWriteSiteOncePerFrame) {
  DisarmGuard Guard;
  SocketPair Pair = SocketPair::make();
  // Every second check fails: with one check per frame the first frame
  // goes out and the second fails; two checks per frame would fail the
  // first.
  armPlan("net.write every=2 status=UNAVAILABLE injected write fault");
  ASSERT_TRUE(writeFrame(Pair.Client, encodeClose(7)).ok());
  EXPECT_EQ(writeFrame(Pair.Client, encodeClose(8)).code(),
            StatusCode::Unavailable);
  FaultInjector::instance().disarm();
  std::string Payload;
  ASSERT_TRUE(readFrame(Pair.Server, DefaultMaxFrameBytes, Payload).ok());
  EXPECT_EQ(Payload, encodeClose(7));
}

TEST(NetFaults, WriteFrameResumesShortWrites) {
  SocketPair Pair = SocketPair::make();
  // A blocking send returns short only when a signal or a send timeout
  // interrupts it. Small socket buffers, a send timeout and a reader that
  // drains slowly make the gathered sendmsg return partway, so the
  // header and payload must be resumed mid-part.
  const int Buffer = 32 << 10;
  ASSERT_EQ(::setsockopt(Pair.Client.fd(), SOL_SOCKET, SO_SNDBUF, &Buffer,
                         sizeof(Buffer)),
            0);
  ASSERT_EQ(::setsockopt(Pair.Server.fd(), SOL_SOCKET, SO_RCVBUF, &Buffer,
                         sizeof(Buffer)),
            0);
  timeval Timeout{};
  Timeout.tv_usec = 250000;
  ASSERT_EQ(::setsockopt(Pair.Client.fd(), SOL_SOCKET, SO_SNDTIMEO, &Timeout,
                         sizeof(Timeout)),
            0);
  std::string Big(8u << 20, '\0');
  for (size_t I = 0; I < Big.size(); ++I)
    Big[I] = static_cast<char>(I * 131 + (I >> 13));
  std::string Got(4 + Big.size(), '\0');
  Status ReadStatus = Status::okStatus();
  std::thread Reader([&] {
    const size_t Chunk = 16 << 10;
    for (size_t At = 0; At < Got.size() && ReadStatus.ok(); At += Chunk) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ReadStatus =
          Pair.Server.recvAll(&Got[At], std::min(Chunk, Got.size() - At));
    }
  });
  const auto Start = std::chrono::steady_clock::now();
  const Status Wrote = writeFrame(Pair.Client, Big);
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  Reader.join();
  ASSERT_TRUE(Wrote.ok()) << Wrote.toString();
  ASSERT_TRUE(ReadStatus.ok()) << ReadStatus.toString();
  // Each sendmsg returns within the timeout, so a longer write took
  // several calls: the premise of this test held.
  EXPECT_GT(Elapsed, std::chrono::milliseconds(250));
  std::string Framed;
  appendFrame(Framed, Big);
  EXPECT_TRUE(Got == Framed);
}

TEST(NetFaults, ReadAndWriteSitesInject) {
  DisarmGuard Guard;
  SocketPair Pair = SocketPair::make();
  armPlan("net.read nth=1 status=UNAVAILABLE injected read fault\n"
          "net.write nth=1 status=UNAVAILABLE injected write fault");
  const char Byte = 'x';
  const Status W = Pair.Client.sendAll(&Byte, 1);
  EXPECT_EQ(W.code(), StatusCode::Unavailable) << W.toString();
  std::string Payload;
  const Status R = readFrame(Pair.Server, DefaultMaxFrameBytes, Payload);
  EXPECT_EQ(R.code(), StatusCode::Unavailable) << R.toString();
}

//===----------------------------------------------------------------------===//
// Loopback serving: NetServer + NetClient vs the in-process API
//===----------------------------------------------------------------------===//

/// Starts a loopback server over \p Handler and returns it.
std::unique_ptr<NetServer> startLoopback(FrameHandler &Handler) {
  NetServerConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = 0;
  auto Server = NetServer::start(Handler, Config);
  EXPECT_TRUE(Server.ok()) << Server.status().toString();
  return std::move(*Server);
}

TEST(NetServerTest, EpollLoopbackBitIdentity) {
  SeerService Remote(tinyModels());
  ServiceFrameHandler Handler(Remote);
  auto Server = startLoopback(Handler);
  auto Client = NetClient::connect("127.0.0.1", Server->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();

  // The in-process reference: same models, same matrices, same sequence.
  SeerService Local(tinyModels());

  for (double Seed : {2.0, 3.0, 4.0}) {
    const CsrMatrix M = genMatrix(Seed);
    const auto Open = Client->open("m", M);
    ASSERT_TRUE(Open) << Open.status().toString();
    auto LocalHandle = Local.registerMatrix(M);
    ASSERT_TRUE(LocalHandle);

    const auto RemoteSel = Client->select(Open->Handle, 19);
    ASSERT_TRUE(RemoteSel) << RemoteSel.status().toString();
    Request Req;
    Req.Handle = *LocalHandle;
    Req.Iterations = 19;
    const auto LocalSel = Local.serve(Req);
    ASSERT_TRUE(LocalSel);
    EXPECT_EQ(RemoteSel->Selection.KernelIndex,
              LocalSel->Selection.KernelIndex);
    EXPECT_EQ(RemoteSel->Fingerprint, LocalSel->Fingerprint);
    EXPECT_EQ(RemoteSel->Selection.UsedGatheredModel,
              LocalSel->Selection.UsedGatheredModel);

    const auto RemoteExec = Client->execute(Open->Handle, 19, true, {});
    ASSERT_TRUE(RemoteExec) << RemoteExec.status().toString();
    Req.Execute = true;
    Req.VerifyOracle = true;
    const auto LocalExec = Local.serve(Req);
    ASSERT_TRUE(LocalExec);
    EXPECT_EQ(RemoteExec->Selection.KernelIndex,
              LocalExec->Selection.KernelIndex);
    EXPECT_TRUE(bitsEqual(RemoteExec->Y, LocalExec->Y));
    EXPECT_EQ(RemoteExec->OracleKernelIndex, LocalExec->OracleKernelIndex);
    EXPECT_EQ(RemoteExec->Mispredicted, LocalExec->Mispredicted);

    const auto RemoteBatch = Client->batch(Open->Handle, 4, 19);
    ASSERT_TRUE(RemoteBatch) << RemoteBatch.status().toString();
    const auto LocalBatch = Local.executeBatch(
        *LocalHandle, buildBatchOperands(4, M.numCols()), 19);
    ASSERT_TRUE(LocalBatch);
    ASSERT_EQ(RemoteBatch->Y.size(), LocalBatch->Y.size());
    for (size_t I = 0; I < RemoteBatch->Y.size(); ++I)
      EXPECT_TRUE(bitsEqual(RemoteBatch->Y[I], LocalBatch->Y[I]));
    // One operand past the cap is refused before any operand is built.
    const auto TooMany = Client->batch(Open->Handle, MaxBatchOperands + 1, 19);
    ASSERT_FALSE(TooMany);
    EXPECT_EQ(TooMany.status().code(), StatusCode::InvalidArgument);

    EXPECT_TRUE(Client->close(Open->Handle).ok());
    EXPECT_TRUE(Local.release(*LocalHandle).ok());
  }

  // Typed errors cross the wire as the same code the API returns.
  const auto Dead = Client->select(0xdead, 1);
  EXPECT_FALSE(Dead);
  EXPECT_EQ(Dead.status().code(), StatusCode::NotFound);

  // A garbage opcode is answered with INVALID_ARGUMENT and counted.
  const auto Garbage = Client->call(std::string(1, '\x6e'));
  ASSERT_TRUE(Garbage.ok()) << Garbage.status().toString();
  Status Carried = Status::okStatus();
  ASSERT_TRUE(decodeStatusReply(*Garbage, Carried).ok());
  EXPECT_EQ(Carried.code(), StatusCode::InvalidArgument);

  // Stats and metrics text flow through.
  const auto Stats = Client->statsText();
  ASSERT_TRUE(Stats);
  EXPECT_NE(Stats->find("stat requests "), std::string::npos);
  EXPECT_NE(Stats->find("stat net_requests "), std::string::npos);
  const auto Metrics = Client->metricsText();
  ASSERT_TRUE(Metrics);
  EXPECT_NE(Metrics->find("seer_requests_total"), std::string::npos);

  Server->requestStop();
  Server->join();
}

TEST(NetServerTest, ShutdownOpStopsTheServer) {
  SeerService Service(tinyModels());
  ServiceFrameHandler Handler(Service);
  auto Server = startLoopback(Handler);
  auto Client = NetClient::connect("127.0.0.1", Server->port());
  ASSERT_TRUE(Client.ok());
  EXPECT_TRUE(Client->shutdownServer().ok());
  Server->join(); // returns because the wire op stopped the server
}

TEST(NetServerTest, ConnectionCloseReleasesHandles) {
  SeerService Service(tinyModels());
  ServiceFrameHandler Handler(Service);
  auto Server = startLoopback(Handler);
  {
    auto Client = NetClient::connect("127.0.0.1", Server->port());
    ASSERT_TRUE(Client.ok());
    const auto Open = Client->open("m", genMatrix(6));
    ASSERT_TRUE(Open);
    EXPECT_EQ(Service.stats().ActiveHandles, 1u);
  } // client dropped without Close
  // The server notices the close and releases the session's handles.
  for (int I = 0; I < 200 && Service.stats().ActiveHandles != 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Service.stats().ActiveHandles, 0u);
  Server->requestStop();
  Server->join();
}

//===----------------------------------------------------------------------===//
// Consistent-hash sharding
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, DeterministicAcrossInstances) {
  const ShardRouter A(4), B(4);
  for (uint64_t Fp = 1; Fp < 4096; Fp += 7)
    EXPECT_EQ(A.route(Fp * 0x9e3779b97f4a7c15ull),
              B.route(Fp * 0x9e3779b97f4a7c15ull));
}

TEST(ShardRouterTest, CoversAllShardsReasonablyEvenly) {
  const size_t Shards = 4;
  const ShardRouter Router(Shards);
  std::vector<size_t> Counts(Shards, 0);
  const size_t Keys = 10000;
  for (uint64_t Fp = 0; Fp < Keys; ++Fp) {
    const size_t Shard = Router.route(Fp * 0x9e3779b97f4a7c15ull + 1);
    ASSERT_LT(Shard, Shards);
    ++Counts[Shard];
  }
  // With 64 virtual nodes per shard the split stays within a loose band
  // of perfect balance — enough to guarantee linear aggregate capacity.
  for (size_t Shard = 0; Shard < Shards; ++Shard) {
    EXPECT_GT(Counts[Shard], Keys / Shards / 3) << "shard " << Shard;
    EXPECT_LT(Counts[Shard], Keys * 2 / Shards) << "shard " << Shard;
  }
}

TEST(ShardRouterTest, SingleShardRoutesEverything) {
  const ShardRouter Router(1);
  for (uint64_t Fp : {0ull, 1ull, 0xffffffffffffffffull})
    EXPECT_EQ(Router.route(Fp), 0u);
}

TEST(LbHandlerTest, RoutesSessionsAcrossShardsBitIdentically) {
  // Two real shard servers, each over its own service.
  SeerService ShardA(tinyModels()), ShardB(tinyModels());
  ServiceFrameHandler HandlerA(ShardA), HandlerB(ShardB);
  auto ServerA = startLoopback(HandlerA);
  auto ServerB = startLoopback(HandlerB);

  LbHandler Lb({ShardEndpoint{"127.0.0.1", ServerA->port()},
                ShardEndpoint{"127.0.0.1", ServerB->port()}});
  auto LbServer = startLoopback(Lb);
  auto Client = NetClient::connect("127.0.0.1", LbServer->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();

  // The in-process reference.
  SeerService Local(tinyModels());

  std::vector<size_t> RoutedShard;
  for (double Seed : {10.0, 11.0, 12.0, 13.0, 14.0, 15.0}) {
    const CsrMatrix M = genMatrix(Seed);
    const auto Open = Client->open("m", M);
    ASSERT_TRUE(Open) << Open.status().toString();
    RoutedShard.push_back(Lb.router().route(Open->Info.Fingerprint));

    const auto Remote = Client->execute(Open->Handle, 19, false, {});
    ASSERT_TRUE(Remote) << Remote.status().toString();
    auto LocalHandle = Local.registerMatrix(M);
    ASSERT_TRUE(LocalHandle);
    Request Req;
    Req.Handle = *LocalHandle;
    Req.Iterations = 19;
    Req.Execute = true;
    const auto Reference = Local.serve(Req);
    ASSERT_TRUE(Reference);
    EXPECT_EQ(Remote->Selection.KernelIndex, Reference->Selection.KernelIndex);
    EXPECT_TRUE(bitsEqual(Remote->Y, Reference->Y));
    EXPECT_TRUE(Client->close(Open->Handle).ok());
    EXPECT_TRUE(Local.release(*LocalHandle).ok());
  }

  // Registrations really landed on the shard the ring names: each shard's
  // registration counter equals the number of fingerprints routed to it.
  const size_t ToA = static_cast<size_t>(
      std::count(RoutedShard.begin(), RoutedShard.end(), size_t(0)));
  EXPECT_EQ(ShardA.stats().Registrations, ToA);
  EXPECT_EQ(ShardB.stats().Registrations, RoutedShard.size() - ToA);

  // Stats and metrics concatenate one section per shard.
  const auto Stats = Client->statsText();
  ASSERT_TRUE(Stats);
  EXPECT_NE(Stats->find("# shard 0 127.0.0.1:"), std::string::npos);
  EXPECT_NE(Stats->find("# shard 1 127.0.0.1:"), std::string::npos);

  LbServer->requestStop();
  LbServer->join();
  ServerA->requestStop();
  ServerA->join();
  ServerB->requestStop();
  ServerB->join();
}

// At one fixed per-shard budget, N shards hold N budgets: each caches only
// the fingerprints the ring routes to it, so a working set that churns one
// shard fits a fleet and re-analyzes less.
TEST(LbHandlerTest, ShardingCutsReanalysisAtAFixedBudget) {
  const uint32_t IterationPattern[3] = {1, 5, 19};
  std::vector<CsrMatrix> Set;
  for (int I = 0; I < 24; ++I)
    Set.push_back(genMatrix(100.0 + I));
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  std::vector<SelectionResult> Direct;
  for (size_t I = 0; I < Set.size(); ++I)
    Direct.push_back(Reference.select(Set[I], IterationPattern[I % 3]));

  // The select-only working set, measured on one unbudgeted service.
  uint64_t WorkingSet = 0;
  {
    SeerService Unbounded(tinyModels());
    for (size_t I = 0; I < Set.size(); ++I) {
      const auto Handle = Unbounded.registerMatrix(Set[I]);
      ASSERT_TRUE(Handle);
      ASSERT_TRUE(Unbounded.select(*Handle, IterationPattern[I % 3]));
      ASSERT_TRUE(Unbounded.release(*Handle).ok());
    }
    WorkingSet = Unbounded.stats().BytesCached;
  }
  // One cache lock shard: the budget splits evenly across lock shards, and
  // a split slice this small could not hold one entry.
  ServiceConfig Config;
  Config.Server.CacheShards = 1;
  Config.Server.CacheBudgetBytes = static_cast<size_t>(WorkingSet * 3 / 5);

  uint64_t OneShardReanalyses = 0;
  for (const size_t N : {size_t(1), size_t(2), size_t(4)}) {
    std::vector<std::unique_ptr<SeerService>> Shards;
    std::vector<std::unique_ptr<ServiceFrameHandler>> Handlers;
    std::vector<std::unique_ptr<NetServer>> Servers;
    std::vector<ShardEndpoint> Endpoints;
    for (size_t S = 0; S < N; ++S) {
      Shards.push_back(std::make_unique<SeerService>(tinyModels(), Config));
      Handlers.push_back(std::make_unique<ServiceFrameHandler>(*Shards[S]));
      Servers.push_back(startLoopback(*Handlers[S]));
      Endpoints.push_back(ShardEndpoint{"127.0.0.1", Servers[S]->port()});
    }
    LbHandler Lb(Endpoints);
    auto LbServer = startLoopback(Lb);
    auto Client = NetClient::connect("127.0.0.1", LbServer->port());
    ASSERT_TRUE(Client.ok()) << Client.status().toString();

    for (int Pass = 0; Pass < 4; ++Pass)
      for (size_t I = 0; I < Set.size(); ++I) {
        // open -> select -> close: the close unpins the entry, so the
        // shard's budget, not the handle table, decides what survives to
        // the next pass.
        const auto Open = Client->open("m", Set[I]);
        ASSERT_TRUE(Open) << Open.status().toString();
        const auto Remote =
            Client->select(Open->Handle, IterationPattern[I % 3]);
        ASSERT_TRUE(Remote) << Remote.status().toString();
        EXPECT_EQ(Remote->Selection.KernelIndex, Direct[I].KernelIndex);
        EXPECT_EQ(Remote->Selection.UsedGatheredModel,
                  Direct[I].UsedGatheredModel);
        ASSERT_TRUE(Client->close(Open->Handle).ok());
        // The close's reply follows the unpin and the budget check it
        // triggers, and no registration is live, so the budget holds
        // exactly.
        for (size_t S = 0; S < N; ++S)
          EXPECT_LE(Shards[S]->stats().BytesCached,
                    Config.Server.CacheBudgetBytes)
              << N << " shards, shard " << S << ", pass " << Pass;
      }

    uint64_t Reanalyses = 0;
    for (const auto &Shard : Shards)
      Reanalyses += Shard->stats().Reanalyses;
    if (N == 1) {
      OneShardReanalyses = Reanalyses;
      EXPECT_GT(Reanalyses, 0u) << "one shard must churn at this budget";
    } else {
      EXPECT_LT(Reanalyses, OneShardReanalyses) << N << " shards";
    }
  } // each fleet stops in reverse declaration order, balancer first
}

// The one protocol interpreter over both backends: a script replayed in
// process and through a 2-shard balancer prints the same lines, closed-
// name errors included (they are answered before any backend call).
TEST(LbHandlerTest, ReplayPrintsTheSameLinesInProcessAndThroughTheBalancer) {
  DisarmGuard Guard;
  const auto Script = parseTrace("seer-trace v2\n"
                                 "gen web powerlaw 2048 1.8 1 256 11\n"
                                 "gen road banded 4096 4 0.95 7\n"
                                 "gen mesh banded 1024 6 0.8 3\n"
                                 "select web 5\n"
                                 "select web 5\n"
                                 "execute road 19 verify\n"
                                 "batch web 8 5\n"
                                 "batch road 4 19\n"
                                 "execute mesh 5\n"
                                 "select mesh 19\n"
                                 "close web\n"
                                 "close web\n"
                                 "select web 5\n"
                                 "open web\n"
                                 "open web\n"
                                 "execute web 5 verify\n"
                                 "fault seed 7\n"
                                 "spans 2\n");
  ASSERT_TRUE(Script) << Script.status().toString();
  const auto Replay = [&Script](TraceBackend &Backend, std::string &Out) {
    return replayTrace(*Script, Backend, 1,
                       [&Out](const std::string &Lines) { Out += Lines; });
  };

  SeerService Local(tinyModels());
  SpanSink Spans;
  ServiceTraceBackend InProcess(Local, Spans);
  std::string LocalLines;
  const uint64_t LocalErrors = Replay(InProcess, LocalLines);

  SeerService ShardA(tinyModels()), ShardB(tinyModels());
  ServiceFrameHandler HandlerA(ShardA), HandlerB(ShardB);
  auto ServerA = startLoopback(HandlerA);
  auto ServerB = startLoopback(HandlerB);
  LbHandler Lb({ShardEndpoint{"127.0.0.1", ServerA->port()},
                ShardEndpoint{"127.0.0.1", ServerB->port()}});
  auto LbServer = startLoopback(Lb);
  auto Client = NetClient::connect("127.0.0.1", LbServer->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();
  NetTraceBackend Wire(*Client);
  std::string WireLines;
  const uint64_t WireErrors = Replay(Wire, WireLines);

  EXPECT_EQ(WireLines, LocalLines);
  // The second close and the select after it.
  EXPECT_EQ(LocalErrors, 2u);
  EXPECT_EQ(WireErrors, 2u);
  const std::string Closed =
      "error FAILED_PRECONDITION matrix 'web' is closed (open it first)\n";
  const size_t First = LocalLines.find(Closed);
  ASSERT_NE(First, std::string::npos) << LocalLines;
  EXPECT_NE(LocalLines.find(Closed, First + 1), std::string::npos)
      << LocalLines;
  EXPECT_NE(LocalLines.find("\nok fault seed 7\nok spans 0\n"),
            std::string::npos)
      << LocalLines;
  // Every request reached a server: four kinds of response line.
  for (const char *Needle : {"web kernel=", "road kernel=", "mesh kernel=",
                             " batch=8 ", " oracle="})
    EXPECT_NE(LocalLines.find(Needle), std::string::npos) << Needle;
  // The replay closed everything it opened.
  EXPECT_EQ(Local.stats().ActiveHandles, 0u);

  LbServer->requestStop();
  LbServer->join();
  ServerA->requestStop();
  ServerA->join();
  ServerB->requestStop();
  ServerB->join();
}

/// The protocol errors a shard's frame handler has counted.
uint64_t protocolErrors(SeerService &Shard) {
  return Shard.metrics().counter("seer_net_protocol_errors_total").value();
}

// The balancer checks only an Open frame's shape; CSR content is the
// shard's to validate, and its typed error crosses the balancer verbatim.
TEST(LbHandlerTest, ShardValidatesOpenContent) {
  SeerService ShardA(tinyModels()), ShardB(tinyModels());
  ServiceFrameHandler HandlerA(ShardA), HandlerB(ShardB);
  auto ServerA = startLoopback(HandlerA);
  auto ServerB = startLoopback(HandlerB);
  LbHandler Lb({ShardEndpoint{"127.0.0.1", ServerA->port()},
                ShardEndpoint{"127.0.0.1", ServerB->port()}});
  auto LbServer = startLoopback(Lb);
  auto Client = NetClient::connect("127.0.0.1", LbServer->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();

  const auto CallStatus = [&](const std::string &Frame) {
    auto Reply = Client->call(Frame);
    EXPECT_TRUE(Reply.ok()) << Reply.status().toString();
    Status Carried = Status::okStatus();
    if (Reply.ok()) {
      EXPECT_TRUE(decodeStatusReply(*Reply, Carried).ok());
    }
    return Carried;
  };

  const CsrMatrix M = genMatrix(20);
  const std::string Valid = encodeOpen("m", M);
  const size_t OffsetsAt = 1 + 4 + 1 + 4 + 4 + 8;
  const size_t ColumnsAt = OffsetsAt + 8 * (size_t(M.numRows()) + 1);

  std::string NonMonotone = Valid;
  forgeField(NonMonotone, OffsetsAt + 8, M.nnz(), 8); // offsets[1] = nnz
  const Status Monotone = CallStatus(NonMonotone);
  EXPECT_EQ(Monotone.code(), StatusCode::InvalidArgument);
  EXPECT_NE(Monotone.message().find("not monotone"), std::string::npos)
      << Monotone.toString();

  std::string WideColumn = Valid;
  forgeField(WideColumn, ColumnsAt, M.numCols(), 4);
  const Status Column = CallStatus(WideColumn);
  EXPECT_EQ(Column.code(), StatusCode::InvalidArgument);
  EXPECT_NE(Column.message().find("column index out of range"),
            std::string::npos)
      << Column.toString();
  // Both reached a shard: the shards, not the balancer, counted them.
  EXPECT_EQ(protocolErrors(ShardA) + protocolErrors(ShardB), 2u);

  // The connection survives; a valid open on it succeeds.
  const auto Open = Client->open("m", M);
  ASSERT_TRUE(Open) << Open.status().toString();
  EXPECT_EQ(Open->Info.Fingerprint, matrixFingerprint(M));
  const uint64_t RegisteredA = ShardA.stats().Registrations;
  const uint64_t RegisteredB = ShardB.stats().Registrations;
  EXPECT_EQ(RegisteredA + RegisteredB, 1u);

  // Lengths that disagree with the dimensions: the balancer's own
  // rejection, which never reaches a shard.
  std::string Short = Valid;
  forgeField(Short, 1 + 4 + 1 + 8, M.nnz() + 1, 8);
  EXPECT_EQ(CallStatus(Short).code(), StatusCode::InvalidArgument);
  EXPECT_EQ(CallStatus(Valid.substr(0, Valid.size() - 1)).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(ShardA.stats().Registrations, RegisteredA);
  EXPECT_EQ(ShardB.stats().Registrations, RegisteredB);
  EXPECT_EQ(protocolErrors(ShardA) + protocolErrors(ShardB), 2u);

  LbServer->requestStop();
  LbServer->join();
  ServerA->requestStop();
  ServerA->join();
  ServerB->requestStop();
  ServerB->join();
}

// One mistake, one error: every handle op on a handle that was never
// issued answers the same Status from a shard as through the balancer,
// which answers it from its own session without asking a shard.
TEST(LbHandlerTest, UnknownHandleIsOneErrorDirectAndThroughTheBalancer) {
  SeerService ShardA(tinyModels()), ShardB(tinyModels());
  ServiceFrameHandler HandlerA(ShardA), HandlerB(ShardB);
  auto ServerA = startLoopback(HandlerA);
  auto ServerB = startLoopback(HandlerB);
  LbHandler Lb({ShardEndpoint{"127.0.0.1", ServerA->port()},
                ShardEndpoint{"127.0.0.1", ServerB->port()}});
  auto LbServer = startLoopback(Lb);
  auto Direct = NetClient::connect("127.0.0.1", ServerA->port());
  ASSERT_TRUE(Direct.ok()) << Direct.status().toString();
  auto Balanced = NetClient::connect("127.0.0.1", LbServer->port());
  ASSERT_TRUE(Balanced.ok()) << Balanced.status().toString();

  const uint64_t Never = 0xdead;
  const Status Want = unknownHandle(MatrixHandle{Never});
  EXPECT_EQ(Want.code(), StatusCode::NotFound);
  for (NetClient *Client : {&*Direct, &*Balanced}) {
    const bool ViaLb = Client == &*Balanced;
    const Status Got[] = {
        Client->close(Never), Client->select(Never, 5).status(),
        Client->execute(Never, 5, false, {}).status(),
        Client->batch(Never, 4, 5).status(),
        Client->batch(Never, MaxBatchOperands + 1, 5).status()};
    for (const Status &S : Got) {
      EXPECT_EQ(S.code(), Want.code()) << ViaLb << " " << S.toString();
      EXPECT_EQ(S.message(), Want.message()) << ViaLb;
    }
  }

  LbServer->requestStop();
  LbServer->join();
  ServerA->requestStop();
  ServerA->join();
  ServerB->requestStop();
  ServerB->join();
}

} // namespace
