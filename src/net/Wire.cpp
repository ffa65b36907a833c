//===- net/Wire.cpp -------------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include "serve/RequestTrace.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cstring>

using namespace seer;
using namespace seer::net;

// The wire image of every scalar and array is its little-endian in-memory
// representation, so the codec below moves arrays with one memcpy each and
// csrFingerprint() hashes an Open frame's arrays where they lie. A
// big-endian host would need a byte-swapping codec; none is built.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the wire image is the host's little-endian representation");

namespace {

// -- Writers ---------------------------------------------------------------

/// Reply fields other than Y never exceed this many bytes (108 for a
/// response, 88 for a batch), so reserving it plus the arrays sizes the
/// frame once.
constexpr size_t ReplyScalarBytes = 128;

/// A payload holding opcode \p Code, with room for \p BodyBytes more: the
/// encoders of frames that carry arrays pass their size, so the frame is
/// allocated once.
std::string startFrame(Op Code, size_t BodyBytes = 0) {
  std::string Out;
  Out.reserve(1 + BodyBytes);
  Out.push_back(static_cast<char>(Code));
  return Out;
}

template <typename T> void putScalar(std::string &Out, T V) {
  Out.append(reinterpret_cast<const char *>(&V), sizeof(V));
}

void putU8(std::string &Out, uint8_t V) { putScalar(Out, V); }
void putU32(std::string &Out, uint32_t V) { putScalar(Out, V); }
void putU64(std::string &Out, uint64_t V) { putScalar(Out, V); }
void putF64(std::string &Out, double V) { putScalar(Out, V); }

void putString(std::string &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

/// The byte image of \p V, which is its wire image on this host.
template <typename T> std::string_view imageOf(const std::vector<T> &V) {
  return std::string_view(reinterpret_cast<const char *>(V.data()),
                          V.size() * sizeof(T));
}

/// The one array writer: appends \p V's image in a single copy. Every
/// array on the wire goes through it, uncounted (Open's CSR arrays, sized
/// by the dimensions before them) or counted (putCounted).
template <typename T> void putArray(std::string &Out, const std::vector<T> &V) {
  Out.append(imageOf(V));
}

/// A u64 element count, then the array (execute operands, Y vectors).
void putCounted(std::string &Out, const std::vector<double> &V) {
  putU64(Out, V.size());
  putArray(Out, V);
}

/// The one array reader's copy step: \p Image (already bounds-checked by
/// Reader::arrayImage) into \p Out in a single memcpy.
template <typename T>
void copyArray(std::string_view Image, std::vector<T> &Out) {
  Out.resize(Image.size() / sizeof(T));
  if (!Image.empty())
    std::memcpy(Out.data(), Image.data(), Image.size());
}

/// Bounds-checked reader over one frame payload. Every read fails with
/// INVALID_ARGUMENT once the payload runs short, which is how truncated
/// frames become typed errors.
class Reader {
public:
  explicit Reader(const std::string &Payload)
      : Data(Payload.data()), Size(Payload.size()) {}

  Status need(size_t Bytes) const {
    if (Size - Pos < Bytes)
      return Status::invalidArgument("truncated frame body");
    return Status::okStatus();
  }

  template <typename T> Status scalar(T &Out) {
    if (Status S = need(sizeof(T)); !S.ok())
      return S;
    std::memcpy(&Out, Data + Pos, sizeof(T));
    Pos += sizeof(T);
    return Status::okStatus();
  }

  Status u8(uint8_t &Out) { return scalar(Out); }
  Status u32(uint32_t &Out) { return scalar(Out); }
  Status u64(uint64_t &Out) { return scalar(Out); }
  Status f64(double &Out) { return scalar(Out); }

  Status str(std::string &Out) {
    std::string_view View;
    if (Status S = strView(View); !S.ok())
      return S;
    Out.assign(View);
    return Status::okStatus();
  }

  Status strView(std::string_view &Out) {
    uint32_t Len = 0;
    if (Status S = u32(Len); !S.ok())
      return S;
    return arrayImage(Out, Len, 1);
  }

  /// Views the next \p Count elements of \p Width bytes in place. The
  /// count is checked against the remaining bytes before it is multiplied
  /// or anything is allocated, so a forged count can neither overflow nor
  /// request memory the frame does not contain.
  Status arrayImage(std::string_view &Out, uint64_t Count, size_t Width) {
    if (Count > (Size - Pos) / Width)
      return Status::invalidArgument("vector count exceeds frame size");
    const size_t Bytes = static_cast<size_t>(Count) * Width;
    Out = std::string_view(Data + Pos, Bytes);
    Pos += Bytes;
    return Status::okStatus();
  }

  /// Reads a u64-counted array: the count check, then one copy.
  Status counted(std::vector<double> &Out) {
    uint64_t Count = 0;
    std::string_view Image;
    if (Status S = u64(Count); !S.ok())
      return S;
    if (Status S = arrayImage(Image, Count, sizeof(double)); !S.ok())
      return S;
    copyArray(Image, Out);
    return Status::okStatus();
  }

  /// Rejects unconsumed bytes: a frame that decodes but carries a tail is
  /// a framing bug, not a request.
  Status finish() const {
    if (Pos != Size)
      return Status::invalidArgument("trailing bytes in frame");
    return Status::okStatus();
  }

private:
  const char *Data;
  size_t Size;
  size_t Pos = 0;
};

/// Checks the payload's opcode byte and positions a Reader past it.
Status expectOp(Reader &R, Op Want) {
  uint8_t Code = 0;
  if (Status S = R.u8(Code); !S.ok())
    return S;
  if (Code != static_cast<uint8_t>(Want))
    return Status::invalidArgument("unexpected frame opcode");
  return Status::okStatus();
}

std::string requestHeader(Op Code, uint64_t Handle, size_t BodyBytes = 0) {
  std::string Out = startFrame(Code, 8 + BodyBytes);
  putU64(Out, Handle);
  return Out;
}

} // namespace

Expected<Op> seer::net::frameOp(const std::string &Payload) {
  if (Payload.empty())
    return Status::invalidArgument("empty frame");
  const auto Code = static_cast<uint8_t>(Payload[0]);
  switch (static_cast<Op>(Code)) {
  case Op::Hello:
  case Op::Open:
  case Op::Close:
  case Op::Select:
  case Op::Execute:
  case Op::Batch:
  case Op::Fault:
  case Op::Stats:
  case Op::Metrics:
  case Op::Shutdown:
  case Op::RHello:
  case Op::ROpen:
  case Op::RStatus:
  case Op::RResponse:
  case Op::RBatch:
  case Op::RText:
    return static_cast<Op>(Code);
  }
  return Status::invalidArgument("unknown frame opcode " +
                                 std::to_string(Code));
}

Status seer::net::validateFrameLength(uint64_t Length, size_t MaxBytes) {
  if (Status F = FaultInjector::instance().check(faultsite::NetFrame);
      !F.ok())
    return F;
  if (Length == 0)
    return Status::invalidArgument("zero-length frame");
  if (Length > MaxBytes)
    return Status::invalidArgument(
        "frame length " + std::to_string(Length) + " exceeds the " +
        std::to_string(MaxBytes) + "-byte cap");
  return Status::okStatus();
}

void seer::net::appendFrame(std::string &Out, const std::string &Payload) {
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  Out.append(Payload);
}

// -- Request encoders ------------------------------------------------------

std::string seer::net::encodeHello(uint32_t Version) {
  std::string Out = startFrame(Op::Hello);
  putU32(Out, Version);
  return Out;
}

std::string seer::net::encodeOpen(const std::string &Name,
                                  const CsrMatrix &Matrix) {
  const size_t ArrayBytes = imageOf(Matrix.rowOffsets()).size() +
                            imageOf(Matrix.columnIndices()).size() +
                            imageOf(Matrix.values()).size();
  std::string Out = startFrame(Op::Open, 4 + Name.size() + 16 + ArrayBytes);
  putString(Out, Name);
  putU32(Out, Matrix.numRows());
  putU32(Out, Matrix.numCols());
  putU64(Out, Matrix.nnz());
  putArray(Out, Matrix.rowOffsets());
  putArray(Out, Matrix.columnIndices());
  putArray(Out, Matrix.values());
  return Out;
}

std::string seer::net::encodeClose(uint64_t Handle) {
  return requestHeader(Op::Close, Handle);
}

std::string seer::net::encodeSelect(uint64_t Handle, uint32_t Iterations) {
  std::string Out = requestHeader(Op::Select, Handle);
  putU32(Out, Iterations);
  return Out;
}

std::string seer::net::encodeExecute(uint64_t Handle, uint32_t Iterations,
                                     bool Verify,
                                     const std::vector<double> &Operand) {
  std::string Out =
      requestHeader(Op::Execute, Handle, 4 + 1 + 8 + 8 * Operand.size());
  putU32(Out, Iterations);
  putU8(Out, Verify ? 1 : 0);
  putCounted(Out, Operand);
  return Out;
}

std::string seer::net::encodeBatch(uint64_t Handle, uint32_t Count,
                                   uint32_t Iterations) {
  std::string Out = requestHeader(Op::Batch, Handle);
  putU32(Out, Count);
  putU32(Out, Iterations);
  return Out;
}

std::string seer::net::encodeFault(const std::string &Spec) {
  std::string Out = startFrame(Op::Fault);
  putString(Out, Spec);
  return Out;
}

std::string seer::net::encodeStats() { return startFrame(Op::Stats); }

std::string seer::net::encodeMetrics() { return startFrame(Op::Metrics); }

std::string seer::net::encodeShutdown() { return startFrame(Op::Shutdown); }

// -- Reply encoders --------------------------------------------------------

std::string seer::net::encodeHelloReply(uint32_t Version) {
  std::string Out = startFrame(Op::RHello);
  putU32(Out, Version);
  return Out;
}

std::string seer::net::encodeOpenReply(uint64_t Handle,
                                       const HandleInfo &Info) {
  std::string Out = startFrame(Op::ROpen);
  putU64(Out, Handle);
  putU64(Out, Info.Fingerprint);
  putU32(Out, Info.NumRows);
  putU32(Out, Info.NumCols);
  putU64(Out, Info.Nnz);
  putU8(Out, Info.AnalysisReused ? 1 : 0);
  return Out;
}

std::string seer::net::encodeStatusReply(const Status &S) {
  std::string Out = startFrame(Op::RStatus);
  putU8(Out, static_cast<uint8_t>(S.code()));
  putString(Out, S.message());
  return Out;
}

std::string seer::net::encodeResponseReply(const ServeResponse &R) {
  std::string Out =
      startFrame(Op::RResponse, ReplyScalarBytes + 8 * R.Y.size());
  putU64(Out, R.Selection.KernelIndex);
  putU8(Out, R.Selection.UsedGatheredModel ? 1 : 0);
  putF64(Out, R.Selection.FeatureCollectionMs);
  putF64(Out, R.Selection.InferenceMs);
  putF64(Out, R.ModeledCollectionMs);
  putU64(Out, R.Fingerprint);
  putU8(Out, R.CacheHit ? 1 : 0);
  putU32(Out, R.Iterations);
  putU8(Out, R.Executed ? 1 : 0);
  putU8(Out, R.PreprocessAmortized ? 1 : 0);
  putF64(Out, R.PreprocessMs);
  putF64(Out, R.ModeledPreprocessMs);
  putF64(Out, R.IterationMs);
  putCounted(Out, R.Y);
  putU8(Out, R.OracleChecked ? 1 : 0);
  putU64(Out, R.OracleKernelIndex);
  putU8(Out, R.Mispredicted ? 1 : 0);
  putF64(Out, R.RegretMs);
  putF64(Out, R.ServiceMicros);
  putU8(Out, R.Degraded ? 1 : 0);
  return Out;
}

std::string seer::net::encodeBatchReply(const BatchResponse &R) {
  size_t YBytes = 0;
  for (const std::vector<double> &Y : R.Y)
    YBytes += 8 + 8 * Y.size();
  std::string Out = startFrame(Op::RBatch, ReplyScalarBytes + YBytes);
  putU64(Out, R.Selection.KernelIndex);
  putU8(Out, R.Selection.UsedGatheredModel ? 1 : 0);
  putF64(Out, R.Selection.FeatureCollectionMs);
  putF64(Out, R.Selection.InferenceMs);
  putF64(Out, R.ModeledCollectionMs);
  putU64(Out, R.Fingerprint);
  putU8(Out, R.CacheHit ? 1 : 0);
  putU32(Out, R.Iterations);
  putU8(Out, R.PreprocessAmortized ? 1 : 0);
  putF64(Out, R.PreprocessMs);
  putF64(Out, R.ModeledPreprocessMs);
  putF64(Out, R.IterationMs);
  putU64(Out, R.Y.size());
  for (const std::vector<double> &Y : R.Y)
    putCounted(Out, Y);
  putF64(Out, R.ServiceMicros);
  putU8(Out, R.Degraded ? 1 : 0);
  return Out;
}

std::string seer::net::encodeTextReply(Op Kind, const std::string &Text) {
  std::string Out = startFrame(Kind);
  putString(Out, Text);
  return Out;
}

// -- Decoders --------------------------------------------------------------

Expected<uint32_t> seer::net::decodeHello(const std::string &Payload) {
  Reader R(Payload);
  uint32_t Version = 0;
  if (Status S = expectOp(R, Op::Hello); !S.ok())
    return S;
  if (Status S = R.u32(Version); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Version;
}

Expected<OpenFrameView> seer::net::viewOpen(const std::string &Payload) {
  Reader R(Payload);
  OpenFrameView V;
  if (Status S = expectOp(R, Op::Open); !S.ok())
    return S;
  if (Status S = R.strView(V.Name); !S.ok())
    return S;
  if (Status S = R.u32(V.Rows); !S.ok())
    return S;
  if (Status S = R.u32(V.Cols); !S.ok())
    return S;
  if (Status S = R.u64(V.Nnz); !S.ok())
    return S;
  if (Status S = R.arrayImage(V.OffsetBytes, uint64_t(V.Rows) + 1,
                              sizeof(uint64_t));
      !S.ok())
    return S;
  if (Status S = R.arrayImage(V.ColumnBytes, V.Nnz, sizeof(uint32_t));
      !S.ok())
    return S;
  if (Status S = R.arrayImage(V.ValueBytes, V.Nnz, sizeof(double)); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return V;
}

Expected<OpenRequest> seer::net::decodeOpen(const std::string &Payload) {
  auto View = viewOpen(Payload);
  if (!View.ok())
    return View.status();
  const uint64_t Nnz = View->Nnz;
  std::vector<uint64_t> Offsets;
  std::vector<uint32_t> Columns;
  std::vector<double> Values;
  copyArray(View->OffsetBytes, Offsets);
  copyArray(View->ColumnBytes, Columns);
  copyArray(View->ValueBytes, Values);
  // Validate the invariants fromArrays asserts, so a hostile frame gets a
  // typed error instead of tripping a debug assert (or building a matrix
  // that violates kernel preconditions in release builds). The view
  // already matched the array lengths to the dimensions.
  if (Offsets.front() != 0 || Offsets.back() != Nnz)
    return Status::invalidArgument("CSR row offsets malformed");
  for (size_t I = 0; I + 1 < Offsets.size(); ++I)
    if (Offsets[I] > Offsets[I + 1])
      return Status::invalidArgument("CSR row offsets not monotone");
  for (uint32_t Col : Columns)
    if (Col >= View->Cols)
      return Status::invalidArgument("CSR column index out of range");
  OpenRequest Out;
  Out.Name.assign(View->Name);
  Out.Matrix =
      CsrMatrix::fromArrays(View->Rows, View->Cols, std::move(Offsets),
                            std::move(Columns), std::move(Values));
  std::string Why;
  if (!Out.Matrix.verify(&Why))
    return Status::invalidArgument("invalid CSR payload: " + Why);
  return Out;
}

Expected<uint64_t> seer::net::decodeClose(const std::string &Payload) {
  Reader R(Payload);
  uint64_t Handle = 0;
  if (Status S = expectOp(R, Op::Close); !S.ok())
    return S;
  if (Status S = R.u64(Handle); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Handle;
}

Expected<ExecuteRequest> seer::net::decodeSelect(const std::string &Payload) {
  Reader R(Payload);
  ExecuteRequest Out;
  if (Status S = expectOp(R, Op::Select); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Out;
}

Expected<ExecuteRequest> seer::net::decodeExecute(const std::string &Payload) {
  Reader R(Payload);
  ExecuteRequest Out;
  uint8_t Verify = 0;
  if (Status S = expectOp(R, Op::Execute); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.u8(Verify); !S.ok())
    return S;
  if (Status S = R.counted(Out.Operand); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  Out.Verify = Verify != 0;
  return Out;
}

Expected<BatchRequest> seer::net::decodeBatch(const std::string &Payload) {
  Reader R(Payload);
  BatchRequest Out;
  if (Status S = expectOp(R, Op::Batch); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.u32(Out.Count); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Out;
}

Expected<std::string> seer::net::decodeFault(const std::string &Payload) {
  Reader R(Payload);
  std::string Spec;
  if (Status S = expectOp(R, Op::Fault); !S.ok())
    return S;
  if (Status S = R.str(Spec); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Spec;
}

Expected<uint32_t> seer::net::decodeHelloReply(const std::string &Payload) {
  Reader R(Payload);
  uint32_t Version = 0;
  if (Status S = expectOp(R, Op::RHello); !S.ok())
    return S;
  if (Status S = R.u32(Version); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Version;
}

Expected<OpenReply> seer::net::decodeOpenReply(const std::string &Payload) {
  Reader R(Payload);
  OpenReply Out;
  uint8_t Reused = 0;
  if (Status S = expectOp(R, Op::ROpen); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.u64(Out.Info.Fingerprint); !S.ok())
    return S;
  if (Status S = R.u32(Out.Info.NumRows); !S.ok())
    return S;
  if (Status S = R.u32(Out.Info.NumCols); !S.ok())
    return S;
  if (Status S = R.u64(Out.Info.Nnz); !S.ok())
    return S;
  if (Status S = R.u8(Reused); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  Out.Info.AnalysisReused = Reused != 0;
  return Out;
}

Status seer::net::decodeStatusReply(const std::string &Payload,
                                    Status &Decoded) {
  Reader R(Payload);
  uint8_t Code = 0;
  std::string Message;
  if (Status S = expectOp(R, Op::RStatus); !S.ok())
    return S;
  if (Status S = R.u8(Code); !S.ok())
    return S;
  if (Status S = R.str(Message); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  if (Code > static_cast<uint8_t>(StatusCode::DeadlineExceeded))
    return Status::invalidArgument("unknown status code on the wire");
  if (static_cast<StatusCode>(Code) == StatusCode::Ok)
    Decoded = Status::okStatus();
  else
    Decoded = Status(static_cast<StatusCode>(Code), std::move(Message));
  return Status::okStatus();
}

Expected<ServeResponse>
seer::net::decodeResponseReply(const std::string &Payload) {
  Reader R(Payload);
  ServeResponse Out;
  uint64_t Kernel = 0, OracleKernel = 0;
  uint8_t Gathered = 0, CacheHit = 0, Executed = 0, Amortized = 0;
  uint8_t OracleChecked = 0, Mispredicted = 0, Degraded = 0;
  if (Status S = expectOp(R, Op::RResponse); !S.ok())
    return S;
  if (Status S = R.u64(Kernel); !S.ok())
    return S;
  if (Status S = R.u8(Gathered); !S.ok())
    return S;
  if (Status S = R.f64(Out.Selection.FeatureCollectionMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.Selection.InferenceMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ModeledCollectionMs); !S.ok())
    return S;
  if (Status S = R.u64(Out.Fingerprint); !S.ok())
    return S;
  if (Status S = R.u8(CacheHit); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.u8(Executed); !S.ok())
    return S;
  if (Status S = R.u8(Amortized); !S.ok())
    return S;
  if (Status S = R.f64(Out.PreprocessMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ModeledPreprocessMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.IterationMs); !S.ok())
    return S;
  if (Status S = R.counted(Out.Y); !S.ok())
    return S;
  if (Status S = R.u8(OracleChecked); !S.ok())
    return S;
  if (Status S = R.u64(OracleKernel); !S.ok())
    return S;
  if (Status S = R.u8(Mispredicted); !S.ok())
    return S;
  if (Status S = R.f64(Out.RegretMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ServiceMicros); !S.ok())
    return S;
  if (Status S = R.u8(Degraded); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  Out.Selection.KernelIndex = static_cast<size_t>(Kernel);
  Out.Selection.UsedGatheredModel = Gathered != 0;
  Out.CacheHit = CacheHit != 0;
  Out.Executed = Executed != 0;
  Out.PreprocessAmortized = Amortized != 0;
  Out.OracleChecked = OracleChecked != 0;
  Out.OracleKernelIndex = static_cast<size_t>(OracleKernel);
  Out.Mispredicted = Mispredicted != 0;
  Out.Degraded = Degraded != 0;
  return Out;
}

Expected<BatchResponse>
seer::net::decodeBatchReply(const std::string &Payload) {
  Reader R(Payload);
  BatchResponse Out;
  uint64_t Kernel = 0, Operands = 0;
  uint8_t Gathered = 0, CacheHit = 0, Amortized = 0, Degraded = 0;
  if (Status S = expectOp(R, Op::RBatch); !S.ok())
    return S;
  if (Status S = R.u64(Kernel); !S.ok())
    return S;
  if (Status S = R.u8(Gathered); !S.ok())
    return S;
  if (Status S = R.f64(Out.Selection.FeatureCollectionMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.Selection.InferenceMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ModeledCollectionMs); !S.ok())
    return S;
  if (Status S = R.u64(Out.Fingerprint); !S.ok())
    return S;
  if (Status S = R.u8(CacheHit); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.u8(Amortized); !S.ok())
    return S;
  if (Status S = R.f64(Out.PreprocessMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ModeledPreprocessMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.IterationMs); !S.ok())
    return S;
  if (Status S = R.u64(Operands); !S.ok())
    return S;
  Out.Y.resize(0);
  Out.Y.reserve(
      static_cast<size_t>(std::min<uint64_t>(Operands, MaxBatchOperands)));
  for (uint64_t I = 0; I < Operands; ++I) {
    std::vector<double> Y;
    if (Status S = R.counted(Y); !S.ok())
      return S;
    Out.Y.push_back(std::move(Y));
  }
  if (Status S = R.f64(Out.ServiceMicros); !S.ok())
    return S;
  if (Status S = R.u8(Degraded); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  Out.Selection.KernelIndex = static_cast<size_t>(Kernel);
  Out.Selection.UsedGatheredModel = Gathered != 0;
  Out.CacheHit = CacheHit != 0;
  Out.PreprocessAmortized = Amortized != 0;
  Out.Degraded = Degraded != 0;
  return Out;
}

Expected<std::string> seer::net::decodeTextReply(const std::string &Payload) {
  Reader R(Payload);
  uint8_t Code = 0;
  std::string Text;
  if (Status S = R.u8(Code); !S.ok())
    return S;
  if (Code != static_cast<uint8_t>(Op::RText))
    return Status::invalidArgument("expected a text reply frame");
  if (Status S = R.str(Text); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Text;
}

Expected<uint64_t> seer::net::requestHandle(const std::string &Payload) {
  const auto Code = frameOp(Payload);
  if (!Code)
    return Code.status();
  switch (*Code) {
  case Op::Close:
  case Op::Select:
  case Op::Execute:
  case Op::Batch:
    break;
  default:
    return Status::invalidArgument("frame carries no handle");
  }
  if (Payload.size() < 9)
    return Status::invalidArgument("frame too short for a handle");
  uint64_t Handle = 0;
  std::memcpy(&Handle, Payload.data() + 1, sizeof(Handle));
  return Handle;
}

Status seer::net::rewriteRequestHandle(std::string &Payload,
                                       uint64_t NewHandle) {
  if (auto Old = requestHandle(Payload); !Old)
    return Old.status();
  std::memcpy(&Payload[1], &NewHandle, sizeof(NewHandle));
  return Status::okStatus();
}
