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

/// The byte image of \p V, which is its wire image on this host.
template <typename T> std::string_view imageOf(const std::vector<T> &V) {
  return std::string_view(reinterpret_cast<const char *>(V.data()),
                          V.size() * sizeof(T));
}

/// \p Image, already bounds-checked by the Reader, copied into \p Out
/// in a single memcpy.
template <typename T>
void copyArray(std::string_view Image, std::vector<T> &Out) {
  Out.resize(Image.size() / sizeof(T));
  if (!Image.empty())
    std::memcpy(Out.data(), Image.data(), Image.size());
}

/// Runs a field list to encode: appends each field's wire image to *Out,
/// or, with no Out, only adds its size to Size, so an encoder can size the
/// payload before writing it.
class Writer {
public:
  explicit Writer(std::string *Out = nullptr) : Out(Out) {}

  size_t Size = 0;

  template <typename T> void u8(const T &V) { scalar<uint8_t>(V); }
  template <typename T> void u32(const T &V) { scalar<uint32_t>(V); }
  template <typename T> void u64(const T &V) { scalar<uint64_t>(V); }
  void f64(double V) { scalar<double>(V); }
  /// A u32 length, then the bytes.
  void str(std::string_view S) {
    u32(S.size());
    put(S);
  }
  /// An array whose element count the fields before it imply.
  void image(std::string_view Image, uint64_t, size_t) { put(Image); }
  /// A u64 element count, then the array (operands, Y vectors).
  void doubles(const std::vector<double> &V) {
    u64(V.size());
    put(imageOf(V));
  }
  /// A u64 count of counted arrays, then each of them.
  void vectors(const std::vector<std::vector<double>> &Vs) {
    u64(Vs.size());
    for (const std::vector<double> &V : Vs)
      doubles(V);
  }

private:
  template <typename Wire, typename T> void scalar(const T &V) {
    const auto W = static_cast<Wire>(V);
    put(std::string_view(reinterpret_cast<const char *>(&W), sizeof(W)));
  }
  void put(std::string_view Bytes) {
    if (Out)
      Out->append(Bytes);
    else
      Size += Bytes.size();
  }

  std::string *Out;
};

/// Runs a field list to decode one frame payload. The first short read or
/// forged count sets a sticky INVALID_ARGUMENT and turns every later read
/// into a no-op, so a field list needs no check per field and a truncated
/// frame is a typed error, never a misparse.
class Reader {
public:
  explicit Reader(const std::string &Payload)
      : Data(Payload.data()), Size(Payload.size()) {}

  /// The opcode byte, which must be \p Code.
  void opcode(Op Code) {
    uint8_t Got = 0;
    u8(Got);
    if (Error.ok() && Got != static_cast<uint8_t>(Code))
      Error = Status::invalidArgument("unexpected frame opcode");
  }
  template <typename T> void u8(T &V) { scalar<uint8_t>(V); }
  template <typename T> void u32(T &V) { scalar<uint32_t>(V); }
  template <typename T> void u64(T &V) { scalar<uint64_t>(V); }
  void f64(double &V) { scalar<double>(V); }
  /// A u32 length, then the bytes, viewed in place or copied into \p V.
  template <typename S> void str(S &V) {
    uint32_t Length = 0;
    std::string_view View;
    u32(Length);
    image(View, Length, 1);
    V = S(View);
  }
  /// Views the next \p Count elements of \p Width bytes in place.
  void image(std::string_view &V, uint64_t Count, size_t Width) {
    if (!fits(Count, Width))
      return;
    V = std::string_view(Data + Pos, static_cast<size_t>(Count) * Width);
    Pos += V.size();
  }
  /// A u64-counted array: the count check, then one copy.
  void doubles(std::vector<double> &V) {
    uint64_t Count = 0;
    std::string_view Image;
    u64(Count);
    image(Image, Count, sizeof(double));
    copyArray(Image, V);
  }
  /// A u64 count of counted arrays, then each of them.
  void vectors(std::vector<std::vector<double>> &Vs) {
    uint64_t Count = 0;
    u64(Count);
    // Each array carries at least its own u64 count.
    if (!fits(Count, sizeof(uint64_t)))
      return;
    Vs.clear();
    Vs.reserve(std::min<uint64_t>(Count, MaxBatchOperands));
    for (uint64_t I = 0; I < Count && Error.ok(); ++I)
      doubles(Vs.emplace_back());
  }

  /// The decode verdict: the sticky error, or INVALID_ARGUMENT if bytes
  /// trail the last field (a framing bug, not a request).
  Status finish() const {
    if (Error.ok() && Pos != Size)
      return Status::invalidArgument("trailing bytes in frame");
    return Error;
  }

private:
  /// Whether \p Count elements of \p Width bytes remain. The count is
  /// checked before it is multiplied or anything is allocated, so a forged
  /// count can neither overflow nor ask for memory the frame lacks.
  bool fits(uint64_t Count, size_t Width) {
    if (Error.ok() && Count > (Size - Pos) / Width)
      Error = Status::invalidArgument("vector count exceeds frame size");
    return Error.ok();
  }
  template <typename Wire, typename T> void scalar(T &V) {
    if (Error.ok() && Size - Pos < sizeof(Wire))
      Error = Status::invalidArgument("truncated frame body");
    if (!Error.ok())
      return;
    Wire W{};
    std::memcpy(&W, Data + Pos, sizeof(W));
    Pos += sizeof(W);
    V = static_cast<T>(W);
  }

  const char *Data;
  size_t Size;
  size_t Pos = 0;
  Status Error;
};

// -- Frame bodies ----------------------------------------------------------
// Each body's fields in wire order, written once. An encoder runs the list
// over a Writer and a decoder over a Reader, so the two cannot disagree.
// Close, Select, Execute and Batch open with the u64 handle, which puts it
// at payload bytes [1, 9) (requestHandle).

/// Stats, Metrics, Shutdown.
constexpr auto NoBody = [](auto &, auto &) {};
/// Hello, RHello.
constexpr auto VersionBody = [](auto &F, auto &Version) { F.u32(Version); };
/// Close.
constexpr auto HandleBody = [](auto &F, auto &Handle) { F.u64(Handle); };
/// Fault, RText.
constexpr auto TextBody = [](auto &F, auto &Text) { F.str(Text); };

/// Open: the name, then the CSR arrays, sized by the dimensions.
constexpr auto OpenBody = [](auto &F, auto &V) {
  F.str(V.Name);
  F.u32(V.Rows);
  F.u32(V.Cols);
  F.u64(V.Nnz);
  F.image(V.OffsetBytes, uint64_t(V.Rows) + 1, sizeof(uint64_t));
  F.image(V.ColumnBytes, V.Nnz, sizeof(uint32_t));
  F.image(V.ValueBytes, V.Nnz, sizeof(double));
};

constexpr auto SelectBody = [](auto &F, auto &R) {
  F.u64(R.Handle);
  F.u32(R.Iterations);
};

constexpr auto ExecuteBody = [](auto &F, auto &R) {
  SelectBody(F, R);
  F.u8(R.Verify);
  F.doubles(R.Operand);
};

constexpr auto BatchBody = [](auto &F, auto &R) {
  F.u64(R.Handle);
  F.u32(R.Count);
  F.u32(R.Iterations);
};

constexpr auto OpenReplyBody = [](auto &F, auto &R) {
  F.u64(R.Handle);
  F.u64(R.Info.Fingerprint);
  F.u32(R.Info.NumRows);
  F.u32(R.Info.NumCols);
  F.u64(R.Info.Nnz);
  F.u8(R.Info.AnalysisReused);
};

/// RStatus; code 0 acknowledges success.
struct StatusFields {
  uint8_t Code = 0;
  std::string_view Message;
};
constexpr auto StatusBody = [](auto &F, auto &S) {
  F.u8(S.Code);
  F.str(S.Message);
};

// ResponseBase's three runs of fields, shared by RResponse and RBatch.
constexpr auto SelectionRun = [](auto &F, auto &R) {
  F.u64(R.Selection.KernelIndex);
  F.u8(R.Selection.UsedGatheredModel);
  F.f64(R.Selection.FeatureCollectionMs);
  F.f64(R.Selection.InferenceMs);
  F.f64(R.ModeledCollectionMs);
  F.u64(R.Fingerprint);
  F.u8(R.CacheHit);
  F.u32(R.Iterations);
};
constexpr auto ChargeRun = [](auto &F, auto &R) {
  F.u8(R.PreprocessAmortized);
  F.f64(R.PreprocessMs);
  F.f64(R.ModeledPreprocessMs);
  F.f64(R.IterationMs);
};
constexpr auto ServiceRun = [](auto &F, auto &R) {
  F.f64(R.ServiceMicros);
  F.u8(R.Degraded);
};

constexpr auto ResponseBody = [](auto &F, auto &R) {
  SelectionRun(F, R);
  F.u8(R.Executed);
  ChargeRun(F, R);
  F.doubles(R.Y);
  F.u8(R.OracleChecked);
  F.u64(R.OracleKernelIndex);
  F.u8(R.Mispredicted);
  F.f64(R.RegretMs);
  ServiceRun(F, R);
};

constexpr auto BatchReplyBody = [](auto &F, auto &R) {
  SelectionRun(F, R);
  ChargeRun(F, R);
  F.vectors(R.Y);
  ServiceRun(F, R);
};

/// A payload of opcode \p Code carrying \p B through its field list
/// \p List, sized by a measuring pass so it is allocated once.
template <typename Fields, typename Body>
std::string encodeFrame(Op Code, Fields List, const Body &B) {
  Writer Sizer;
  List(Sizer, B);
  std::string Out;
  Out.reserve(1 + Sizer.Size);
  Writer W(&Out);
  W.u8(static_cast<uint8_t>(Code));
  List(W, B);
  return Out;
}

/// The Body that the field list \p List reads from \p Payload, which must
/// carry opcode \p Code and end where the body does.
template <typename Body, typename Fields>
Expected<Body> decodeFrame(const std::string &Payload, Op Code, Fields List) {
  Reader R(Payload);
  Body Out{};
  R.opcode(Code);
  List(R, Out);
  if (Status S = R.finish(); !S.ok())
    return S;
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

std::string seer::net::frameHeader(size_t PayloadBytes) {
  std::string Out;
  Writer(&Out).u32(PayloadBytes);
  return Out;
}

Expected<uint32_t> seer::net::frameLength(const char *Header,
                                          size_t MaxBytes) {
  uint32_t Length = 0;
  std::memcpy(&Length, Header, FrameHeaderBytes);
  if (Status S = validateFrameLength(Length, MaxBytes); !S.ok())
    return S;
  return Length;
}

void seer::net::appendFrame(std::string &Out, const std::string &Payload) {
  Out += frameHeader(Payload.size());
  Out += Payload;
}

// -- Request encoders ------------------------------------------------------

std::string seer::net::encodeHello(uint32_t Version) {
  return encodeFrame(Op::Hello, VersionBody, Version);
}

std::string seer::net::encodeOpen(const std::string &Name,
                                  const CsrMatrix &Matrix) {
  const OpenFrameView View{Name,
                           Matrix.numRows(),
                           Matrix.numCols(),
                           Matrix.nnz(),
                           imageOf(Matrix.rowOffsets()),
                           imageOf(Matrix.columnIndices()),
                           imageOf(Matrix.values())};
  return encodeFrame(Op::Open, OpenBody, View);
}

std::string seer::net::encodeClose(uint64_t Handle) {
  return encodeFrame(Op::Close, HandleBody, Handle);
}

std::string seer::net::encodeSelect(uint64_t Handle, uint32_t Iterations) {
  return encodeFrame(Op::Select, SelectBody,
                     ExecuteRequest{Handle, Iterations, false, {}});
}

std::string seer::net::encodeExecute(uint64_t Handle, uint32_t Iterations,
                                     bool Verify,
                                     const std::vector<double> &Operand) {
  // ExecuteRequest's fields, with the operand referenced, not copied.
  const struct {
    uint64_t Handle;
    uint32_t Iterations;
    bool Verify;
    const std::vector<double> &Operand;
  } Request{Handle, Iterations, Verify, Operand};
  return encodeFrame(Op::Execute, ExecuteBody, Request);
}

std::string seer::net::encodeBatch(uint64_t Handle, uint32_t Count,
                                   uint32_t Iterations) {
  return encodeFrame(Op::Batch, BatchBody,
                     BatchRequest{Handle, Count, Iterations});
}

std::string seer::net::encodeFault(const std::string &Spec) {
  return encodeFrame(Op::Fault, TextBody, Spec);
}

std::string seer::net::encodeStats() {
  return encodeFrame(Op::Stats, NoBody, 0);
}

std::string seer::net::encodeMetrics() {
  return encodeFrame(Op::Metrics, NoBody, 0);
}

std::string seer::net::encodeShutdown() {
  return encodeFrame(Op::Shutdown, NoBody, 0);
}

// -- Reply encoders --------------------------------------------------------

std::string seer::net::encodeHelloReply(uint32_t Version) {
  return encodeFrame(Op::RHello, VersionBody, Version);
}

std::string seer::net::encodeOpenReply(uint64_t Handle,
                                       const HandleInfo &Info) {
  return encodeFrame(Op::ROpen, OpenReplyBody, OpenReply{Handle, Info});
}

std::string seer::net::encodeStatusReply(const Status &S) {
  return encodeFrame(Op::RStatus, StatusBody,
                     StatusFields{static_cast<uint8_t>(S.code()), S.message()});
}

std::string seer::net::encodeResponseReply(const ServeResponse &R) {
  return encodeFrame(Op::RResponse, ResponseBody, R);
}

std::string seer::net::encodeBatchReply(const BatchResponse &R) {
  return encodeFrame(Op::RBatch, BatchReplyBody, R);
}

std::string seer::net::encodeTextReply(Op Kind, const std::string &Text) {
  return encodeFrame(Kind, TextBody, Text);
}

// -- Decoders --------------------------------------------------------------

Expected<uint32_t> seer::net::decodeHello(const std::string &Payload) {
  return decodeFrame<uint32_t>(Payload, Op::Hello, VersionBody);
}

Expected<OpenFrameView> seer::net::viewOpen(const std::string &Payload) {
  return decodeFrame<OpenFrameView>(Payload, Op::Open, OpenBody);
}

Expected<OpenRequest> seer::net::decodeOpen(const std::string &Payload) {
  auto View = viewOpen(Payload);
  if (!View.ok())
    return View.status();
  std::vector<uint64_t> Offsets;
  std::vector<uint32_t> Columns;
  std::vector<double> Values;
  copyArray(View->OffsetBytes, Offsets);
  copyArray(View->ColumnBytes, Columns);
  copyArray(View->ValueBytes, Values);
  // The view matched the array lengths to the dimensions; the content is
  // validated once, so a hostile frame gets a typed error.
  auto Matrix =
      CsrMatrix::fromUntrustedArrays(View->Rows, View->Cols, std::move(Offsets),
                                     std::move(Columns), std::move(Values));
  if (!Matrix.ok())
    return Matrix.status();
  OpenRequest Out;
  Out.Name.assign(View->Name);
  Out.Matrix = std::move(*Matrix);
  return Out;
}

Expected<uint64_t> seer::net::decodeClose(const std::string &Payload) {
  return decodeFrame<uint64_t>(Payload, Op::Close, HandleBody);
}

Expected<ExecuteRequest> seer::net::decodeSelect(const std::string &Payload) {
  return decodeFrame<ExecuteRequest>(Payload, Op::Select, SelectBody);
}

Expected<ExecuteRequest> seer::net::decodeExecute(const std::string &Payload) {
  return decodeFrame<ExecuteRequest>(Payload, Op::Execute, ExecuteBody);
}

Expected<BatchRequest> seer::net::decodeBatch(const std::string &Payload) {
  return decodeFrame<BatchRequest>(Payload, Op::Batch, BatchBody);
}

Expected<std::string> seer::net::decodeFault(const std::string &Payload) {
  return decodeFrame<std::string>(Payload, Op::Fault, TextBody);
}

Expected<uint32_t> seer::net::decodeHelloReply(const std::string &Payload) {
  return decodeFrame<uint32_t>(Payload, Op::RHello, VersionBody);
}

Expected<OpenReply> seer::net::decodeOpenReply(const std::string &Payload) {
  return decodeFrame<OpenReply>(Payload, Op::ROpen, OpenReplyBody);
}

Status seer::net::decodeStatusReply(const std::string &Payload,
                                    Status &Decoded) {
  const auto Body = decodeFrame<StatusFields>(Payload, Op::RStatus, StatusBody);
  if (!Body.ok())
    return Body.status();
  if (Body->Code > static_cast<uint8_t>(StatusCode::DeadlineExceeded))
    return Status::invalidArgument("unknown status code on the wire");
  const auto Code = static_cast<StatusCode>(Body->Code);
  Decoded = Code == StatusCode::Ok ? Status::okStatus()
                                   : Status(Code, std::string(Body->Message));
  return Status::okStatus();
}

Expected<ServeResponse>
seer::net::decodeResponseReply(const std::string &Payload) {
  return decodeFrame<ServeResponse>(Payload, Op::RResponse, ResponseBody);
}

Expected<BatchResponse>
seer::net::decodeBatchReply(const std::string &Payload) {
  return decodeFrame<BatchResponse>(Payload, Op::RBatch, BatchReplyBody);
}

Expected<std::string> seer::net::decodeTextReply(const std::string &Payload) {
  return decodeFrame<std::string>(Payload, Op::RText, TextBody);
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
