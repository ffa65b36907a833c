//===- net/Wire.h - Binary framing of the trace protocol ------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary wire format of the networked serving layer: a length-prefixed
/// framing of trace-protocol v2 (serve/RequestTrace.h), so the hot path
/// never parses text. One frame is
///
///   u32 length (little-endian)  | payload of `length` bytes
///   payload = u8 opcode | opcode-specific body
///
/// Scalar encodings are fixed-width little-endian; doubles travel as their
/// IEEE-754 bit patterns (u64), so every cost field and Y vector
/// round-trips bit-exactly — the property net_test's loopback tests and
/// CI's loopback diff rely on. Arrays travel as their little-endian
/// memory image, which is the host's own representation (only
/// little-endian hosts build), so each is encoded and decoded with one
/// bulk copy. Variable-length fields carry an explicit count and are
/// bounds-checked against the frame before any allocation, so a hostile
/// count cannot request memory the frame does not contain.
///
/// Each frame body below is one field list in Wire.cpp. Its encoder runs
/// the list over a writer and its decoder over a reader whose first short
/// read or forged count sticks as the frame's INVALID_ARGUMENT, so the
/// two directions cannot drift and adding a field is one line.
///
/// ## Request opcodes (client -> server)
///
///   Hello     u32 version               version handshake, first frame
///   Open      str name, CSR payload     register a matrix (rows, cols,
///                                       nnz, row offsets, column indices,
///                                       values)
///   Close     u64 handle                release a handle
///   Select    u64 handle, u32 iters     selection only
///   Execute   u64 handle, u32 iters,    select + execute; empty operand
///             u8 verify, f64[] operand  means the all-ones vector
///   Batch     u64 handle, u32 count,    one plan over `count` deterministic
///             u32 iters                 operands (buildBatchOperands)
///   Fault     str spec                  a trace-v2 `fault` directive
///   Stats     (empty)                   `stat NAME VALUE` text snapshot
///   Metrics   (empty)                   Prometheus text exposition
///   Shutdown  (empty)                   stop accepting, drain, exit
///
/// Every request that names a handle stores it at payload bytes [1, 9),
/// which is what lets the shard balancer rewrite handles in place without
/// decoding the rest of the frame.
///
/// ## Reply opcodes (server -> client)
///
///   RHello    u32 version
///   ROpen     u64 handle, HandleInfo
///   RStatus   u8 code, str message      typed Status; code 0 acks success
///   RResponse serialized ServeResponse (selection, charges, Y, oracle)
///   RBatch    serialized BatchResponse (per-batch charges, Y per operand)
///   RText     str payload               stats / metrics text
///
/// Any malformed frame decodes to a typed INVALID_ARGUMENT (truncated
/// body, trailing bytes, unknown opcode, oversized declared length); the
/// transport maps connection loss to UNAVAILABLE. Frame-length validation
/// runs through the `net.frame` fault site so chaos plans can forge both.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_NET_WIRE_H
#define SEER_NET_WIRE_H

#include "api/SeerService.h"
#include "api/Status.h"
#include "serve/ServeTypes.h"
#include "sparse/CsrMatrix.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace seer::net {

/// Wire protocol version spoken by this tree. Bumped on any frame-layout
/// change; Hello rejects a mismatch with FAILED_PRECONDITION.
inline constexpr uint32_t WireVersion = 1;

/// Default cap on one frame's payload (length prefix). Large enough for a
/// multi-million-nnz matrix registration, small enough that a corrupt or
/// hostile length prefix cannot stall a server on a gigabyte read.
inline constexpr size_t DefaultMaxFrameBytes = size_t(256) << 20;

/// Frame opcodes. Requests have the high bit clear, replies set.
enum class Op : uint8_t {
  Hello = 0x01,
  Open = 0x02,
  Close = 0x03,
  Select = 0x04,
  Execute = 0x05,
  Batch = 0x06,
  Fault = 0x07,
  Stats = 0x08,
  Metrics = 0x09,
  Shutdown = 0x0a,
  RHello = 0x81,
  ROpen = 0x82,
  RStatus = 0x83,
  RResponse = 0x84,
  RBatch = 0x85,
  RText = 0x86,
};

/// The opcode of \p Payload, or INVALID_ARGUMENT on an empty frame or an
/// opcode outside the table above.
Expected<Op> frameOp(const std::string &Payload);

/// Validates a frame's declared payload length against \p MaxBytes: zero
/// and oversized lengths are INVALID_ARGUMENT. Checks the `net.frame`
/// fault site first, so chaos plans can inject short-frame failures here.
Status validateFrameLength(uint64_t Length, size_t MaxBytes);

/// Bytes in a frame's u32 little-endian length prefix.
inline constexpr size_t FrameHeaderBytes = sizeof(uint32_t);

/// The length prefix of a \p PayloadBytes-byte payload: the one writer of
/// the frame header.
std::string frameHeader(size_t PayloadBytes);

/// The payload length declared by the FrameHeaderBytes at \p Header,
/// checked by validateFrameLength against \p MaxBytes: the one reader of
/// the frame header.
Expected<uint32_t> frameLength(const char *Header, size_t MaxBytes);

/// Appends \p Payload's length prefix + bytes to \p Out (the frame as
/// sent on the wire).
void appendFrame(std::string &Out, const std::string &Payload);

// -- Request encoders ------------------------------------------------------

std::string encodeHello(uint32_t Version = WireVersion);
std::string encodeOpen(const std::string &Name, const CsrMatrix &Matrix);
std::string encodeClose(uint64_t Handle);
std::string encodeSelect(uint64_t Handle, uint32_t Iterations);
std::string encodeExecute(uint64_t Handle, uint32_t Iterations, bool Verify,
                          const std::vector<double> &Operand);
std::string encodeBatch(uint64_t Handle, uint32_t Count, uint32_t Iterations);
std::string encodeFault(const std::string &Spec);
std::string encodeStats();
std::string encodeMetrics();
std::string encodeShutdown();

// -- Reply encoders --------------------------------------------------------

std::string encodeHelloReply(uint32_t Version = WireVersion);
std::string encodeOpenReply(uint64_t Handle, const HandleInfo &Info);
/// Encodes \p S as an RStatus frame; an OK status encodes as the code-0
/// acknowledgement.
std::string encodeStatusReply(const Status &S);
std::string encodeResponseReply(const ServeResponse &Response);
std::string encodeBatchReply(const BatchResponse &Response);
std::string encodeTextReply(Op Kind, const std::string &Text);

// -- Decoders --------------------------------------------------------------
// Each consumes the full payload (opcode byte included) and rejects
// trailing bytes, so a truncated or padded frame is a typed error, never
// a silently misparsed request.

struct OpenRequest {
  std::string Name;
  CsrMatrix Matrix;
};
struct ExecuteRequest {
  uint64_t Handle = 0;
  uint32_t Iterations = 1;
  bool Verify = false;
  std::vector<double> Operand;
};
struct BatchRequest {
  uint64_t Handle = 0;
  uint32_t Count = 0;
  uint32_t Iterations = 1;
};
struct OpenReply {
  uint64_t Handle = 0;
  HandleInfo Info;
};

/// An Open frame's fields, viewed in place: the name and the three CSR
/// arrays point into the payload as their little-endian images, at
/// whatever alignment the name leaves them. Valid while the payload lives.
struct OpenFrameView {
  std::string_view Name;
  uint32_t Rows = 0;
  uint32_t Cols = 0;
  uint64_t Nnz = 0;
  std::string_view OffsetBytes; ///< Rows + 1 u64 row offsets
  std::string_view ColumnBytes; ///< Nnz u32 column indices
  std::string_view ValueBytes;  ///< Nnz f64 values
};

Expected<uint32_t> decodeHello(const std::string &Payload);
/// The one parser of the Open layout. Checks only that the frame is well
/// formed — the array lengths agree with the dimensions and nothing
/// trails — not the CSR content: the balancer routes on this view
/// (net/ShardRouter.h) and leaves content validation to the shard.
Expected<OpenFrameView> viewOpen(const std::string &Payload);
/// viewOpen, a copy of the arrays, then one full CSR validation
/// (CsrMatrix::fromUntrustedArrays): monotone row offsets from 0 to nnz,
/// then columns below the column count and strictly increasing per row.
Expected<OpenRequest> decodeOpen(const std::string &Payload);
Expected<uint64_t> decodeClose(const std::string &Payload);
/// Select decodes to an ExecuteRequest with Verify/Operand defaulted.
Expected<ExecuteRequest> decodeSelect(const std::string &Payload);
Expected<ExecuteRequest> decodeExecute(const std::string &Payload);
Expected<BatchRequest> decodeBatch(const std::string &Payload);
Expected<std::string> decodeFault(const std::string &Payload);

Expected<uint32_t> decodeHelloReply(const std::string &Payload);
Expected<OpenReply> decodeOpenReply(const std::string &Payload);
/// Decodes an RStatus frame back into the Status it carries, stored in
/// \p Decoded (OK for the code-0 acknowledgement). The return value is
/// the *decode* outcome: INVALID_ARGUMENT if the frame is not a
/// well-formed RStatus. Two channels because `Expected<Status>` would
/// conflate them.
Status decodeStatusReply(const std::string &Payload, Status &Decoded);
Expected<ServeResponse> decodeResponseReply(const std::string &Payload);
Expected<BatchResponse> decodeBatchReply(const std::string &Payload);
Expected<std::string> decodeTextReply(const std::string &Payload);

/// The handle named by a handle-bearing request frame (Close / Select /
/// Execute / Batch), read from its fixed offset. INVALID_ARGUMENT for
/// other opcodes or a frame too short to carry one.
Expected<uint64_t> requestHandle(const std::string &Payload);

/// Rewrites the handle of a handle-bearing request frame in place — the
/// shard balancer's zero-decode forwarding path. INVALID_ARGUMENT under
/// the same conditions as requestHandle.
Status rewriteRequestHandle(std::string &Payload, uint64_t NewHandle);

} // namespace seer::net

#endif // SEER_NET_WIRE_H
