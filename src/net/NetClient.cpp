//===- net/NetClient.cpp --------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "net/NetClient.h"

#include "api/MatrixInput.h"

using namespace seer;
using namespace seer::net;

namespace {

/// Interprets a reply frame that should carry a T (RResponse / RBatch /
/// ROpen / RText): an RStatus answer resolves to the typed Status it
/// carries instead.
template <typename T, typename DecodeFn>
Expected<T> interpret(const std::string &Reply, DecodeFn Decode) {
  auto OpOr = frameOp(Reply);
  if (!OpOr.ok())
    return OpOr.status();
  if (*OpOr == Op::RStatus) {
    Status Carried = Status::okStatus();
    if (Status S = decodeStatusReply(Reply, Carried); !S.ok())
      return S;
    if (Carried.ok())
      return Status::internal(
          "server acknowledged where a typed reply was expected");
    return Carried;
  }
  return Decode(Reply);
}

} // namespace

Status NetClient::ackOf(const std::string &Reply) {
  Status Carried = Status::okStatus();
  if (Status S = decodeStatusReply(Reply, Carried); !S.ok())
    return S;
  return Carried;
}

Expected<NetClient> NetClient::connect(const std::string &Host,
                                       uint16_t Port, size_t MaxFrameBytes) {
  auto SockOr = Socket::connectTo(Host, Port);
  if (!SockOr.ok())
    return SockOr.status();
  NetClient Client(std::move(*SockOr), MaxFrameBytes);
  auto ReplyOr = Client.call(encodeHello());
  if (!ReplyOr.ok())
    return ReplyOr.status();
  auto VersionOr = interpret<uint32_t>(*ReplyOr, decodeHelloReply);
  if (!VersionOr.ok())
    return VersionOr.status();
  if (*VersionOr != WireVersion)
    return Status::failedPrecondition(
        "wire version mismatch: server speaks v" +
        std::to_string(*VersionOr) + ", client speaks v" +
        std::to_string(WireVersion));
  return Client;
}

Expected<std::string> NetClient::call(const std::string &RequestPayload) {
  if (Status S = writeFrame(Sock, RequestPayload); !S.ok())
    return S;
  std::string Reply;
  bool CleanClose = false;
  if (Status S = readFrame(Sock, MaxFrameBytes, Reply, &CleanClose);
      !S.ok())
    return S;
  if (CleanClose)
    return Status::unavailable("server closed the connection");
  return Reply;
}

Expected<OpenReply> NetClient::open(const std::string &Name,
                                    const CsrMatrix &Matrix) {
  auto ReplyOr = call(encodeOpen(Name, Matrix));
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return interpret<OpenReply>(*ReplyOr, decodeOpenReply);
}

Status NetClient::close(uint64_t Handle) {
  auto ReplyOr = call(encodeClose(Handle));
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return ackOf(*ReplyOr);
}

Expected<ServeResponse> NetClient::select(uint64_t Handle,
                                          uint32_t Iterations) {
  auto ReplyOr = call(encodeSelect(Handle, Iterations));
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return interpret<ServeResponse>(*ReplyOr, decodeResponseReply);
}

Expected<ServeResponse> NetClient::execute(uint64_t Handle,
                                           uint32_t Iterations, bool Verify,
                                           const std::vector<double> &Operand) {
  auto ReplyOr = call(encodeExecute(Handle, Iterations, Verify, Operand));
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return interpret<ServeResponse>(*ReplyOr, decodeResponseReply);
}

Expected<BatchResponse> NetClient::batch(uint64_t Handle, uint32_t Count,
                                         uint32_t Iterations) {
  auto ReplyOr = call(encodeBatch(Handle, Count, Iterations));
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return interpret<BatchResponse>(*ReplyOr, decodeBatchReply);
}

Status NetClient::fault(const std::string &Spec) {
  auto ReplyOr = call(encodeFault(Spec));
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return ackOf(*ReplyOr);
}

Expected<std::string> NetClient::statsText() {
  auto ReplyOr = call(encodeStats());
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return interpret<std::string>(*ReplyOr, decodeTextReply);
}

Expected<std::string> NetClient::metricsText() {
  auto ReplyOr = call(encodeMetrics());
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return interpret<std::string>(*ReplyOr, decodeTextReply);
}

Status NetClient::shutdownServer() {
  auto ReplyOr = call(encodeShutdown());
  if (!ReplyOr.ok())
    return ReplyOr.status();
  return ackOf(*ReplyOr);
}

Expected<TraceHandle> NetTraceBackend::open(const std::string &Name,
                                            MatrixInput Source) {
  // A replay's parsed matrix goes out as it is; any other form is
  // materialized first, as the in-process service would.
  using SharedCsr = std::shared_ptr<const CsrMatrix>;
  SharedCsr Matrix;
  if (const auto *Shared = std::get_if<SharedCsr>(&Source))
    Matrix = *Shared;
  if (!Matrix) {
    auto Built = materializeMatrixInput(std::move(Source));
    if (!Built)
      return Built.status();
    Matrix = std::make_shared<const CsrMatrix>(std::move(*Built));
  }
  const auto Reply = Client.open(Name, *Matrix);
  if (!Reply)
    return Reply.status();
  return TraceHandle{Reply->Handle, Reply->Info.NumRows, Reply->Info.NumCols,
                     Reply->Info.Nnz};
}
