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

/// Round-trips \p Request and decodes a reply that should carry a T
/// (ROpen / RResponse / RBatch / RText / RHello) with \p Decode: an RStatus
/// answer resolves to the typed Status it carries instead.
template <typename T>
Expected<T> roundTrip(NetClient &Client, const std::string &Request,
                      Expected<T> (*Decode)(const std::string &)) {
  auto Reply = Client.call(Request);
  if (!Reply.ok())
    return Reply.status();
  auto Code = frameOp(*Reply);
  if (!Code.ok())
    return Code.status();
  if (*Code != Op::RStatus)
    return Decode(*Reply);
  Status Carried = Status::okStatus();
  if (Status S = decodeStatusReply(*Reply, Carried); !S.ok())
    return S;
  if (Carried.ok())
    return Status::internal(
        "server acknowledged where a typed reply was expected");
  return Carried;
}

/// Round-trips \p Request, whose reply should be an ack: RStatus carrying
/// OK, or the typed failure it carries.
Status ack(NetClient &Client, const std::string &Request) {
  auto Reply = Client.call(Request);
  if (!Reply.ok())
    return Reply.status();
  Status Carried = Status::okStatus();
  if (Status S = decodeStatusReply(*Reply, Carried); !S.ok())
    return S;
  return Carried;
}

} // namespace

Expected<NetClient> NetClient::connect(const std::string &Host,
                                       uint16_t Port, size_t MaxFrameBytes) {
  auto SockOr = Socket::connectTo(Host, Port);
  if (!SockOr.ok())
    return SockOr.status();
  NetClient Client(std::move(*SockOr), MaxFrameBytes);
  auto VersionOr = roundTrip(Client, encodeHello(), decodeHelloReply);
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
  return roundTrip(*this, encodeOpen(Name, Matrix), decodeOpenReply);
}

Status NetClient::close(uint64_t Handle) {
  return ack(*this, encodeClose(Handle));
}

Expected<ServeResponse> NetClient::select(uint64_t Handle,
                                          uint32_t Iterations) {
  return roundTrip(*this, encodeSelect(Handle, Iterations),
                   decodeResponseReply);
}

Expected<ServeResponse> NetClient::execute(uint64_t Handle,
                                           uint32_t Iterations, bool Verify,
                                           const std::vector<double> &Operand) {
  return roundTrip(*this, encodeExecute(Handle, Iterations, Verify, Operand),
                   decodeResponseReply);
}

Expected<BatchResponse> NetClient::batch(uint64_t Handle, uint32_t Count,
                                         uint32_t Iterations) {
  return roundTrip(*this, encodeBatch(Handle, Count, Iterations),
                   decodeBatchReply);
}

Status NetClient::fault(const std::string &Spec) {
  return ack(*this, encodeFault(Spec));
}

Expected<std::string> NetClient::statsText() {
  return roundTrip(*this, encodeStats(), decodeTextReply);
}

Expected<std::string> NetClient::metricsText() {
  return roundTrip(*this, encodeMetrics(), decodeTextReply);
}

Status NetClient::shutdownServer() { return ack(*this, encodeShutdown()); }

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
