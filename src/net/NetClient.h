//===- net/NetClient.h - Framed TCP client ---------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the binary transport: one blocking request-reply
/// connection speaking net/Wire.h frames. `connect()` performs the Hello
/// version handshake, so a live NetClient is guaranteed to share a frame
/// layout with its server. Each typed call encodes the request, round-
/// trips one frame, and decodes the reply — an RStatus answer surfaces
/// as the carried typed Status (a full admission queue on the server
/// arrives here as the same RESOURCE_EXHAUSTED the in-process API
/// returns), and a torn connection as UNAVAILABLE.
///
/// The raw `call()` escape hatch round-trips an already-encoded payload
/// untouched — the shard balancer's forwarding path, which rewrites a
/// handle in place and does not re-encode the rest of the frame.
///
/// A NetClient is NOT thread-safe: it is one ordered byte stream. Share
/// one per thread, or serialize externally (the balancer wraps each
/// backend client in a mutex). Retry policy is deliberately the
/// caller's: replies are returned as-is so replay tools can account
/// every retryable outcome themselves.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_NET_NETCLIENT_H
#define SEER_NET_NETCLIENT_H

#include "net/Socket.h"
#include "net/Wire.h"
#include "serve/RequestTrace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seer::net {

class NetClient {
public:
  NetClient(NetClient &&) = default;
  NetClient &operator=(NetClient &&) = default;

  /// Connects and performs the Hello handshake. UNAVAILABLE when the
  /// server is unreachable; FAILED_PRECONDITION on a version mismatch.
  static Expected<NetClient> connect(const std::string &Host, uint16_t Port,
                                     size_t MaxFrameBytes =
                                         DefaultMaxFrameBytes);

  /// Registers \p Matrix under \p Name; the reply carries the server's
  /// handle and HandleInfo (fingerprint, shape, cache reuse).
  Expected<OpenReply> open(const std::string &Name, const CsrMatrix &Matrix);

  /// Releases a server handle.
  Status close(uint64_t Handle);

  Expected<ServeResponse> select(uint64_t Handle, uint32_t Iterations);
  Expected<ServeResponse> execute(uint64_t Handle, uint32_t Iterations,
                                  bool Verify,
                                  const std::vector<double> &Operand);
  Expected<BatchResponse> batch(uint64_t Handle, uint32_t Count,
                                uint32_t Iterations);

  /// Applies a trace-v2 fault directive on the server.
  Status fault(const std::string &Spec);

  /// The server's `stat NAME VALUE` snapshot.
  Expected<std::string> statsText();

  /// The server's Prometheus exposition.
  Expected<std::string> metricsText();

  /// Asks the server to stop (acked before the drain begins).
  Status shutdownServer();

  /// Round-trips one already-encoded request payload and returns the
  /// raw reply payload. The balancer's zero-re-encode forwarding path.
  Expected<std::string> call(const std::string &RequestPayload);

private:
  explicit NetClient(Socket Sock, size_t MaxFrameBytes)
      : Sock(std::move(Sock)), MaxFrameBytes(MaxFrameBytes) {}

  Socket Sock;
  size_t MaxFrameBytes;
};

/// The wire TraceBackend (serve/RequestTrace.h): each operation is one
/// round trip over \p Client, so a replay through it prints what the
/// in-process backend prints unless the transport changed a byte. Not
/// thread-safe, like the client. `spans` has no wire op and answers with
/// the disarmed-recorder form.
class NetTraceBackend final : public TraceBackend {
public:
  explicit NetTraceBackend(NetClient &Client) : Client(Client) {}

  Expected<TraceHandle> open(const std::string &Name,
                             MatrixInput Source) override;
  Status close(uint64_t Handle) override { return Client.close(Handle); }
  Expected<ServeResponse> serve(uint64_t Handle, uint32_t Iterations,
                                bool Execute, bool Verify) override {
    return Execute ? Client.execute(Handle, Iterations, Verify, {})
                   : Client.select(Handle, Iterations);
  }
  Expected<BatchResponse> batch(uint64_t Handle, uint32_t Count,
                                uint32_t Iterations) override {
    return Client.batch(Handle, Count, Iterations);
  }
  Status fault(const std::string &Spec) override {
    return Client.fault(Spec);
  }
  Expected<std::string> metrics() override { return Client.metricsText(); }
  Expected<std::string> stats() override { return Client.statsText(); }
  std::string spans(uint32_t Count) override {
    return formatSpanLines({}, Count);
  }

private:
  NetClient &Client;
};

} // namespace seer::net

#endif // SEER_NET_NETCLIENT_H
