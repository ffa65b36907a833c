//===- net/NetServer.h - Framed TCP server over SeerService ---------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving side of the binary transport: a TCP server that assembles
/// net/Wire.h frames and dispatches each to a `FrameHandler`, one
/// in-flight frame per connection (the protocol is strictly
/// request-reply). One epoll event-loop thread owns the listener and
/// every connection (non-blocking, level-triggered). Complete frames are
/// handed to a small worker pool; while a connection's frame is in
/// flight its readable interest is dropped, so a pipelining client
/// cannot queue unbounded work. Workers return replies through a
/// completion queue and a self-pipe wakeup.
///
/// `dispatch()` parses each frame's opcode once, answers Hello (version
/// handshake) and Shutdown in the transport itself, and hands every other
/// frame to the handler with its opcode. `requestStop()` is
/// async-signal-safe (an atomic store plus a self-pipe write), so a
/// SIGTERM handler can stop the server directly; `join()` then waits for
/// the drain: in-flight frames finish, replies flush, connections close,
/// workers exit.
///
/// `ServiceFrameHandler` is the production handler: it binds the frame
/// vocabulary to a `SeerService`, routing select/execute through
/// `SeerService::submit()` so the wire path inherits the bounded
/// admission queue — a full queue surfaces to the client as a typed
/// RESOURCE_EXHAUSTED RStatus frame, the same backpressure contract the
/// in-process API has. Handles opened over a connection are released
/// when that connection closes, so a dropped client never leaks cache
/// budget.
///
/// Telemetry: each served frame increments `seer_net_requests_total`,
/// times a `net.request` span and the `seer_net_request_us` histogram;
/// accepts count in `seer_net_connections_total` and the
/// `seer_net_open_connections` gauge; framing violations count in
/// `seer_net_protocol_errors_total`; framed traffic volume in
/// `seer_net_bytes_{read,written}_total`.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_NET_NETSERVER_H
#define SEER_NET_NETSERVER_H

#include "api/SeerService.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "support/Metrics.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace seer::net {

/// Application-level frame processing plugged into a NetServer. One
/// handler instance serves every connection; per-connection state lives
/// in the opaque pointer the server threads through the callbacks.
/// handleFrame() runs on server worker threads — at most one call per
/// connection at a time, but calls for *different* connections are
/// concurrent, so shared handler state needs its own synchronization.
class FrameHandler {
public:
  virtual ~FrameHandler() = default;

  /// Called once per accepted connection; the returned state rides along
  /// with every frame of that connection. May be null.
  virtual std::shared_ptr<void> connectionOpened() { return nullptr; }

  /// Handles one frame payload (opcode byte included), whose opcode the
  /// server has already parsed into \p Code, and returns the reply
  /// payload to send back. Must always return a reply — errors travel as
  /// RStatus frames, never as silence.
  virtual std::string handleFrame(const std::shared_ptr<void> &State, Op Code,
                                  const std::string &Payload) = 0;

  /// Called exactly once when the connection ends (clean close, torn
  /// connection, or server shutdown) — release per-connection resources
  /// here.
  virtual void connectionClosed(const std::shared_ptr<void> &State) {
    (void)State;
  }
};

/// The reply to a frame the protocol refuses (it does not decode, or its
/// opcode or version is wrong): \p Why as an RStatus frame, counted in
/// \p ProtocolErrors (`seer_net_protocol_errors_total`).
std::string protocolError(Counter &ProtocolErrors, const Status &Why);

struct NetServerConfig {
  /// Numeric IPv4 listen address.
  std::string Host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with NetServer::port().
  uint16_t Port = 0;
  /// Worker pool size.
  size_t Workers = 2;
  /// Connections beyond this are accepted and immediately closed.
  size_t MaxConnections = 256;
  /// Frame-length cap handed to the wire validator.
  size_t MaxFrameBytes = DefaultMaxFrameBytes;
  /// Registry for the seer_net_* instruments; null means the
  /// process-wide registry. seer-serve passes its service's registry so
  /// net counters land in the same exposition as serving metrics.
  MetricsRegistry *Metrics = nullptr;
};

/// The framed TCP server. Construction binds and starts serving;
/// requestStop()+join() (or destruction) stops it.
class NetServer {
public:
  /// Binds Config.Host:Config.Port and starts the serve threads.
  /// UNAVAILABLE / INVALID_ARGUMENT on bind failures.
  static Expected<std::unique_ptr<NetServer>> start(FrameHandler &Handler,
                                                    NetServerConfig Config);

  ~NetServer();
  NetServer(const NetServer &) = delete;
  NetServer &operator=(const NetServer &) = delete;

  /// The bound listen port (resolves ephemeral port 0).
  uint16_t port() const { return BoundPort; }

  /// Requests shutdown: async-signal-safe (one atomic store + one
  /// self-pipe write), callable from a SIGTERM handler and from worker
  /// threads (the wire Shutdown opcode lands here). Idempotent.
  void requestStop();

  /// Blocks until the server has fully stopped: listener closed,
  /// in-flight frames answered, connections closed (with
  /// connectionClosed fired for each), threads joined. Does not itself
  /// initiate shutdown — pair with requestStop(), a signal, or the wire
  /// Shutdown op.
  void join();

private:
  struct EpollConn;
  struct WorkItem {
    int Fd = -1;
    std::shared_ptr<void> State;
    std::string Payload;
  };
  struct DoneItem {
    int Fd = -1;
    std::string Reply;
  };

  NetServer(FrameHandler &Handler, NetServerConfig Config, Socket Listener,
            uint16_t BoundPort);

  /// Transport-level dispatch: answers Hello and Shutdown, forwards
  /// everything else to the handler; wraps the call in the net.request
  /// span + request metrics.
  std::string dispatch(const std::shared_ptr<void> &State,
                       const std::string &Payload);

  void wake();

  // All of these run on the loop thread only (workers touch nothing but
  // the two queues), so the connection table needs no lock.
  void epollLoop();
  void workerLoop();
  void epollAccept(int Ep);
  void connEvent(int Ep, int Fd, uint32_t Events);
  bool epollReadable(EpollConn &Conn); ///< false = fatal, retire the conn
  void parseFrames(EpollConn &Conn);
  bool flushOut(EpollConn &Conn); ///< false = fatal, retire the conn
  void settle(int Ep, int Fd);
  void retireConn(int Ep, int Fd);
  void updateInterest(int Ep, EpollConn &Conn);
  void destroyConn(int Ep, int Fd);
  void processCompletions(int Ep);

  FrameHandler &Handler;
  NetServerConfig Config;
  MetricsRegistry &Registry;
  Counter &ConnectionsTotal;
  Counter &RequestsTotal;
  Counter &ProtocolErrors;
  Counter &BytesReadTotal;
  Counter &BytesWrittenTotal;
  Gauge &OpenConnections;
  Histogram &RequestUs;

  Socket Listener;
  uint16_t BoundPort = 0;
  int WakeRead = -1;
  int WakeWrite = -1;
  std::atomic<bool> StopFlag{false};
  std::atomic<size_t> ActiveConns{0};

  std::thread LoopThread;

  /// The connection table. Owned exclusively by the loop thread —
  /// workers reach connections only through the fd keys in the queues
  /// below, never through this map.
  std::unordered_map<int, std::unique_ptr<EpollConn>> Conns;

  // Work/completion queues between the loop thread and the worker pool.
  std::vector<std::thread> Workers;
  seer::Mutex WorkMutex;
  seer::CondVar WorkCv;
  std::deque<WorkItem> WorkQueue SEER_GUARDED_BY(WorkMutex);
  bool WorkersStop SEER_GUARDED_BY(WorkMutex) = false;
  seer::Mutex DoneMutex;
  std::deque<DoneItem> DoneQueue SEER_GUARDED_BY(DoneMutex);
};

/// The production FrameHandler: binds the wire vocabulary to a
/// SeerService session. Select/Execute go through submit() (bounded
/// admission queue -> RESOURCE_EXHAUSTED backpressure on the wire);
/// handles opened on a connection are tracked in its state and released
/// on disconnect.
class ServiceFrameHandler : public FrameHandler {
public:
  explicit ServiceFrameHandler(SeerService &Service);

  std::shared_ptr<void> connectionOpened() override;
  std::string handleFrame(const std::shared_ptr<void> &State, Op Code,
                          const std::string &Payload) override;
  void connectionClosed(const std::shared_ptr<void> &State) override;

private:
  struct Session;

  SeerService &Service;
  Counter &ProtocolErrors;
};

} // namespace seer::net

#endif // SEER_NET_NETSERVER_H
