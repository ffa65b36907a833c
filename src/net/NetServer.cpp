//===- net/NetServer.cpp --------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "net/NetServer.h"

#include "serve/RequestTrace.h"
#include "support/FaultInjector.h"
#include "support/Tracing.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace seer;
using namespace seer::net;

// -- Connection state ------------------------------------------------------

/// One connection. Loop-thread-only except State, which rides
/// (as a shared_ptr copy) with the frame a worker is executing.
struct NetServer::EpollConn {
  Socket Sock;
  std::shared_ptr<void> State;
  std::string In;   ///< raw bytes buffered off the socket
  std::string Out;  ///< encoded frames waiting to flush
  size_t OutPos = 0;
  bool Busy = false;           ///< one frame is with a worker
  bool PeerClosed = false;     ///< read side saw EOF
  bool CloseAfterFlush = false; ///< fatal protocol error queued a reply
  bool Dead = false;           ///< destroy when the completion arrives
};

// -- Lifecycle -------------------------------------------------------------

NetServer::NetServer(FrameHandler &Handler, NetServerConfig Config,
                     Socket Listener, uint16_t BoundPort)
    : Handler(Handler), Config(std::move(Config)),
      Registry(this->Config.Metrics ? *this->Config.Metrics
                                    : MetricsRegistry::process()),
      ConnectionsTotal(Registry.counter("seer_net_connections_total")),
      RequestsTotal(Registry.counter("seer_net_requests_total")),
      ProtocolErrors(Registry.counter("seer_net_protocol_errors_total")),
      BytesReadTotal(Registry.counter("seer_net_bytes_read_total")),
      BytesWrittenTotal(Registry.counter("seer_net_bytes_written_total")),
      OpenConnections(Registry.gauge("seer_net_open_connections")),
      RequestUs(Registry.histogram("seer_net_request_us")),
      Listener(std::move(Listener)), BoundPort(BoundPort) {}

Expected<std::unique_ptr<NetServer>> NetServer::start(FrameHandler &Handler,
                                                      NetServerConfig Config) {
  auto ListenerOr = Socket::listenOn(Config.Host, Config.Port);
  if (!ListenerOr.ok())
    return ListenerOr.status();
  auto PortOr = ListenerOr->localPort();
  if (!PortOr.ok())
    return PortOr.status();

  std::unique_ptr<NetServer> Server(new NetServer(
      Handler, std::move(Config), std::move(*ListenerOr), *PortOr));

  int Fds[2];
  if (::pipe2(Fds, O_NONBLOCK | O_CLOEXEC) != 0)
    return Status::internal(std::string("pipe2 failed: ") +
                            std::strerror(errno));
  Server->WakeRead = Fds[0];
  Server->WakeWrite = Fds[1];

  if (Status S = Server->Listener.setNonBlocking(true); !S.ok())
    return S;
  const size_t WorkerCount = std::max<size_t>(1, Server->Config.Workers);
  NetServer *Raw = Server.get();
  for (size_t I = 0; I < WorkerCount; ++I)
    Raw->Workers.emplace_back([Raw] { Raw->workerLoop(); });
  Raw->LoopThread = std::thread([Raw] { Raw->epollLoop(); });
  return Server;
}

NetServer::~NetServer() {
  requestStop();
  join();
  if (WakeRead >= 0)
    ::close(WakeRead);
  if (WakeWrite >= 0)
    ::close(WakeWrite);
}

void NetServer::requestStop() {
  // Async-signal-safe on purpose: one lock-free atomic store plus one
  // write(2) to the self-pipe. No locks, no allocation — a SIGTERM
  // handler may call this directly.
  StopFlag.store(true, std::memory_order_release);
  wake();
}

void NetServer::wake() {
  if (WakeWrite < 0)
    return;
  const char Byte = 1;
  // A full pipe means a wakeup is already pending; nothing to do.
  [[maybe_unused]] const ssize_t W = ::write(WakeWrite, &Byte, 1);
}

void NetServer::join() {
  if (LoopThread.joinable())
    LoopThread.join();
  {
    MutexLock L(WorkMutex);
    WorkersStop = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
}

// -- Shared dispatch -------------------------------------------------------

std::string NetServer::dispatch(const std::shared_ptr<void> &State,
                                const std::string &Payload) {
  RequestsTotal.add();
  const uint64_t StartNs = SpanRecorder::nowNs();
  std::string Reply;
  {
    ScopedSpan Span(spanname::NetRequest);
    auto OpOr = frameOp(Payload);
    if (!OpOr.ok()) {
      Reply = protocolError(ProtocolErrors, OpOr.status());
    } else {
      switch (*OpOr) {
      case Op::Hello: {
        auto Version = decodeHello(Payload);
        if (!Version.ok())
          Reply = protocolError(ProtocolErrors, Version.status());
        else if (*Version != WireVersion)
          Reply = protocolError(
              ProtocolErrors,
              Status::failedPrecondition(
                  "wire version mismatch: peer speaks v" +
                  std::to_string(*Version) + ", server speaks v" +
                  std::to_string(WireVersion)));
        else
          Reply = encodeHelloReply();
        break;
      }
      case Op::Shutdown:
        // Ack first (the reply still flushes during the drain), then
        // begin shutdown.
        requestStop();
        Reply = encodeStatusReply(Status::okStatus());
        break;
      default:
        Reply = Handler.handleFrame(State, *OpOr, Payload);
        break;
      }
    }
  }
  RequestUs.record(double(SpanRecorder::nowNs() - StartNs) / 1000.0);
  return Reply;
}

// -- Event loop ------------------------------------------------------------

void NetServer::workerLoop() {
  while (true) {
    WorkItem Item;
    {
      MutexLock L(WorkMutex);
      while (WorkQueue.empty() && !WorkersStop)
        WorkCv.wait(L);
      if (WorkQueue.empty())
        return; // WorkersStop and nothing left
      Item = std::move(WorkQueue.front());
      WorkQueue.pop_front();
    }
    std::string Reply = dispatch(Item.State, Item.Payload);
    {
      MutexLock L(DoneMutex);
      DoneQueue.push_back(DoneItem{Item.Fd, std::move(Reply)});
    }
    wake();
  }
}

void NetServer::epollLoop() {
  const int Ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (Ep < 0)
    return;
  auto AddRead = [Ep](int Fd) {
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.fd = Fd;
    (void)::epoll_ctl(Ep, EPOLL_CTL_ADD, Fd, &Ev);
  };
  AddRead(Listener.fd());
  AddRead(WakeRead);
  bool ListenerOpen = true;

  epoll_event Events[64];
  while (true) {
    // Completions first so the stop logic below sees Busy flags that are
    // current as of the wakeup that got us here.
    processCompletions(Ep);

    if (StopFlag.load(std::memory_order_acquire)) {
      if (ListenerOpen) {
        (void)::epoll_ctl(Ep, EPOLL_CTL_DEL, Listener.fd(), nullptr);
        Listener.close();
        ListenerOpen = false;
      }
      // Idle connections close now (one best-effort flush); busy ones
      // close when their in-flight frame completes.
      std::vector<int> Idle;
      Idle.reserve(Conns.size());
      for (const auto &KV : Conns)
        if (!KV.second->Busy)
          Idle.push_back(KV.first);
      for (const int Fd : Idle) {
        auto It = Conns.find(Fd);
        if (It != Conns.end()) {
          (void)flushOut(*It->second);
          destroyConn(Ep, Fd);
        }
      }
      if (Conns.empty())
        break;
    }

    const int N = ::epoll_wait(Ep, Events, 64, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int I = 0; I < N; ++I) {
      const int Fd = Events[I].data.fd;
      if (Fd == WakeRead) {
        char Buf[256];
        while (::read(WakeRead, Buf, sizeof(Buf)) > 0) {
        }
        continue;
      }
      if (ListenerOpen && Fd == Listener.fd()) {
        epollAccept(Ep);
        continue;
      }
      connEvent(Ep, Fd, Events[I].events);
    }
  }
  ::close(Ep);

  // Defensive: the loop only exits with the table empty, but if it ever
  // broke out early (epoll_wait failure) the close hooks still fire.
  for (const auto &KV : Conns)
    Handler.connectionClosed(KV.second->State);
  Conns.clear();
  ActiveConns.store(0, std::memory_order_relaxed);
  OpenConnections.set(0.0);
}

void NetServer::epollAccept(int Ep) {
  while (true) {
    auto AcceptedOr = Listener.accept();
    if (!AcceptedOr.ok()) {
      // RESOURCE_EXHAUSTED = EAGAIN, the backlog is drained. Anything
      // else (an injected net.accept fault dropped the connection, or a
      // transient kernel error): stop for this readiness event — a
      // still-pending backlog re-fires level-triggered.
      return;
    }
    if (StopFlag.load(std::memory_order_acquire) ||
        Conns.size() >= Config.MaxConnections)
      continue; // RAII-drop the accepted socket
    Socket Accepted = std::move(*AcceptedOr);
    if (!Accepted.setNonBlocking(true).ok())
      continue;
    const int Fd = Accepted.fd();
    auto Conn = std::make_unique<EpollConn>();
    Conn->Sock = std::move(Accepted);
    Conn->State = Handler.connectionOpened();
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.fd = Fd;
    if (::epoll_ctl(Ep, EPOLL_CTL_ADD, Fd, &Ev) != 0) {
      Handler.connectionClosed(Conn->State);
      continue;
    }
    Conns.emplace(Fd, std::move(Conn));
    ConnectionsTotal.add();
    OpenConnections.set(
        double(ActiveConns.fetch_add(1, std::memory_order_relaxed) + 1));
  }
}

void NetServer::connEvent(int Ep, int Fd, uint32_t EventMask) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  EpollConn &Conn = *It->second;
  if (EventMask & (EPOLLERR | EPOLLHUP)) {
    retireConn(Ep, Fd);
    return;
  }
  if ((EventMask & EPOLLIN) && !epollReadable(Conn)) {
    retireConn(Ep, Fd);
    return;
  }
  if ((EventMask & EPOLLOUT) && !flushOut(Conn)) {
    retireConn(Ep, Fd);
    return;
  }
  settle(Ep, Fd);
}

bool NetServer::epollReadable(EpollConn &Conn) {
  // Same chaos hook as the blocking path: a net.read fault tears the
  // connection as if the transfer failed.
  if (!FaultInjector::instance().check(faultsite::NetRead).ok())
    return false;
  char Buf[65536];
  while (true) {
    const ssize_t Read = ::recv(Conn.Sock.fd(), Buf, sizeof(Buf), 0);
    if (Read > 0) {
      Conn.In.append(Buf, static_cast<size_t>(Read));
      continue;
    }
    if (Read == 0) {
      Conn.PeerClosed = true;
      return true;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    return false;
  }
}

void NetServer::parseFrames(EpollConn &Conn) {
  while (!Conn.Busy && !Conn.CloseAfterFlush && !Conn.Dead) {
    if (Conn.In.size() < FrameHeaderBytes)
      return;
    const auto Length = frameLength(Conn.In.data(), Config.MaxFrameBytes);
    if (!Length.ok()) {
      // Framing is gone; tell the client why, then close after flush.
      const std::string Reply = protocolError(ProtocolErrors, Length.status());
      BytesWrittenTotal.add(FrameHeaderBytes + Reply.size());
      appendFrame(Conn.Out, Reply);
      Conn.CloseAfterFlush = true;
      Conn.In.clear();
      return;
    }
    const size_t FrameBytes = FrameHeaderBytes + *Length;
    if (Conn.In.size() < FrameBytes)
      return; // frame incomplete
    WorkItem Item;
    Item.Fd = Conn.Sock.fd();
    Item.State = Conn.State;
    Item.Payload = Conn.In.substr(FrameHeaderBytes, *Length);
    Conn.In.erase(0, FrameBytes);
    BytesReadTotal.add(FrameBytes);
    Conn.Busy = true;
    {
      MutexLock L(WorkMutex);
      WorkQueue.push_back(std::move(Item));
    }
    WorkCv.notify_one();
  }
}

bool NetServer::flushOut(EpollConn &Conn) {
  if (Conn.OutPos >= Conn.Out.size())
    return true;
  if (!FaultInjector::instance().check(faultsite::NetWrite).ok())
    return false;
  while (Conn.OutPos < Conn.Out.size()) {
    const ssize_t Written =
        ::send(Conn.Sock.fd(), Conn.Out.data() + Conn.OutPos,
               Conn.Out.size() - Conn.OutPos, MSG_NOSIGNAL);
    if (Written < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return true; // kernel buffer full; EPOLLOUT resumes us
      return false;
    }
    Conn.OutPos += static_cast<size_t>(Written);
  }
  Conn.Out.clear();
  Conn.OutPos = 0;
  return true;
}

void NetServer::settle(int Ep, int Fd) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  EpollConn &Conn = *It->second;
  if (!Conn.Busy)
    parseFrames(Conn); // may dispatch a frame or queue an error reply
  if (Conn.OutPos < Conn.Out.size() && !flushOut(Conn)) {
    retireConn(Ep, Fd);
    return;
  }
  const bool Flushed = Conn.OutPos >= Conn.Out.size();
  // After parseFrames, !Busy means no complete frame is buffered — so a
  // closed peer leaves nothing to do (any leftover bytes are a torn
  // frame) and a fatal protocol error has had its reply flushed.
  if (!Conn.Busy && Flushed &&
      (Conn.CloseAfterFlush || Conn.Dead || Conn.PeerClosed)) {
    destroyConn(Ep, Fd);
    return;
  }
  updateInterest(Ep, Conn);
}

void NetServer::retireConn(int Ep, int Fd) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  if (It->second->Busy) {
    // A worker still owns this connection's frame; destroying now would
    // dangle its completion. Park the connection until it lands.
    It->second->Dead = true;
    updateInterest(Ep, *It->second);
    return;
  }
  destroyConn(Ep, Fd);
}

void NetServer::updateInterest(int Ep, EpollConn &Conn) {
  uint32_t Want = 0;
  if (!Conn.Busy && !Conn.CloseAfterFlush && !Conn.Dead && !Conn.PeerClosed)
    Want |= EPOLLIN;
  if (Conn.OutPos < Conn.Out.size())
    Want |= EPOLLOUT;
  epoll_event Ev{};
  Ev.events = Want;
  Ev.data.fd = Conn.Sock.fd();
  (void)::epoll_ctl(Ep, EPOLL_CTL_MOD, Conn.Sock.fd(), &Ev);
}

void NetServer::destroyConn(int Ep, int Fd) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  (void)::epoll_ctl(Ep, EPOLL_CTL_DEL, Fd, nullptr);
  Handler.connectionClosed(It->second->State);
  Conns.erase(It);
  OpenConnections.set(
      double(ActiveConns.fetch_sub(1, std::memory_order_relaxed) - 1));
}

void NetServer::processCompletions(int Ep) {
  std::deque<DoneItem> Local;
  {
    MutexLock L(DoneMutex);
    Local.swap(DoneQueue);
  }
  for (DoneItem &Done : Local) {
    auto It = Conns.find(Done.Fd);
    if (It == Conns.end())
      continue;
    EpollConn &Conn = *It->second;
    Conn.Busy = false;
    if (Conn.Dead) {
      destroyConn(Ep, Done.Fd);
      continue;
    }
    BytesWrittenTotal.add(FrameHeaderBytes + Done.Reply.size());
    appendFrame(Conn.Out, Done.Reply);
    if (!flushOut(Conn)) {
      destroyConn(Ep, Done.Fd);
      continue;
    }
    settle(Ep, Done.Fd);
  }
}

std::string seer::net::protocolError(Counter &ProtocolErrors,
                                     const Status &Why) {
  ProtocolErrors.add();
  return encodeStatusReply(Why);
}

// -- ServiceFrameHandler ---------------------------------------------------

/// Per-connection session: the handles this connection opened, released
/// on disconnect. No lock — the server serializes all calls for one
/// connection.
struct ServiceFrameHandler::Session {
  std::vector<uint64_t> Handles;
};

ServiceFrameHandler::ServiceFrameHandler(SeerService &Service)
    : Service(Service),
      ProtocolErrors(
          Service.metrics().counter("seer_net_protocol_errors_total")) {}

std::shared_ptr<void> ServiceFrameHandler::connectionOpened() {
  return std::make_shared<Session>();
}

void ServiceFrameHandler::connectionClosed(
    const std::shared_ptr<void> &State) {
  auto Sess = std::static_pointer_cast<Session>(State);
  for (const uint64_t Handle : Sess->Handles)
    (void)Service.release(MatrixHandle{Handle});
  Sess->Handles.clear();
}

std::string
ServiceFrameHandler::handleFrame(const std::shared_ptr<void> &State, Op Code,
                                 const std::string &Payload) {
  auto Sess = std::static_pointer_cast<Session>(State);
  switch (Code) {
  case Op::Open: {
    auto Req = decodeOpen(Payload);
    if (!Req.ok())
      return protocolError(ProtocolErrors, Req.status());
    auto HandleOr = Service.registerMatrix(std::move(Req->Matrix));
    if (!HandleOr.ok())
      return encodeStatusReply(HandleOr.status());
    auto InfoOr = Service.describe(*HandleOr);
    if (!InfoOr.ok()) {
      (void)Service.release(*HandleOr);
      return encodeStatusReply(InfoOr.status());
    }
    Sess->Handles.push_back(HandleOr->Id);
    return encodeOpenReply(HandleOr->Id, *InfoOr);
  }
  case Op::Close: {
    auto HandleOr = decodeClose(Payload);
    if (!HandleOr.ok())
      return protocolError(ProtocolErrors, HandleOr.status());
    const Status S = Service.release(MatrixHandle{*HandleOr});
    if (S.ok())
      Sess->Handles.erase(std::remove(Sess->Handles.begin(),
                                      Sess->Handles.end(), *HandleOr),
                          Sess->Handles.end());
    return encodeStatusReply(S);
  }
  case Op::Select:
  case Op::Execute: {
    auto Req = Code == Op::Select ? decodeSelect(Payload)
                                  : decodeExecute(Payload);
    if (!Req.ok())
      return protocolError(ProtocolErrors, Req.status());
    Request R;
    R.Handle = MatrixHandle{Req->Handle};
    R.Iterations = Req->Iterations;
    R.Execute = Code == Op::Execute;
    R.VerifyOracle = Req->Verify;
    R.Operand = std::move(Req->Operand);
    // Through submit(), not serve(): the wire path inherits the bounded
    // admission queue, so overload surfaces to the remote client as the
    // same typed RESOURCE_EXHAUSTED the in-process API sees.
    auto FutureOr = Service.submit(std::move(R));
    if (!FutureOr.ok())
      return encodeStatusReply(FutureOr.status());
    auto ResponseOr = FutureOr->get();
    if (!ResponseOr.ok())
      return encodeStatusReply(ResponseOr.status());
    return encodeResponseReply(*ResponseOr);
  }
  case Op::Batch: {
    auto Req = decodeBatch(Payload);
    if (!Req.ok())
      return protocolError(ProtocolErrors, Req.status());
    // The handle first, as select and execute and the balancer check it.
    auto InfoOr = Service.describe(MatrixHandle{Req->Handle});
    if (!InfoOr.ok())
      return encodeStatusReply(InfoOr.status());
    if (Req->Count < 1 || Req->Count > MaxBatchOperands)
      return encodeStatusReply(Status::invalidArgument(
          "batch operand count " + std::to_string(Req->Count) +
          " out of range [1, " + std::to_string(MaxBatchOperands) + "]"));
    const std::vector<std::vector<double>> Operands =
        buildBatchOperands(Req->Count, InfoOr->NumCols);
    auto ResponseOr = Service.executeBatch(MatrixHandle{Req->Handle},
                                           Operands, Req->Iterations);
    if (!ResponseOr.ok())
      return encodeStatusReply(ResponseOr.status());
    return encodeBatchReply(*ResponseOr);
  }
  case Op::Fault: {
    auto Spec = decodeFault(Payload);
    if (!Spec.ok())
      return protocolError(ProtocolErrors, Spec.status());
    return encodeStatusReply(applyFaultSpec(*Spec));
  }
  case Op::Stats:
    return encodeTextReply(Op::RText, Service.metricsStatLines());
  case Op::Metrics:
    return encodeTextReply(Op::RText, Service.metricsPrometheus());
  default:
    return protocolError(ProtocolErrors,
                         Status::invalidArgument(
                             std::string("unexpected opcode in request: ") +
                             std::to_string(unsigned(Code))));
  }
}
