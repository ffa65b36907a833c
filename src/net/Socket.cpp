//===- net/Socket.cpp -----------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "net/Socket.h"

#include "net/Wire.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace seer;
using namespace seer::net;

namespace {

Status errnoStatus(const std::string &What, int Err) {
  return Status::unavailable(What + ": " + std::strerror(Err));
}

Status fillAddress(const std::string &Host, uint16_t Port,
                   sockaddr_in &Addr) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
    return Status::invalidArgument("bad IPv4 address '" + Host +
                                   "' (numeric dotted quad required)");
  return Status::okStatus();
}

} // namespace

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Status Socket::sendAll(const void *Head, size_t HeadSize, const void *Body,
                       size_t BodySize) {
  if (Status F = FaultInjector::instance().check(faultsite::NetWrite);
      !F.ok())
    return F;
  iovec Parts[2] = {{const_cast<void *>(Head), HeadSize},
                    {const_cast<void *>(Body), BodySize}};
  size_t First = 0; // the first part with bytes left to send
  while (First < 2) {
    if (Parts[First].iov_len == 0) {
      ++First;
      continue;
    }
    msghdr Msg{};
    Msg.msg_iov = Parts + First;
    Msg.msg_iovlen = 2 - First;
    const ssize_t Written = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (Written < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Blocking sockets only reach here via SO_SNDTIMEO (unset in this
        // tree); treat like any other transient failure of the peer.
        return Status::unavailable("send timed out");
      }
      return errnoStatus("send failed", errno);
    }
    // Advance past what went out; it never exceeds what is left.
    for (auto Left = static_cast<size_t>(Written); Left > 0;) {
      iovec &Part = Parts[First];
      const size_t Step = std::min(Left, Part.iov_len);
      Part.iov_base = static_cast<char *>(Part.iov_base) + Step;
      Part.iov_len -= Step;
      Left -= Step;
      if (Part.iov_len == 0)
        ++First;
    }
  }
  return Status::okStatus();
}

Status Socket::recvAll(void *Data, size_t Size, bool *CleanClose) {
  if (CleanClose)
    *CleanClose = false;
  if (Status F = FaultInjector::instance().check(faultsite::NetRead); !F.ok())
    return F;
  char *Cursor = static_cast<char *>(Data);
  size_t Got = 0;
  while (Got < Size) {
    const ssize_t Read = ::recv(Fd, Cursor + Got, Size - Got, 0);
    if (Read < 0) {
      if (errno == EINTR)
        continue;
      return errnoStatus("recv failed", errno);
    }
    if (Read == 0) {
      if (Got == 0 && CleanClose) {
        *CleanClose = true;
        return Status::okStatus();
      }
      return Status::unavailable("connection closed mid-read (short read)");
    }
    Got += static_cast<size_t>(Read);
  }
  return Status::okStatus();
}

Expected<Socket> Socket::connectTo(const std::string &Host, uint16_t Port) {
  sockaddr_in Addr;
  if (Status S = fillAddress(Host, Port, Addr); !S.ok())
    return S;
  Socket S(::socket(AF_INET, SOCK_STREAM, 0));
  if (!S.valid())
    return errnoStatus("socket() failed", errno);
  // The framed protocol is strictly request-reply; Nagle only adds
  // latency between a header and its body.
  int One = 1;
  (void)::setsockopt(S.fd(), IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  while (::connect(S.fd(), reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)) != 0) {
    if (errno == EINTR)
      continue;
    return errnoStatus("connect to " + Host + ":" + std::to_string(Port) +
                           " failed",
                       errno);
  }
  return S;
}

Expected<Socket> Socket::listenOn(const std::string &Host, uint16_t Port,
                                  int Backlog) {
  sockaddr_in Addr;
  if (Status S = fillAddress(Host, Port, Addr); !S.ok())
    return S;
  Socket S(::socket(AF_INET, SOCK_STREAM, 0));
  if (!S.valid())
    return errnoStatus("socket() failed", errno);
  int One = 1;
  (void)::setsockopt(S.fd(), SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return errnoStatus("bind to " + Host + ":" + std::to_string(Port) +
                           " failed",
                       errno);
  if (::listen(S.fd(), Backlog) != 0)
    return errnoStatus("listen failed", errno);
  return S;
}

Expected<Socket> Socket::accept() {
  while (true) {
    const int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn >= 0) {
      Socket S(Conn);
      // The fault site fires after the kernel accept so an injected
      // failure *drops* the drained connection (RAII close) instead of
      // leaving it pending — a pending connection would retrigger a
      // level-triggered epoll loop forever.
      if (Status F = FaultInjector::instance().check(faultsite::NetAccept);
          !F.ok())
        return F;
      int One = 1;
      (void)::setsockopt(S.fd(), IPPROTO_TCP, TCP_NODELAY, &One,
                         sizeof(One));
      return S;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Status::resourceExhausted("no pending connection");
    return errnoStatus("accept failed", errno);
  }
}

Expected<uint16_t> Socket::localPort() const {
  sockaddr_in Addr;
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0)
    return errnoStatus("getsockname failed", errno);
  return ntohs(Addr.sin_port);
}

Status Socket::setNonBlocking(bool Enable) {
  const int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return errnoStatus("fcntl(F_GETFL) failed", errno);
  const int Want = Enable ? (Flags | O_NONBLOCK) : (Flags & ~O_NONBLOCK);
  if (::fcntl(Fd, F_SETFL, Want) < 0)
    return errnoStatus("fcntl(F_SETFL) failed", errno);
  return Status::okStatus();
}

Status seer::net::parseHostPort(const std::string &Spec, std::string &Host,
                                uint16_t &Port) {
  const size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 == Spec.size())
    return Status::invalidArgument("expected HOST:PORT, got '" + Spec + "'");
  int64_t Value = 0;
  if (!parseInt(Spec.substr(Colon + 1), Value) || Value < 0 || Value > 65535)
    return Status::invalidArgument("bad port in '" + Spec + "'");
  Host = Spec.substr(0, Colon);
  Port = static_cast<uint16_t>(Value);
  return Status::okStatus();
}

Status seer::net::readFrame(Socket &S, size_t MaxBytes, std::string &Payload,
                            bool *CleanClose) {
  char Header[FrameHeaderBytes] = {};
  if (Status St = S.recvAll(Header, sizeof(Header), CleanClose); !St.ok())
    return St;
  if (CleanClose && *CleanClose) {
    Payload.clear();
    return Status::okStatus();
  }
  const auto Length = frameLength(Header, MaxBytes);
  if (!Length)
    return Length.status();
  Payload.resize(*Length);
  return S.recvAll(&Payload[0], *Length);
}

Status seer::net::writeFrame(Socket &S, const std::string &Payload) {
  const std::string Header = frameHeader(Payload.size());
  return S.sendAll(Header.data(), Header.size(), Payload.data(),
                   Payload.size());
}
