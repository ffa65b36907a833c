//===- net/Socket.h - RAII TCP sockets and frame I/O ----------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A move-only RAII wrapper over a TCP socket file descriptor plus the
/// blocking I/O loops the framed transport is built on. Every read and
/// write runs to completion across short transfers and EINTR, returns a
/// typed `Status` (never errno leaks past this layer), and is threaded
/// through the `net.read` / `net.write` fault sites so chaos plans can
/// fail any transfer deterministically. `accept()` checks `net.accept`
/// the same way.
///
/// Frame I/O (`readFrame` / `writeFrame`) speaks the u32-length-prefixed
/// framing of net/Wire.h: the declared length is validated (zero,
/// oversized, or fault-injected lengths are INVALID_ARGUMENT) before any
/// allocation. A peer closing cleanly *between* frames reports through
/// the CleanClose out-parameter; a connection dropped mid-frame is
/// UNAVAILABLE — the distinction the server uses to tell a finished
/// client from a torn one.
///
/// Addresses are numeric IPv4 ("127.0.0.1"); the serving fleet runs over
/// loopback and never needs resolution. Port 0 binds an ephemeral port,
/// reported by localPort() — how the bench and CI spawn shards without a
/// port-collision dance.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_NET_SOCKET_H
#define SEER_NET_SOCKET_H

#include "api/Status.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace seer::net {

/// Move-only owner of one socket file descriptor.
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  Socket(Socket &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  Socket &operator=(Socket &&Other) noexcept {
    if (this != &Other) {
      close();
      Fd = Other.Fd;
      Other.Fd = -1;
    }
    return *this;
  }
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
  ~Socket() { close(); }

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Closes the descriptor now (idempotent).
  void close();

  /// Writes all \p HeadSize bytes at \p Head, then all \p BodySize bytes
  /// at \p Body, gathered: each sendmsg carries what is left of both, so
  /// a frame's length prefix and payload leave together without first
  /// being copied into one buffer. EINTR/short-write loop, SIGPIPE
  /// suppressed. Checks the `net.write` fault site once per call;
  /// UNAVAILABLE when the peer is gone.
  Status sendAll(const void *Head, size_t HeadSize,
                 const void *Body = nullptr, size_t BodySize = 0);

  /// Reads exactly \p Size bytes. Checks the `net.read` fault site once
  /// per call; UNAVAILABLE when the connection closes before \p Size
  /// bytes arrive. With \p CleanClose non-null, EOF before the *first*
  /// byte sets it and returns OK with nothing read — the between-frames
  /// disconnect case.
  Status recvAll(void *Data, size_t Size, bool *CleanClose = nullptr);

  /// Connects to numeric IPv4 \p Host : \p Port (blocking).
  static Expected<Socket> connectTo(const std::string &Host, uint16_t Port);

  /// Binds and listens on numeric IPv4 \p Host : \p Port (0 = ephemeral)
  /// with SO_REUSEADDR.
  static Expected<Socket> listenOn(const std::string &Host, uint16_t Port,
                                   int Backlog = 64);

  /// Accepts one connection (blocking unless the listener is
  /// non-blocking). Checks the `net.accept` fault site.
  Expected<Socket> accept();

  /// The locally bound port (after listenOn with port 0).
  Expected<uint16_t> localPort() const;

  /// Switches O_NONBLOCK (the epoll server's connection mode).
  Status setNonBlocking(bool Enable);

private:
  int Fd = -1;
};

/// Splits "HOST:PORT" into its parts; INVALID_ARGUMENT on a malformed
/// spec or an out-of-range port.
Status parseHostPort(const std::string &Spec, std::string &Host,
                     uint16_t &Port);

/// Reads one length-prefixed frame payload into \p Payload. The declared
/// length is validated against \p MaxBytes (net/Wire.h) before the body
/// read. \p CleanClose (non-null) reports a peer that closed at a frame
/// boundary: the function returns OK with an empty payload.
Status readFrame(Socket &S, size_t MaxBytes, std::string &Payload,
                 bool *CleanClose = nullptr);

/// Writes one frame (length prefix + payload) with one sendAll, so the
/// `net.write` fault site counts each frame once.
Status writeFrame(Socket &S, const std::string &Payload);

} // namespace seer::net

#endif // SEER_NET_SOCKET_H
