//===- net/ShardRouter.h - Consistent-hash fingerprint sharding -----------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scale-out half of the networked serving layer: a consistent-hash
/// ring over matrix fingerprints, and the balancer frame handler that
/// uses it to spread registered matrices across N shard servers.
///
/// **Routing invariant.** A matrix's shard is a pure function of its
/// content fingerprint (core/ExecutionPlan.h) and the shard count:
/// `route(fp)` hashes the fingerprint onto a ring of virtual nodes
/// (`VirtualNodes` per shard, splitmix64-scattered) and picks the owner
/// of the first node clockwise. Deterministic across processes and runs
/// — no state, no RNG — so every balancer instance over the same shard
/// list routes identically, and re-registering the same matrix always
/// lands on the same shard. That is what makes each shard's
/// FingerprintCache budget police a *disjoint* slice of the working
/// set: per-shard budgets add up to linear aggregate cache capacity.
///
/// **LbHandler.** A FrameHandler (net/NetServer.h) that terminates the
/// client protocol and forwards to the shards:
///
///   - Open is viewed in place (net/Wire.h viewOpen), its arrays
///     fingerprinted where they lie with the function the shards' caches
///     key on (openFrameFingerprint), routed, and forwarded verbatim; the
///     balancer mints its own per-connection handle and maps it to
///     (shard, remote handle). The balancer checks only that the arrays'
///     lengths agree with the dimensions; CSR content is validated at
///     the shard, whose typed INVALID_ARGUMENT comes back verbatim.
///   - Close/Select/Execute/Batch rewrite the handle in place
///     (net/Wire.h fixed offset) and forward — no re-encode, no decode
///     of operands or replies on the hot path. A handle the session does
///     not hold is answered here with the shards' own unknownHandle
///     (api/SeerService.h) NOT_FOUND.
///   - Fault broadcasts to every shard; Stats/Metrics concatenate every
///     shard's text, sectioned by `# shard N HOST:PORT` headers.
///   - Shutdown never reaches this handler: the transport answers it,
///     stopping the balancer only — shards outlive their balancer by
///     design (each owns real cache state).
///
/// Backends are lazy: one serialized NetClient per shard, connected on
/// first use and reconnected after a transport failure, so shards may
/// start after the balancer and survive restarts between requests.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_NET_SHARDROUTER_H
#define SEER_NET_SHARDROUTER_H

#include "net/NetClient.h"
#include "net/NetServer.h"
#include "support/ThreadAnnotations.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace seer::net {

/// The deterministic fingerprint -> shard map. Stateless after
/// construction; safe to share across threads.
class ShardRouter {
public:
  /// \p VirtualNodes is the points-per-shard on the ring; more points =
  /// smoother balance at slightly larger construction cost.
  explicit ShardRouter(size_t ShardCount, size_t VirtualNodes = 64);

  /// The shard owning \p Fingerprint (always < shardCount()).
  size_t route(uint64_t Fingerprint) const;

  size_t shardCount() const { return Shards; }

private:
  struct Point {
    uint64_t Hash;
    uint32_t Shard;
  };
  std::vector<Point> Ring; ///< sorted by Hash
  size_t Shards;
};

/// The routing key of an Open frame: csrFingerprint (core/ExecutionPlan.h)
/// over the frame's arrays in place, equal to matrixFingerprint of the
/// matrix the shard decodes from it. INVALID_ARGUMENT when the frame is
/// not a well-formed Open (viewOpen); the CSR content is not checked.
Expected<uint64_t> openFrameFingerprint(const std::string &Payload);

/// One shard server address (numeric IPv4).
struct ShardEndpoint {
  std::string Host;
  uint16_t Port = 0;
};

/// The balancer's FrameHandler. See the file comment for semantics.
class LbHandler : public FrameHandler {
public:
  explicit LbHandler(std::vector<ShardEndpoint> Endpoints,
                     size_t VirtualNodes = 64,
                     size_t MaxFrameBytes = DefaultMaxFrameBytes);
  // Out-of-line: Backend is incomplete here.
  ~LbHandler() override;

  std::shared_ptr<void> connectionOpened() override;
  std::string handleFrame(const std::shared_ptr<void> &State, Op Code,
                          const std::string &Payload) override;
  void connectionClosed(const std::shared_ptr<void> &State) override;

  const ShardRouter &router() const { return Router; }

private:
  struct Backend;
  struct Session;

  /// Round-trips \p Payload on shard \p Shard's serialized client,
  /// connecting (or reconnecting after a failure) as needed.
  Expected<std::string> callShard(size_t Shard, const std::string &Payload);

  std::vector<std::unique_ptr<Backend>> Backends;
  ShardRouter Router;
  size_t MaxFrameBytes;
  Counter &ProtocolErrors;
};

} // namespace seer::net

#endif // SEER_NET_SHARDROUTER_H
