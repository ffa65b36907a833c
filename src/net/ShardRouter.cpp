//===- net/ShardRouter.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "net/ShardRouter.h"

#include "core/ExecutionPlan.h"

#include <algorithm>
#include <unordered_map>

using namespace seer;
using namespace seer::net;

namespace {

/// splitmix64 finalizer: the ring's only hash. Pure arithmetic — the
/// determinism of the routing invariant rests on this having no state.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// The Status carried by a shard's ack reply, or INVALID_ARGUMENT if the
/// shard answered with something that is not a well-formed RStatus.
Status carriedAck(const std::string &Reply) {
  Status Carried = Status::okStatus();
  if (Status S = decodeStatusReply(Reply, Carried); !S.ok())
    return Status::invalidArgument("malformed acknowledgement from shard: " +
                                   S.message());
  return Carried;
}

} // namespace

Expected<uint64_t> seer::net::openFrameFingerprint(const std::string &Payload) {
  auto View = viewOpen(Payload);
  if (!View.ok())
    return View.status();
  return csrFingerprint(View->Rows, View->Cols, View->Nnz, View->OffsetBytes,
                        View->ColumnBytes, View->ValueBytes);
}

// -- ShardRouter -----------------------------------------------------------

ShardRouter::ShardRouter(size_t ShardCount, size_t VirtualNodes)
    : Shards(ShardCount) {
  Ring.reserve(ShardCount * VirtualNodes);
  for (size_t Shard = 0; Shard < ShardCount; ++Shard)
    for (size_t Replica = 0; Replica < VirtualNodes; ++Replica)
      Ring.push_back(Point{
          mix64((uint64_t(Shard) << 32) | uint64_t(Replica)),
          static_cast<uint32_t>(Shard)});
  // Tie-break on shard id so equal hash points (vanishingly rare) still
  // order identically in every process.
  std::sort(Ring.begin(), Ring.end(), [](const Point &A, const Point &B) {
    return A.Hash != B.Hash ? A.Hash < B.Hash : A.Shard < B.Shard;
  });
}

size_t ShardRouter::route(uint64_t Fingerprint) const {
  if (Ring.empty())
    return 0;
  const uint64_t Where = mix64(Fingerprint);
  auto It = std::lower_bound(
      Ring.begin(), Ring.end(), Where,
      [](const Point &P, uint64_t H) { return P.Hash < H; });
  if (It == Ring.end())
    It = Ring.begin(); // wrap: first point clockwise from the top
  return It->Shard;
}

// -- LbHandler -------------------------------------------------------------

/// One shard backend: a lazily connected, mutex-serialized client.
struct LbHandler::Backend {
  ShardEndpoint Endpoint;
  seer::Mutex M;
  std::unique_ptr<NetClient> Client SEER_GUARDED_BY(M);
};

/// Per-client-connection state: the balancer-minted handles and the
/// (shard, remote handle) each maps to. No lock — the server serializes
/// all calls for one connection.
struct LbHandler::Session {
  struct Remote {
    size_t Shard = 0;
    uint64_t Handle = 0;
  };
  std::unordered_map<uint64_t, Remote> Map;
  uint64_t NextHandle = 1;
};

LbHandler::LbHandler(std::vector<ShardEndpoint> Endpoints,
                     size_t VirtualNodes, size_t MaxFrameBytes)
    : Router(Endpoints.size(), VirtualNodes), MaxFrameBytes(MaxFrameBytes),
      ProtocolErrors(MetricsRegistry::process().counter(
          "seer_net_protocol_errors_total")) {
  Backends.reserve(Endpoints.size());
  for (ShardEndpoint &E : Endpoints) {
    auto B = std::make_unique<Backend>();
    B->Endpoint = std::move(E);
    Backends.push_back(std::move(B));
  }
}

LbHandler::~LbHandler() = default;

Expected<std::string> LbHandler::callShard(size_t Shard,
                                           const std::string &Payload) {
  Backend &B = *Backends[Shard];
  MutexLock L(B.M);
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    if (!B.Client) {
      auto ClientOr =
          NetClient::connect(B.Endpoint.Host, B.Endpoint.Port, MaxFrameBytes);
      if (!ClientOr.ok())
        return ClientOr.status();
      B.Client = std::make_unique<NetClient>(std::move(*ClientOr));
    }
    auto ReplyOr = B.Client->call(Payload);
    if (ReplyOr.ok())
      return ReplyOr;
    // Drop the connection; a cached-but-stale one (shard restarted
    // between requests) gets exactly one reconnect-and-resend.
    B.Client.reset();
    if (Attempt == 0 && ReplyOr.status().code() == StatusCode::Unavailable)
      continue;
    return ReplyOr.status();
  }
  return Status::unavailable("shard " + std::to_string(Shard) +
                             " unreachable after reconnect");
}

std::shared_ptr<void> LbHandler::connectionOpened() {
  return std::make_shared<Session>();
}

void LbHandler::connectionClosed(const std::shared_ptr<void> &State) {
  auto Sess = std::static_pointer_cast<Session>(State);
  // Mirror the shards' own disconnect semantics: a client that vanishes
  // releases everything it opened, on every shard it touched.
  for (const auto &KV : Sess->Map)
    (void)callShard(KV.second.Shard, encodeClose(KV.second.Handle));
  Sess->Map.clear();
}

std::string LbHandler::handleFrame(const std::shared_ptr<void> &State,
                                   Op Code, const std::string &Payload) {
  auto Sess = std::static_pointer_cast<Session>(State);
  switch (Code) {
  case Op::Open: {
    // Routing needs only the content fingerprint, hashed over the
    // frame's arrays where they lie with the function behind the shards'
    // cache keys, so the two can never disagree. Nothing is decoded: a
    // frame whose CSR content is invalid reaches its shard, which answers
    // the typed error forwarded below.
    auto Fingerprint = openFrameFingerprint(Payload);
    if (!Fingerprint.ok())
      return protocolError(ProtocolErrors, Fingerprint.status());
    const size_t Shard = Router.route(*Fingerprint);
    auto ReplyOr = callShard(Shard, Payload);
    if (!ReplyOr.ok())
      return encodeStatusReply(ReplyOr.status());
    if (auto ReplyOp = frameOp(*ReplyOr);
        ReplyOp.ok() && *ReplyOp == Op::RStatus)
      return *ReplyOr; // typed shard failure, forwarded verbatim
    auto OpenOr = decodeOpenReply(*ReplyOr);
    if (!OpenOr.ok())
      return protocolError(ProtocolErrors, OpenOr.status());
    const uint64_t LbHandle = Sess->NextHandle++;
    Sess->Map[LbHandle] = Session::Remote{Shard, OpenOr->Handle};
    return encodeOpenReply(LbHandle, OpenOr->Info);
  }
  case Op::Close:
  case Op::Select:
  case Op::Execute:
  case Op::Batch: {
    auto HandleOr = requestHandle(Payload);
    if (!HandleOr.ok())
      return protocolError(ProtocolErrors, HandleOr.status());
    auto It = Sess->Map.find(*HandleOr);
    if (It == Sess->Map.end())
      return encodeStatusReply(unknownHandle(MatrixHandle{*HandleOr}));
    // The hot path: rewrite the handle at its fixed offset and forward
    // the frame bytes untouched — no operand decode, no re-encode.
    std::string Forward = Payload;
    if (Status S = rewriteRequestHandle(Forward, It->second.Handle); !S.ok())
      return encodeStatusReply(S);
    auto ReplyOr = callShard(It->second.Shard, Forward);
    if (!ReplyOr.ok())
      return encodeStatusReply(ReplyOr.status());
    if (Code == Op::Close && carriedAck(*ReplyOr).ok())
      Sess->Map.erase(It);
    return *ReplyOr; // replies carry no handles; forward verbatim
  }
  case Op::Fault: {
    // Chaos directives apply fleet-wide: broadcast, first failure wins.
    Status First = Status::okStatus();
    for (size_t Shard = 0; Shard < Backends.size(); ++Shard) {
      auto ReplyOr = callShard(Shard, Payload);
      const Status S =
          ReplyOr.ok() ? carriedAck(*ReplyOr) : ReplyOr.status();
      if (!S.ok() && First.ok())
        First = S;
    }
    return encodeStatusReply(First);
  }
  case Op::Stats:
  case Op::Metrics: {
    std::string Text;
    for (size_t Shard = 0; Shard < Backends.size(); ++Shard) {
      Text += "# shard " + std::to_string(Shard) + " " +
              Backends[Shard]->Endpoint.Host + ":" +
              std::to_string(Backends[Shard]->Endpoint.Port) + "\n";
      auto ReplyOr = callShard(Shard, Payload);
      if (!ReplyOr.ok()) {
        Text += "# unavailable: " + ReplyOr.status().message() + "\n";
        continue;
      }
      auto TextOr = decodeTextReply(*ReplyOr);
      if (!TextOr.ok()) {
        Text += "# malformed reply: " + TextOr.status().message() + "\n";
        continue;
      }
      Text += *TextOr;
      if (!Text.empty() && Text.back() != '\n')
        Text += '\n';
    }
    return encodeTextReply(Op::RText, Text);
  }
  default:
    return protocolError(ProtocolErrors,
                         Status::invalidArgument(
                             "unexpected opcode at the balancer: " +
                             std::to_string(unsigned(Code))));
  }
}
