//===- tools/seer_lb.cpp - Consistent-hash shard balancer -----------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The scale-out front-end: listens on the binary wire protocol
// (net/Wire.h) and forwards every session to a fleet of seer-serve
// shards, routing each registered matrix by the consistent hash of its
// content fingerprint (net/ShardRouter.h). Clients speak to the
// balancer exactly as they would to a single server; behind it, each
// shard's fingerprint-cache budget polices a disjoint slice of the
// working set, so N shards give N times the cache capacity.
//
//   seer-lb --shards HOST:PORT,HOST:PORT[,...] --listen HOST:PORT
//           [--port-file FILE] [--virtual-nodes N]
//
// Stops on SIGTERM / SIGINT or the wire Shutdown op — which stops the
// balancer only; the shards (and their cache state) outlive it. Shard
// backends connect lazily, so shards may come up after the balancer.
//
//===----------------------------------------------------------------------===//

#include "ToolSupport.h"

#include "net/NetServer.h"
#include "net/ShardRouter.h"
#include "net/Socket.h"
#include "support/StringUtils.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace seer;
using namespace seer::tools;

namespace {

constexpr const char *Usage =
    "usage: seer-lb --shards HOST:PORT[,HOST:PORT...] --listen HOST:PORT\n"
    "               [options]\n"
    "\n"
    "Consistent-hash shard balancer for networked seer-serve: forwards\n"
    "wire-protocol sessions to the shard owning each matrix's content\n"
    "fingerprint, so per-shard cache budgets police disjoint slices of\n"
    "the working set. Stops on SIGTERM/SIGINT or the wire Shutdown op\n"
    "(shards keep running).\n"
    "\n"
    "options:\n"
    "  --shards LIST       comma-separated shard endpoints (numeric IPv4);\n"
    "                      order defines shard indices in stats sections\n"
    "  --listen HOST:PORT  listener address; port 0 binds an ephemeral port\n"
    "  --port-file FILE    write the bound port to FILE once serving\n"
    "  --virtual-nodes N   ring points per shard (default 64)\n";

/// The server a stop signal should interrupt; requestStop is
/// async-signal-safe (atomic store + self-pipe write).
std::atomic<seer::net::NetServer *> SignalTarget{nullptr};

extern "C" void onStopSignal(int) {
  if (seer::net::NetServer *Server =
          SignalTarget.load(std::memory_order_acquire))
    Server->requestStop();
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSpec Spec;
  Spec.Value = {"shards", "listen", "port-file"};
  Spec.Int = {"virtual-nodes"};
  const CommandLine Cmd(Argc, Argv, Usage, Spec);
  if (const auto Early = Cmd.earlyExit())
    return *Early;
  const std::string ShardList = Cmd.flag("shards");
  const std::string ListenSpec = Cmd.flag("listen");
  if (ShardList.empty() || ListenSpec.empty())
    Cmd.exitWithUsage(1);
  const int64_t VirtualNodes = Cmd.intFlag("virtual-nodes", 64);
  if (VirtualNodes < 1 || VirtualNodes > 4096)
    fatal("--virtual-nodes must be in [1, 4096]");

  std::vector<net::ShardEndpoint> Endpoints;
  for (const std::string &Spec : splitString(ShardList, ',')) {
    net::ShardEndpoint Endpoint;
    if (const Status S =
            net::parseHostPort(Spec, Endpoint.Host, Endpoint.Port);
        !S.ok())
      fatal(Status(S.code(), "--shards entry '" + Spec + "': " + S.message()));
    Endpoints.push_back(std::move(Endpoint));
  }

  net::NetServerConfig Config;
  if (const Status S = net::parseHostPort(ListenSpec, Config.Host, Config.Port);
      !S.ok())
    fatal(S);

  net::LbHandler Handler(std::move(Endpoints),
                         static_cast<size_t>(VirtualNodes));
  auto ServerOr = net::NetServer::start(Handler, Config);
  if (!ServerOr.ok())
    fatal(ServerOr.status());
  net::NetServer &Server = **ServerOr;

  SignalTarget.store(&Server, std::memory_order_release);
  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);

  if (const std::string PortFile = Cmd.flag("port-file"); !PortFile.empty()) {
    std::ofstream Out(PortFile);
    Out << Server.port() << "\n";
    Out.flush();
    if (!Out)
      fatal("cannot write '" + PortFile + "'");
  }
  std::fprintf(stderr, "seer-lb: balancing %zu shard(s) on %s:%u\n",
               Handler.router().shardCount(), Config.Host.c_str(),
               unsigned(Server.port()));

  Server.join();

  SignalTarget.store(nullptr, std::memory_order_release);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  return 0;
}
