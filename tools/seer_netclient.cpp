//===- tools/seer_netclient.cpp - Trace replay over the wire --------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// Replays a scripted request trace against a networked seer-serve (or a
// seer-lb front-end) through the binary wire protocol (net/Wire.h). The
// replay runs the library's one protocol interpreter (TraceSession) over
// the wire backend (NetTraceBackend), the same interpreter
// `seer-serve --trace` runs in process, so any difference between the two
// outputs is the transport's. CI's loopback and wire-chaos steps diff
// them to prove the transport neither perturbs selections nor loses
// precision (doubles travel as IEEE-754 bit patterns).
//
//   seer-netclient --connect HOST:PORT --trace FILE [--repeat K]
//                  [--strict] [--shutdown]
//
// Matrices are registered up front (one Open frame each), then the
// operation sequence is walked K times over one connection. `--strict`
// is the chaos gate of seer-serve carried over the wire: error lines,
// exhausted retry budgets, or breaker opens (summed over every shard
// section of the stats snapshot), or a shard section seer-lb could not
// fill, fail the run. `--shutdown` sends the wire Shutdown op at the
// end. Sent to a shard it stops that shard; sent to seer-lb it stops
// only the balancer, and the shards behind it keep running.
//
//===----------------------------------------------------------------------===//

#include "ToolSupport.h"

#include "net/NetClient.h"
#include "net/Socket.h"
#include "serve/RequestTrace.h"

#include <chrono>
#include <string>

using namespace seer;
using namespace seer::tools;

namespace {

constexpr const char *Usage =
    "usage: seer-netclient --connect HOST:PORT --trace FILE [options]\n"
    "\n"
    "Replays a request trace (serve/RequestTrace.h grammar) against a\n"
    "networked seer-serve or seer-lb through the binary wire protocol,\n"
    "printing the same response lines as an in-process single-client\n"
    "replay of the same trace — the transport bit-identity check.\n"
    "\n"
    "options:\n"
    "  --connect HOST:PORT  server (or balancer) endpoint; numeric IPv4\n"
    "  --trace FILE         request trace to replay\n"
    "  --repeat K           times to replay the operation sequence\n"
    "                       (default 1)\n"
    "  --strict             exit nonzero if the replay produced any\n"
    "                       'error CODE ...' line, or the server's stats\n"
    "                       report an exhausted retry budget or an opened\n"
    "                       circuit breaker on any shard, or a shard\n"
    "                       behind seer-lb gave no stats (chaos-gate mode)\n"
    "  --shutdown           send the wire Shutdown op after the replay\n"
    "                       (the server acks, then drains and exits)\n";

} // namespace

int main(int Argc, char **Argv) {
  FlagSpec Spec;
  Spec.Value = {"connect", "trace"};
  Spec.Int = {"repeat"};
  Spec.Bool = {"strict", "shutdown"};
  const CommandLine Cmd(Argc, Argv, Usage, Spec);
  if (const auto Early = Cmd.earlyExit())
    return *Early;
  const std::string Endpoint = Cmd.flag("connect");
  const std::string TracePath = Cmd.flag("trace");
  if (Endpoint.empty() || TracePath.empty())
    Cmd.exitWithUsage(1);
  const int64_t RepeatArg = Cmd.intFlag("repeat", 1);
  if (RepeatArg < 1 || RepeatArg > 1000000)
    fatal("--repeat must be in [1, 1000000]");
  const unsigned Repeat = static_cast<unsigned>(RepeatArg);

  std::string Host;
  uint16_t Port = 0;
  if (const Status S = net::parseHostPort(Endpoint, Host, Port); !S.ok())
    fatal(S);
  const auto Script = readTraceFile(TracePath);
  if (!Script)
    fatal(Script.status());

  auto ClientOr = net::NetClient::connect(Host, Port);
  if (!ClientOr.ok())
    fatal(ClientOr.status());
  net::NetClient &Client = *ClientOr;

  net::NetTraceBackend Backend(Client);
  const auto Start = std::chrono::steady_clock::now();
  const uint64_t Errors = replayTrace(*Script, Backend, Repeat, printToStdout);
  const int ExitCode =
      finishReplay("seer-netclient", Backend, Script->Ops.size(), 1, Repeat,
                   Start, Errors, Cmd.boolFlag("strict"));

  if (Cmd.boolFlag("shutdown"))
    if (const Status S = Client.shutdownServer(); !S.ok())
      fatal(S);
  return ExitCode;
}
