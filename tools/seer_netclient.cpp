//===- tools/seer_netclient.cpp - Trace replay over the wire --------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// Replays a scripted request trace against a networked seer-serve (or a
// seer-lb front-end) through the binary wire protocol (net/Wire.h),
// printing the same response lines an in-process single-client replay of
// the same trace prints. That byte-identity is the point: CI's loopback
// and wire-chaos steps diff this tool's output against
// `seer-serve --trace` to prove the transport neither perturbs
// selections nor loses precision (doubles travel as IEEE-754 bit
// patterns).
//
//   seer-netclient --connect HOST:PORT --trace FILE [--repeat K]
//                  [--strict] [--shutdown]
//
// Matrices are registered up front (one Open frame each, exactly like
// the in-process replay pays registration once at definition), then the
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

#include "kernels/KernelRegistry.h"
#include "net/NetClient.h"
#include "net/Socket.h"
#include "serve/RequestTrace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

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

/// Walks the script's operation sequence \p Repeat times over \p Client,
/// printing exactly what replay() in seer-serve prints for a single
/// client. \returns the number of operations answered with an error line.
uint64_t replayOverWire(net::NetClient &Client, const TraceScript &Script,
                        unsigned Repeat, const KernelRegistry &Registry) {
  uint64_t Errors = 0;
  const auto Fail = [&](const Status &S) {
    ++Errors;
    std::printf("%s\n", formatErrorLine(S).c_str());
  };

  // Matrices auto-open at definition, as in the in-process replay; a
  // remote handle of 0 means "closed" (the server mints from 1).
  std::vector<uint64_t> Handles(Script.Matrices.size(), 0);
  const auto Register = [&](size_t MatrixIndex) -> bool {
    const auto Reply = Client.open(Script.Matrices[MatrixIndex].first,
                                   Script.Matrices[MatrixIndex].second);
    if (!Reply) {
      Fail(Reply.status());
      return false;
    }
    Handles[MatrixIndex] = Reply->Handle;
    return true;
  };
  for (size_t I = 0; I < Script.Matrices.size(); ++I)
    (void)Register(I);

  for (unsigned K = 0; K < Repeat; ++K)
    for (const TraceScript::Op &Op : Script.Ops) {
      if (Op.Command == TraceScript::Op::Kind::Fault) {
        if (const Status S = Client.fault(Op.FaultSpec); !S.ok())
          Fail(S);
        else
          std::printf("ok fault %s\n", Op.FaultSpec.c_str());
        continue;
      }
      if (Op.Command == TraceScript::Op::Kind::Metrics) {
        const auto Text = Client.metricsText();
        if (!Text)
          Fail(Text.status());
        else
          std::printf("%s", Text->c_str());
        continue;
      }
      if (Op.Command == TraceScript::Op::Kind::Spans) {
        // Spans are a process-local observability command with no wire
        // op; print the disarmed-recorder form the in-process replay
        // prints when no --trace-out armed the recorder.
        std::printf("%s", formatSpanLines({}, Op.SpanCount).c_str());
        continue;
      }
      const std::string &Name = Script.Matrices[Op.MatrixIndex].first;
      switch (Op.Command) {
      case TraceScript::Op::Kind::Fault:
      case TraceScript::Op::Kind::Metrics:
      case TraceScript::Op::Kind::Spans:
        break; // handled above
      case TraceScript::Op::Kind::Open: {
        if (Handles[Op.MatrixIndex] != 0)
          break; // already open; idempotent in replay
        (void)Register(Op.MatrixIndex);
        break;
      }
      case TraceScript::Op::Kind::Close: {
        const Status S = Client.close(Handles[Op.MatrixIndex]);
        Handles[Op.MatrixIndex] = 0;
        if (!S.ok())
          Fail(S);
        break;
      }
      case TraceScript::Op::Kind::Batch: {
        // The closed-name guard stays client-side so the error line is
        // byte-identical to the in-process replay's (the server's own
        // message would name the dead handle id instead).
        if (Handles[Op.MatrixIndex] == 0) {
          Fail(Status::failedPrecondition("matrix '" + Name +
                                          "' is closed (open it first)"));
          break;
        }
        const auto Response = Client.batch(Handles[Op.MatrixIndex],
                                           Op.BatchCount, Op.Iterations);
        if (!Response)
          Fail(Response.status());
        else
          std::printf("%s\n",
                      formatBatchResponseLine(Name, *Response, Registry)
                          .c_str());
        break;
      }
      case TraceScript::Op::Kind::Select:
      case TraceScript::Op::Kind::Execute: {
        if (Handles[Op.MatrixIndex] == 0) {
          Fail(Status::failedPrecondition("matrix '" + Name +
                                          "' is closed (open it first)"));
          break;
        }
        const auto Response =
            Op.Command == TraceScript::Op::Kind::Execute
                ? Client.execute(Handles[Op.MatrixIndex], Op.Iterations,
                                 Op.Verify, /*Operand=*/{})
                : Client.select(Handles[Op.MatrixIndex], Op.Iterations);
        if (!Response)
          Fail(Response.status());
        else
          std::printf("%s\n",
                      formatResponseLine(Name, *Response, Registry).c_str());
        break;
      }
      }
    }

  for (size_t I = 0; I < Handles.size(); ++I)
    if (Handles[I] != 0)
      (void)Client.close(Handles[I]);
  return Errors;
}

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

  // Only the registry's kernel names are needed, to render selections in
  // response lines exactly as the server-side formatter does.
  const KernelRegistry Registry;

  const auto Start = std::chrono::steady_clock::now();
  const uint64_t Errors = replayOverWire(Client, *Script, Repeat, Registry);
  const double WallSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - Start)
                                 .count();

  const auto StatsText = Client.statsText();
  if (!StatsText)
    fatal(StatsText.status());
  std::printf("%s", StatsText->c_str());
  // Same summary line shape as seer-serve's runTrace; the request count
  // comes from the server's snapshot, summed over every shard's section
  // when a balancer is in front.
  const uint64_t Requests = statSum(*StatsText, "requests");
  std::printf("replayed %zu ops x %u clients x %u in %.3fs "
              "(%.0f req/s, %llu errors)\n",
              Script->Ops.size(), 1u, Repeat, WallSeconds,
              WallSeconds > 0 ? static_cast<double>(Requests) / WallSeconds
                              : 0.0,
              static_cast<unsigned long long>(Errors));
  std::fflush(stdout);

  int ExitCode = 0;
  if (Cmd.boolFlag("strict")) {
    const uint64_t RetriesExhausted = statSum(*StatsText,
                                              "retries_exhausted");
    const uint64_t BreakerOpens = statSum(*StatsText, "breaker_opens");
    const uint64_t MissingShards = missingShardSections(*StatsText);
    if (Errors > 0 || RetriesExhausted > 0 || BreakerOpens > 0 ||
        MissingShards > 0) {
      std::fprintf(stderr,
                   "seer-netclient: --strict: %llu error line(s), %llu retry "
                   "budget(s) exhausted, %llu breaker open(s), %llu shard(s) "
                   "without stats\n",
                   static_cast<unsigned long long>(Errors),
                   static_cast<unsigned long long>(RetriesExhausted),
                   static_cast<unsigned long long>(BreakerOpens),
                   static_cast<unsigned long long>(MissingShards));
      if (const auto Metrics = Client.metricsText())
        std::fprintf(stderr, "%s", Metrics->c_str());
      ExitCode = 1;
    }
  }

  if (Cmd.boolFlag("shutdown"))
    if (const Status S = Client.shutdownServer(); !S.ok())
      fatal(S);
  return ExitCode;
}
