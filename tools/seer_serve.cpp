//===- tools/seer_serve.cpp - The Seer serving layer as a CLI -------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// Long-running counterpart of seer-predict: loads the trained model
// bundle once into a SeerService (serving API v2) and serves
// selection/execution requests through session handles. Two modes:
//
//   seer-serve --models DIR                     line protocol on stdin
//   seer-serve --models DIR --trace FILE        replay a scripted trace
//              [--clients N] [--repeat K]
//
// Defining a matrix (load/gen) registers it with the service — the
// fingerprint and single-pass analysis are paid exactly once, there —
// and `close`/`open` script the handle lifecycle. Requests against a
// closed name are answered with a typed `error CODE ...` line and the
// session continues; nothing short of EOF/quit stops a server.
//
// In trace mode, N client threads each replay the trace's operation
// sequence K times concurrently against the shared service, each thread
// with its own handles (concurrent registrations of the same content
// share one pinned cache entry), then the telemetry snapshot and a
// throughput summary are printed. With a single client the per-request
// response lines are printed too (in order), so a trace doubles as a
// readable demo. The `seer-trace v2` header is optional: traces with and
// without it replay identically.
//
// Both modes run the library's one protocol interpreter (TraceSession)
// over the in-process backend; this file keeps the flags, the client
// threads and the listener. The grammar is documented in
// serve/RequestTrace.h and the README's "Serving" section.
//
//===----------------------------------------------------------------------===//

#include "ToolSupport.h"

#include "api/SeerService.h"
#include "core/ModelBundle.h"
#include "net/NetServer.h"
#include "net/Socket.h"
#include "serve/RequestTrace.h"
#include "support/FaultInjector.h"
#include "support/Tracing.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <thread>

using namespace seer;
using namespace seer::tools;

namespace {

constexpr const char *Usage =
    "usage: seer-serve --models DIR [options]\n"
    "\n"
    "Serves Fig. 3 kernel selection from the .tree models in DIR. Without\n"
    "--trace, reads the line protocol from stdin (try 'gen m banded 1000 8\n"
    "0.9 1' then 'select m 5', 'stats', 'quit'). With --trace, replays the\n"
    "scripted request trace through session handles and prints telemetry\n"
    "(open/close scriptable, 'batch NAME COUNT [ITERATIONS]' runs one\n"
    "execution plan over COUNT deterministic operands; the 'seer-trace\n"
    "v2' header line is optional).\n"
    "\n"
    "options:\n"
    "  --models DIR        directory with seer_{known,gathered,selector}.tree\n"
    "  --trace FILE        request trace to replay (see serve/RequestTrace.h)\n"
    "  --clients N         concurrent client threads in trace mode (default 1)\n"
    "  --repeat K          times each client replays the trace (default 1)\n"
    "  --cache-budget B    fingerprint-cache byte budget (default 0 =\n"
    "                      unbounded); under pressure the server evicts\n"
    "                      oracle data and unpaid kernel states first,\n"
    "                      then whole entries — entries pinned by open\n"
    "                      handles always survive (see 'stats' counters)\n"
    "  --cache-shards N    fingerprint-cache lock shards (default 16); the\n"
    "                      byte budget splits evenly across shards, so a\n"
    "                      small budget needs a small shard count for the\n"
    "                      per-shard slice to hold whole entries\n"
    "  --fault-plan FILE   arm the deterministic fault injector with FILE\n"
    "                      (support/FaultInjector.h grammar) before serving;\n"
    "                      traces and stdin sessions can also drive it\n"
    "                      with the 'fault' command\n"
    "  --metrics-out FILE  write the unified metrics registry at exit:\n"
    "                      Prometheus text exposition, or one JSON object\n"
    "                      per metric if FILE ends in .jsonl\n"
    "  --trace-out FILE    arm the span recorder and write the recorded\n"
    "                      spans at exit as Chrome trace-event JSON (load\n"
    "                      in chrome://tracing or Perfetto)\n"
    "  --strict            exit nonzero if the replay answered any request\n"
    "                      with an 'error CODE ...' line, exhausted a retry\n"
    "                      budget, or opened a circuit breaker (chaos-gate\n"
    "                      mode; degraded responses are not errors); the\n"
    "                      final metrics snapshot goes to stderr on failure\n"
    "  --listen HOST:PORT  serve the binary wire protocol (net/Wire.h) on a\n"
    "                      TCP listener instead of stdin/trace replay; port\n"
    "                      0 binds an ephemeral port. Stops on SIGTERM /\n"
    "                      SIGINT or the wire Shutdown op, draining in-\n"
    "                      flight requests before exit\n"
    "  --port-file FILE    with --listen: write the bound port to FILE once\n"
    "                      serving (how spawners using port 0 find us)\n"
    "\n"
    "Either output flag arms the span recorder, which also enables the\n"
    "armed-only per-stage histograms (seer_stage_*_us, seer_cost_model_*)\n"
    "and the 'metrics' / 'spans N' protocol commands.\n";

/// Every span the process records, for the `spans` command and the
/// exit-time --trace-out export (a listening server records them too).
SpanSink Sink;

/// Replays the trace with \p Clients concurrent client sessions over one
/// in-process backend, then prints the shared replay epilogue. Only a
/// single client prints its response lines; every client counts errors,
/// so --strict works at any client count. \returns the exit code.
int runTrace(SeerService &Service, const TraceScript &Script,
             unsigned Clients, unsigned Repeat, bool Strict) {
  ServiceTraceBackend Backend(Service, Sink);
  const auto Start = std::chrono::steady_clock::now();
  std::atomic<uint64_t> Errors{0};
  const auto RunClient = [&](const TracePrinter &Out) {
    Errors.fetch_add(replayTrace(Script, Backend, Repeat, Out),
                     std::memory_order_relaxed);
  };
  // The calling thread is one of the clients.
  std::vector<std::thread> Threads;
  for (unsigned C = 1; C < Clients; ++C)
    Threads.emplace_back([&] { RunClient(TracePrinter()); });
  RunClient(Clients == 1 ? TracePrinter(printToStdout) : TracePrinter());
  for (std::thread &T : Threads)
    T.join();
  return finishReplay("seer-serve", Backend, Script.Ops.size(), Clients,
                      Repeat, Start, Errors.load(), Strict);
}

/// Writes \p Content to \p Path, dying on I/O failure: a missing
/// metrics/trace file after a green exit would be a silent lie.
void writeFileOrDie(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path);
  Out << Content;
  Out.flush();
  if (!Out)
    fatal("cannot write '" + Path + "'");
}

bool endsWith(const std::string &Text, const std::string &Suffix) {
  return Text.size() >= Suffix.size() &&
         Text.compare(Text.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// The server a stop signal should interrupt. NetServer::requestStop is
/// async-signal-safe (atomic store + self-pipe write), so the handler
/// may call it directly.
std::atomic<seer::net::NetServer *> SignalTarget{nullptr};

extern "C" void onStopSignal(int) {
  if (seer::net::NetServer *Server =
          SignalTarget.load(std::memory_order_acquire))
    Server->requestStop();
}

/// Network serving: bind, publish the port, then block until SIGTERM /
/// SIGINT or a wire Shutdown op, and drain before returning.
int runListen(SeerService &Service, const std::string &ListenSpec,
              const std::string &PortFile) {
  net::NetServerConfig Config;
  if (const Status S =
          net::parseHostPort(ListenSpec, Config.Host, Config.Port);
      !S.ok())
    fatal(S);
  // Share the service's registry so seer_net_* counters land in the same
  // exposition (and stat snapshot) as the serving metrics.
  Config.Metrics = &Service.metrics();

  net::ServiceFrameHandler Handler(Service);
  auto ServerOr = net::NetServer::start(Handler, Config);
  if (!ServerOr.ok())
    fatal(ServerOr.status());
  net::NetServer &Server = **ServerOr;

  SignalTarget.store(&Server, std::memory_order_release);
  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);

  if (!PortFile.empty())
    writeFileOrDie(PortFile, std::to_string(Server.port()) + "\n");
  std::fprintf(stderr, "seer-serve: listening on %s:%u\n",
               Config.Host.c_str(), unsigned(Server.port()));

  Server.join(); // blocks until a signal or the wire Shutdown op

  SignalTarget.store(nullptr, std::memory_order_release);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  // The listener is gone but admitted work may still be in the async
  // queue; finish it before the service (and its cache) is torn down.
  Service.drain();
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSpec Spec;
  Spec.Value = {"models",    "trace",  "fault-plan", "metrics-out",
                "trace-out", "listen", "port-file"};
  Spec.Int = {"clients", "repeat", "cache-budget", "cache-shards"};
  Spec.Bool = {"strict"};
  const CommandLine Cmd(Argc, Argv, Usage, Spec);
  if (const auto Early = Cmd.earlyExit())
    return *Early;
  const std::string ModelDir = Cmd.flag("models");
  if (ModelDir.empty())
    Cmd.exitWithUsage(1);

  if (const std::string PlanPath = Cmd.flag("fault-plan"); !PlanPath.empty()) {
    const auto Plan = FaultPlan::load(PlanPath);
    if (!Plan)
      fatal(Plan.status());
    if (const Status S = FaultInjector::instance().arm(*Plan); !S.ok())
      fatal(S);
  }

  const KernelRegistry Registry;
  auto Models = loadModelBundle(ModelDir, Registry.names());
  if (!Models)
    fatal(Models.status());
  const int64_t BudgetArg = Cmd.intFlag("cache-budget", 0);
  if (BudgetArg < 0)
    fatal("--cache-budget must be >= 0 (0 = unbounded)");
  ServiceConfig Config;
  Config.Server.CacheBudgetBytes = static_cast<size_t>(BudgetArg);
  const int64_t ShardsArg =
      Cmd.intFlag("cache-shards", int64_t(Config.Server.CacheShards));
  if (ShardsArg < 1 || ShardsArg > 4096)
    fatal("--cache-shards must be in [1, 4096]");
  Config.Server.CacheShards = static_cast<size_t>(ShardsArg);
  SeerService Service(std::move(*Models), Config);

  // Either observability output arms the recorder, which also switches
  // on the armed-only stage histograms the exports are meant to carry.
  const std::string MetricsOut = Cmd.flag("metrics-out");
  const std::string TraceOut = Cmd.flag("trace-out");
  if (!MetricsOut.empty() || !TraceOut.empty())
    SpanRecorder::instance().arm();

  const std::string TracePath = Cmd.flag("trace");
  const std::string ListenSpec = Cmd.flag("listen");
  int ExitCode = 0;
  if (!ListenSpec.empty()) {
    if (!TracePath.empty())
      fatal("--listen and --trace are mutually exclusive");
    ExitCode = runListen(Service, ListenSpec, Cmd.flag("port-file"));
  } else if (TracePath.empty()) {
    ServiceTraceBackend Backend(Service, Sink);
    runInteractive(std::cin, Backend, [](const std::string &Lines) {
      printToStdout(Lines);
      std::fflush(stdout);
    });
    // EOF/quit ends the session, but work admitted through the async
    // queue may still be in flight; finish it before the exit-time
    // metrics snapshot below (and before the service is destroyed) so
    // no submitted request is silently dropped.
    Service.drain();
  } else {
    const auto Script = readTraceFile(TracePath);
    if (!Script)
      fatal(Script.status());
    const int64_t ClientsArg = Cmd.intFlag("clients", 1);
    const int64_t RepeatArg = Cmd.intFlag("repeat", 1);
    if (ClientsArg < 1 || ClientsArg > 4096 || RepeatArg < 1 ||
        RepeatArg > 1000000)
      fatal("--clients must be in [1, 4096] and --repeat in [1, 1000000]");
    ExitCode = runTrace(Service, *Script, static_cast<unsigned>(ClientsArg),
                        static_cast<unsigned>(RepeatArg),
                        Cmd.boolFlag("strict"));
  }

  if (!MetricsOut.empty())
    writeFileOrDie(MetricsOut, endsWith(MetricsOut, ".jsonl")
                                   ? Service.metricsJson()
                                   : Service.metricsPrometheus());
  if (!TraceOut.empty())
    writeFileOrDie(TraceOut, Sink.chromeJson());
  return ExitCode;
}
