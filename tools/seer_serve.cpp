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
// The protocol grammar is documented in serve/RequestTrace.h and the
// README's "Serving" section.
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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <mutex>
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

/// Accumulates drained spans across the session so the `spans` command
/// (which empties the recorder's rings) and the exit-time --trace-out
/// export see one coherent timeline. Mutex-guarded: trace replays drain
/// from client threads.
struct SpanSink {
  std::mutex M;
  std::vector<TraceSpan> Spans;

  /// Moves everything currently in the recorder into the sink, keeping
  /// the global (StartNs, Seq) order.
  void drain() {
    std::vector<TraceSpan> Fresh = SpanRecorder::instance().drain();
    std::lock_guard<std::mutex> Lock(M);
    Spans.insert(Spans.end(), Fresh.begin(), Fresh.end());
    std::sort(Spans.begin(), Spans.end(),
              [](const TraceSpan &A, const TraceSpan &B) {
                return A.StartNs != B.StartNs ? A.StartNs < B.StartNs
                                              : A.Seq < B.Seq;
              });
  }

  /// The `spans N` response: the newest \p Count spans seen so far.
  std::string spanLines(uint32_t Count) {
    drain();
    std::lock_guard<std::mutex> Lock(M);
    return formatSpanLines(Spans, Count);
  }

  /// The --trace-out payload.
  std::string chromeJson() {
    drain();
    std::lock_guard<std::mutex> Lock(M);
    return SpanRecorder::chromeTraceJson(Spans);
  }
};

SpanSink Sink;

/// One client's replay of a trace: registers its own handles for the
/// trace's matrices and walks the operation sequence. Response/error
/// lines are printed only when \p Print (single-client mode). \returns
/// the number of operations answered with an error line — counted even
/// when nothing is printed, so --strict works at any client count.
uint64_t replay(SeerService &Service, const TraceScript &Script,
                unsigned Repeat, bool Print) {
  uint64_t Errors = 0;
  // Zero-copy registration: the parsed script outlives the service (and
  // every registration is released before this function returns), so
  // each client shares the parser's matrix instead of copying it.
  const auto Register = [&](size_t MatrixIndex) {
    return Service.registerMatrix(std::shared_ptr<const CsrMatrix>(
        std::shared_ptr<void>(), &Script.Matrices[MatrixIndex].second));
  };

  // Matrices auto-open at definition; open/close ops toggle from there.
  std::vector<MatrixHandle> Handles(Script.Matrices.size());
  for (size_t I = 0; I < Script.Matrices.size(); ++I) {
    auto Handle = Register(I);
    if (!Handle) { // cannot happen for a parsed trace; surface anyway
      ++Errors;
      if (Print)
        std::printf("%s\n", formatErrorLine(Handle.status()).c_str());
      continue;
    }
    Handles[I] = *Handle;
  }

  const auto Fail = [&](const Status &S) {
    ++Errors;
    if (Print)
      std::printf("%s\n", formatErrorLine(S).c_str());
  };

  for (unsigned K = 0; K < Repeat; ++K)
    for (const TraceScript::Op &Op : Script.Ops) {
      if (Op.Command == TraceScript::Op::Kind::Fault) {
        // Fault directives mutate process-wide state; a chaos trace is
        // expected to run with one client so they land deterministically
        // between requests.
        if (const Status S = applyFaultSpec(Op.FaultSpec); !S.ok())
          Fail(S);
        else if (Print)
          std::printf("ok fault %s\n", Op.FaultSpec.c_str());
        continue;
      }
      if (Op.Command == TraceScript::Op::Kind::Metrics) {
        // The exposition is a point-in-time observation, not a response:
        // only the printing client emits it.
        if (Print)
          std::printf("%s", Service.metricsPrometheus().c_str());
        continue;
      }
      if (Op.Command == TraceScript::Op::Kind::Spans) {
        if (Print)
          std::printf("%s", Sink.spanLines(Op.SpanCount).c_str());
        else
          Sink.drain(); // keep the rings from overwriting under load
        continue;
      }
      const std::string &Name = Script.Matrices[Op.MatrixIndex].first;
      switch (Op.Command) {
      case TraceScript::Op::Kind::Fault:
      case TraceScript::Op::Kind::Metrics:
      case TraceScript::Op::Kind::Spans:
        break; // handled above
      case TraceScript::Op::Kind::Open: {
        if (Handles[Op.MatrixIndex].valid())
          break; // already open; idempotent in replay
        auto Handle = Register(Op.MatrixIndex);
        if (Handle)
          Handles[Op.MatrixIndex] = *Handle;
        else
          Fail(Handle.status());
        break;
      }
      case TraceScript::Op::Kind::Close: {
        const Status S = Service.release(Handles[Op.MatrixIndex]);
        Handles[Op.MatrixIndex] = MatrixHandle();
        if (!S.ok())
          Fail(S);
        break;
      }
      case TraceScript::Op::Kind::Batch: {
        if (!Handles[Op.MatrixIndex].valid()) {
          Fail(Status::failedPrecondition("matrix '" + Name +
                                          "' is closed (open it first)"));
          break;
        }
        const auto Operands = buildBatchOperands(
            Op.BatchCount,
            Script.Matrices[Op.MatrixIndex].second.numCols());
        const auto Response = Service.executeBatch(Handles[Op.MatrixIndex],
                                                   Operands, Op.Iterations);
        if (!Response)
          Fail(Response.status());
        else if (Print)
          std::printf("%s\n",
                      formatBatchResponseLine(Name, *Response,
                                              Service.registry())
                          .c_str());
        break;
      }
      case TraceScript::Op::Kind::Select:
      case TraceScript::Op::Kind::Execute: {
        if (!Handles[Op.MatrixIndex].valid()) {
          Fail(Status::failedPrecondition("matrix '" + Name +
                                          "' is closed (open it first)"));
          break;
        }
        Request R;
        R.Handle = Handles[Op.MatrixIndex];
        R.Iterations = Op.Iterations;
        R.Execute = Op.Command == TraceScript::Op::Kind::Execute;
        R.VerifyOracle = Op.Verify;
        const auto Response = Service.serve(R);
        if (!Response)
          Fail(Response.status());
        else if (Print)
          std::printf("%s\n",
                      formatResponseLine(Name, *Response,
                                         Service.registry())
                          .c_str());
        break;
      }
      }
    }

  for (MatrixHandle Handle : Handles)
    if (Handle.valid())
      Service.release(Handle);
  return Errors;
}

/// Replays the trace with \p Clients concurrent clients and prints the
/// telemetry snapshot plus a throughput summary. \returns the total
/// number of error-line outcomes across all clients (the --strict gate).
uint64_t runTrace(SeerService &Service, const TraceScript &Script,
                  unsigned Clients, unsigned Repeat) {
  const auto Start = std::chrono::steady_clock::now();
  std::atomic<uint64_t> Errors{0};
  const auto RunClient = [&](bool Print) {
    Errors.fetch_add(replay(Service, Script, Repeat, Print),
                     std::memory_order_relaxed);
  };
  if (Clients <= 1) {
    RunClient(/*Print=*/true);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&] { RunClient(/*Print=*/false); });
    for (std::thread &T : Threads)
      T.join();
  }
  const double WallSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - Start)
                                 .count();

  std::printf("%s", Service.metricsStatLines().c_str());
  const uint64_t Requests = Service.stats().Requests;
  std::printf("replayed %zu ops x %u clients x %u in %.3fs "
              "(%.0f req/s, %llu errors)\n",
              Script.Ops.size(), Clients, Repeat, WallSeconds,
              WallSeconds > 0 ? static_cast<double>(Requests) / WallSeconds
                              : 0.0,
              static_cast<unsigned long long>(Errors.load()));
  return Errors.load();
}

int runStdin(SeerService &Service) {
  /// Session state per name: how to rebuild the matrix (so `open` after
  /// `close` can re-register without keeping a second CSR copy) and the
  /// current handle (invalid while closed).
  struct NamedMatrix {
    std::string Name;
    MatrixInput Source;
    MatrixHandle Handle;
  };
  std::vector<NamedMatrix> Matrices;
  const auto Find = [&](const std::string &Name) -> NamedMatrix * {
    for (NamedMatrix &M : Matrices)
      if (M.Name == Name)
        return &M;
    return nullptr;
  };
  const auto PrintError = [](const Status &S) {
    std::printf("%s\n", formatErrorLine(S).c_str());
  };
  const auto OpenAndAck = [&](NamedMatrix &M) {
    auto Handle = Service.registerMatrix(M.Source);
    if (!Handle) {
      PrintError(Handle.status());
      return;
    }
    M.Handle = *Handle;
    const auto Info = Service.describe(M.Handle);
    std::printf("ok %s %ux%u %llu nnz handle=%llu\n", M.Name.c_str(),
                Info->NumRows, Info->NumCols,
                static_cast<unsigned long long>(Info->Nnz),
                static_cast<unsigned long long>(M.Handle.Id));
  };

  std::string Line;
  while (std::getline(std::cin, Line)) {
    TraceCommand Command;
    if (const Status S = parseTraceLine(Line, Command); !S.ok()) {
      PrintError(S);
      std::fflush(stdout);
      continue;
    }
    switch (Command.Command) {
    case TraceCommand::Kind::Blank:
      break;
    case TraceCommand::Kind::Version:
      std::printf("ok seer-trace v2\n"); // the session API is always v2
      break;
    case TraceCommand::Kind::Quit:
      return 0;
    case TraceCommand::Kind::Stats:
      std::printf("%s", Service.metricsStatLines().c_str());
      break;
    case TraceCommand::Kind::Metrics:
      std::printf("%s", Service.metricsPrometheus().c_str());
      break;
    case TraceCommand::Kind::Spans:
      std::printf("%s", Sink.spanLines(Command.SpanCount).c_str());
      break;
    case TraceCommand::Kind::Fault: {
      if (const Status S = applyFaultSpec(Command.FaultSpec); !S.ok())
        PrintError(S);
      else
        std::printf("ok fault %s\n", Command.FaultSpec.c_str());
      break;
    }
    case TraceCommand::Kind::Load:
    case TraceCommand::Kind::Gen: {
      if (Find(Command.Name)) {
        PrintError(Status::alreadyExists("duplicate matrix name '" +
                                         Command.Name + "'"));
        break;
      }
      MatrixInput Source =
          Command.Command == TraceCommand::Kind::Load
              ? MatrixInput(MatrixMarketSource{Command.Path})
              : MatrixInput(GeneratorSpec{Command.GenFamily, Command.GenArgs});
      Matrices.push_back(
          NamedMatrix{Command.Name, std::move(Source), MatrixHandle()});
      OpenAndAck(Matrices.back());
      if (!Matrices.back().Handle.valid())
        Matrices.pop_back(); // registration failed; forget the name
      break;
    }
    case TraceCommand::Kind::Open: {
      NamedMatrix *M = Find(Command.Name);
      if (!M) {
        PrintError(Status::notFound("unknown matrix '" + Command.Name + "'"));
        break;
      }
      if (M->Handle.valid()) {
        PrintError(Status::alreadyExists("matrix '" + Command.Name +
                                         "' is already open"));
        break;
      }
      OpenAndAck(*M);
      break;
    }
    case TraceCommand::Kind::Close: {
      NamedMatrix *M = Find(Command.Name);
      if (!M) {
        PrintError(Status::notFound("unknown matrix '" + Command.Name + "'"));
        break;
      }
      const Status S = Service.release(M->Handle);
      M->Handle = MatrixHandle();
      if (!S.ok()) {
        PrintError(S);
        break;
      }
      std::printf("ok closed %s\n", Command.Name.c_str());
      break;
    }
    case TraceCommand::Kind::Batch: {
      NamedMatrix *M = Find(Command.Name);
      if (!M) {
        PrintError(Status::notFound("unknown matrix '" + Command.Name + "'"));
        break;
      }
      if (!M->Handle.valid()) {
        PrintError(Status::failedPrecondition(
            "matrix '" + Command.Name + "' is closed (open it first)"));
        break;
      }
      const auto Info = Service.describe(M->Handle);
      if (!Info) {
        PrintError(Info.status());
        break;
      }
      const auto Response = Service.executeBatch(
          M->Handle, buildBatchOperands(Command.BatchCount, Info->NumCols),
          Command.Iterations);
      if (!Response) {
        PrintError(Response.status());
        break;
      }
      std::printf("%s\n", formatBatchResponseLine(Command.Name, *Response,
                                                  Service.registry())
                              .c_str());
      break;
    }
    case TraceCommand::Kind::Select:
    case TraceCommand::Kind::Execute: {
      NamedMatrix *M = Find(Command.Name);
      if (!M) {
        PrintError(Status::notFound("unknown matrix '" + Command.Name + "'"));
        break;
      }
      if (!M->Handle.valid()) {
        PrintError(Status::failedPrecondition(
            "matrix '" + Command.Name + "' is closed (open it first)"));
        break;
      }
      Request R;
      R.Handle = M->Handle;
      R.Iterations = Command.Iterations;
      R.Execute = Command.Command == TraceCommand::Kind::Execute;
      R.VerifyOracle = Command.Verify;
      const auto Response = Service.serve(R);
      if (!Response) {
        PrintError(Response.status());
        break;
      }
      std::printf("%s\n", formatResponseLine(Command.Name, *Response,
                                             Service.registry())
                              .c_str());
      break;
    }
    }
    std::fflush(stdout);
  }
  return 0;
}

} // namespace

namespace {

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
  uint64_t Errors = 0;
  if (!ListenSpec.empty()) {
    if (!TracePath.empty())
      fatal("--listen and --trace are mutually exclusive");
    ExitCode = runListen(Service, ListenSpec, Cmd.flag("port-file"));
  } else if (TracePath.empty()) {
    ExitCode = runStdin(Service);
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
    const unsigned Clients = static_cast<unsigned>(ClientsArg);
    const unsigned Repeat = static_cast<unsigned>(RepeatArg);
    Errors = runTrace(Service, *Script, Clients, Repeat);
  }

  if (!MetricsOut.empty())
    writeFileOrDie(MetricsOut, endsWith(MetricsOut, ".jsonl")
                                   ? Service.metricsJson()
                                   : Service.metricsPrometheus());
  if (!TraceOut.empty())
    writeFileOrDie(TraceOut, Sink.chromeJson());

  if (!TracePath.empty() && Cmd.boolFlag("strict")) {
    // Chaos-gate mode: error lines are failures, and so are the quieter
    // bad signs — a retry budget that ran dry or a breaker that opened
    // mean the fault plan overwhelmed the resilience layer even if every
    // request eventually produced a line.
    const ServerStats Stats = Service.stats();
    if (Errors > 0 || Stats.RetriesExhausted > 0 || Stats.BreakerOpens > 0) {
      std::fprintf(stderr,
                   "seer-serve: --strict: %llu error line(s), %llu retry "
                   "budget(s) exhausted, %llu breaker open(s)\n",
                   static_cast<unsigned long long>(Errors),
                   static_cast<unsigned long long>(Stats.RetriesExhausted),
                   static_cast<unsigned long long>(Stats.BreakerOpens));
      std::fprintf(stderr, "%s", Service.metricsPrometheus().c_str());
      return 1;
    }
  }
  return ExitCode;
}
