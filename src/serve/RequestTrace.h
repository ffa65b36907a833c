//===- serve/RequestTrace.h - Line protocol and request traces ------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text protocol of `seer-serve`, used both for scripted trace files
/// and the interactive stdin mode. One command per line; `#` starts a
/// comment; blank lines are ignored.
///
/// One interpreter runs it: a session (replayTrace, runInteractive) turns
/// each command into calls on a TraceBackend, in process
/// (api/SeerService.h) or over the wire (net/NetClient.h), and returns
/// the lines to print.
///
/// ## Protocol v2
///
/// The protocol maps onto the session-based serving API
/// (api/SeerService.h): defining a matrix registers it (a handle is
/// opened for it), and the handle lifecycle is scriptable:
///
///   open NAME                        re-register NAME after a close
///   close NAME                       release NAME's handle
///
/// A request, `batch` or `close` against a closed name is answered with
/// `error FAILED_PRECONDITION matrix 'NAME' is closed (open it first)`
/// without reaching the server, so the line is the same over every
/// transport; the session continues. A trace may open with the versioned
/// header
///
///   seer-trace v2
///
/// which is accepted as a no-op (it must be the first command); traces
/// with and without it parse and replay identically.
///
/// Setup commands (define a named matrix; this also opens it):
///   load NAME PATH                   Matrix Market file
///   gen NAME banded ROWS HALFBAND FILL SEED
///   gen NAME powerlaw ROWS EXPONENT MINROW MAXROW SEED
///   gen NAME uniform ROWS COLS MEANROW JITTER SEED
///   gen NAME diagonal ROWS SEED
///
/// Request commands (hit the server):
///   select NAME [ITERATIONS]         selection only (default 1 iteration)
///   execute NAME [ITERATIONS] [verify]
///                                    also run the kernel; `verify` turns
///                                    on the oracle comparison
///   batch NAME COUNT [ITERATIONS]    one ExecutionPlan (routing,
///                                    selection and preprocessing charged
///                                    once) executed over COUNT operands;
///                                    operand k is the deterministic
///                                    uniform(-1, 1) vector seeded with k
///                                    (buildBatchOperands), so replays are
///                                    reproducible
///
/// Fault command (drives support/FaultInjector.h):
///   fault SITE nth=N|every=K ACTION  add one fault rule (FaultPlan rule
///                                    grammar: ACTION is `status=CODE
///                                    [message...]`, `latency-ms=X`, or
///                                    `bad-alloc`); hit counters of rules
///                                    already armed are preserved
///   fault seed N                     reseed the injector's every-K phases
///   fault clear                      disarm all fault rules
///
/// Observability commands:
///   metrics                          print the Prometheus exposition of
///                                    the unified metrics registry
///   spans N                          drain the span recorder and print
///                                    the most recent N spans as
///                                    `span NAME start_ns=... dur_ns=...`
///                                    lines (requires --trace-out or an
///                                    armed recorder; prints `ok spans 0`
///                                    when disarmed)
///
/// Control commands (interactive mode only):
///   stats                            print the telemetry snapshot: one
///                                    `stat NAME VALUE` line per registry
///                                    metric (MetricsRegistry::statLines)
///   quit                             exit
///
/// Output lines are `NAME key=value...` response lines (with a
/// ` degraded=1` marker when the server answered from the baseline
/// fallback kernel), `stat NAME VALUE` telemetry lines, `ok ...`
/// acknowledgements, and error lines of the form
///
///   error CODE message...            e.g. `error NOT_FOUND no handle ...`
///
/// where CODE is the upper-case StatusCode name (api/Status.h).
///
/// ## Interactive and replay sessions
///
/// The interactive (stdin) session, runInteractive, differs from a
/// replay, replayTrace, in exactly three ways: it acknowledges
/// the header, each definition or `open` (`ok NAME RxC N nnz handle=H`)
/// and each `close` (`ok closed NAME`); it answers an `open` of an open
/// name with ALREADY_EXISTS, where a replay treats it as a no-op; and it
/// forgets a name whose registration failed, where a replay keeps the
/// name, closed.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SERVE_REQUESTTRACE_H
#define SEER_SERVE_REQUESTTRACE_H

#include "api/MatrixInput.h"
#include "api/Status.h"
#include "serve/ServeTypes.h"
#include "sparse/CsrMatrix.h"
#include "support/ThreadAnnotations.h"
#include "support/Tracing.h"

#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <vector>

namespace seer {

class KernelRegistry;

/// One parsed protocol line.
struct TraceCommand {
  enum class Kind {
    Blank,
    Version, // the `seer-trace v2` header (accepted as a no-op)
    Load,
    Gen,
    Open,
    Close,
    Select,
    Execute,
    Batch,
    Fault,
    Metrics,
    Spans,
    Stats,
    Quit
  };
  Kind Command = Kind::Blank;
  /// Matrix name (Load/Gen/Open/Close/Select/Execute/Batch).
  std::string Name;
  /// File path (Load).
  std::string Path;
  /// Generator family and numeric arguments (Gen).
  std::string GenFamily;
  std::vector<double> GenArgs;
  /// Request parameters (Select/Execute/Batch).
  uint32_t Iterations = 1;
  bool Verify = false;
  /// Operand count (Batch).
  uint32_t BatchCount = 0;
  /// Span count to print (Spans).
  uint32_t SpanCount = 0;
  /// Everything after the `fault` verb (Fault): a FaultPlan rule,
  /// `seed N`, or `clear`. Validated at parse time.
  std::string FaultSpec;
};

/// Parses one protocol line. INVALID_ARGUMENT on a malformed line;
/// blank/comment lines parse as Kind::Blank.
Status parseTraceLine(const std::string &Line, TraceCommand &Out);

/// The matrix a Load or Gen command defines, as a registration input: a
/// MatrixMarketSource or a GeneratorSpec (validated when materialized).
MatrixInput traceMatrixSource(const TraceCommand &Command);

/// A fully parsed trace: the named matrices (in definition order) and
/// the commands to replay.
struct TraceScript {
  std::vector<std::pair<std::string, CsrMatrix>> Matrices;
  /// Every other command in trace order, as parseTraceLine produced it:
  /// open, close, select, execute and batch (each naming a defined
  /// matrix), fault, metrics and spans. A replay registers the matrices
  /// first, then runs these.
  std::vector<TraceCommand> Ops;
};

/// Parses a whole trace (optional header + setup + operations). Control
/// commands are rejected in traces and every referenced name must be
/// defined. INVALID_ARGUMENT with a 1-based line number on the first bad
/// line.
Expected<TraceScript> parseTrace(const std::string &Text);

/// Reads and parses a trace file (NOT_FOUND / INVALID_ARGUMENT).
Expected<TraceScript> readTraceFile(const std::string &Path);

/// The most operands one batch may carry, in a trace and on the wire:
/// the server builds COUNT operand vectors, so an unchecked count would
/// let one command request COUNT * cols doubles.
inline constexpr uint32_t MaxBatchOperands = 4096;

/// The deterministic operand set of a `batch NAME COUNT` command:
/// operand k (0-based) has \p Cols elements drawn uniform(-1, 1) from a
/// generator seeded with k, so every replay of a trace executes the
/// identical batch.
std::vector<std::vector<double>> buildBatchOperands(uint32_t Count,
                                                    uint32_t Cols);

/// Formats one response as a single protocol output line, e.g.
///   `web1 kernel=CSR,WO route=gathered cache=hit overhead_ms=0 ...`.
std::string formatResponseLine(const std::string &Name,
                               const ServeResponse &Response,
                               const KernelRegistry &Registry);

/// Formats a batched-execution response as a single protocol output
/// line: the per-batch charges plus the operand count, e.g.
///   `web kernel=CSR,WO route=known cache=hit iterations=5 batch=32 ...`.
std::string formatBatchResponseLine(const std::string &Name,
                                    const BatchResponse &Response,
                                    const KernelRegistry &Registry);

/// Applies one validated `fault` directive (`clear`, `seed N`, or a
/// FaultPlan rule line) to the process-wide FaultInjector. The shared
/// executor of the `fault` command (replay, interactive mode and the
/// wire). INVALID_ARGUMENT on a malformed spec, without arming anything.
Status applyFaultSpec(const std::string &Spec);

/// Formats the newest \p MaxCount entries of \p Spans (already sorted by
/// start time, as SpanRecorder::drain() returns them) as protocol lines:
///   `span plan.select start_ns=... dur_ns=... request_id=3 tid=1 ...`
/// followed by a `ok spans N` trailer giving the printed count.
std::string formatSpanLines(const std::vector<TraceSpan> &Spans,
                            size_t MaxCount);

/// Formats a failure as a protocol error line: `error CODE message`.
/// \p Error must not be OK.
std::string formatErrorLine(const Status &Error);

/// Accumulates drained spans so the `spans` command (which empties the
/// recorder's rings) and an exit-time export see one timeline. Thread-
/// safe: the clients of a replay drain from their own threads.
class SpanSink {
public:
  /// The `spans N` answer: the newest \p Count spans seen so far.
  std::string spanLines(uint32_t Count) {
    MutexLock Lock(M);
    drain();
    return formatSpanLines(Spans, Count);
  }

  /// Every span seen so far as Chrome trace-event JSON.
  std::string chromeJson() {
    MutexLock Lock(M);
    drain();
    return SpanRecorder::chromeTraceJson(Spans);
  }

private:
  /// Moves the recorder's spans in, keeping the global (StartNs, Seq)
  /// order.
  void drain() SEER_REQUIRES(M);

  seer::Mutex M;
  std::vector<TraceSpan> Spans SEER_GUARDED_BY(M);
};

/// What TraceBackend::open reports: the handle (never 0) and the shape.
struct TraceHandle {
  uint64_t Id = 0;
  uint32_t NumRows = 0;
  uint32_t NumCols = 0;
  uint64_t Nnz = 0;
};

/// The server side of the line protocol: the eight operations a command
/// can reach. ServiceTraceBackend (api/SeerService.h) calls a SeerService
/// in process; NetTraceBackend (net/NetClient.h) makes one wire round
/// trip per call.
class TraceBackend {
public:
  TraceBackend() = default;
  TraceBackend(const TraceBackend &) = delete;
  TraceBackend &operator=(const TraceBackend &) = delete;
  virtual ~TraceBackend() = default;

  /// Registers \p Source under \p Name.
  virtual Expected<TraceHandle> open(const std::string &Name,
                                     MatrixInput Source) = 0;
  /// Releases a handle open() returned.
  virtual Status close(uint64_t Handle) = 0;
  /// A `select` or, with \p Execute, an `execute` request.
  virtual Expected<ServeResponse> serve(uint64_t Handle, uint32_t Iterations,
                                        bool Execute, bool Verify) = 0;
  /// A `batch` over the first \p Count buildBatchOperands operands.
  virtual Expected<BatchResponse> batch(uint64_t Handle, uint32_t Count,
                                        uint32_t Iterations) = 0;
  /// Applies a validated `fault` directive.
  virtual Status fault(const std::string &Spec) = 0;
  /// The Prometheus exposition.
  virtual Expected<std::string> metrics() = 0;
  /// The `stat NAME VALUE` snapshot.
  virtual Expected<std::string> stats() = 0;
  /// The `spans N` lines, trailer included.
  virtual std::string spans(uint32_t Count) = 0;
};

/// Receives a session's output, one command's lines at a time.
using TracePrinter = std::function<void(const std::string &)>;

/// One client's replay of \p Script: a replay-mode session over
/// \p Backend registers the script's matrices (sharing the parsed CSR,
/// never copying it), runs its commands \p Repeat times, then closes
/// what is still open. Lines go to \p Out; with an empty \p Out nothing
/// is formatted, but errors still count. \returns the number of
/// commands answered with an error line.
uint64_t replayTrace(const TraceScript &Script, TraceBackend &Backend,
                     unsigned Repeat, const TracePrinter &Out);

/// The stdin session: an interactive-mode session over \p Backend reads
/// protocol lines from \p In until EOF or `quit` and sends each line's
/// answer (a parse error's line included) to \p Out, once per line.
void runInteractive(std::istream &In, TraceBackend &Backend,
                    const TracePrinter &Out);

} // namespace seer

#endif // SEER_SERVE_REQUESTTRACE_H
