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
/// ## Protocol v2
///
/// The protocol maps onto the session-based serving API
/// (api/SeerService.h): defining a matrix registers it (a handle is
/// opened for it), and the handle lifecycle is scriptable:
///
///   open NAME                        re-register NAME after a close
///   close NAME                       release NAME's handle
///
/// Requests against a closed name are answered with a typed error line
/// (see below) instead of a response line; the replay continues. A trace
/// may open with the versioned header
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
//===----------------------------------------------------------------------===//

#ifndef SEER_SERVE_REQUESTTRACE_H
#define SEER_SERVE_REQUESTTRACE_H

#include "api/Status.h"
#include "serve/ServeTypes.h"
#include "sparse/CsrMatrix.h"
#include "support/Tracing.h"

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

/// Materializes a Gen command into a matrix. INVALID_ARGUMENT on an
/// unknown family or bad arguments.
Expected<CsrMatrix> buildTraceMatrix(const TraceCommand &Command);

/// A fully parsed trace: the named matrices (in definition order) and
/// the operation sequence.
struct TraceScript {
  /// One replayable operation.
  struct Op {
    enum class Kind {
      Open,
      Close,
      Select,
      Execute,
      Batch,
      Fault,
      Metrics,
      Spans
    };
    Kind Command = Kind::Select;
    /// Index into Matrices (not used by Fault/Metrics/Spans).
    size_t MatrixIndex = 0;
    /// Request parameters (Select/Execute/Batch).
    uint32_t Iterations = 1;
    bool Verify = false;
    /// Operand count (Batch).
    uint32_t BatchCount = 0;
    /// Span count to print (Spans).
    uint32_t SpanCount = 0;
    /// Fault directive (Fault): a FaultPlan rule, `seed N`, or `clear`.
    std::string FaultSpec;
  };

  std::vector<std::pair<std::string, CsrMatrix>> Matrices;
  std::vector<Op> Ops;

  /// Index of the matrix named \p Name, or npos.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t matrixIndex(const std::string &Name) const;
};

/// Parses a whole trace (optional header + setup + operations). Control
/// commands are rejected in traces and every referenced name must be
/// defined. INVALID_ARGUMENT with a 1-based line number on the first bad
/// line.
Expected<TraceScript> parseTrace(const std::string &Text);

/// Reads and parses a trace file (NOT_FOUND / INVALID_ARGUMENT).
Expected<TraceScript> readTraceFile(const std::string &Path);

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

} // namespace seer

#endif // SEER_SERVE_REQUESTTRACE_H
