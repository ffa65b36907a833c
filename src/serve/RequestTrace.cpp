//===- serve/RequestTrace.cpp ----------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "serve/RequestTrace.h"

#include "api/MatrixInput.h"
#include "kernels/KernelRegistry.h"
#include "sparse/MatrixMarket.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace seer;

namespace {

/// Splits a line into whitespace-separated tokens, dropping `#` comments.
/// A manual scan rather than istringstream: this runs once per trace
/// line, and stream construction plus locale-aware extraction dominated
/// parse time in profiles. Token boundaries match `Stream >> Token`
/// exactly (isspace on the default locale).
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Tokens;
  const size_t Size = Line.size();
  size_t I = 0;
  while (I < Size) {
    while (I < Size &&
           std::isspace(static_cast<unsigned char>(Line[I])) != 0)
      ++I;
    if (I >= Size)
      break;
    size_t Begin = I;
    while (I < Size &&
           std::isspace(static_cast<unsigned char>(Line[I])) == 0)
      ++I;
    if (Line[Begin] == '#')
      break;
    Tokens.emplace_back(Line, Begin, I - Begin);
  }
  return Tokens;
}

Status parseIterations(const std::string &Token, uint32_t &Out) {
  int64_t Value = 0;
  if (!parseInt(Token, Value) || Value < 1)
    return Status::invalidArgument("bad iteration count '" + Token + "'");
  Out = static_cast<uint32_t>(Value);
  return Status::okStatus();
}

/// Validates a `fault` directive without arming anything: `clear`,
/// `seed N`, or one FaultPlan rule.
Status validateFaultSpec(const std::string &Spec) {
  if (Spec == "clear")
    return Status::okStatus();
  const std::vector<std::string> Words = splitString(Spec, ' ');
  if (!Words.empty() && Words[0] == "seed") {
    int64_t Seed = 0;
    if (Words.size() != 2 || !parseInt(Words[1], Seed) || Seed < 0)
      return Status::invalidArgument("usage: fault seed N");
    return Status::okStatus();
  }
  return FaultPlan::parseRule(Spec).status();
}

} // namespace

Status seer::applyFaultSpec(const std::string &Spec) {
  if (const Status S = validateFaultSpec(Spec); !S.ok())
    return S;
  FaultInjector &Injector = FaultInjector::instance();
  if (Spec == "clear") {
    Injector.disarm();
    return Status::okStatus();
  }
  const std::vector<std::string> Words = splitString(Spec, ' ');
  if (!Words.empty() && Words[0] == "seed") {
    int64_t Seed = 0;
    parseInt(Words[1], Seed);
    Injector.reseed(static_cast<uint64_t>(Seed));
    return Status::okStatus();
  }
  auto Rule = FaultPlan::parseRule(Spec);
  assert(Rule && "validated rule failed to parse");
  Injector.addRule(*Rule);
  return Status::okStatus();
}

Status seer::parseTraceLine(const std::string &Line, TraceCommand &Out) {
  const auto Fail = [](const std::string &Message) {
    return Status::invalidArgument(Message);
  };
  Out = TraceCommand();
  const std::vector<std::string> Tokens = tokenize(Line);
  if (Tokens.empty())
    return Status::okStatus(); // blank or comment

  const std::string &Verb = Tokens[0];
  if (Verb == "seer-trace") {
    if (Tokens.size() != 2 || Tokens[1] != "v2")
      return Fail("unsupported trace version (only 'seer-trace v2')");
    Out.Command = TraceCommand::Kind::Version;
    return Status::okStatus();
  }

  if (Verb == "stats" || Verb == "quit" || Verb == "metrics") {
    if (Tokens.size() != 1)
      return Fail("'" + Verb + "' takes no arguments");
    Out.Command = Verb == "stats" ? TraceCommand::Kind::Stats
                 : Verb == "quit" ? TraceCommand::Kind::Quit
                                  : TraceCommand::Kind::Metrics;
    return Status::okStatus();
  }

  if (Verb == "spans") {
    if (Tokens.size() != 2)
      return Fail("usage: spans N");
    int64_t Count = 0;
    if (!parseInt(Tokens[1], Count) || Count < 1)
      return Fail("bad span count '" + Tokens[1] + "'");
    Out.Command = TraceCommand::Kind::Spans;
    Out.SpanCount = static_cast<uint32_t>(Count);
    return Status::okStatus();
  }

  if (Verb == "load") {
    if (Tokens.size() != 3)
      return Fail("usage: load NAME PATH");
    Out.Command = TraceCommand::Kind::Load;
    Out.Name = Tokens[1];
    Out.Path = Tokens[2];
    return Status::okStatus();
  }

  if (Verb == "gen") {
    if (Tokens.size() < 3)
      return Fail("usage: gen NAME FAMILY ARGS...");
    Out.Command = TraceCommand::Kind::Gen;
    Out.Name = Tokens[1];
    Out.GenFamily = Tokens[2];
    for (size_t I = 3; I < Tokens.size(); ++I) {
      double Value = 0.0;
      if (!parseDouble(Tokens[I], Value))
        return Fail("bad gen argument '" + Tokens[I] + "'");
      Out.GenArgs.push_back(Value);
    }
    return Status::okStatus();
  }

  if (Verb == "open" || Verb == "close") {
    if (Tokens.size() != 2)
      return Fail("usage: " + Verb + " NAME");
    Out.Command = Verb == "open" ? TraceCommand::Kind::Open
                                 : TraceCommand::Kind::Close;
    Out.Name = Tokens[1];
    return Status::okStatus();
  }

  if (Verb == "fault") {
    if (Tokens.size() < 2)
      return Fail("usage: fault SITE nth=N|every=K ACTION | fault seed N | "
                  "fault clear");
    Out.Command = TraceCommand::Kind::Fault;
    std::vector<std::string> Rest(Tokens.begin() + 1, Tokens.end());
    Out.FaultSpec = joinStrings(Rest, " ");
    return validateFaultSpec(Out.FaultSpec);
  }

  if (Verb == "batch") {
    if (Tokens.size() < 3 || Tokens.size() > 4)
      return Fail("usage: batch NAME COUNT [ITERATIONS]");
    Out.Command = TraceCommand::Kind::Batch;
    Out.Name = Tokens[1];
    int64_t Count = 0;
    if (!parseInt(Tokens[2], Count) || Count < 1 || Count > MaxBatchOperands)
      return Fail("bad batch operand count '" + Tokens[2] +
                  "' (must be in [1, " + std::to_string(MaxBatchOperands) +
                  "])");
    Out.BatchCount = static_cast<uint32_t>(Count);
    if (Tokens.size() == 4)
      if (const Status S = parseIterations(Tokens[3], Out.Iterations);
          !S.ok())
        return S;
    return Status::okStatus();
  }

  if (Verb == "select" || Verb == "execute") {
    if (Tokens.size() < 2)
      return Fail("usage: " + Verb + " NAME [ITERATIONS]");
    Out.Command = Verb == "select" ? TraceCommand::Kind::Select
                                   : TraceCommand::Kind::Execute;
    Out.Name = Tokens[1];
    size_t Next = 2;
    if (Next < Tokens.size() && Tokens[Next] != "verify") {
      if (const Status S = parseIterations(Tokens[Next], Out.Iterations);
          !S.ok())
        return S;
      ++Next;
    }
    if (Next < Tokens.size()) {
      if (Tokens[Next] != "verify" || Out.Command != TraceCommand::Kind::Execute)
        return Fail("unexpected token '" + Tokens[Next] + "'");
      Out.Verify = true;
      ++Next;
    }
    if (Next != Tokens.size())
      return Fail("trailing tokens after '" + Verb + "'");
    return Status::okStatus();
  }

  return Fail("unknown command '" + Verb + "'");
}

Expected<CsrMatrix> seer::buildTraceMatrix(const TraceCommand &Command) {
  // The gen validation (dimension caps, integral checks, seed range) is
  // shared with the registration API: a protocol line and a GeneratorSpec
  // are the same thing.
  return buildGeneratorMatrix(GeneratorSpec{Command.GenFamily,
                                            Command.GenArgs});
}

size_t TraceScript::matrixIndex(const std::string &Name) const {
  for (size_t I = 0; I < Matrices.size(); ++I)
    if (Matrices[I].first == Name)
      return I;
  return npos;
}

Expected<TraceScript> seer::parseTrace(const std::string &Text) {
  const auto Fail = [](size_t LineNo, const std::string &Message) {
    return Status::invalidArgument("trace line " + std::to_string(LineNo) +
                                   ": " + Message);
  };

  TraceScript Script;
  bool SawCommand = false;
  const std::vector<std::string> Lines = splitString(Text, '\n');
  for (size_t LineNo = 1; LineNo <= Lines.size(); ++LineNo) {
    TraceCommand Command;
    if (const Status S = parseTraceLine(Lines[LineNo - 1], Command); !S.ok())
      return Fail(LineNo, S.message());

    const auto RequireDefined = [&]() -> size_t {
      return Script.matrixIndex(Command.Name);
    };

    switch (Command.Command) {
    case TraceCommand::Kind::Blank:
      continue;
    case TraceCommand::Kind::Version:
      // Every trace parses under one grammar; the header is a no-op.
      if (SawCommand)
        return Fail(LineNo, "'seer-trace v2' must be the first command");
      break;
    case TraceCommand::Kind::Stats:
    case TraceCommand::Kind::Quit:
      return Fail(LineNo, "control commands are not allowed in traces");
    case TraceCommand::Kind::Fault: {
      TraceScript::Op Op;
      Op.Command = TraceScript::Op::Kind::Fault;
      Op.FaultSpec = Command.FaultSpec;
      Script.Ops.push_back(Op);
      break;
    }
    case TraceCommand::Kind::Metrics:
    case TraceCommand::Kind::Spans: {
      TraceScript::Op Op;
      Op.Command = Command.Command == TraceCommand::Kind::Metrics
                       ? TraceScript::Op::Kind::Metrics
                       : TraceScript::Op::Kind::Spans;
      Op.SpanCount = Command.SpanCount;
      Script.Ops.push_back(Op);
      break;
    }
    case TraceCommand::Kind::Load: {
      if (Script.matrixIndex(Command.Name) != TraceScript::npos)
        return Fail(LineNo, "duplicate matrix name '" + Command.Name + "'");
      auto M = readMatrixMarketFile(Command.Path);
      if (!M)
        return Fail(LineNo, M.status().message());
      Script.Matrices.emplace_back(Command.Name, std::move(*M));
      break;
    }
    case TraceCommand::Kind::Gen: {
      if (Script.matrixIndex(Command.Name) != TraceScript::npos)
        return Fail(LineNo, "duplicate matrix name '" + Command.Name + "'");
      auto M = buildTraceMatrix(Command);
      if (!M)
        return Fail(LineNo, M.status().message());
      Script.Matrices.emplace_back(Command.Name, std::move(*M));
      break;
    }
    case TraceCommand::Kind::Open:
    case TraceCommand::Kind::Close:
    case TraceCommand::Kind::Batch: {
      const size_t Index = RequireDefined();
      if (Index == TraceScript::npos)
        return Fail(LineNo, "unknown matrix '" + Command.Name + "'");
      TraceScript::Op Op;
      Op.Command = Command.Command == TraceCommand::Kind::Open
                       ? TraceScript::Op::Kind::Open
                       : Command.Command == TraceCommand::Kind::Close
                             ? TraceScript::Op::Kind::Close
                             : TraceScript::Op::Kind::Batch;
      Op.MatrixIndex = Index;
      Op.Iterations = Command.Iterations;
      Op.BatchCount = Command.BatchCount;
      Script.Ops.push_back(Op);
      break;
    }
    case TraceCommand::Kind::Select:
    case TraceCommand::Kind::Execute: {
      const size_t Index = RequireDefined();
      if (Index == TraceScript::npos)
        return Fail(LineNo, "unknown matrix '" + Command.Name + "'");
      TraceScript::Op Op;
      Op.Command = Command.Command == TraceCommand::Kind::Select
                       ? TraceScript::Op::Kind::Select
                       : TraceScript::Op::Kind::Execute;
      Op.MatrixIndex = Index;
      Op.Iterations = Command.Iterations;
      Op.Verify = Command.Verify;
      Script.Ops.push_back(Op);
      break;
    }
    }
    SawCommand = true;
  }
  return Script;
}

Expected<TraceScript> seer::readTraceFile(const std::string &Path) {
  std::ifstream Stream(Path);
  if (!Stream)
    return Status::notFound("cannot open trace file '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return parseTrace(Buffer.str());
}

//===----------------------------------------------------------------------===//
// Output formatting
//===----------------------------------------------------------------------===//

std::vector<std::vector<double>> seer::buildBatchOperands(uint32_t Count,
                                                          uint32_t Cols) {
  std::vector<std::vector<double>> Operands(Count);
  for (uint32_t K = 0; K < Count; ++K) {
    Rng OpRng(K);
    Operands[K].resize(Cols);
    for (double &V : Operands[K])
      V = OpRng.uniform(-1.0, 1.0);
  }
  return Operands;
}

std::string seer::formatBatchResponseLine(const std::string &Name,
                                          const BatchResponse &Response,
                                          const KernelRegistry &Registry) {
  char Buffer[512];
  const int Written = std::snprintf(
      Buffer, sizeof(Buffer),
      "%s kernel=%s route=%s cache=%s iterations=%u batch=%zu "
      "overhead_ms=%.6f preprocess_ms=%.6f amortized=%d iteration_ms=%.6f "
      "total_ms=%.6f",
      Name.c_str(),
      Registry.kernel(Response.Selection.KernelIndex).name().c_str(),
      Response.Selection.UsedGatheredModel ? "gathered" : "known",
      Response.CacheHit ? "hit" : "miss", Response.Iterations,
      Response.operands(), Response.Selection.overheadMs(),
      Response.PreprocessMs, Response.PreprocessAmortized ? 1 : 0,
      Response.IterationMs, Response.totalMs());
  // snprintf returns the untruncated would-be length: clamp so an
  // oversized NAME yields a truncated line, not an out-of-bounds read.
  const size_t Length =
      Written > 0 ? std::min(static_cast<size_t>(Written), sizeof(Buffer) - 1)
                  : 0;
  std::string Line(Buffer, Length);
  if (Response.Degraded)
    Line += " degraded=1";
  return Line;
}

std::string seer::formatResponseLine(const std::string &Name,
                                     const ServeResponse &Response,
                                     const KernelRegistry &Registry) {
  char Buffer[512];
  // As in formatBatchResponseLine: snprintf reports the untruncated
  // length, so clamp every chunk to what actually fits in the buffer.
  const auto Fitted = [&Buffer](int Written) {
    return Written > 0
               ? std::min(static_cast<size_t>(Written), sizeof(Buffer) - 1)
               : 0;
  };
  int Written = std::snprintf(
      Buffer, sizeof(Buffer),
      "%s kernel=%s route=%s cache=%s iterations=%u overhead_ms=%.6f",
      Name.c_str(),
      Registry.kernel(Response.Selection.KernelIndex).name().c_str(),
      Response.Selection.UsedGatheredModel ? "gathered" : "known",
      Response.CacheHit ? "hit" : "miss", Response.Iterations,
      Response.Selection.overheadMs());
  std::string Line(Buffer, Fitted(Written));
  if (Response.Executed) {
    Written = std::snprintf(
        Buffer, sizeof(Buffer),
        " preprocess_ms=%.6f amortized=%d iteration_ms=%.6f total_ms=%.6f",
        Response.PreprocessMs, Response.PreprocessAmortized ? 1 : 0,
        Response.IterationMs, Response.totalMs());
    Line.append(Buffer, Fitted(Written));
  }
  if (Response.OracleChecked) {
    Written = std::snprintf(
        Buffer, sizeof(Buffer), " oracle=%s mispredict=%d regret_ms=%.6f",
        Registry.kernel(Response.OracleKernelIndex).name().c_str(),
        Response.Mispredicted ? 1 : 0, Response.RegretMs);
    Line.append(Buffer, Fitted(Written));
  }
  if (Response.Degraded)
    Line += " degraded=1";
  return Line;
}

std::string seer::formatSpanLines(const std::vector<TraceSpan> &Spans,
                                  size_t MaxCount) {
  const size_t Count = std::min(MaxCount, Spans.size());
  std::string Out;
  // Newest spans are the most interesting ones: print the tail of the
  // start-time-sorted drain, oldest of the window first.
  for (size_t I = Spans.size() - Count; I < Spans.size(); ++I) {
    const TraceSpan &S = Spans[I];
    char Buffer[256];
    int Written = std::snprintf(Buffer, sizeof(Buffer),
                                "span %s start_ns=%" PRIu64 " dur_ns=%" PRIu64
                                " request_id=%" PRIu64 " tid=%" PRIu64,
                                S.Name, S.StartNs, S.DurNs, S.RequestId,
                                S.ThreadId);
    size_t Length =
        Written > 0 ? std::min(static_cast<size_t>(Written), sizeof(Buffer) - 1)
                    : 0;
    Out.append(Buffer, Length);
    if (S.TagKey) {
      Written = std::snprintf(Buffer, sizeof(Buffer), " %s=%g", S.TagKey,
                              S.TagValue);
      Length = Written > 0
                   ? std::min(static_cast<size_t>(Written), sizeof(Buffer) - 1)
                   : 0;
      Out.append(Buffer, Length);
    }
    Out += '\n';
  }
  Out += "ok spans " + std::to_string(Count) + "\n";
  return Out;
}

std::string seer::formatErrorLine(const Status &Error) {
  assert(!Error.ok() && "error line for an OK status");
  return std::string("error ") + statusCodeName(Error.code()) + " " +
         Error.message();
}
