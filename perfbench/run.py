#!/usr/bin/env python3
"""The repository benchmark: builds the tree, runs one workload, checks it.

    python3 perfbench/run.py --workload sweep-train|serve-hot|fleet-churn \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N --seconds S]   # every workload
    python3 perfbench/run.py --smoke                       # self-test

Run from the root of a checkout. The tree is built from source into
.bench_build (the repository's own CMake build of the library and of
seer-serve / seer-lb, plus seer_perfbench from perfbench/src). A run prints
each metric by name with its unit, then, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones, taken from a separate traced run. The exit code is non-zero on any
failed operation or output mismatch. A full record of every run, with its
provenance (perfbench/provenance.json, /proc/stat steal, load average), is
written to .bench_build/perfbench-results/.
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
STATE = os.path.join(BUILD, "perfbench-state")
RESULTS = os.path.join(BUILD, "perfbench-results")
TOOL = os.path.join(BUILD, "seer_perfbench")
SERVE = os.path.join(BUILD, "seer", "seer-serve")
LB = os.path.join(BUILD, "seer", "seer-lb")

WORKLOADS = ("sweep-train", "serve-hot", "fleet-churn")
FLEET_SHARDS = 2
FLEET_SETUPS = 15
# Per-shard cache budget of fleet-churn, one cache shard per server so the
# budget is one slice. The client measures every member's entry at set-up
# and fails the run unless each paid entry fits a slice; the paid working
# set is about three times the two shards' combined budget.
SHARD_BUDGET_BYTES = 12 << 20
SMOKE_SHARD_BUDGET_BYTES = 2 << 10
# No single run may outlive this (the harness itself stops at --seconds).
RUN_TIMEOUT_S = 170
# Parents whose direct children must explain at least this share of the
# median span (the conservation rule).
COVERAGE_FLOOR_PCT = 90.0
GATED_PARENTS = ("bench.round", "bench.sweep.member", "bench.replay.member",
                 "bench.api.serve", "bench.api.batch", "serve.request",
                 "bench.net.request")


class BenchError(Exception):
    """A failure that stops the run before it can print a result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# -- Build -------------------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    with open(log_path, "w") as out:
        for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed (log: %s)" % log_path)


# -- Processes ---------------------------------------------------------------

def stale_fleet():
    """Pids of seer-serve / seer-lb processes already running."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/comm") as f:
                if f.read().strip() in ("seer-serve", "seer-lb"):
                    found.append(int(entry))
        except OSError:
            pass
    return found


def stop(procs):
    """SIGTERM, then SIGKILL after a grace period; always reaps."""
    for p in procs:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 10
    for p in procs:
        try:
            p.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def machine_state():
    with open("/proc/stat") as f:
        cpu = [int(v) for v in f.readline().split()[1:]]
    with open("/proc/loadavg") as f:
        load = [float(v) for v in f.read().split()[:3]]
    return {"steal_ticks": cpu[7] if len(cpu) > 7 else 0,
            "total_ticks": sum(cpu), "loadavg": load}


# -- The fleet ---------------------------------------------------------------

def read_frame(sock):
    def exact(n):
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            if not chunk:
                raise BenchError("fleet closed the connection")
            data += chunk
        return data
    (length,) = struct.unpack("<I", exact(4))
    return exact(length)


def round_trip(sock, payload):
    sock.sendall(struct.pack("<I", len(payload)) + payload)
    return read_frame(sock)


def bench_cpu():
    """The one CPU every workload runs on: the serial in-process workloads,
    and the client, the balancer and the shards of fleet-churn. Runs then
    differ only in time, never in which virtual CPU they landed on. The
    closed loop keeps one request in flight, so the fleet would not run in
    parallel anyway; on one CPU each hop between its processes is a local
    context switch instead of a cross-CPU wake-up, and a steal episode on
    another virtual CPU cannot stall a request. The benchmark pins itself
    there once the build is done, so its children inherit the CPU, and
    the fleet's set-up (spawn, wait for the port files, the first round
    trip) hops between processes the same way the timed phase does."""
    return max(os.sched_getaffinity(0))


def spawn(cmd, **kwargs):
    """Starts cmd set to receive SIGTERM when the benchmark process dies,
    so no child outlives it. Without a preexec_fn Python starts children
    with vfork, which keeps the harness's own share of set-up time small
    and steady."""
    if shutil.which("setpriv"):
        cmd = ["setpriv", "--pdeathsig", "TERM"] + cmd
    else:
        def die_with_parent():
            ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)
        kwargs["preexec_fn"] = die_with_parent
    return subprocess.Popen(cmd, **kwargs)


class Fleet:
    """Two seer-serve shards behind seer-lb on loopback."""

    def __init__(self, run_dir, bundle, budget, trace):
        self.procs = []
        self.traces = []
        self.run_dir = run_dir
        self.bundle = bundle
        self.budget = budget
        self.trace = trace
        self.log = open(os.path.join(run_dir, "fleet.log"), "a")

    def start(self):
        ports = []
        for i in range(FLEET_SHARDS):
            port_file = os.path.join(self.run_dir, f"shard{i}.port")
            cmd = [SERVE, "--models", self.bundle, "--listen", "127.0.0.1:0",
                   "--port-file", port_file, "--cache-budget",
                   str(self.budget), "--cache-shards", "1"]
            if self.trace:
                trace = os.path.join(self.run_dir, f"shard{i}.trace.json")
                self.traces.append(trace)
                cmd += ["--trace-out", trace]
            self.procs.append(self.start_child(cmd))
            ports.append(self.wait_port(port_file))
        lb_port_file = os.path.join(self.run_dir, "lb.port")
        self.procs.insert(0, self.start_child(
            [LB, "--shards", ",".join(f"127.0.0.1:{p}" for p in ports),
             "--listen", "127.0.0.1:0", "--port-file", lb_port_file]))
        self.port = self.wait_port(lb_port_file)
        # Ready once a stats op has crossed the balancer to every shard.
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=60) as sock:
            if round_trip(sock, b"\x01" + struct.pack("<I", 1))[:1] != b"\x81":
                raise BenchError("balancer refused the hello")
            if round_trip(sock, b"\x08")[:1] != b"\x86":
                raise BenchError("stats through the balancer failed")
        return self

    def start_child(self, cmd):
        return spawn(cmd, stdout=subprocess.DEVNULL, stderr=self.log)

    def wait_port(self, path):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if any(p.poll() is not None for p in self.procs):
                raise BenchError("a fleet process exited during start-up")
            try:
                with open(path) as f:
                    text = f.read()
                if text.endswith("\n"):
                    os.remove(path)
                    return int(text)
            except OSError:
                pass
            time.sleep(0.0002)
        raise BenchError(f"no port file {path}")

    def pids(self):
        return [p.pid for p in self.procs]

    def stop(self):
        stop(self.procs)
        self.log.close()
        for p in self.procs:
            if p.returncode not in (0, -signal.SIGTERM):
                raise BenchError(f"fleet process exited with {p.returncode}")
        self.procs = []


# -- Span analysis -------------------------------------------------------------

LAYER_PREFIXES = (("bench.sparse.", "sparse"), ("bench.core.", "core"),
                  ("bench.kernels.", "kernels"), ("bench.ml.", "ml"),
                  ("bench.api.", "api"), ("bench.net.", "net"),
                  ("plan.prepare", "kernels"), ("plan.run", "kernels"),
                  ("plan.", "core"), ("cache.", "serve"), ("serve.", "serve"),
                  ("queue.", "support"), ("net.request", "net"))


# Spans that group a request or round; they belong to no layer.
GROUPING_SPANS = ("bench.round", "bench.sweep.member", "bench.replay.member",
                  "bench.net.request")


def layer_of(name):
    if name in GROUPING_SPANS:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


def load_spans(path, across_threads):
    """Spans of one Chrome trace with their nesting resolved: each gets its
    direct children's total and its self time. Nesting is per thread; a
    shard serves one request at a time, so its trace nests across threads."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    spans = [{"name": e["name"], "start": e["ts"], "end": e["ts"] + e["dur"],
              "dur": e["dur"], "args": e.get("args", {}),
              "key": 0 if across_threads else e["tid"], "children": []}
             for e in events]
    spans.sort(key=lambda s: (s["key"], s["start"], -s["dur"]))
    stack = []
    for span in spans:
        while stack and (stack[-1]["key"] != span["key"] or
                         stack[-1]["end"] < span["end"] - 1e-3):
            stack.pop()
        if stack:
            stack[-1]["children"].append(span)
        stack.append(span)
    for span in spans:
        span["child_us"] = sum(c["dur"] for c in span["children"])
        span["self_us"] = max(0.0, span["dur"] - span["child_us"])
    return spans


def layer_time(span):
    """Self time of a call span plus that of its same-layer descendants."""
    layer = layer_of(span["name"])
    return span["self_us"] + sum(layer_time(c) for c in span["children"]
                                 if layer_of(c["name"]) == layer)


def span_layers(spans, kernels, layers):
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def mean_time(name, kernel=None):
        chosen = [s for s in by_name.get(name, [])
                  if kernel is None or s["args"].get("kernel") == kernel]
        return (sum(layer_time(s) for s in chosen) / len(chosen)
                if chosen else 0.0)

    for metric, name in (("sparse.generate_us", "bench.sparse.generate"),
                         ("sparse.multiply_us", "bench.sparse.multiply"),
                         ("core.analyze_us", "bench.core.analyze"),
                         ("core.evaluate_us", "bench.core.evaluate"),
                         ("ml.train_us", "bench.ml.train"),
                         ("api.register_us", "bench.api.register"),
                         ("api.serve_us", "bench.api.serve"),
                         ("api.batch_us", "bench.api.batch"),
                         ("net.open_us", "bench.net.open"),
                         ("net.execute_us", "bench.net.execute"),
                         ("net.close_us", "bench.net.close")):
        layers[metric] = mean_time(name)
    multiply = layers["sparse.multiply_us"]
    for index, key in enumerate(kernels):
        layers[f"kernels.prepare_us.{key}"] = mean_time(
            "bench.kernels.prepare", index)
        run = mean_time("bench.kernels.run", index)
        layers[f"kernels.run_us.{key}"] = run
        layers[f"kernels.run_over_multiply.{key}"] = (
            run / multiply if multiply > 0 else 0.0)


def coverage(spans, parents):
    """Per parent span name: median direct-children time over median span
    time, in percent."""
    result = {}
    for name in parents:
        chosen = [s for s in spans if s["name"] == name]
        if chosen:
            result[name] = 100.0 * (
                statistics.median(s["child_us"] for s in chosen) /
                max(statistics.median(s["dur"] for s in chosen), 1e-9))
    return result


# -- Running a workload ----------------------------------------------------------

def run_tool(args, extra):
    cmd = [TOOL, args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--state", STATE] + extra
    if args.smoke:
        cmd.append("--smoke")
    proc = spawn(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"seer_perfbench ran past {RUN_TIMEOUT_S} s")
    except BaseException:
        stop([proc])
        raise
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"seer_perfbench exited {proc.returncode} "
                         "without a result")
    record = json.loads(lines[-1])
    record["exit_code"] = proc.returncode
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def run_fleet(args, run_dir, trace_out):
    """fleet-churn: set up the fleet several times (timed), keep the last,
    drive it with the client, read its peak RSS, stop it."""
    budget = SMOKE_SHARD_BUDGET_BYTES if args.smoke else SHARD_BUDGET_BYTES
    bundle = args.bundle
    setups = []
    fleet = None
    try:
        for _ in range(FLEET_SETUPS):
            if fleet:
                fleet.stop()
            fleet = Fleet(run_dir, bundle, budget, trace_out is not None)
            start = time.monotonic()
            fleet.start()
            setups.append(time.monotonic() - start)
        extra = ["--trace", "1" if trace_out else "0", "--lb-port",
                 str(fleet.port), "--fleet-pids",
                 ",".join(map(str, fleet.pids()))]
        if trace_out:
            extra += ["--trace-out", trace_out]
        record = run_tool(args, extra)
        record["setup_s"] = setups
        fleet_rss = [peak_rss_mb(p) for p in fleet.pids()]
        record["notes"]["peak_rss_mb_client_lb_shards"] = str(
            [round(record["peak_rss_mb"], 1)] + [round(v, 1) for v in fleet_rss])
        record["peak_rss_mb"] += sum(fleet_rss)
        record["shard_traces"] = fleet.traces
    finally:
        if fleet:
            fleet.stop()
    return record


def run_workload(args):
    run_dir = os.path.join(BUILD, f"perfbench-run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.workload == "fleet-churn":
            if args.trace:
                # Untraced and traced halves on their own fleets: the
                # shards arm their span recorders only with --trace-out.
                half = argparse.Namespace(**vars(args))
                half.seconds = args.seconds / 2
                plain = run_fleet(half, run_dir, None)
                record = run_fleet(half, run_dir,
                                   os.path.join(run_dir, "client.trace.json"))
                record["untraced_wall_s"] = median(plain["round_wall_s"])
                record["traced_wall_s"] = median(record["round_wall_s"])
                record["attempted"] += plain["attempted"]
                record["failed"] += plain["failed"]
                record["errors"] += plain["errors"]
                record["exit_code"] = max(record["exit_code"],
                                          plain["exit_code"])
            else:
                record = run_fleet(args, run_dir, None)
        else:
            extra = ["--trace", "1" if args.trace else "0"]
            if args.trace:
                extra += ["--trace-out",
                          os.path.join(run_dir, "client.trace.json")]
            record = run_tool(args, extra)
        if args.trace:
            record["coverage_pct"] = trace_layers(record, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return record


def trace_layers(record, run_dir):
    layers = record["layers"]
    spans = load_spans(os.path.join(run_dir, "client.trace.json"), False)
    span_layers(spans, record["kernels"], layers)
    covered = coverage(spans, GATED_PARENTS)
    layers["trace.min_coverage_pct"] = min(covered.values()) if covered else 0.0
    # The shards' net.request spans are reported, not gated: the program
    # records no span for wire decode, registration or reply encode inside
    # them, so their children explain only part of each.
    shard_coverage = [pct for path in record.get("shard_traces", [])
                      for pct in coverage(load_spans(path, True),
                                          ("net.request",)).values()]
    if shard_coverage:
        layers["trace.shard_coverage_pct"] = min(shard_coverage)
    untraced = record["untraced_wall_s"]
    layers["support.trace_overhead_pct"] = (
        100.0 * (record["traced_wall_s"] / untraced - 1.0) if untraced else 0.0)
    return covered


def layer_rules(spec, kernels):
    """Per per-layer metric: the workloads that exercise it and what a
    healthy value is there (provenance.json's layer map, <k> expanded)."""
    rules = {}
    for group in spec["provenance"]["layers"]:
        for name in group["metrics"]:
            for key in (kernels if "<k>" in name else [None]):
                full = name.replace("<k>", key) if key else name
                rules[full] = (group["exercised_by"], group["healthy"])
    return rules


def metrics_of(record, spec, workload, trace):
    """The contract's metrics object for one run, and the problems found
    in it. A metric the workload exercises must have been measured (and
    per layer, read as healthy); one it does not exercise reads 0."""
    problems = []
    if trace:
        values = record["layers"]
        wanted = spec["per_layer"]
        rules = layer_rules(spec, record["kernels"])
    else:
        latency = record["latency_us"]
        values = dict(record["modeled"])
        values.update({
            "setup_s": median(record["setup_s"]),
            "wall_s": median(record["round_wall_s"]),
            "cpu_s": median(record["round_cpu_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
        })
        if "p50" in latency:
            values["latency_p50_us"] = latency["p50"]
            values["latency_p99_us"] = latency["p99"]
        wanted = spec["end_to_end"]
        rules = {}
    metrics = {}
    for m in wanted:
        name = m["name"]
        exercised_by, healthy = rules.get(name, (WORKLOADS, "any"))
        if name not in rules and trace:
            problems.append(f"{name} is missing from the layer map")
        if workload not in exercised_by:
            value = 0.0
        elif name in values and values[name] is not None:
            value = float(values[name])
            if not math.isfinite(value):
                problems.append(f"{name} is {value}")
            elif healthy == "nonzero" and value == 0.0:
                problems.append(f"{name} reads 0 on a workload that "
                                "exercises it")
            elif healthy == "zero" and value != 0.0:
                problems.append(f"{name} is {value}, expected 0")
        else:
            value = 0.0
            problems.append(f"{name} was not measured")
        metrics[name] = {"value": value, "unit": m["unit"]}
    if trace:
        for parent, pct in record["coverage_pct"].items():
            if pct < COVERAGE_FLOOR_PCT:
                problems.append(f"conservation: the layers explain "
                                f"{pct:.1f}% of {parent}, below "
                                f"{COVERAGE_FLOOR_PCT}%")
    return metrics, problems


def run_one(args, spec):
    """Runs one workload and prints its report and result line. Returns the
    exit code."""
    before = machine_state()
    record = run_workload(args)
    after = machine_state()
    metrics, problems = metrics_of(record, spec, args.workload, args.trace)
    ticks = max(1, after["total_ticks"] - before["total_ticks"])
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "steal_pct": 100.0 * (after["steal_ticks"] - before["steal_ticks"]) /
        ticks,
        "loadavg_before": before["loadavg"], "loadavg_after": after["loadavg"],
        "rounds": len(record["round_wall_s"]),
        "latency_samples": record["latency_us"].get("samples", 0),
        "notes": record["notes"],
    }
    correct = (record["failed"] == 0 and record["exit_code"] == 0 and
               not problems)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{args.workload} provenance: {json.dumps(provenance)}")
    if args.trace:
        print(f"{args.workload} coverage_pct: "
              f"{json.dumps(record['coverage_pct'])}")
    for error in record["errors"] + problems:
        log(error)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump({"provenance": provenance,
                   "static_provenance": spec["provenance"],
                   "metrics": metrics, "problems": problems, "raw": record},
                  f, indent=1)
    result = {"correct": correct, "attempted": int(record["attempted"]),
              "failed": int(record["failed"]) + len(problems),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "provenance.json")) as f:
        spec["provenance"] = json.load(f)
    return spec


def smoke(args, spec):
    """Self-test: every workload at tiny size, untraced and traced, each
    through the command line as the benchmark is run. Each must pass (so
    every output check, every exercised layer and the conservation rule
    hold), print every metric of its mode by name with its unit, and end
    with the contract's result line."""
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            what = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
                timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{what}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{what}: malformed result line")
                continue
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not any(
                        line.startswith(f"{workload} {m['name']} = ") and
                        line.endswith(f" {m['unit']}") for line in lines):
                    failures.append(f"{what}: {m['name']} not reported "
                                    f"in {m['unit']}")
            if len(result["metrics"]) != len(
                    spec["per_layer" if trace else "end_to_end"]):
                failures.append(f"{what}: unexpected metrics")
    for failure in failures:
        log(failure)
    print(json.dumps({"smoke": "fail" if failures else "ok"}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; with no --workload, the self-test")
    args = parser.parse_args()
    args.trace = bool(args.trace)
    if not args.workload and not args.all and not args.smoke:
        parser.error("one of --workload, --all or --smoke is required")

    # Stop cleanly (children reaped by the finally blocks) on SIGTERM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        spec = load_spec()
        stale = stale_fleet()
        if stale:
            raise BenchError(f"stale seer-serve/seer-lb running: {stale}")
        build()
        os.makedirs(STATE, exist_ok=True)
        bundle = subprocess.run([TOOL, "prepare-bundle", "--state", STATE] +
                                (["--smoke"] if args.smoke else []), cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        if bundle.returncode != 0 or not bundle.stdout.strip():
            raise BenchError("could not train the serving bundle")
        # This build's bundle: the shards must load the one the client's
        # references are computed from.
        args.bundle = bundle.stdout.strip().splitlines()[-1]
        os.sched_setaffinity(0, {bench_cpu()})
        if args.smoke and not args.workload:
            return smoke(args, spec)
        if args.all:
            codes = []
            for workload in WORKLOADS:
                args.workload = workload
                codes.append(run_one(args, spec))
            return max(codes)
        return run_one(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
