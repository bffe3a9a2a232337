#!/usr/bin/env python3
"""Eg-walker benchmark: one workload, one process, one JSON result line.

Usage, from the root of a checkout:

  python3 benchsuite/run.py --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]

The first run builds the `suite` program of benchsuite/CMakeLists.txt, with
the library and compile flags of the root CMakeLists.txt, into
$CARGO_TARGET_DIR, default .bench_build; later runs reuse the build. The
workloads, metrics and bounds are in BENCHMARK.json; benchsuite/layers.json
says which end-to-end metric and workload each per-layer metric should move.

Two journeys share one set of end-to-end metric names:

  editor  one user's document (Table 1 shapes at scale 1.0): a closed loop
          of whole-history merges (Walker::ReplayAll), loads (Doc::Load)
          and saves (Doc::Save) at the server's at-rest format.
          latency_p50_ms / latency_p90_ms time one merge.
  server  a recorded client stream replayed tick by tick into a Router and
          its shard worker (closed loop per tick); whole-document I/O is
          what chain compaction does (Doc::SaveSegment from 0, and
          Doc::LoadChain of that segment).
          latency_p50_ms / latency_p90_ms time one tick (post + barrier).

--trace 0 runs the timed pass (tracing off) and prints the end-to-end
metrics; --trace 1 runs the layer pass (fixed repetitions; server replays
traced) and prints the per-layer metrics. A layer the workload's journey
does not run reports 0. Server self times come from the layer pass's
Chrome trace (span_times below, the same nesting sweep as
tools/summarize_trace.py, kept here so the benchmark reads nothing outside
benchsuite/ but the code it measures).

Every output is checked (see suite.cc); each check is one attempted
operation. At the default seed of a workload the final text's FNV-1a digest
must also match benchsuite/digests.json.

The last line of stdout is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
and the exit code is 0. Any build or run error exits non-zero without it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Default seeds reproduce the Table 1 presets (S3, C2, A2) and bench_server's
# script seed.
DEFAULT_SEEDS = {
    "editor-seq": 0x53,
    "editor-conc": 0xC2,
    "editor-async": 0xA2,
    "server-writers": 41,
    "server-churn": 41,
}
SERVER_WORKLOADS = ("server-writers", "server-churn")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the suite program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "doc.h")):
        raise BenchError("no eg-walker sources under src/: run from a full checkout")
    out = os.path.join(build_dir(), "suite")
    configure = ["cmake", "-S", HERE, "-B", out]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "--target", "suite", "-j", "3"]):
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, "suite")


def run_suite(binary, workload, seed, seconds, layers, trace_out):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if layers:
        cmd += ["--layers", f"--trace-out={trace_out}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: suite timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: suite exited with {done.returncode}")
    return json.loads(lines[-1])


def span_times(events, thread_names):
    """Sums the complete ("X") spans of a Chrome trace by name.

    Returns {name: [total_us, self_us]}, where self time is the span's
    duration minus that of the spans nested directly inside it on the same
    thread, and the total duration of the top-level spans of the shard
    worker threads (their busy time).
    """
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault(e.get("tid"), []).append(e)
    times = {}
    shard_busy_us = 0.0
    for tid, spans in by_tid.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (end_ts, name) of the spans enclosing the current one.
        for e in spans:
            while stack and stack[-1][0] <= e["ts"]:
                stack.pop()
            row = times.setdefault(e["name"], [0.0, 0.0])
            row[0] += e["dur"]
            row[1] += e["dur"]
            if stack:
                times[stack[-1][1]][1] -= e["dur"]
            elif thread_names.get(tid, "").startswith("shard-"):
                shard_busy_us += e["dur"]
            stack.append((e["ts"] + e["dur"], e["name"]))
    return times, shard_busy_us


def trace_layers(trace_path, replays, replay_ms_traced, replay_ms_untraced):
    """Per-replay self times from a server layer-pass trace."""
    doc = load_json(trace_path)
    events = doc["traceEvents"]
    dropped = int(doc.get("otherData", {}).get("dropped_events", 0))
    thread_names = {e.get("tid"): e.get("args", {}).get("name", "")
                    for e in events if e.get("ph") == "M" and e.get("name") == "thread_name"}
    times, shard_busy_us = span_times(events, thread_names)

    def self_ms(name):
        return times.get(name, [0.0, 0.0])[1] / 1000.0 / replays

    replay = times.get("bench.replay", [0.0, 0.0])
    metrics = {
        "router.route_ms": self_ms("router.route"),
        "router.barrier_ms": self_ms("router.barrier"),
        "shard.busy_ms": shard_busy_us / 1000.0 / replays,
        "walker.continue_ms": self_ms("walker.continue"),
        "walker.merge_ms": self_ms("walker.merge"),
        "broker.apply_patch_self_ms": self_ms("broker.apply_patch"),
        "broker.encode_patch_ms": self_ms("broker.encode_patch"),
        "broker.sync_request_self_ms": self_ms("broker.sync_request"),
        "broker.flush_self_ms": self_ms("broker.flush"),
        "registry.flush_self_ms": self_ms("registry.flush"),
        "registry.load_ms": self_ms("registry.load"),
        "registry.compact_ms": self_ms("registry.compact"),
        "net.tick_self_ms": self_ms("net.tick"),
        "trace.coverage": 1.0 - replay[1] / replay[0] if replay[0] > 0 else 0.0,
        "trace.overhead": replay_ms_traced / replay_ms_untraced,
    }
    return metrics, dropped


def run_workload(workload, seed, seconds, trace):
    """Builds if needed, runs one pass, returns the result dict to print."""
    spec = benchmark_spec()
    names = spec["per_layer" if trace else "end_to_end"]
    binary = build()
    trace_out = os.path.join(build_dir(), f"trace-{workload}-{os.getpid()}.json")
    raw = run_suite(binary, workload, seed, seconds, trace, trace_out)
    metrics = dict(raw["metrics"])
    attempted, failed = raw["attempted"], raw["failed"]

    if trace and workload in SERVER_WORKLOADS:
        info = raw["info"]
        derived, dropped = trace_layers(trace_out, info["replays_traced"],
                                        info["replay_ms_traced"], info["replay_ms_untraced"])
        os.remove(trace_out)
        metrics.update(derived)
        attempted += 2
        failed += (dropped != 0) + (derived["trace.coverage"] < 0.9)

    if seed == DEFAULT_SEEDS[workload]:
        digests = load_json(os.path.join(HERE, "digests.json"))
        attempted += 1
        failed += raw["info"]["digest"] != digests[workload]

    layers = load_json(os.path.join(HERE, "layers.json"))
    journey = "server" if workload in SERVER_WORKLOADS else "editor"
    out = {}
    for m in names:
        name = m["name"]
        if name not in metrics:
            if trace and layers[name]["journey"] != journey:
                metrics[name] = 0.0  # This journey never runs the layer.
            else:
                raise BenchError(f"{workload}: suite did not report {name}")
        out[name] = {"value": metrics[name], "unit": m["unit"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
        "samples": raw.get("samples", {}),
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=lambda s: int(s, 0))
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[1:])
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    try:
        result = run_workload(args.workload, seed, args.seconds, args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    del result["samples"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
