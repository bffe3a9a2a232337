#!/usr/bin/env python3
"""A/B runner: the benchmark on two git revisions, interleaved, same machine.

  python3 benchsuite/ab.py BASE CHANGE [--pairs 10] [--workloads a,b] [--layers]

Exports each revision with `git archive` into base/ and change/ of a fresh
temporary directory outside the repository and copies THIS checkout's
benchsuite/ and BENCHMARK.json over both, so the two sides differ only in
the code under test. Each side builds in its own .bench_build tree.

Then runs --pairs rounds (at least 10). Round i runs every workload on both
sides at seed i + 1, for BENCHMARK.json's run_seconds, alternating which
side goes first. For every
workload and end-to-end metric it reports each side's median and quartiles,
the change's win fraction (ties count for neither side), and two verdicts:

  gain           the change wins >= 9/10 of the pairs AND the medians differ
                 by more than the base's own spread (its p75 - p25)
  no-regression  the change's median is not worse than the base's by more
                 than the metric's bound in BENCHMARK.json

--layers adds one layer pass per side per round and prints per-layer
medians, to show which layer a difference comes from.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def export(rev, dest):
    """Checks `rev` out into `dest` and overlays this checkout's benchmark."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE,
                             check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    shutil.rmtree(os.path.join(dest, "benchsuite"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "benchsuite"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run_side(checkout, workload, seed, seconds, trace):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # Each side builds in its own tree.
    cmd = [sys.executable, "benchsuite/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise run.BenchError(f"{checkout}: {workload} seed {seed} failed")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise run.BenchError(f"{checkout}: {workload} seed {seed} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[0], statistics.median(values), q[2]


def report(spec, samples, layers):
    print(f"{'workload':15s} {'metric':26s} {'base p25/p50/p75':>32s} "
          f"{'change p25/p50/p75':>32s} {'wins':>6s}  gain  no-regression")
    for workload, metrics in samples.items():
        for m in spec["end_to_end"]:
            base, new = metrics[m["name"]]["base"], metrics[m["name"]]["change"]
            lower = m["better"] == "lower"
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, new))
            bq, cq = quartiles(base), quartiles(new)
            gap = (bq[1] - cq[1]) if lower else (cq[1] - bq[1])
            gain = wins >= 0.9 * len(base) and gap > bq[2] - bq[0]
            worse = -gap / bq[1] if bq[1] else 0.0
            verdict = "pass" if worse <= m["bound"] else \
                f"FAIL ({100 * worse:.1f}% > {100 * m['bound']:.0f}%)"
            print(f"{workload:15s} {m['name']:26s} "
                  f"{' / '.join(f'{v:.4g}' for v in bq):>32s} "
                  f"{' / '.join(f'{v:.4g}' for v in cq):>32s} "
                  f"{wins:>2d}/{len(base):<3d}  {'yes' if gain else 'no ':4s}  {verdict}")
    if layers:
        print(f"\n{'workload':15s} {'per-layer metric':30s} {'base median':>14s} "
              f"{'change median':>14s}")
        for workload, metrics in layers.items():
            for name, sides in metrics.items():
                print(f"{workload:15s} {name:30s} {statistics.median(sides['base']):14.6g} "
                      f"{statistics.median(sides['change']):14.6g}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv[1:])
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    spec = run.benchmark_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names

    workdir = tempfile.mkdtemp(prefix="egw-ab-")
    sides = {"base": os.path.join(workdir, "base"), "change": os.path.join(workdir, "change")}
    try:
        export(args.base, sides["base"])
        export(args.change, sides["change"])
        samples = {w: {m["name"]: {"base": [], "change": []} for m in spec["end_to_end"]}
                   for w in workloads}
        layers = {w: {} for w in workloads} if args.layers else {}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    values = run_side(sides[side], workload, i + 1, seconds, False)
                    for name, v in values.items():
                        samples[workload][name][side].append(v)
                    if args.layers:
                        values = run_side(sides[side], workload, i + 1, seconds, True)
                        for name, v in values.items():
                            layers[workload].setdefault(
                                name, {"base": [], "change": []})[side].append(v)
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    except (run.BenchError, subprocess.CalledProcessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report(spec, samples, layers)
    print(f"\nbuild trees: {workdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
