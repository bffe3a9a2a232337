#!/usr/bin/env python3
"""Runs the whole benchmark: every workload, both passes, one JSON file.

  python3 benchsuite/suite.py [--seed N] [--workloads a,b] [--out FILE]
  python3 benchsuite/suite.py --compare BEFORE.json AFTER.json

Each workload runs twice through benchsuite/run.py (its own process
each time, for BENCHMARK.json's run_seconds): the timed pass for the
end-to-end metrics, then the layer pass for the per-layer metrics. Every
metric prints as

  workload metric value unit (n, p25, p75)

where n, p25 and p75 describe the samples a median was taken over (blank
for single measurements), followed by each workload's error rate (failed
over attempted checks). Without --seed each workload runs at its default
seed, where the final text must also match benchsuite/digests.json.

--compare checks AFTER against BEFORE under BENCHMARK.json's bounds: an
end-to-end metric that got worse by more than its bound, or any failed check
in AFTER, is a regression (exit code 1). Per-layer changes print alongside,
without a verdict, to show which layer moved.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_suite(workloads, seed):
    seconds = run.benchmark_spec()["run_seconds"]
    results = {}
    for workload in workloads:
        merged = {"attempted": 0, "failed": 0, "metrics": {}}
        for trace in (False, True):
            s = run.DEFAULT_SEEDS[workload] if seed is None else seed
            r = run.run_workload(workload, s, seconds, trace)
            merged["attempted"] += r["attempted"]
            merged["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                m.update(r["samples"].get(name, {}))
                merged["metrics"][name] = m
        merged["error_rate"] = merged["failed"] / merged["attempted"]
        results[workload] = merged
        print_workload(workload, merged)
    return results


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_workload(workload, result):
    for name, m in result["metrics"].items():
        spread = f"({m['n']}, {fmt(m['p25'])}, {fmt(m['p75'])})" if "n" in m else ""
        print(f"{workload:15s} {name:28s} {fmt(m['value']):>14s} {m['unit']:12s} {spread}")
    print(f"{workload:15s} {'error_rate':28s} {fmt(result['error_rate']):>14s} "
          f"{'ratio':12s} ({result['failed']} failed of {result['attempted']})")
    sys.stdout.flush()


def change(before, after, better):
    """Relative change, positive when `after` is worse."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    delta = (after - before) / abs(before)
    return delta if better == "lower" else -delta


def compare(before_path, after_path):
    spec = run.benchmark_spec()
    before = run.load_json(before_path)["results"]
    after = run.load_json(after_path)["results"]
    regressions = 0
    print(f"{'workload':15s} {'metric':28s} {'before':>14s} {'after':>14s} "
          f"{'worse by':>9s}  verdict")
    for workload in sorted(set(before) & set(after)):
        b, a = before[workload], after[workload]
        if a["failed"]:
            regressions += 1
            print(f"{workload:15s} {'error_rate':28s} {fmt(b['error_rate']):>14s} "
                  f"{fmt(a['error_rate']):>14s} {'':>9s}  FAILED CHECKS")
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                name = m["name"]
                if name not in b["metrics"] or name not in a["metrics"]:
                    continue
                vb, va = b["metrics"][name]["value"], a["metrics"][name]["value"]
                worse = change(vb, va, m["better"])
                verdict = ""
                if kind == "end_to_end":
                    bad = worse > m["bound"]
                    regressions += bad
                    verdict = f"REGRESSION (bound {m['bound']})" if bad else "ok"
                print(f"{workload:15s} {name:28s} {fmt(vb):>14s} {fmt(va):>14s} "
                      f"{100 * worse:8.1f}%  {verdict}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=lambda s: int(s, 0))
    parser.add_argument("--workloads")
    parser.add_argument("--out", default="bench_suite.json")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv[1:])
    if args.compare:
        return compare(*args.compare)
    names = [w["name"] for w in run.benchmark_spec()["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    try:
        results = run_suite(workloads, args.seed)
    except run.BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        json.dump({"seed": args.seed, "results": results}, f, indent=1)
    print(f"wrote {args.out}")
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
