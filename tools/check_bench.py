#!/usr/bin/env python3
"""Benchmark-regression gate: compare fresh bench JSON against committed baselines.

Used by the `bench-gate` CI job:

    ./build/bench_fig8_merge --trace=S1,S2,S3 --scale=0.2  --json=ci_fig8_seq.json
    ./build/bench_fig8_merge --trace=C1,C2,A1,A2 --scale=0.05 --json=ci_fig8_conc.json
    ./build/bench_micro --json=ci_micro.json
    ./build/bench_server --json=ci_server.json
    python3 tools/check_bench.py \
        --fig8-baseline BENCH_fig8.json --fig8 ci_fig8_seq.json ci_fig8_conc.json \
        --micro-baseline BENCH_micro.json --micro ci_micro.json \
        --server-baseline BENCH_server.json --server ci_server.json

The committed baselines were measured on a different machine (and, for
fig8, at different trace scales), so absolute times are not comparable.
What IS comparable is the per-row ratio measured/baseline relative to the
other rows: a uniform machine-speed or scale factor shifts every ratio
equally, while a real regression in one code path makes its rows stand
out. The gate therefore normalises each row's ratio by the median ratio
of its group and fails when any row regresses by more than --threshold
(default 30%) against that median. The gate scales are chosen to keep the
baseline proportions (sequential traces 1.0 : concurrent 0.25 == 0.2 :
0.05) so trace-size nonlinearity stays out of the ratios.

A uniform, across-the-board slowdown is invisible to this gate by
construction; it is caught instead by re-measuring interleaved
before/after numbers into BENCH_fig8.json whenever a perf-relevant PR
lands (see ROADMAP's perf-trajectory section).

Micro rows that report an allocs_per_call counter (the patch encoder's
allocation contract) are also gated on it directly: memtrack's counts are
exact and machine-independent, so no normalisation applies.

The sharded bench_server rows additionally get a same-machine scaling
gate: the 4x32w/s4 recorded-load replay must beat 4x32w/s1 by
--server-scaling-min (2x) whenever the fresh measurement ran on >= 4
hardware threads (see SERVER_SCALING below).
"""

import argparse
import json
import statistics
import sys

# Rows whose mean is below this many ms in either measurement are too noisy
# to gate on (timer jitter dominates).
DEFAULT_MIN_MS = 0.5

# fig8 algorithms worth gating: the hot paths this repo optimises. OT rows
# are excluded entirely — OT replay is quadratic in the concurrency window,
# so its measured/baseline ratio shifts with trace scale in a way the
# median normalisation cannot cancel.
FIG8_ALGORITHMS = (
    "eg-walker (merge)",
    "eg-walker/OT (cached load)",
    "ref CRDT (merge=load)",
    "naive CRDT (merge=load)",
)

# bench_server phases worth gating. The soak phase is the end-to-end
# throughput headline; flush/reload are skipped — they sit at or below the
# min-ms noise floor on the fixed scenario sizes.
SERVER_PHASES = ("server soak",)

# The sharded rows (<scenario>/sN) time recorded-load replay through N shard
# worker threads, so their wall clock depends on the measuring machine's
# core count — a 4-core runner and a 1-core baseline box disagree by design.
# Rows with shards >= 2 are therefore excluded from the cross-machine time
# gate and covered instead by the same-machine scaling check: for each
# scenario listed here, the s4 row must beat the s1 row by at least
# --server-scaling-min (default 2x). The check reads the `shards` and
# `hw_threads` annotations the bench stamps on every soak row and skips
# (loudly) when the bench ran on fewer than 4 hardware threads, where the
# speedup is physically unobtainable. The s1 rows run the full threaded
# path on one worker, so they stay in the time gate and keep the router/
# queue overhead under the ordinary regression threshold.
SERVER_SCALING = ("4x32w",)

# Convergence-latency rows below this many converged edits are too small a
# sample for a stable p99.
CONVERGENCE_MIN_COUNT = 20


def load_fig8_rows(path, section=None):
    """Returns {(trace, algorithm): mean_ms} from a bench --json file, or from
    a committed before/after document when `section` is given."""
    with open(path) as f:
        doc = json.load(f)
    if section is not None:
        doc = doc[section]
    rows = {}
    for part in doc.values() if "rows" not in doc else [doc]:
        for row in part["rows"]:
            key = (row["trace"], row["algorithm"])
            rows[key] = row["mean_ms"]
    return rows


def load_full_rows(path, section=None):
    """Like load_fig8_rows but keeps the whole row dict (annotations such as
    shards/hw_threads included): {(trace, algorithm): row}."""
    with open(path) as f:
        doc = json.load(f)
    if section is not None:
        doc = doc[section]
    rows = {}
    for part in doc.values() if "rows" not in doc else [doc]:
        for row in part["rows"]:
            rows[(row["trace"], row["algorithm"])] = row
    return rows


def load_micro_counters(path, counter):
    """Returns {name: value of `counter`} for the google-benchmark rows that
    report it."""
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: float(b[counter]) for b in doc.get("benchmarks", [])
            if b.get("run_type", "iteration") != "aggregate" and counter in b}


def load_micro_rows(path):
    """Returns {name: time_ns} from google-benchmark JSON output."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") == "aggregate":
            continue
        unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
        rows[b["name"]] = b["real_time"] * unit
    return rows


def row_label(key):
    return " | ".join(key) if isinstance(key, tuple) else key


def check_group(name, baseline, measured, threshold, min_ms=None):
    """Returns the number of failing rows in one comparable group.

    Every skipped row is printed with its reason: a silently dropped row
    reads as "covered" when it is not."""
    pairs = []
    for key in sorted(set(baseline) | set(measured)):
        if key not in baseline:
            print(f"[{name}] skip {row_label(key)}: not in baseline "
                  f"(new row; re-measure the committed baseline to gate it)")
            continue
        if key not in measured:
            print(f"[{name}] skip {row_label(key)}: in baseline but not "
                  f"measured this run")
            continue
        base, meas = baseline[key], measured[key]
        if base <= 0:
            print(f"[{name}] skip {row_label(key)}: non-positive baseline "
                  f"({base})")
            continue
        if min_ms is not None and (base < min_ms or meas < min_ms):
            print(f"[{name}] skip {row_label(key)}: below the {min_ms} ms "
                  f"noise floor (base {base:.3f} / meas {meas:.3f} ms)")
            continue
        pairs.append((key, base, meas, meas / base))
    if len(pairs) < 3:
        print(f"[{name}] only {len(pairs)} comparable rows - skipping gate")
        return 0
    median = statistics.median(r for (_, _, _, r) in pairs)
    if median <= 0:
        print(f"[{name}] degenerate median ratio - skipping gate")
        return 0
    limit = 1.0 + threshold
    failures = 0
    print(f"[{name}] {len(pairs)} rows, median measured/baseline ratio "
          f"{median:.3f} (machine/scale factor, normalised out)")
    for key, base, meas, ratio in pairs:
        norm = ratio / median
        flag = "FAIL" if norm > limit else "ok"
        if norm > limit:
            failures += 1
        print(f"  {flag:4} {row_label(key):<55} base {base:>12.4f}  meas {meas:>12.4f}"
              f"  norm x{norm:.3f}")
    return failures


# The two committed storm widths: per-insert scan work is compared between
# them (narrow, wide) = (1024, 4096) — 4x the sibling-group width.
STORM_SUBLINEAR = ("storm-1k", "storm")


def check_storm_sublinearity(measured_full, max_ratio):
    """Gates sub-quadratic sibling-group integration (the YATA storm wall).

    The storm presets have fixed, deterministic shapes and the walker's
    YataStats counters annotated on their eg-walker rows are exact event
    counts, not wall clock — so this is a direct same-run comparison, no
    baseline or median normalisation. Per-insert integration work is
    (scan_steps + or_scan_steps + cmp_steps) / insert_events; quadrupling
    the group width must grow it by at most --storm-sublinear-max (linear
    growth would be ~4x, the naive quadratic scan ~4x on top of an already
    width-proportional base, logarithmic ~1.2x)."""
    narrow = measured_full.get((STORM_SUBLINEAR[0], "eg-walker (merge)"))
    wide = measured_full.get((STORM_SUBLINEAR[1], "eg-walker (merge)"))
    if narrow is None or wide is None:
        print("[storm] skip sub-linearity gate: storm-1k/storm eg-walker rows "
              "not both measured this run")
        return 0

    def steps_per_insert(row):
        steps = (float(row.get("scan_steps", 0)) + float(row.get("or_scan_steps", 0)) +
                 float(row.get("cmp_steps", 0)))
        inserts = float(row.get("insert_events", 0))
        return steps / inserts if inserts > 0 else None

    spi_narrow = steps_per_insert(narrow)
    spi_wide = steps_per_insert(wide)
    if spi_narrow is None or spi_wide is None or spi_narrow <= 0:
        print("[storm] skip sub-linearity gate: rows lack scan-counter "
              "annotations")
        return 0
    ratio = spi_wide / spi_narrow
    flag = "ok" if ratio <= max_ratio else "FAIL"
    print(f"[storm] {flag:4} per-insert scan work: storm-1k {spi_narrow:.2f} -> "
          f"storm {spi_wide:.2f} steps/insert = x{ratio:.2f} for 4x group width "
          f"(max x{max_ratio:.1f})")
    return 0 if ratio <= max_ratio else 1


# Tolerated growth of a micro row's allocs_per_call over the baseline. The
# counts are exact; the slack absorbs standard-library growth policies.
ALLOCS_MAX_GROWTH = 0.25


def check_micro_allocs(baseline, measured):
    """Gates the micro rows' allocs_per_call counters (the patch encoder's
    allocation contract, BM_MakePatchWideFrontier).

    memtrack counts operator-new calls exactly, so the counter is the same
    on every machine: each row is compared directly against the committed
    baseline, no median normalisation. A regression to per-parent or
    per-chunk allocation shows up as a multiple, not a few percent."""
    failures = 0
    keys = sorted(set(baseline) & set(measured))
    if not keys:
        print("[micro-allocs] no allocs_per_call rows in both baseline and "
              "measurement - skipping gate")
        return 0
    for key in keys:
        base, meas = baseline[key], measured[key]
        limit = base * (1.0 + ALLOCS_MAX_GROWTH)
        flag = "ok" if meas <= limit else "FAIL"
        if meas > limit:
            failures += 1
        print(f"[micro-allocs] {flag:4} {key:<45} base {base:>8.1f}  meas {meas:>8.1f}"
              f"  (limit {limit:.1f})")
    return failures


def check_server_scaling(full_rows, min_speedup):
    """Gates the s1-vs-s4 replay speedup for the SERVER_SCALING scenarios.

    Both rows come from the same fresh measurement (same machine, same run),
    so this is a direct wall-clock ratio, not a median-normalised one."""
    failures = 0
    for scenario in SERVER_SCALING:
        r1 = full_rows.get((scenario + "/s1", "server soak"))
        r4 = full_rows.get((scenario + "/s4", "server soak"))
        if r1 is None or r4 is None:
            print(f"[server-scaling] {scenario}: s1/s4 rows not measured - skipping")
            continue
        hw = int(r4.get("hw_threads", 0))
        if hw < 4:
            print(f"[server-scaling] {scenario}: bench ran on {hw} hardware "
                  f"thread(s); a 4-shard speedup is unobtainable here - skipping "
                  f"(gate is active on >= 4-thread runners)")
            continue
        if r4["mean_ms"] <= 0:
            continue
        speedup = r1["mean_ms"] / r4["mean_ms"]
        flag = "ok" if speedup >= min_speedup else "FAIL"
        if speedup < min_speedup:
            failures += 1
        print(f"[server-scaling] {flag:4} {scenario}: s1 {r1['mean_ms']:.1f} ms / "
              f"s4 {r4['mean_ms']:.1f} ms = {speedup:.2f}x "
              f"(min {min_speedup:.1f}x on {hw} hw threads)")
    return failures


def check_sizes(name, baseline_full, measured_full, threshold):
    """Gates the at-rest file-size rows (fig11/fig12 filesize benches).

    Encoded sizes are deterministic for a given trace scale — no machine
    factor, no noise floor — so each row is compared directly against the
    committed baseline (measured at the same --scale): a file that grew by
    more than --size-threshold fails. Shrinking is always fine."""
    failures = 0
    pairs = []
    for key in sorted(set(baseline_full) & set(measured_full)):
        base_row, meas_row = baseline_full[key], measured_full[key]
        if "bytes" not in base_row or "bytes" not in meas_row:
            continue
        pairs.append((key, float(base_row["bytes"]), float(meas_row["bytes"])))
    if not pairs:
        print(f"[{name}] no size rows in both baseline and measurement - skipping gate")
        return 0
    for key, base, meas in pairs:
        limit = base * (1.0 + threshold)
        flag = "ok" if meas <= limit or base <= 0 else "FAIL"
        if flag == "FAIL":
            failures += 1
        label = " | ".join(key)
        print(f"[{name}] {flag:4} {label:<45} base {base:>12.0f} B"
              f"  meas {meas:>12.0f} B  (limit {limit:.0f})")
    return failures


def check_size_ratio(name, measured_full, min_ratio):
    """Gates the aggregate raw/compressed ratio of one filesize bench.

    The compressed store must stay at least --size-min-ratio times smaller
    than the same file uncompressed, summed across the measured traces. The
    uncompressed twin of the "v2 compressed" rows is "v2 raw" in fig12 and
    the "event graph + cached doc" row itself in fig11."""
    raw = 0.0
    for raw_alg in ("v2 raw", "event graph + cached doc"):
        raw = sum(float(row["bytes"]) for (_, alg), row in measured_full.items()
                  if alg == raw_alg and "bytes" in row)
        if raw > 0:
            break
    comp = sum(float(row["bytes"]) for (_, alg), row in measured_full.items()
               if alg == "v2 compressed" and "bytes" in row)
    if raw <= 0 or comp <= 0:
        print(f"[{name}] no raw/compressed rows - skipping compression-ratio gate")
        return 0
    ratio = raw / comp
    flag = "ok" if ratio >= min_ratio else "FAIL"
    print(f"[{name}] {flag:4} aggregate compression ratio: "
          f"{raw:.0f} B raw / {comp:.0f} B compressed = {ratio:.3f}x "
          f"(min {min_ratio:.1f}x)")
    return 0 if ratio >= min_ratio else 1


def check_convergence(baseline_full, measured_full, max_regress):
    """Gates the convergence-latency p99 annotations on the soak rows.

    Convergence latency is measured in deterministic simulated NetSim ticks
    (fixed seeds), so unlike wall clock it is directly comparable across
    machines: the same code produces the same tick counts everywhere. A p99
    regression here means the protocol or broadcast topology got slower at
    propagating edits, not that the runner machine was busy — hence a plain
    per-row ratio against the committed baseline, no median normalisation."""
    failures = 0
    checked = 0
    for key in sorted(set(baseline_full) & set(measured_full)):
        base_row, meas_row = baseline_full[key], measured_full[key]
        if "convergence_p99" not in base_row or "convergence_p99" not in meas_row:
            continue
        count = min(int(base_row.get("convergence_count", 0)),
                    int(meas_row.get("convergence_count", 0)))
        if count < CONVERGENCE_MIN_COUNT:
            continue
        checked += 1
        base = float(base_row["convergence_p99"])
        meas = float(meas_row["convergence_p99"])
        limit = base * (1.0 + max_regress)
        flag = "ok" if meas <= limit or base <= 0 else "FAIL"
        if flag == "FAIL":
            failures += 1
        label = " | ".join(key)
        print(f"[convergence] {flag:4} {label:<50} p99 base {base:>6.0f} ticks"
              f"  meas {meas:>6.0f} ticks  (limit {limit:.0f})")
    if checked == 0:
        print("[convergence] no rows with convergence_p99 annotations in both "
              "baseline and measurement - skipping gate")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--fig8-baseline", help="committed BENCH_fig8.json (uses its 'after' section)")
    ap.add_argument("--fig8-section", default="after",
                    help="section of the committed fig8 baseline to compare against")
    ap.add_argument("--fig8", nargs="*", default=[], help="fresh bench_fig8_merge --json outputs")
    ap.add_argument("--micro-baseline", help="committed BENCH_micro.json")
    ap.add_argument("--micro", nargs="*", default=[], help="fresh bench_micro --json outputs")
    ap.add_argument("--server-baseline",
                    help="committed BENCH_server.json (uses its 'after' section)")
    ap.add_argument("--server-section", default="after",
                    help="section of the committed server baseline to compare against")
    ap.add_argument("--server", nargs="*", default=[], help="fresh bench_server --json outputs")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="maximum tolerated median-normalised regression (0.30 = 30%%)")
    ap.add_argument("--micro-threshold", type=float, default=0.50,
                    help="threshold for the micro group: its rows mix SIMD-, "
                         "allocator-, and branch-bound kernels whose relative "
                         "speed shifts between CPU families, so it needs more "
                         "headroom than the homogeneous fig8 replay rows")
    ap.add_argument("--server-threshold", type=float, default=0.50,
                    help="threshold for the server group: end-to-end soak "
                         "times fold in NetSim scheduling and map churn, "
                         "which are noisier than pure replay kernels")
    ap.add_argument("--server-scaling-min", type=float, default=2.0,
                    help="minimum s1/s4 replay speedup for the SERVER_SCALING "
                         "scenarios (checked only on >= 4-thread machines)")
    ap.add_argument("--convergence-threshold", type=float, default=0.50,
                    help="maximum tolerated convergence-latency p99 regression "
                         "in simulated ticks (0.50 = 50%%; machine-independent, "
                         "so no median normalisation)")
    ap.add_argument("--min-ms", type=float, default=DEFAULT_MIN_MS,
                    help="ignore fig8 rows faster than this (noise floor)")
    ap.add_argument("--storm-sublinear-max", type=float, default=2.5,
                    help="maximum tolerated growth of per-insert integration "
                         "scan work between the storm-1k and storm rows (4x "
                         "group width; linear growth would be ~4x, the fast "
                         "path's logarithmic growth ~1.2x)")
    ap.add_argument("--sizes-baseline", action="append", default=[],
                    help="committed filesize baseline (BENCH_fig11.json / "
                         "BENCH_fig12.json); repeatable, paired with --sizes "
                         "by position")
    ap.add_argument("--sizes", action="append", default=[],
                    help="fresh bench_fig11_filesize / bench_fig12_filesize "
                         "--json output, paired with --sizes-baseline")
    ap.add_argument("--size-threshold", type=float, default=0.10,
                    help="maximum tolerated per-row at-rest size growth "
                         "(0.10 = 10%%; sizes are deterministic per scale, "
                         "so rows are compared directly, no normalisation)")
    ap.add_argument("--size-min-ratio", type=float, default=2.0,
                    help="minimum aggregate raw/compressed size ratio "
                         "per filesize bench")
    args = ap.parse_args()

    failures = 0
    if args.fig8_baseline and args.fig8:
        baseline = load_fig8_rows(args.fig8_baseline, section=args.fig8_section)
        baseline = {k: v for k, v in baseline.items() if k[1] in FIG8_ALGORITHMS}
        measured = {}
        measured_full = {}
        for path in args.fig8:
            measured.update(load_fig8_rows(path))
            measured_full.update(load_full_rows(path))
        measured = {k: v for k, v in measured.items() if k[1] in FIG8_ALGORITHMS}
        failures += check_group("fig8", baseline, measured, args.threshold, args.min_ms)
        failures += check_storm_sublinearity(measured_full, args.storm_sublinear_max)
    if args.micro_baseline and args.micro:
        baseline = load_micro_rows(args.micro_baseline)
        measured = {}
        for path in args.micro:
            measured.update(load_micro_rows(path))
        failures += check_group("micro", baseline, measured, args.micro_threshold)
        allocs = {}
        for path in args.micro:
            allocs.update(load_micro_counters(path, "allocs_per_call"))
        failures += check_micro_allocs(
            load_micro_counters(args.micro_baseline, "allocs_per_call"), allocs)
    if args.server_baseline and args.server:
        # bench_server emits the same {trace, algorithm, mean_ms} row schema
        # as fig8 (trace = scenario, algorithm = phase), so the loader is
        # shared; only the gated phases differ.
        baseline = load_fig8_rows(args.server_baseline, section=args.server_section)
        baseline = {k: v for k, v in baseline.items() if k[1] in SERVER_PHASES}
        full = {}
        for path in args.server:
            full.update(load_full_rows(path))
        # Multi-shard rows are machine-core-count dependent: keep them out of
        # the cross-machine time gate, gate their speedup directly instead.
        for k, row in sorted(full.items()):
            if k[1] in SERVER_PHASES and row.get("shards", 0) >= 2:
                print(f"[server] skip {row_label(k)}: {row['shards']}-shard row "
                      f"is core-count dependent (covered by the scaling gate)")
        measured = {k: row["mean_ms"] for k, row in full.items()
                    if k[1] in SERVER_PHASES and row.get("shards", 0) < 2}
        failures += check_group("server", baseline, measured, args.server_threshold,
                                args.min_ms)
        failures += check_server_scaling(full, args.server_scaling_min)
        baseline_full = load_full_rows(args.server_baseline,
                                       section=args.server_section)
        failures += check_convergence(baseline_full, full,
                                      args.convergence_threshold)

    if len(args.sizes_baseline) != len(args.sizes):
        ap.error("--sizes-baseline and --sizes must be paired")
    for base_path, meas_path in zip(args.sizes_baseline, args.sizes):
        baseline_full = load_full_rows(base_path)
        measured_full = load_full_rows(meas_path)
        name = "sizes:" + base_path
        failures += check_sizes(name, baseline_full, measured_full,
                                args.size_threshold)
        failures += check_size_ratio(name, measured_full, args.size_min_ratio)

    if failures:
        print(f"\nbench gate: {failures} row(s) regressed beyond "
              f"{args.threshold:.0%} of the group median")
        return 1
    print("\nbench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
