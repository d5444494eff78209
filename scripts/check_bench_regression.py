#!/usr/bin/env python3
"""Compare two benchmark runs and fail on regressions.

Both inputs are BENCH_*.json files produced by bench/run_benches.sh
(schema_version 1: a header wrapping the raw google-benchmark report), or
directories of them — directory mode pairs files by name and compares
every bench present in both.

A benchmark regresses when its real_time grows by more than --tolerance
(relative, default 10%) over the baseline. Aggregate rows are preferred
when present (the suite runs with repetitions + aggregates): the "median"
aggregate is used, falling back to "mean", falling back to the raw row.

In directory mode, a current report with no baseline counterpart is a
MISSING BASELINE: a bench binary was added (or a baseline was never
checked in) and its numbers are not being compared at all. That is its
own failure class — distinct from a regression — so CI flags the gap
instead of silently passing; --allow-missing downgrades it to a note.

Every current report is also held to the RATIO GATES below: shape
claims checked within that one report, as the ratio of two of its
benchmarks' times. A ratio does not move with the machine the way an
absolute time does, so a gate holds on any box; it runs alongside the
absolute check, not in place of it. A gate whose benchmarks are absent
from a report (a filtered run) is skipped with a note. A failed gate is
a regression.

Exit status: 0 = no regression, 1 = at least one regression, 2 = usage or
schema error, 3 = missing baseline (only when no regression also fired;
regressions take precedence).

Usage:
  scripts/check_bench_regression.py BASELINE CURRENT [--tolerance 0.10]
                                    [--allow-missing]
"""

import argparse
import json
import os
import sys


def fail(msg: str) -> "NoReturn":  # noqa: F821 (py3.11 typing unused)
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_report(path):
    """Returns (header, benchmark_rows) for one BENCH_*.json file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if doc.get("schema_version") != 1 or "benchmark" not in doc:
        fail(f"{path}: not a schema_version-1 bench report "
             "(run bench/run_benches.sh)")
    rows = doc["benchmark"].get("benchmarks", [])
    return doc, rows


def representative_times(rows):
    """Maps base benchmark name -> (real_time, time_unit).

    Prefers the median aggregate, then mean, then the raw (non-aggregate)
    row — reports generated with --benchmark_report_aggregates_only only
    contain aggregates; plain runs only contain raw rows.
    """
    PREFERENCE = {"median": 0, "mean": 1, None: 2}
    best = {}  # name -> (preference, real_time, unit)
    for row in rows:
        if row.get("run_type") == "aggregate":
            aggregate = row.get("aggregate_name")
            if aggregate not in ("median", "mean"):
                continue  # stddev/cv and friends are not comparable times
            name = row.get("run_name", row["name"])
            pref = PREFERENCE[aggregate]
        else:
            name = row["name"]
            pref = PREFERENCE[None]
        seen = best.get(name)
        if seen is None or pref < seen[0]:
            best[name] = (pref, row["real_time"], row.get("time_unit", "ns"))
    return {n: (t, u) for n, (_, t, u) in best.items()}


UNIT_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

# (bench, fast benchmark, slow benchmark, k): in a report of `bench`, the
# slow benchmark's time must be at least k times the fast one's.
RATIO_GATES = [
    # Figure 12: with both endpoints fixed, the seeded closures of the
    # magic-TC rewrite beat materializing the full closure. Measured
    # 12.9-16.1x (10.1-12.5x before seeded pairs ran on the kernel) in
    # three run_benches.sh runs on a 4-core VM, RelWithDebInfo; k = 5
    # leaves a 2x margin under the lowest.
    ("fig12_prototype", "BM_MagicTcStrategy/480", "BM_DatalogStrategy/480",
     5.0),
]


def compare_reports(base_path, cur_path, tolerance):
    """Prints a comparison table; returns the list of regressed names."""
    base_doc, base_rows = load_report(base_path)
    cur_doc, cur_rows = load_report(cur_path)
    base = representative_times(base_rows)
    cur = representative_times(cur_rows)

    print(f"== {base_doc.get('bench', '?')}: "
          f"{base_doc.get('git_rev', '?')} -> {cur_doc.get('git_rev', '?')}")
    regressed = []
    for name in sorted(base):
        if name not in cur:
            print(f"  {name}: missing from current run")
            continue
        bt, bu = base[name]
        ct, cu = cur[name]
        base_ns = bt * UNIT_NS.get(bu, 1)
        cur_ns = ct * UNIT_NS.get(cu, 1)
        if base_ns <= 0:
            continue
        delta = (cur_ns - base_ns) / base_ns
        mark = ""
        if delta > tolerance:
            mark = "  REGRESSION"
            regressed.append(name)
        elif delta < -tolerance:
            mark = "  improved"
        print(f"  {name}: {base_ns:.0f}ns -> {cur_ns:.0f}ns "
              f"({delta:+.1%}){mark}")
    for name in sorted(set(cur) - set(base)):
        print(f"  {name}: new (no baseline)")
    return regressed


def check_ratio_gates(path):
    """Checks one report against RATIO_GATES; returns the failed gates."""
    doc, rows = load_report(path)
    times = representative_times(rows)
    failed = []
    for bench, fast, slow, k in RATIO_GATES:
        if doc.get("bench") != bench:
            continue
        if fast not in times or slow not in times:
            print(f"  ratio {slow} / {fast}: skipped (not in this report)")
            continue
        fast_ns = times[fast][0] * UNIT_NS.get(times[fast][1], 1)
        slow_ns = times[slow][0] * UNIT_NS.get(times[slow][1], 1)
        ratio = slow_ns / fast_ns if fast_ns > 0 else float("inf")
        mark = ""
        if ratio < k:
            mark = "  SHAPE REGRESSION"
            failed.append(f"{slow} / {fast}")
        print(f"  ratio {slow} / {fast}: {ratio:.2f}x "
              f"(gate >= {k:g}x){mark}")
    return failed


def bench_files(directory):
    return {
        f: os.path.join(directory, f)
        for f in os.listdir(directory)
        if f.startswith("BENCH_") and f.endswith(".json")
    }


def main():
    parser = argparse.ArgumentParser(
        description="compare two bench runs; exit 1 on regression")
    parser.add_argument("baseline", help="BENCH_*.json file or directory")
    parser.add_argument("current", help="BENCH_*.json file or directory")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative slowdown allowed (default 0.10)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a current report has no "
                             "baseline counterpart")
    args = parser.parse_args()

    pairs = []
    missing_baseline = []
    if os.path.isdir(args.baseline) and os.path.isdir(args.current):
        base_files = bench_files(args.baseline)
        cur_files = bench_files(args.current)
        for name in sorted(base_files.keys() & cur_files.keys()):
            pairs.append((base_files[name], cur_files[name]))
        if not pairs:
            fail("no BENCH_*.json files common to both directories")
        for name in sorted(base_files.keys() - cur_files.keys()):
            print(f"note: {name} only in baseline")
        for name in sorted(cur_files.keys() - base_files.keys()):
            if args.allow_missing:
                print(f"note: {name} only in current")
            else:
                print(f"MISSING BASELINE: {name} has current results but "
                      "no baseline to compare against")
                missing_baseline.append(name)
    elif os.path.isfile(args.baseline) and os.path.isfile(args.current):
        pairs.append((args.baseline, args.current))
    else:
        fail("baseline and current must both be files or both directories")

    regressed = []
    for base_path, cur_path in pairs:
        regressed += compare_reports(base_path, cur_path, args.tolerance)
        regressed += check_ratio_gates(cur_path)

    if regressed:
        print(f"\n{len(regressed)} regression(s) (beyond "
              f"{args.tolerance:.0%}, or a failed ratio gate): "
              f"{', '.join(regressed)}")
        return 1
    if missing_baseline:
        print(f"\n{len(missing_baseline)} bench report(s) without a "
              f"baseline: {', '.join(missing_baseline)} "
              "(check one in, or pass --allow-missing)")
        return 3
    print(f"\nno regressions beyond {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
