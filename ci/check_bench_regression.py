#!/usr/bin/env python3
"""Bench-regression gate for the CI smoke runs.

Compares the `BENCH_*.json` files a smoke run produced (written by the figure
binaries when `SILO_BENCH_JSON_DIR` is set) against the committed baseline
`bench/baseline.json`, matching rows by `(bench, series, threads)`. The gate
fails when any matched row's `throughput_txns_per_s` drops more than
`--max-drop-pct` (default 30) below the baseline.

Refreshing the baseline: set `SILO_BENCH_REFRESH_BASELINE=1` (e.g. as a
workflow env var for one run). The gate then *writes* a fresh baseline —
the current results merged over the old rows — to `<results>/baseline.json`
instead of failing, and CI uploads it with the other bench artifacts;
download it and commit it as `bench/baseline.json`.

Latency ceiling: with `--max-latency-rise-pct N` (disabled when 0, the
default), a matched row also fails when its `latency_p50_us` or
`latency_p99_us` rises more than N% above the baseline's. Each field is
checked only when both the result row and the baseline row carry it.

Thread-scaling floor: with `--scaling-floor-pct N` (disabled when 0, the
default), every result row with `threads > 1` is additionally checked
against the *same run's* 1-thread row of the same `(bench, series)`: total
throughput must stay at or above N% of the 1-thread figure. This catches a
series that collapses under concurrency (e.g. a reader path that starts
bouncing a shared cache line) even when every per-thread-count baseline
comparison still passes. N is deliberately below 100 because CI runners
oversubscribe: more worker threads than cores must not *collapse*, but
cannot be expected to speed up.

Usage:
    ci/check_bench_regression.py --baseline bench/baseline.json \
        --results <dir with BENCH_*.json> [--max-drop-pct 30] \
        [--max-latency-rise-pct 50] [--scaling-floor-pct 50]
"""

import argparse
import glob
import json
import os
import sys


# Latency fields the optional ceiling checks (lower is better).
LATENCY_FIELDS = ("latency_p50_us", "latency_p99_us")


def load_rows(paths):
    rows = {}
    for path in paths:
        with open(path) as f:
            for row in json.load(f):
                key = (row.get("bench"), row.get("series"), row.get("threads"))
                rows[key] = row
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--max-drop-pct", type=float, default=30.0)
    parser.add_argument("--max-latency-rise-pct", type=float, default=0.0)
    parser.add_argument("--scaling-floor-pct", type=float, default=0.0)
    args = parser.parse_args()

    result_files = sorted(glob.glob(os.path.join(args.results, "BENCH_*.json")))
    if not result_files:
        print(f"error: no BENCH_*.json files under {args.results}", file=sys.stderr)
        return 2
    results = load_rows(result_files)

    baseline = {}
    if os.path.exists(args.baseline):
        baseline = load_rows([args.baseline])

    if os.environ.get("SILO_BENCH_REFRESH_BASELINE"):
        merged = dict(baseline)
        merged.update(results)
        out = os.path.join(args.results, "baseline.json")
        body = ",\n  ".join(
            json.dumps(merged[k], separators=(",", ":")) for k in sorted(merged, key=str)
        )
        with open(out, "w") as f:
            f.write(f"[\n  {body}\n]\n")
        print(f"baseline refresh requested: wrote {len(merged)} rows to {out}")
        print("download the bench artifact and commit it as bench/baseline.json")
        return 0

    failures = []
    checked = 0
    for key, row in sorted(results.items(), key=str):
        base = baseline.get(key)
        label = f"{key[0]}/{key[1]}/threads={key[2]}"
        if base is None:
            print(f"  new (no baseline): {label} {row['throughput_txns_per_s']:.0f} txn/s")
            continue
        old = base["throughput_txns_per_s"]
        new = row["throughput_txns_per_s"]
        floor = old * (1.0 - args.max_drop_pct / 100.0)
        delta = (new - old) / old * 100.0 if old else 0.0
        status = "OK" if new >= floor else "REGRESSION"
        print(f"  {status}: {label} {new:.0f} txn/s vs baseline {old:.0f} ({delta:+.1f}%)")
        checked += 1
        if new < floor:
            failures.append(label)
        if args.max_latency_rise_pct > 0:
            for field in LATENCY_FIELDS:
                if field not in row or field not in base:
                    continue
                old_us, new_us = base[field], row[field]
                ceiling = old_us * (1.0 + args.max_latency_rise_pct / 100.0)
                rise = (new_us - old_us) / old_us * 100.0 if old_us else 0.0
                status = "OK" if new_us <= ceiling else "LATENCY REGRESSION"
                print(f"  {status}: {label} {field} {new_us:.0f} us vs baseline {old_us:.0f} ({rise:+.1f}%)")
                if new_us > ceiling:
                    failures.append(f"{label} ({field})")

    if args.scaling_floor_pct > 0:
        singles = {
            (b, s): row
            for (b, s, t), row in results.items()
            if t == 1
        }
        scaled = 0
        for (b, s, t), row in sorted(results.items(), key=str):
            if t == 1 or (b, s) not in singles:
                continue
            one = singles[(b, s)]["throughput_txns_per_s"]
            new = row["throughput_txns_per_s"]
            floor = one * args.scaling_floor_pct / 100.0
            label = f"{b}/{s}/threads={t}"
            ratio = new / one * 100.0 if one else 0.0
            status = "OK" if new >= floor else "SCALING COLLAPSE"
            print(
                f"  {status}: {label} {new:.0f} txn/s = {ratio:.0f}% of the "
                f"1-thread {one:.0f} (floor {args.scaling_floor_pct:.0f}%)"
            )
            scaled += 1
            if new < floor:
                failures.append(f"{label} (scaling)")
        print(f"scaling-floor check covered {scaled} multi-thread rows")

    if failures:
        print(
            f"\nFAIL: {len(failures)} checks regressed against bench/baseline.json "
            f"(throughput drop > {args.max_drop_pct:.0f}%, latency rise > "
            f"{args.max_latency_rise_pct:.0f}% when enabled, or scaling collapse): "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        print(
            "if the regression is intentional, refresh the baseline with "
            "SILO_BENCH_REFRESH_BASELINE=1 (see ci/check_bench_regression.py docstring)",
            file=sys.stderr,
        )
        return 1
    print(f"\nbench-regression gate passed ({checked} series checked against baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
