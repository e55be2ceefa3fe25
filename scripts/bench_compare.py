#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]
                             [--metric auto|real_time|items_per_second]

Benchmarks are matched by name. Every baseline benchmark must appear in the
candidate: a benchmark that was dropped or renamed fails the gate, unless
the retired list names it with a reason. That list is ``retired.json``
beside the baseline, a JSON object ``{"retired": {"BM_Name": "why it is
gone"}}`` (absent file = nothing retired).
For each pair the script prints baseline, candidate, and the
speedup (candidate relative to baseline, >1 = faster), preferring
items_per_second (higher is better) and falling back to real_time (lower
is better). Exits non-zero if any benchmark regressed by more than the
threshold (default 10%), so it can gate a PR:

    ctest -R bench_sim_perf_json          # writes build/BENCH_sim_perf.json
    scripts/bench_compare.py bench/baselines/BENCH_sim_perf.main.json \
        build/BENCH_sim_perf.json

Aggregate entries (``*_mean``, ``*_median``, ``*_stddev``, ``*_cv``) are
skipped; raw repetition entries are averaged per name. Stdlib only.
"""

import argparse
import json
import os
import sys

AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv", "_min", "_max")


def load(path):
    """name -> {metric: mean value} for the raw benchmark entries."""
    with open(path) as f:
        doc = json.load(f)
    acc = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if not name or name.endswith(AGGREGATE_SUFFIXES) or b.get("run_type") == "aggregate":
            continue
        entry = acc.setdefault(name, {"n": 0})
        entry["n"] += 1
        for metric in ("real_time", "cpu_time", "items_per_second"):
            if metric in b:
                entry[metric] = entry.get(metric, 0.0) + float(b[metric])
    for entry in acc.values():
        n = entry.pop("n")
        for k in list(entry):
            entry[k] /= n
    return acc


def load_retired(path):
    """name -> reason; a missing file is an empty list."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return {}
    retired = doc.get("retired", {})
    blank = [n for n, why in retired.items() if not str(why).strip()]
    if blank:
        raise ValueError(f"{path}: retired benchmark(s) without a reason: {', '.join(blank)}")
    return retired


def pick_metric(requested, base, cand):
    if requested != "auto":
        return requested if requested in base and requested in cand else None
    for metric in ("items_per_second", "real_time"):
        if metric in base and metric in cand:
            return metric
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max tolerated slowdown, as a fraction (default 0.10)")
    ap.add_argument("--metric", default="auto",
                    choices=["auto", "real_time", "cpu_time", "items_per_second"])
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)
    retired_path = os.path.join(os.path.dirname(os.path.abspath(args.baseline)),
                                "retired.json")
    try:
        retired = load_retired(retired_path)
    except (OSError, ValueError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    common = [n for n in base if n in cand]
    if not common:
        print("bench_compare: no common benchmark names between the two files",
              file=sys.stderr)
        return 2

    regressions = []
    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'baseline':>14}  {'candidate':>14}  {'speedup':>8}  metric")
    for name in common:
        metric = pick_metric(args.metric, base[name], cand[name])
        if metric is None:
            print(f"{name:<{width}}  {'-':>14}  {'-':>14}  {'n/a':>8}  (metric missing)")
            continue
        b, c = base[name][metric], cand[name][metric]
        if b <= 0 or c <= 0:
            continue
        # Normalize to "candidate speedup over baseline": for time metrics a
        # smaller candidate is faster; for rates a larger candidate is faster.
        speedup = (b / c) if metric.endswith("_time") else (c / b)
        flag = ""
        if speedup < 1.0 - args.threshold:
            regressions.append((name, metric, speedup))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {b:>14.4g}  {c:>14.4g}  {speedup:>7.2f}x  {metric}{flag}")

    only_base = sorted(set(base) - set(cand))
    missing = [n for n in only_base if n not in retired]
    for name in only_base:
        if name in retired:
            print(f"retired: {name} ({retired[name]})")
    if missing:
        print(f"\nFAIL: {len(missing)} baseline benchmark(s) missing from the "
              f"candidate and not retired (list them in {retired_path} with a "
              "reason if they were removed on purpose):", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, metric, speedup in regressions:
            print(f"  {name}: {speedup:.2f}x ({metric})", file=sys.stderr)
    if regressions or missing:
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%} "
          f"({len(common)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
