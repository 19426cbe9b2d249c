#!/usr/bin/env python3
"""Compare fresh BENCH_*.json runs against the checked-in baselines.

Absolute nanosecond timings are not comparable across machines, so every
comparison here is a within-run ratio:

  * BENCH_subgroup.json: `speedup` (bitmap kernel vs the row-wise
    baseline measured in the SAME process) must not drop more than the
    threshold below the checked-in value, and `identical_results` must
    stay true.
  * BENCH_audit.json: the three engine invariants `chunk_identical`,
    `streaming_identical`, and `flat_memory_ok` must stay true (audit
    output byte-identical across chunk sizes / thread counts / ingestion
    paths, and peak RSS flat between the 1M- and 10M-row streaming
    runs), `thread_scaling` (serial vs parallel wall time in the SAME
    process) must not drop more than the threshold below the checked-in
    value — on a single-core runner the baseline itself is ~1.0, so the
    gate is honest for the machine class — and the big/small streaming
    time ratio must not grow more than the threshold above the baseline
    ratio (out-of-core cost stays linear in rows). The run must use the
    baseline's `rows`/`big_rows`.
  * BENCH_serve.json: the daemon invariants `batch_identical`,
    `thread_identical`, and `sketch_within_tolerance` must stay true
    (query responses byte-identical across ingest batch sizes and
    thread counts; window sketches agree with the exact in-window
    scores), and the two query-cost ratios `audit_query_cost_ratio` /
    `quantiles_query_cost_ratio` (query latency over amortized
    per-event ingest cost, measured in the SAME process) must not grow
    more than the threshold above the checked-in values. The run must
    use the baseline's `events`.
  * BENCH_distances.json: each kernel's time normalized by the
    `binned_total_variation` time from the same run must not grow more
    than the threshold above the checked-in ratio. The current run must
    use the baseline's `n`/`mmd_n` for the ratios to be like-for-like
    (the script fails loudly on a size mismatch rather than comparing
    noise). Additionally: `rff_within_tolerance` must stay true (the
    linear-time RFF MMD still agrees with the exact quadratic oracle),
    `mmd_rff_speedup_d256` must not drop more than the threshold below
    the baseline speedup, and — when the current run's `simd_backend` is
    not "scalar" — `simd_popcount_speedup` must stay >= 1.0 (the vector
    popcount never loses to the reference scalar kernel).

Exit codes: 0 clean, 1 regression or malformed input.

Usage:
  check_bench_regression.py --baseline-dir=. --current-dir=bench-out \
      [--threshold=0.20]
"""
import argparse
import json
import os
import sys

NORMALIZER = "binned_total_variation"


def load(path):
    try:
        with open(path) as fp:
            return json.load(fp)
    except (OSError, ValueError) as err:
        print(f"bench-regression: cannot read {path}: {err}")
        return None


def check_subgroup(baseline, current, threshold):
    failures = []
    if not current.get("identical_results", False):
        failures.append(
            "subgroup: identical_results is false — the bitmap kernel "
            "no longer matches the row-wise baseline")
    base = baseline.get("speedup")
    cur = current.get("speedup")
    if base is None or cur is None:
        failures.append("subgroup: missing field 'speedup'")
        return failures
    floor = base * (1.0 - threshold)
    if cur < floor:
        failures.append(
            f"subgroup: speedup regressed: {cur:.3f} < "
            f"{floor:.3f} (baseline {base:.3f} - {threshold:.0%})")
    else:
        print(f"bench-regression: subgroup speedup ok: "
              f"{cur:.3f} vs baseline {base:.3f} (floor {floor:.3f})")
    return failures


def check_audit(baseline, current, threshold):
    failures = []
    for key in ("rows", "big_rows"):
        if baseline.get(key) != current.get(key):
            failures.append(
                f"audit: size mismatch on '{key}' "
                f"(baseline {baseline.get(key)}, current {current.get(key)}) "
                "— run the bench at baseline sizes for a valid comparison")
    if failures:
        return failures
    for key in ("chunk_identical", "streaming_identical", "flat_memory_ok"):
        if not current.get(key, False):
            failures.append(
                f"audit: {key} is false — the morsel engine broke its "
                "determinism or flat-memory contract "
                f"(rss_growth_mb={current.get('rss_growth_mb')})")
        else:
            print(f"bench-regression: audit {key} ok")

    base_scaling = baseline.get("thread_scaling")
    cur_scaling = current.get("thread_scaling")
    if base_scaling is None or cur_scaling is None:
        failures.append("audit: missing field 'thread_scaling'")
    else:
        floor = base_scaling * (1.0 - threshold)
        if cur_scaling < floor:
            failures.append(
                f"audit: thread_scaling regressed: {cur_scaling:.3f} < "
                f"{floor:.3f} (baseline {base_scaling:.3f} - {threshold:.0%})")
        else:
            print(f"bench-regression: audit thread_scaling ok: "
                  f"{cur_scaling:.3f} vs baseline {base_scaling:.3f} "
                  f"(floor {floor:.3f})")

    try:
        base_ratio = baseline["stream_big_ns"] / baseline["stream_small_ns"]
        cur_ratio = current["stream_big_ns"] / current["stream_small_ns"]
    except (KeyError, ZeroDivisionError):
        failures.append("audit: missing or zero stream_{small,big}_ns")
        return failures
    ceiling = base_ratio * (1.0 + threshold)
    if cur_ratio > ceiling:
        failures.append(
            f"audit: big/small streaming time ratio regressed: "
            f"{cur_ratio:.2f} > {ceiling:.2f} "
            f"(baseline {base_ratio:.2f} + {threshold:.0%}) — out-of-core "
            "cost is no longer linear in rows")
    else:
        print(f"bench-regression: audit streaming linearity ok: ratio "
              f"{cur_ratio:.2f} vs baseline {base_ratio:.2f} "
              f"(ceiling {ceiling:.2f})")
    return failures


def check_serve(baseline, current, threshold):
    failures = []
    if baseline.get("events") != current.get("events"):
        return [
            f"serve: size mismatch on 'events' "
            f"(baseline {baseline.get('events')}, "
            f"current {current.get('events')}) — run the bench at the "
            "baseline size for a valid comparison"]
    for key in ("batch_identical", "thread_identical"):
        if not current.get(key, False):
            failures.append(
                f"serve: {key} is false — query responses are no longer "
                "byte-identical across replays of the same event sequence")
        else:
            print(f"bench-regression: serve {key} ok")
    if not current.get("sketch_within_tolerance", False):
        failures.append(
            "serve: sketch_within_tolerance is false — the window's KLL "
            "sketches disagree with the exact in-window scores "
            f"(quantile_rank_err={current.get('quantile_rank_err')}, "
            f"distance_err={current.get('distance_err')})")
    else:
        print("bench-regression: serve sketch_within_tolerance ok")
    for key in ("audit_query_cost_ratio", "quantiles_query_cost_ratio"):
        base = baseline.get(key)
        cur = current.get(key)
        if base is None or cur is None:
            failures.append(f"serve: missing field '{key}'")
            continue
        ceiling = base * (1.0 + threshold)
        if cur > ceiling:
            failures.append(
                f"serve: {key} regressed: {cur:.0f} > {ceiling:.0f} "
                f"(baseline {base:.0f} + {threshold:.0%}) — queries got "
                "more expensive relative to ingest in the same process")
        else:
            print(f"bench-regression: serve {key} ok: "
                  f"{cur:.0f} vs baseline {base:.0f} (ceiling {ceiling:.0f})")
    return failures


def check_distances(baseline, current, threshold):
    failures = []
    for key in ("n", "mmd_n"):
        if baseline.get(key) != current.get(key):
            failures.append(
                f"distances: size mismatch on '{key}' "
                f"(baseline {baseline.get(key)}, current {current.get(key)}) "
                "— run the bench at baseline sizes for a valid comparison")
    if failures:
        return failures
    base_t = baseline.get("timings_ns", {})
    cur_t = current.get("timings_ns", {})
    if NORMALIZER not in base_t or NORMALIZER not in cur_t:
        return [f"distances: missing normalizer kernel '{NORMALIZER}'"]
    for kernel, base_ns in sorted(base_t.items()):
        if kernel == NORMALIZER:
            continue
        if kernel not in cur_t:
            failures.append(f"distances: kernel '{kernel}' missing from "
                            "current run")
            continue
        base_ratio = base_ns / base_t[NORMALIZER]
        cur_ratio = cur_t[kernel] / cur_t[NORMALIZER]
        ceiling = base_ratio * (1.0 + threshold)
        if cur_ratio > ceiling:
            failures.append(
                f"distances: {kernel}/{NORMALIZER} ratio regressed: "
                f"{cur_ratio:.2f} > {ceiling:.2f} "
                f"(baseline {base_ratio:.2f} + {threshold:.0%})")
        else:
            print(f"bench-regression: distances {kernel} ok: ratio "
                  f"{cur_ratio:.2f} vs baseline {base_ratio:.2f} "
                  f"(ceiling {ceiling:.2f})")

    if not current.get("rff_within_tolerance", False):
        failures.append(
            "distances: rff_within_tolerance is false — the RFF MMD "
            "estimate no longer agrees with the exact estimator "
            f"(abs err {current.get('rff_vs_exact_abs_err')}, tolerance "
            f"{current.get('rff_tolerance')})")

    base_speedup = baseline.get("mmd_rff_speedup_d256")
    cur_speedup = current.get("mmd_rff_speedup_d256")
    if base_speedup is None or cur_speedup is None:
        failures.append("distances: missing field 'mmd_rff_speedup_d256'")
    else:
        floor = base_speedup * (1.0 - threshold)
        if cur_speedup < floor:
            failures.append(
                f"distances: mmd_rff_speedup_d256 regressed: "
                f"{cur_speedup:.1f}x < {floor:.1f}x "
                f"(baseline {base_speedup:.1f}x - {threshold:.0%})")
        else:
            print(f"bench-regression: distances mmd_rff_speedup_d256 ok: "
                  f"{cur_speedup:.1f}x vs baseline {base_speedup:.1f}x "
                  f"(floor {floor:.1f}x)")

    backend = current.get("simd_backend", "scalar")
    if backend != "scalar":
        pop_speedup = current.get("simd_popcount_speedup")
        if pop_speedup is None:
            failures.append("distances: missing field 'simd_popcount_speedup'")
        elif pop_speedup < 1.0:
            failures.append(
                f"distances: simd_popcount_speedup {pop_speedup:.2f} < 1.0 "
                f"on backend '{backend}' — the vector popcount lost to the "
                "reference scalar kernel")
        else:
            print(f"bench-regression: distances simd_popcount_speedup ok: "
                  f"{pop_speedup:.2f}x on backend '{backend}'")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline-dir", default=".")
    parser.add_argument("--current-dir", required=True)
    parser.add_argument("--threshold", type=float, default=0.20)
    args = parser.parse_args()

    failures = []
    for name, checker in (("BENCH_subgroup.json", check_subgroup),
                          ("BENCH_audit.json", check_audit),
                          ("BENCH_serve.json", check_serve),
                          ("BENCH_distances.json", check_distances)):
        baseline = load(os.path.join(args.baseline_dir, name))
        current = load(os.path.join(args.current_dir, name))
        if baseline is None or current is None:
            failures.append(f"{name}: unreadable input")
            continue
        failures.extend(checker(baseline, current, args.threshold))

    if failures:
        for failure in failures:
            print(f"bench-regression: FAIL: {failure}")
        return 1
    print("bench-regression: all ratios within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
