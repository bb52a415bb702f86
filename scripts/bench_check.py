#!/usr/bin/env python3
"""Bench regression sentinel.

Compares the newest record of a BENCH_*.json history (the append-style
arrays written by scripts/bench.sh) against the most recent prior record of
the same bench and fails with a readable diff when:

  * a throughput metric (any key containing "throughput") drops by more
    than DEFAULT_MAX_DROP_PCT percent,
  * a time metric (stage timings, *_ms scalars, real_time_ns kernels) rises
    by more than DEFAULT_MAX_RISE_PCT percent,
  * a parity/accuracy metric (max_score_dev) rises above DEFAULT_MAX_PARITY,
  * an allocation-per-sample metric rises at all (the zero-allocation
    contract is exact, not statistical),

and gates the newest record of the serve, circuit and fusion benches
against absolute budgets. Every bound is one of the DEFAULT_* constants
below; none is configurable from the command line.

Usage:
  scripts/bench_check.py BENCH_circuit.json [BENCH_cv.json ...]
  scripts/bench_check.py --report-only BENCH_*.json   # never fails
  scripts/bench_check.py --self-test                  # synthetic histories

Only the standard library is used so the sentinel runs anywhere the repo
builds.
"""

import argparse
import json
import os
import sys
import tempfile

DEFAULT_MAX_DROP_PCT = 5.0
DEFAULT_MAX_RISE_PCT = 10.0
DEFAULT_MAX_PARITY = 1e-12
# Absolute serve-layer budgets (micro_serve / micro_serve_binary records).
# Loopback request/response at batch 8 should clear these on any 1-core
# machine; the gates exist to catch protocol-layer pathologies (a
# reintroduced Nagle stall, per-request allocation storms), not scheduler
# noise. Binary-frame records run pipelined, so their throughput floor is
# much higher and their p99 budget wider (client-side latency includes the
# queue wait of the in-flight window).
DEFAULT_MIN_SERVE_RPS = 2000.0
DEFAULT_MAX_SERVE_P99_MS = 20.0
DEFAULT_MIN_SERVE_BINARY_RPS = 20000.0
DEFAULT_MAX_SERVE_BINARY_P99_MS = 100.0
# Absolute circuit stage-time ceilings (micro_circuit records). Relative
# gates on single-run stage means proved noisy: the same binary spans
# 99-175 us per op-amp sample on a loaded 1-core container, which once
# recorded a phantom 25% "regression" with no code change. The ceilings sit
# ~2x above the noisy range so they catch real blowups (an accidental
# O(n^2), a lost workspace cache) on any host without tripping on scheduler
# jitter.
DEFAULT_MAX_OPAMP_SAMPLE_US = 300.0
DEFAULT_MAX_ADC_SAMPLE_US = 800.0
# Parallel-efficiency floor for multi-thread Monte Carlo records, enforced
# only when the recording host has at least as many cores as the record
# used threads (host_cores metadata) — a 4-thread record from a 1-core
# container is valid data, just not evidence about scaling.
DEFAULT_MIN_SCALING_EFFICIENCY = 0.7
# Multi-population fusion budgets (micro_fusion records). The whole point
# of the fusion engine is that the fused held-out estimate beats the
# independent one, so a ratio at/above 1.0 means borrowing is broken (a
# healthy run sits around 0.3-0.5). The snapshot ceiling catches an
# accidental O(N^2 d^3) blowup in the joint solve; a healthy joint
# snapshot is ~1 ms.
DEFAULT_MAX_FUSION_RMSE_RATIO = 1.0
DEFAULT_MAX_FUSION_SNAPSHOT_MS = 50.0
# Telemetry overhead budget: the newest metrics-ON record of a serve bench
# must hold observe throughput within this fraction of the newest
# metrics-OFF record of the same bench (ISSUE: scraping a live server may
# not tax the hot path). Sharded counters and a per-batch gauge publish
# should cost well under 1%; 3% leaves room for scheduler noise.
DEFAULT_MAX_TELEMETRY_DROP_PCT = 3.0

# Metrics where a *higher* value is better (gated by DEFAULT_MAX_DROP_PCT).
THROUGHPUT_HINT = "throughput"
# Flat scalar keys treated as timings on top of the nested stage maps.
TIME_SCALAR_KEYS = ("old_ms", "new_1t_ms", "new_mt_ms", "seconds")
# Nested objects whose numeric members are timings.
TIME_OBJECT_KEYS = ("stages", "real_time_ns", "latency_us")
PARITY_KEYS = ("max_score_dev",)
ALLOC_OBJECT_KEY = "alloc_per_sample"


def flatten_metrics(record):
    """Extracts {metric_name: value} of comparable numbers from one record."""
    metrics = {}
    for obj_key in TIME_OBJECT_KEYS + (ALLOC_OBJECT_KEY,):
        obj = record.get(obj_key)
        if isinstance(obj, dict):
            for name, value in obj.items():
                if isinstance(value, (int, float)):
                    metrics[f"{obj_key}.{name}"] = float(value)
    for mc_key in ("mc_opamp_postlayout", "mc_stats_opamp_postlayout"):
        nested = record.get(mc_key)
        if isinstance(nested, dict):
            for name, value in nested.items():
                if isinstance(value, (int, float)) and name != "samples":
                    metrics[f"{mc_key}.{name}"] = float(value)
    for key in TIME_SCALAR_KEYS + PARITY_KEYS:
        value = record.get(key)
        if isinstance(value, (int, float)):
            metrics[key] = float(value)
    # Flat throughput scalars (e.g. micro_serve's observe_throughput_rps).
    for key, value in record.items():
        if THROUGHPUT_HINT in key and isinstance(value, (int, float)):
            metrics[key] = float(value)
    return metrics


def serve_budget_rows(record):
    """Absolute budgets for serve-layer records (micro_serve* and
    bmf_soak*); no prior record needed."""
    binary = record.get("bench", "").endswith("_binary") \
        or record.get("mode") == "binary"
    min_rps = DEFAULT_MIN_SERVE_BINARY_RPS if binary else DEFAULT_MIN_SERVE_RPS
    max_p99_ms = DEFAULT_MAX_SERVE_BINARY_P99_MS if binary \
        else DEFAULT_MAX_SERVE_P99_MS
    rows = []
    rps = record.get("observe_throughput_rps")
    if isinstance(rps, (int, float)):
        bad = rps < min_rps
        rows.append((
            "FAIL" if bad else "ok",
            f"observe_throughput_rps: {rps:.6g}"
            + (f" below serve floor {min_rps:g}" if bad else ""),
        ))
    latency = record.get("latency_us")
    p99 = latency.get("observe_p99") if isinstance(latency, dict) else None
    if isinstance(p99, (int, float)):
        budget_us = max_p99_ms * 1000.0
        bad = p99 > budget_us
        rows.append((
            "FAIL" if bad else "ok",
            f"latency_us.observe_p99: {p99:.6g}"
            + (f" above serve budget {budget_us:g} us" if bad else ""),
        ))
    return rows


def circuit_budget_rows(record):
    """Absolute stage-time ceilings for micro_circuit records."""
    stages = record.get("stages")
    if not isinstance(stages, dict):
        return []
    rows = []
    for name, budget in (("opamp_sample_us", DEFAULT_MAX_OPAMP_SAMPLE_US),
                         ("adc_sample_us", DEFAULT_MAX_ADC_SAMPLE_US)):
        value = stages.get(name)
        if isinstance(value, (int, float)):
            bad = value > budget
            rows.append((
                "FAIL" if bad else "ok",
                f"stages.{name}: {value:.6g}"
                + (f" above ceiling {budget:g} us" if bad else ""),
            ))
    return rows


def fusion_budget_rows(record):
    """Absolute budgets for micro_fusion records (no prior record needed)."""
    rows = []
    ratio = record.get("rmse_ratio")
    if isinstance(ratio, (int, float)):
        bad = ratio > DEFAULT_MAX_FUSION_RMSE_RATIO
        rows.append((
            "FAIL" if bad else "ok",
            f"rmse_ratio: {ratio:.6g}"
            + (f" above fused/independent budget "
               f"{DEFAULT_MAX_FUSION_RMSE_RATIO:g}" if bad else ""),
        ))
    p50 = record.get("snapshot_p50_us")
    if isinstance(p50, (int, float)):
        budget_us = DEFAULT_MAX_FUSION_SNAPSHOT_MS * 1000.0
        bad = p50 > budget_us
        rows.append((
            "FAIL" if bad else "ok",
            f"snapshot_p50_us: {p50:.6g}"
            + (f" above ceiling {budget_us:g} us" if bad else ""),
        ))
    return rows


def record_threads(record):
    """Thread lane of a record: explicit multi-thread counts get their own
    comparison lane; missing, 0 (hardware) and 1 share the default lane so
    pre-threads histories stay comparable."""
    threads = record.get("threads")
    if isinstance(threads, int) and threads > 1:
        return threads
    return 1


def scaling_rows(records):
    """Parallel-efficiency floor: newest multi-thread record vs the newest
    single-thread record of the same bench.

    Returns no rows unless the multi-thread record's host actually had
    >= threads cores (host_cores metadata), so records taken on small
    containers are kept as history without asserting impossible speedups.
    """
    latest_mt = next((r for r in reversed(records)
                      if record_threads(r) > 1), None)
    if latest_mt is None:
        return []
    threads = record_threads(latest_mt)
    host_cores = latest_mt.get("host_cores")
    if not isinstance(host_cores, int) or host_cores < threads:
        return []
    baseline = next((r for r in reversed(records)
                     if record_threads(r) == 1), None)
    if baseline is None:
        return []
    mt_metrics = flatten_metrics(latest_mt)
    st_metrics = flatten_metrics(baseline)
    rows = []
    for name in sorted(mt_metrics):
        if not name.endswith("throughput_sps"):
            continue
        if st_metrics.get(name, 0.0) <= 0.0:
            continue
        efficiency = mt_metrics[name] / (st_metrics[name] * threads)
        bad = efficiency < DEFAULT_MIN_SCALING_EFFICIENCY
        rows.append((
            "FAIL" if bad else "ok",
            f"{name}: parallel efficiency {efficiency:.2f} at {threads} "
            f"threads (host_cores={host_cores})"
            + (f" below floor {DEFAULT_MIN_SCALING_EFFICIENCY:g}" if bad
               else ""),
        ))
    return rows


def _best_throughput(record):
    """Highest throughput metric in a record (0.0 when it has none)."""
    metrics = flatten_metrics(record)
    return max((v for k, v in metrics.items() if THROUGHPUT_HINT in k),
               default=0.0)


def collapse_repeat_runs(records):
    """Collapses repeat runs of one bench invocation (same git revision,
    label and date, appended back to back) into the run with the highest
    throughput: on a shared host, scheduling noise only ever subtracts, so
    the best repeat represents the binary and repeats never diff against
    each other."""
    out = []
    for record in records:
        is_repeat = (
            out
            and record.get("git") is not None
            and all(out[-1].get(k) == record.get(k)
                    for k in ("git", "label", "date", "telemetry"))
        )
        if is_repeat:
            out[-1] = max(out[-1], record, key=_best_throughput)
        else:
            out.append(record)
    return out


def _best_telemetry_side(records, want_on):
    """Newest record for one side of the ON/OFF comparison, made robust to
    host interference: among the records sharing the newest record's git
    revision (repeat runs of the same bench invocation), the one with the
    highest throughput represents the binary's capability — scheduling
    noise only ever subtracts."""
    side = [r for r in records if r.get("telemetry") is want_on]
    if not side:
        return None
    newest_git = side[-1].get("git")
    same_rev = [r for r in side if r.get("git") == newest_git]
    return max(same_rev, key=_best_throughput)


def telemetry_overhead_rows(records):
    """Metrics-ON vs metrics-OFF throughput budget: the best same-revision
    record with telemetry metadata true is compared against the best with
    telemetry false (same bench name). Missing metadata or a single-mode
    history produces no rows, so old histories stay green."""
    latest_on = _best_telemetry_side(records, want_on=True)
    latest_off = _best_telemetry_side(records, want_on=False)
    if latest_on is None or latest_off is None:
        return []
    on_metrics = flatten_metrics(latest_on)
    off_metrics = flatten_metrics(latest_off)
    rows = []
    for name in sorted(on_metrics):
        if THROUGHPUT_HINT not in name:
            continue
        off = off_metrics.get(name, 0.0)
        if off <= 0.0:
            continue
        drop_pct = 100.0 * (off - on_metrics[name]) / off
        bad = drop_pct > DEFAULT_MAX_TELEMETRY_DROP_PCT
        rows.append((
            "FAIL" if bad else "ok",
            f"{name}: telemetry overhead {drop_pct:+.2f}% "
            f"(ON {on_metrics[name]:.6g} vs OFF {off:.6g})"
            + (f" exceeds budget {DEFAULT_MAX_TELEMETRY_DROP_PCT:g}%" if bad
               else ""),
        ))
    return rows


def classify(name):
    """Returns 'throughput', 'parity', 'alloc' or 'time' for a metric name."""
    if THROUGHPUT_HINT in name:
        return "throughput"
    if any(name.endswith(k) for k in PARITY_KEYS):
        return "parity"
    if name.startswith(ALLOC_OBJECT_KEY + "."):
        return "alloc"
    return "time"


def compare_records(previous, current):
    """Returns a list of (severity, message) tuples; severity in {ok, FAIL}."""
    prev_metrics = flatten_metrics(previous)
    cur_metrics = flatten_metrics(current)
    rows = []
    for name in sorted(cur_metrics):
        if name not in prev_metrics:
            continue
        prev, cur = prev_metrics[name], cur_metrics[name]
        kind = classify(name)
        if kind == "parity":
            bad = cur > DEFAULT_MAX_PARITY
            rows.append((
                "FAIL" if bad else "ok",
                f"{name}: {prev:.6g} -> {cur:.6g}"
                + (f" (above parity budget {DEFAULT_MAX_PARITY:g})" if bad
                   else ""),
            ))
            continue
        if kind == "alloc":
            bad = cur > prev
            rows.append((
                "FAIL" if bad else "ok",
                f"{name}: {prev:.6g} -> {cur:.6g}"
                + (" (allocation count rose)" if bad else ""),
            ))
            continue
        if prev == 0.0:
            continue
        delta_pct = 100.0 * (cur - prev) / prev
        if kind == "throughput":
            bad = -delta_pct > DEFAULT_MAX_DROP_PCT
            budget = f"-{DEFAULT_MAX_DROP_PCT:g}%"
        else:
            bad = delta_pct > DEFAULT_MAX_RISE_PCT
            budget = f"+{DEFAULT_MAX_RISE_PCT:g}%"
        rows.append((
            "FAIL" if bad else "ok",
            f"{name}: {prev:.6g} -> {cur:.6g} ({delta_pct:+.2f}%)"
            + (f" exceeds budget {budget}" if bad else ""),
        ))
    return rows


def check_bench(path, bench_name, records, args):
    """Gates the newest record of one (bench, thread-lane); returns the
    failure count."""
    records = collapse_repeat_runs(records)
    current = records[-1]
    previous = records[-2] if len(records) > 1 else None

    # Absolute budgets apply to the newest record alone, so a fresh history
    # with a single record is already gated.
    if bench_name.startswith(("micro_serve", "bmf_soak")):
        rows = serve_budget_rows(current)
    elif bench_name.startswith("micro_circuit"):
        rows = circuit_budget_rows(current)
    elif bench_name.startswith("micro_fusion"):
        rows = fusion_budget_rows(current)
    else:
        rows = []
    if previous is None:
        if not rows:
            print(f"{path}: only one '{bench_name}' record, "
                  "nothing to compare")
            return 0
        print(f"{path}: '{current.get('label', '?')}' ({bench_name}, "
              "absolute budgets only)")
    else:
        print(f"{path}: '{previous.get('label', '?')}' -> "
              f"'{current.get('label', '?')}' ({bench_name})")
        rows += compare_records(previous, current)
    failures = 0
    for severity, message in rows:
        if severity == "FAIL":
            failures += 1
            print(f"  FAIL  {message}")
        elif args.verbose:
            print(f"  ok    {message}")
    if failures == 0:
        print(f"  ok    {len(rows)} metric(s) within budget")
    return failures


def check_history(path, args):
    """Checks one history file; returns the number of failing metrics.

    A history file may interleave records of several bench names (e.g.
    micro_serve and micro_serve_binary in BENCH_serve.json) and of several
    thread counts; the newest record of EACH (name, thread-lane) is gated
    against its own predecessor, so appending a binary-mode or 4-thread
    record cannot un-gate the latest JSON-mode / single-thread one — and a
    4-thread record is never diffed against a 1-thread baseline.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            history = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{path}: cannot read history: {exc}", file=sys.stderr)
        return 1
    if not isinstance(history, list) or not history:
        print(f"{path}: not a non-empty JSON array, skipping")
        return 0
    by_lane = {}
    by_name = {}
    for record in history:
        name = record.get("bench", "?")
        threads = record_threads(record)
        lane = name if threads == 1 else f"{name}[threads={threads}]"
        # Metrics-OFF builds are a different binary; their records get their
        # own lane so an OFF record never un-gates (or falsely "regresses")
        # the ON history. The dedicated overhead gate compares across.
        if record.get("telemetry") is False:
            lane += "[notel]"
        by_lane.setdefault(lane, []).append(record)
        by_name.setdefault(name, []).append(record)
    failures = sum(check_bench(path, lane, records, args)
                   for lane, records in by_lane.items())
    # Cross-lane gates: multi-thread throughput vs the single-thread
    # baseline, and metrics-ON throughput vs metrics-OFF, per bench name.
    for name, records in sorted(by_name.items()):
        rows = scaling_rows(records) \
            + telemetry_overhead_rows(records)
        for severity, message in rows:
            if severity == "FAIL":
                failures += 1
                print(f"  FAIL  {message}")
            elif args.verbose:
                print(f"  ok    {message}")
    return failures


def self_test(args):
    """Verifies detection on synthetic good and degraded records."""
    base = {
        "bench": "micro_circuit",
        "label": "baseline",
        "stages": {"dc_solve_us": 40.0, "opamp_sample_us": 110.0},
        "mc_opamp_postlayout": {"samples": 2000, "seconds": 0.22,
                                "throughput_sps": 9000.0},
        "alloc_per_sample": {"opamp": 0.0, "adc": 14.0},
        "max_score_dev": 3e-15,
    }
    good = dict(base, label="good",
                mc_opamp_postlayout={"samples": 2000, "seconds": 0.21,
                                     "throughput_sps": 9200.0})
    degraded = dict(
        base,
        label="degraded",
        stages={"dc_solve_us": 60.0, "opamp_sample_us": 180.0},
        mc_opamp_postlayout={"samples": 2000, "seconds": 0.40,
                             "throughput_sps": 5000.0},
        alloc_per_sample={"opamp": 3.0, "adc": 14.0},
        max_score_dev=1e-6,
    )

    good_rows = compare_records(base, good)
    degraded_rows = compare_records(base, degraded)
    good_failures = [m for s, m in good_rows if s == "FAIL"]
    degraded_failures = [m for s, m in degraded_rows if s == "FAIL"]

    ok = True
    if good_failures:
        print(f"self-test: improved record flagged: {good_failures}")
        ok = False
    expectations = {
        "throughput": "mc_opamp_postlayout.throughput_sps",
        "time": "stages.dc_solve_us",
        "alloc": "alloc_per_sample.opamp",
        "parity": "max_score_dev",
    }
    for kind, metric in expectations.items():
        if not any(metric in m for m in degraded_failures):
            print(f"self-test: degraded {kind} metric '{metric}' not flagged")
            ok = False

    # Absolute serve budgets: a healthy record passes, a stalled one (Nagle
    # reintroduced: ~40ms round trips, two-digit throughput) trips both.
    serve_good = {"bench": "micro_serve", "observe_throughput_rps": 40000.0,
                  "latency_us": {"observe_p50": 66.0, "observe_p99": 240.0}}
    serve_stalled = {"bench": "micro_serve", "observe_throughput_rps": 90.0,
                     "latency_us": {"observe_p50": 44000.0,
                                    "observe_p99": 88000.0}}
    good_serve = [m for s, m in serve_budget_rows(serve_good)
                  if s == "FAIL"]
    stalled_serve = [m for s, m in serve_budget_rows(serve_stalled)
                     if s == "FAIL"]
    if good_serve:
        print(f"self-test: healthy serve record flagged: {good_serve}")
        ok = False
    for metric in ("observe_throughput_rps", "latency_us.observe_p99"):
        if not any(metric in m for m in stalled_serve):
            print(f"self-test: stalled serve metric '{metric}' not flagged")
            ok = False

    # Binary-mode records carry their own (much higher) throughput floor; a
    # pipelined p99 of a few ms is healthy, a JSON-floor-passing 5k req/s
    # is not.
    binary_good = {"bench": "micro_serve_binary", "mode": "binary",
                   "observe_throughput_rps": 140000.0,
                   "latency_us": {"observe_p50": 400.0,
                                  "observe_p99": 4000.0}}
    binary_slow = dict(binary_good, observe_throughput_rps=5000.0)
    if [m for s, m in serve_budget_rows(binary_good) if s == "FAIL"]:
        print("self-test: healthy binary serve record flagged")
        ok = False
    if not any("observe_throughput_rps" in m for s, m in
               serve_budget_rows(binary_slow) if s == "FAIL"):
        print("self-test: slow binary serve record not flagged")
        ok = False

    # Absolute circuit stage ceilings: noisy-but-sane stage times pass, a
    # genuine blowup (lost workspace cache, accidental O(n^2)) is flagged
    # even when the previous record was just as slow.
    circuit_noisy = {"bench": "micro_circuit", "threads": 1,
                     "stages": {"opamp_sample_us": 175.0,
                                "adc_sample_us": 520.0}}
    circuit_blown = {"bench": "micro_circuit", "threads": 1,
                     "stages": {"opamp_sample_us": 950.0,
                                "adc_sample_us": 2400.0}}
    if [m for s, m in circuit_budget_rows(circuit_noisy) if s == "FAIL"]:
        print("self-test: noisy-but-sane circuit record flagged")
        ok = False
    blown = [m for s, m in circuit_budget_rows(circuit_blown)
             if s == "FAIL"]
    for metric in ("stages.opamp_sample_us", "stages.adc_sample_us"):
        if not any(metric in m for m in blown):
            print(f"self-test: blown circuit ceiling '{metric}' not flagged")
            ok = False

    # Fusion budgets: a healthy record (fused clearly beating independent,
    # ~1 ms joint snapshot) passes; broken borrowing (ratio >= 1) and a
    # blown-up joint solve are both flagged.
    fusion_good = {"bench": "micro_fusion", "rmse_ratio": 0.41,
                   "snapshot_p50_us": 1100.0}
    fusion_broken = {"bench": "micro_fusion", "rmse_ratio": 1.37,
                     "snapshot_p50_us": 240000.0}
    if [m for s, m in fusion_budget_rows(fusion_good) if s == "FAIL"]:
        print("self-test: healthy fusion record flagged")
        ok = False
    broken = [m for s, m in fusion_budget_rows(fusion_broken)
              if s == "FAIL"]
    for metric in ("rmse_ratio", "snapshot_p50_us"):
        if not any(metric in m for m in broken):
            print(f"self-test: broken fusion metric '{metric}' not flagged")
            ok = False

    # Scaling floor: a 4-thread record at 0.83 efficiency passes, one at
    # 0.33 fails — and neither is ever diffed against the 1-thread lane.
    st_rec = dict(base, label="st", threads=1, host_cores=8)
    mt_good = dict(base, label="mt-good", threads=4, host_cores=8,
                   mc_opamp_postlayout={"samples": 2000, "seconds": 0.067,
                                        "throughput_sps": 30000.0})
    mt_poor = dict(base, label="mt-poor", threads=4, host_cores=8,
                   mc_opamp_postlayout={"samples": 2000, "seconds": 0.167,
                                        "throughput_sps": 12000.0})
    mt_small_host = dict(mt_poor, label="mt-1core", host_cores=1)
    if [m for s, m in scaling_rows([st_rec, mt_good]) if s == "FAIL"]:
        print("self-test: efficient multi-thread record flagged")
        ok = False
    if not [m for s, m in scaling_rows([st_rec, mt_poor])
            if s == "FAIL"]:
        print("self-test: poorly-scaling multi-thread record not flagged")
        ok = False
    if scaling_rows([st_rec, mt_small_host]):
        print("self-test: scaling gated on a host with fewer cores than "
              "threads")
        ok = False

    # Thread-lane isolation: a 4-thread record appended after 1-thread
    # history must not be diffed against it (a 3x throughput jump or drop
    # between lanes is expected, not a regression), while the scaling gate
    # still sees both lanes.
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as handle:
        json.dump([mt_good, st_rec], handle)
        lanes_path = handle.name
    try:
        if check_history(lanes_path, args) != 0:
            print("self-test: cross-lane diff produced a false regression")
            ok = False
    finally:
        os.unlink(lanes_path)

    # bmf_soak records share the serve budgets: client-observed quantiles
    # from the soak driver gate exactly like micro_serve's, keyed on the
    # bench-name suffix for the binary lane.
    soak_good = {"bench": "bmf_soak", "mode": "json",
                 "observe_throughput_rps": 30000.0,
                 "latency_us": {"observe_p50": 80.0, "observe_p99": 400.0}}
    soak_stalled = {"bench": "bmf_soak", "mode": "json",
                    "observe_throughput_rps": 120.0,
                    "latency_us": {"observe_p50": 41000.0,
                                   "observe_p99": 90000.0}}
    soak_binary = {"bench": "bmf_soak_binary", "mode": "binary",
                   "observe_throughput_rps": 150000.0,
                   "latency_us": {"observe_p50": 300.0,
                                  "observe_p99": 3000.0}}
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as handle:
        json.dump([soak_stalled], handle)
        soak_path = handle.name
    try:
        if check_history(soak_path, args) == 0:
            print("self-test: stalled bmf_soak record not gated")
            ok = False
    finally:
        os.unlink(soak_path)
    if [m for s, m in serve_budget_rows(soak_good) if s == "FAIL"]:
        print("self-test: healthy bmf_soak record flagged")
        ok = False
    if not any("observe_throughput_rps" in m for s, m in serve_budget_rows(
            dict(soak_binary, observe_throughput_rps=6000.0))
            if s == "FAIL"):
        print("self-test: slow bmf_soak_binary record not held to the "
              "binary floor")
        ok = False

    # Telemetry overhead gate: ON within 3% of OFF passes, a 10% tax fails,
    # and single-mode histories (no OFF record) produce no rows.
    off_rec = dict(soak_good, telemetry=False,
                   observe_throughput_rps=31000.0)
    on_close = dict(soak_good, telemetry=True,
                    observe_throughput_rps=30500.0)
    on_taxed = dict(soak_good, telemetry=True,
                    observe_throughput_rps=27900.0)
    if [m for s, m in telemetry_overhead_rows([off_rec, on_close])
            if s == "FAIL"]:
        print("self-test: cheap telemetry flagged as overhead")
        ok = False
    if not [m for s, m in telemetry_overhead_rows([off_rec, on_taxed])
            if s == "FAIL"]:
        print("self-test: 10% telemetry tax not flagged")
        ok = False
    if telemetry_overhead_rows([on_close, on_taxed]):
        print("self-test: overhead rows produced without an OFF record")
        ok = False

    # Best-of-same-revision: repeat runs of one bench invocation share a
    # git revision, and the fastest repeat represents the binary (host
    # interference only subtracts). A noisy newest ON run is rescued by a
    # cleaner same-revision sibling ...
    on_close_r1 = dict(on_close, git="r1")
    on_taxed_r1 = dict(on_taxed, git="r1")
    off_r1 = dict(off_rec, git="r1")
    if [m for s, m in telemetry_overhead_rows(
            [off_r1, on_close_r1, on_taxed_r1]) if s == "FAIL"]:
        print("self-test: noisy repeat run not rescued by same-rev sibling")
        ok = False
    # ... but a fast record from an older revision must not mask a real
    # regression in the newest one.
    if not [m for s, m in telemetry_overhead_rows(
            [off_r1, dict(on_close, git="r0"), on_taxed_r1])
            if s == "FAIL"]:
        print("self-test: stale-revision ON record masked a telemetry tax")
        ok = False

    # Repeat-run collapse: back-to-back same-invocation records never diff
    # against each other (a noisy second repeat is not a regression) ...
    rep_fast = dict(soak_good, git="r1", label="x", date="d1")
    rep_noisy = dict(soak_good, git="r1", label="x", date="d1",
                     observe_throughput_rps=24000.0)
    if collapse_repeat_runs([rep_fast, rep_noisy]) != [rep_fast]:
        print("self-test: repeat runs not collapsed to the best run")
        ok = False
    # ... while a new-revision record still diffs against the old one.
    next_rev = dict(soak_good, git="r2", label="x", date="d1")
    if collapse_repeat_runs([rep_fast, next_rev]) != [rep_fast, next_rev]:
        print("self-test: distinct revisions wrongly collapsed")
        ok = False
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as handle:
        json.dump([rep_fast, rep_noisy], handle)
        repeats_path = handle.name
    try:
        if check_history(repeats_path, args) != 0:
            print("self-test: noisy repeat run gated as a regression")
            ok = False
    finally:
        os.unlink(repeats_path)

    # Lane isolation for metrics-OFF records: an OFF record appended after
    # ON history must not be diffed against it (OFF is a different binary
    # with legitimately different throughput).
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as handle:
        json.dump([on_close, off_rec], handle)
        notel_path = handle.name
    try:
        if check_history(notel_path, args) != 0:
            print("self-test: metrics-OFF record diffed against the ON lane")
            ok = False
    finally:
        os.unlink(notel_path)

    # Per-name gating: a stalled micro_serve record must stay gated even
    # when a healthy micro_serve_binary record is appended after it.
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as handle:
        json.dump([serve_stalled, binary_good], handle)
        mixed_path = handle.name
    try:
        if check_history(mixed_path, args) == 0:
            print("self-test: stalled record hidden behind a newer record "
                  "of another bench name")
            ok = False
    finally:
        os.unlink(mixed_path)

    print("self-test: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("histories", nargs="*",
                        help="BENCH_*.json history files")
    parser.add_argument("--report-only", action="store_true",
                        help="print the diff but always exit 0")
    parser.add_argument("--verbose", action="store_true",
                        help="also print metrics that are within budget")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in detection test and exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test(args))
    if not args.histories:
        parser.error("no history files given (or use --self-test)")

    total_failures = sum(check_history(p, args) for p in args.histories)
    if total_failures and not args.report_only:
        print(f"bench_check: {total_failures} regression(s) detected",
              file=sys.stderr)
        sys.exit(1)
    if total_failures:
        print(f"bench_check: {total_failures} regression(s) (report-only "
              "mode, not failing)")
    sys.exit(0)


if __name__ == "__main__":
    main()
