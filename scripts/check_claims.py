#!/usr/bin/env python3
"""Claims gate: pins the Section 5 claims table of bench/cost_reduction_table.

    python3 scripts/check_claims.py build/bench/cost_reduction_table

Runs the bench with its default settings in a fresh temporary directory
(it generates its Monte Carlo populations there, ~2 s), reads the rows it
writes with --json, and compares every cost-reduction factor and every
n = 32 hyper-parameter median with the pinned value below to 3 significant
figures. The bench is seeded, so any difference is a real change in the
estimates: re-pin only together with a note in EXPERIMENTS.md saying why
the numbers moved. Exits 1 on a mismatch, 2 when the bench fails.
"""
import json
import os
import subprocess
import sys
import tempfile

# (circuit, moment): (cost reduction at small n, kappa0 @ n=32, nu0 @ n=32).
# The paper reports ~3x / >16x (op-amp mean / covariance) and >10x on both
# ADC moments; kappa0 4.67 / nu0 557.3 (op-amp) and 521.9 / 558.8 (ADC).
PINNED = {
    ("opamp", "mean"): (1.55, 6.579, 1005.0),
    ("opamp", "covariance"): (19.4, 6.579, 1005.0),
    ("adc", "mean"): (3.05, 284.8, 414.2),
    ("adc", "covariance"): (12.4, 284.8, 414.2),
}
FIELDS = ("measured_x", "kappa0_n32", "nu0_n32")


def sig3(value):
    return f"{value:.3g}"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary = os.path.abspath(argv[1])
    with tempfile.TemporaryDirectory(prefix="bmf_claims_") as tmp:
        out_json = os.path.join(tmp, "claims.json")
        done = subprocess.run(
            [binary, "--data-dir", os.path.join(tmp, "bench_data"),
             "--json", out_json],
            cwd=tmp, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"check_claims: {binary} exited {done.returncode}",
                  file=sys.stderr)
            return 2
        with open(out_json, encoding="utf-8") as f:
            rows = json.load(f)["rows"]

    failures = []
    seen = set()
    for row in rows:
        key = (row["circuit"], row["moment"])
        seen.add(key)
        if key not in PINNED:
            failures.append(f"{key}: row has no pinned value")
            continue
        for field, pinned in zip(FIELDS, PINNED[key]):
            if sig3(row[field]) != sig3(pinned):
                failures.append(f"{key} {field}: measured {row[field]:.6g}, "
                                f"pinned {pinned:.6g}")
    for key in sorted(set(PINNED) - seen):
        failures.append(f"{key}: pinned row missing from the bench output")

    for failure in failures:
        print(f"check_claims: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_claims: {len(rows)} rows match the pinned claims table")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
