#!/usr/bin/env python3
"""Gate kernel benchmark results against the committed baseline.

Compares a fresh google-benchmark JSON export (perf_kernels --json=...)
against BENCH_kernels.json and fails when any benchmark shared by both
files regressed by more than the tolerance (default 15 %). A benchmark
new in the results is reported and not gated. A baseline row missing
from the results fails the gate: a deleted or renamed benchmark must
leave the baseline in the same commit, or it would silently stop being
gated.

Modes:
  perf_compare.py RESULTS.json                 gate against BENCH_kernels.json
  perf_compare.py RESULTS.json --baseline P    gate against P
  perf_compare.py RESULTS.json --calibrate     rewrite the baseline from RESULTS

`--baseline` may be given several times to gate one results file against
multiple committed baselines in a single invocation; `--tolerance` is
then either given once (applied to every baseline) or once per baseline,
paired in order. CI uses this to gate the kernel baseline at 15 % and
the observability/adaptation baseline (BENCH_obs.json) at its tighter
2 % unobserved-hot-path budget in one pass. `--calibrate` refuses to run
with more than one baseline: recalibration is a deliberate, per-file act.

Both the gate and --calibrate refuse results whose embedded
`bhss_build_flavor` context (stamped by perf_kernels' custom main) is not
"release": debug or sanitizer numbers are meaningless as perf data.
Baselines recorded before the flavour stamp existed are accepted with a
warning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_kernels.json"
DEFAULT_TOLERANCE = 0.15


def load_rows(path: Path) -> tuple[dict[str, float], dict]:
    with open(path) as f:
        doc = json.load(f)
    rows: dict[str, float] = {}
    for row in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev from --benchmark_repetitions)
        # would double-count; keep only plain iteration rows.
        if row.get("run_type", "iteration") != "iteration":
            continue
        rows[row["name"]] = float(row["real_time"])
    return rows, doc.get("context", {})


def check_flavor(context: dict, what: str) -> list[str]:
    flavor = context.get("bhss_build_flavor")
    if flavor is None:
        return [f"note: {what} has no bhss_build_flavor stamp (pre-stamp recording?)"]
    if flavor != "release":
        raise SystemExit(
            f"error: {what} was produced by a '{flavor}' build of perf_kernels; "
            "only release numbers may be gated or recorded (see EXPERIMENTS.md)")
    return []


def gate(fresh: dict[str, float], baseline: Path, tolerance: float) -> int:
    base, base_ctx = load_rows(baseline)
    for note in check_flavor(base_ctx, str(baseline)):
        print(note)

    shared = sorted(set(fresh) & set(base))
    only_fresh = sorted(set(fresh) - set(base))
    only_base = sorted(set(base) - set(fresh))
    if not shared:
        print(f"error: {baseline} and results share no benchmark names",
              file=sys.stderr)
        return 2

    failures: list[str] = []
    width = max(len(n) for n in shared + only_base)
    for name in shared:
        ratio = fresh[name] / base[name] if base[name] > 0.0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSED"
            failures.append(name)
        print(f"  {name:<{width}}  {base[name]:>12.1f} -> {fresh[name]:>12.1f} ns "
              f"({ratio:6.2f}x)  {verdict}")
    for name in only_fresh:
        print(f"  {name:<{width}}  (new benchmark, not gated)")
    for name in only_base:
        print(f"  {name:<{width}}  MISSING from results")

    if only_base:
        print(f"\n{len(only_base)} baseline row(s) of {baseline.name} missing from "
              f"the results: {', '.join(only_base)}", file=sys.stderr)
        print("Drop the rows of a deleted or renamed benchmark from the baseline.",
              file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"{tolerance:.0%} of {baseline.name}: {', '.join(failures)}",
              file=sys.stderr)
        print("If the slowdown is intended, re-record with --calibrate on an "
              "idle machine and commit the new baseline.", file=sys.stderr)
    if failures or only_base:
        return 1
    print(f"\nall {len(shared)} shared benchmarks within {tolerance:.0%} "
          f"of {baseline.name}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="fresh perf_kernels JSON export")
    parser.add_argument("--baseline", type=Path, action="append", default=None,
                        help="baseline to gate against; repeatable "
                             f"(default {DEFAULT_BASELINE.name})")
    parser.add_argument("--tolerance", type=float, action="append", default=None,
                        help="allowed fractional slowdown before failing; one "
                             "value for all baselines or one per --baseline, "
                             f"paired in order (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--calibrate", action="store_true",
                        help="rewrite the baseline from the results instead of gating")
    args = parser.parse_args()

    baselines: list[Path] = args.baseline or [DEFAULT_BASELINE]
    tolerances: list[float] = args.tolerance or [DEFAULT_TOLERANCE]
    if len(tolerances) == 1:
        tolerances = tolerances * len(baselines)
    if len(tolerances) != len(baselines):
        print(f"error: {len(baselines)} baseline(s) but {len(tolerances)} "
              "tolerance(s); give one tolerance for all or one per baseline",
              file=sys.stderr)
        return 2

    fresh, fresh_ctx = load_rows(args.results)
    if not fresh:
        print(f"error: no benchmark rows in {args.results}", file=sys.stderr)
        return 2
    for note in check_flavor(fresh_ctx, str(args.results)):
        print(note)

    if args.calibrate:
        if len(baselines) != 1:
            print("error: --calibrate takes exactly one --baseline; "
                  "recalibrate each file in its own invocation", file=sys.stderr)
            return 2
        baselines[0].write_text(Path(args.results).read_text())
        print(f"calibrated: {baselines[0]} <- {args.results} ({len(fresh)} rows)")
        return 0

    worst = 0
    for baseline, tolerance in zip(baselines, tolerances):
        if len(baselines) > 1:
            print(f"\n== {baseline.name} (tolerance {tolerance:.0%}) ==")
        worst = max(worst, gate(fresh, baseline, tolerance))
    return worst


if __name__ == "__main__":
    sys.exit(main())
