#!/usr/bin/env python3
"""Tests for scripts/perf_compare.py, the kernel-benchmark regression gate.

Runs the script on small synthetic google-benchmark exports and checks
its exit status: 0 when every baseline row is present and within the
tolerance, 1 when a row regressed or a baseline row is missing from the
results (a deleted or renamed benchmark must not silently leave the
gate). A benchmark that only the results have is reported, not gated.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PERF_COMPARE = REPO_ROOT / "scripts" / "perf_compare.py"


def export(path: Path, rows: dict[str, float]) -> Path:
    doc = {
        "context": {"bhss_build_flavor": "release"},
        "benchmarks": [{"name": n, "run_type": "iteration", "real_time": t}
                       for n, t in rows.items()],
    }
    path.write_text(json.dumps(doc))
    return path


def gate(tmp: Path, baseline: dict[str, float], results: dict[str, float]) -> int:
    base = export(tmp / "baseline.json", baseline)
    fresh = export(tmp / "results.json", results)
    proc = subprocess.run(
        [sys.executable, str(PERF_COMPARE), str(fresh), "--baseline", str(base),
         "--tolerance", "0.15"],
        capture_output=True, text=True, check=False)
    return proc.returncode


def main() -> int:
    base = {"BM_A": 100.0, "BM_B/8": 200.0}
    cases = [
        ("same rows, within tolerance", {"BM_A": 110.0, "BM_B/8": 190.0}, 0),
        ("extra results row is not gated", {"BM_A": 100.0, "BM_B/8": 200.0, "BM_C": 1.0}, 0),
        ("row regressed past tolerance", {"BM_A": 120.0, "BM_B/8": 200.0}, 1),
        ("baseline row missing from results", {"BM_A": 100.0}, 1),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as d:
        for label, results, want in cases:
            got = gate(Path(d), base, results)
            ok = got == want
            failed += not ok
            print(f"[{'ok' if ok else 'FAIL'}] {label}: exit {got}, want {want}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
