#!/usr/bin/env python3
"""Link benchmark: build, run one workload, check the outputs, print the result.

    python3 perfbench/run.py --workload jammed_sweep --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build, as a Release build, then runs the `linkbench` binary. The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. `--make-reference` re-records reference.json (the PER/SER
references of the correctness gate) from the current build. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("jammed_sweep", "clean_link", "bisect_point")
SETUP_RUNS = 9            # extra set-up-only processes per --trace 0 run
RUN_TIMEOUT_S = 170       # one linkbench process
# The correctness gate is 99% confident across a whole campaign of runs:
# Bonferroni over CHECK_FAMILY checks (about 70 runs of 2-3 checks each).
CHECK_FAMILY = 200
Z_GATE = statistics.NormalDist().inv_cdf(1.0 - 0.01 / (2 * CHECK_FAMILY))
REFERENCE_SEEDS = range(1001, 1017)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure and build linkbench; None when either fails."""
    out = build_dir()
    cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "linkbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return out / "linkbench"


def run_linkbench(binary, args):
    """Run linkbench; returns (other stdout lines, parsed last line)."""
    proc = subprocess.run([str(binary), *args, "--workdir", str(build_dir() / "work")],
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"linkbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def wilson(k, n, z=Z_GATE):
    """Wilson score interval of a proportion k/n (k may be fractional)."""
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return centre - half, centre + half


def rates(stats):
    """(packets, lost packets, SER) of linkbench check_stats."""
    n = stats["packets"]
    return n, n - stats["ok"], stats["symbol_errors"] / stats["total_symbols"]


def reference_checks(workload, stats, reference):
    """PER and SER of this run against the reference values.

    Each reference value must lie in this run's Wilson interval at the
    gate's confidence. SER uses the packet count as n: SER is the mean of
    per-packet symbol error fractions in [0, 1], whose variance is at most
    p(1-p), so the interval is conservative although symbol errors cluster
    within packets.
    """
    ref = reference[workload]
    n, lost, ser = rates(stats)
    checks = {}
    for name, k, r in (("per", lost, ref["lost"] / ref["packets"]), ("ser", ser * n, ref["ser"])):
        lo, hi = wilson(k, n)
        checks[f"{name}_matches_reference"] = lo <= r <= hi
        log(f"check {name}: run {k / n:.4f}, interval [{lo:.4f}, {hi:.4f}] of {n} packets, "
            f"reference {r:.4f}")
    if "point_db" in ref:
        lo, hi = ref["point_db"]
        checks["points_within_reference"] = all(lo <= p <= hi for p in stats["points_db"])
        log(f"check points: {stats['points_db']} dB, reference range [{lo}, {hi}] dB")
    return checks


def source_id():
    """git SHA of the tree when it is a checkout, plus a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        sha = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha or "none", digest.hexdigest()[:12]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def make_reference(binary):
    """Pool one unit per reference seed into reference.json."""
    reference = {"seeds": [REFERENCE_SEEDS.start, REFERENCE_SEEDS.stop - 1]}
    for workload in WORKLOADS:
        packets = lost = 0
        ser_sum = 0.0
        points = []
        for seed in REFERENCE_SEEDS:
            _, raw = run_linkbench(binary, ["--workload", workload, "--seed", str(seed),
                                            "--seconds", "0", "--trace", "0"])
            n, k, ser = rates(raw["check_stats"])
            packets += n
            lost += k
            ser_sum += ser * n
            points += raw["check_stats"].get("points_db", [])
            log(f"reference {workload} seed {seed}: {raw['check_stats']}")
        entry = {"packets": packets, "lost": lost, "ser": ser_sum / packets}
        if points:
            entry["point_db"] = [round(min(points) - 3.0, 3), round(max(points) + 3.0, 3)]
        reference[workload] = entry
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    a = ap.parse_args()
    if not a.make_reference and a.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if a.make_reference:
        make_reference(binary)
        return 0
    reference = json.loads((HERE / "reference.json").read_text())

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    text, raw = run_linkbench(binary, common + ["--seconds", str(a.seconds),
                                                "--trace", str(a.trace)])
    values = dict(raw["metrics"])
    if a.trace == 0:
        # The other set-up samples come after the measuring run, so they all
        # see a busy machine rather than whatever idle gap preceded this run.
        setups = [values["setup_s"]]
        setups += [run_linkbench(binary, common + ["--setup-only"])[1]["setup_s"]
                   for _ in range(SETUP_RUNS)]
        values["setup_s"] = statistics.median(setups)
    for line in text:
        print(line)

    sha, digest = source_id()
    stamp = dict(raw["stamp"], cpu_model=cpu_model(), git_sha=sha, src_digest=digest)
    print("stamp: " + json.dumps(stamp, sort_keys=True))

    checks = dict(raw["checks"])
    checks.update(reference_checks(a.workload, raw["check_stats"], reference))
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    correct = all(checks.values())

    wanted = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log(f"perfbench: linkbench reported no {m['name']}")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    attempted = raw["attempted"]
    failed = raw["missing"] if correct else attempted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
