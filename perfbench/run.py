#!/usr/bin/env python3
"""gridsched benchmark: one command, three closed batch workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gridsched checkout. The first call builds
perfbench/CMakeLists.txt (the repository's own build plus the probe) into
$CARGO_TARGET_DIR, default .bench_build. Each measured operation is a
fresh perfbench_probe process; operations repeat until --seconds have
passed, after one untimed warm-up. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, measured one workload part
per process (see end_to_end below); with --trace 1 its per_layer list,
each the median over the run's traced operations.

Outputs are checked three ways: every operation of a run must produce the
same digests, a traced run must reproduce the untraced RunMetrics bit for
bit, and where perfbench/reference.json holds the seed, the digests must
equal the recorded ones. `--record SEEDS` (e.g. 0-20,20050419) rewrites
that file.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = HERE / "table2.json"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("paper-campaign", "stream-mct", "churn-mct")
OP_TIMEOUT_S = 90
DEADLINE_S = 150  # stop starting operations; the run must end by 180 s


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring perfbench_probe up to date."""
    if not (ROOT / "src" / "gridsched.hpp").is_file():
        log(f"no gridsched sources under {ROOT}; run from a full checkout")
        sys.exit(2)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench_probe", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build failed: {' '.join(step)}")
                sys.exit(1)
    return build_dir / "perfbench_probe"


def operation(probe, workload, seed, mode, part=0):
    """One probe process. Returns its JSON report, or None if it failed."""
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as the probe's steady_clock
    command = [str(probe), f"--workload={workload}", f"--seed={seed}",
               f"--mode={mode}", f"--part={part}", f"--t0-ns={t0}",
               f"--spec={SPEC}"]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out after {OP_TIMEOUT_S} s")
        return None
    if done.returncode != 0:
        log(f"{workload} seed {seed}: exit {done.returncode}: "
            f"{done.stderr.strip()}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{workload} seed {seed}: unreadable report {done.stdout!r}")
        return None


def load_reference():
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def check(report, first, expected):
    """Problems with one report, against the first report of the same
    part (or of the run, in trace mode) and the recorded reference (None
    when the seed has none)."""
    problems = []
    if "part" in report:
        if report["digest"] != first["digest"]:
            problems.append("RunMetrics differ between operations of a part")
        if expected and report["digest"] != expected["digests"][report["part"]]:
            problems.append("RunMetrics differ from reference.json")
        return problems
    if not report["invariants"]:
        problems.append("sim counts break the completion invariants")
    if (report["digests"], report["counts_digest"]) != (
            first["digests"], first["counts_digest"]):
        problems.append("outputs differ between operations")
    if expected and (report["digests"], report["counts_digest"]) != (
            expected["digests"], expected["counts"]):
        problems.append("outputs differ from reference.json")
    return problems


def end_to_end(reports, parts):
    """jobs_per_s: each part's jobs over the median wall of its samples,
    summed over parts; setup_s and peak_rss_mb: medians over all."""
    walls = [statistics.median(r["wall_s"] for r in reports
                               if r["part"] == p) for p in range(parts)]
    jobs = [next(r["jobs"] for r in reports if r["part"] == p)
            for p in range(parts)]
    return {
        "jobs_per_s": sum(jobs) / sum(walls),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def measure(args):
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = specs["per_layer" if args.trace else "end_to_end"]
    probe = build()
    expected = load_reference().get(args.workload, {}).get(str(args.seed))
    if expected is None:
        log(f"no reference for {args.workload} seed {args.seed}: checking "
            "determinism, traced == untraced and invariants only")

    warmup = operation(probe, args.workload, args.seed, "run")  # untimed
    parts = warmup["parts"] if warmup else 1
    start = time.monotonic()
    reports, firsts, ops = [], {}, 0
    attempted, failed = (0, 0) if warmup else (1, 1)
    # Run mode cycles through the parts, one per process, until --seconds
    # have passed and every part has been sampled; trace mode covers every
    # part in each process.
    while ops == 0 or time.monotonic() - start < args.seconds or (
            not args.trace and ops < parts):
        if time.monotonic() - start > DEADLINE_S:
            break
        part = 0 if args.trace else ops % parts
        ops += 1
        report = operation(probe, args.workload, args.seed,
                           "trace" if args.trace else "run", part)
        if report is None:
            attempted += 1
            failed += 1
            continue
        first = firsts.setdefault(part, report)
        problems = check(report, first, expected)
        for problem in problems:
            log(f"{args.workload} seed {args.seed}: {problem}")
        attempted += report["attempted"]
        failed += report["attempted"] if problems else report["failed"]
        reports.append(report)

    metrics = {}
    if args.trace and reports:
        values = {s["name"]: statistics.median(r["layers"][s["name"]]
                                               for r in reports)
                  for s in specs}
    elif len(firsts) == parts:
        values = end_to_end(reports, parts)
    else:
        values = {}
    for spec in specs:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]],
                                     "unit": spec["unit"]}
    correct = failed == 0 and len(metrics) == len(specs)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(seeds):
    """Rewrite reference.json with the digests of `seeds` for every
    workload."""
    probe = build()
    reference = {}
    for workload in WORKLOADS:
        recorded = reference.setdefault(workload, {})
        for seed in seeds:
            report = operation(probe, workload, seed, "digest")
            if report is None or report["failed"] or not report["invariants"]:
                log(f"{workload} seed {seed}: not recorded (failed)")
                sys.exit(1)
            recorded[str(seed)] = {"digests": report["digests"],
                                   "counts": report["counts_digest"]}
        log(f"{workload}: {len(recorded)} seeds recorded")
    lines = []
    for workload in sorted(reference):
        seeds = sorted(reference[workload].items(), key=lambda i: int(i[0]))
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry)}"
                           for seed, entry in seeds)
        lines.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20050419)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="record reference digests, e.g. 0-63,20050419")
    args = parser.parse_args()
    if args.record:
        record(parse_seeds(args.record))
    elif args.workload:
        measure(args)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
