#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out F]

Runs perfbench/run.py once per (seed, workload), interleaving the
workloads round-robin within each seed so slow host drift lands on every
workload alike. For each workload and metric it prints the median over
seeds and the quartile spread (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles, next to the
metric's bound from BENCHMARK.json. Every run must also report
correct == true.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
sys.path.insert(0, str(HERE))
from run import parse_seeds  # noqa: E402


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="write every run's result here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results[workload].append(result)
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)

    print(f"{'workload':16} {'metric':12} {'median':>12} {'spread':>7} "
          f"{'bound':>6}")
    ok = True
    for workload, runs in results.items():
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"{workload:16} {metric['name']:12} {median:12.6g} "
                  f"{spread:7.3f} {metric['bound']:6.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED OR WERE INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
