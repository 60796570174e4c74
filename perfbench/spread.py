"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> --seeds 1 2 3 ... [--seconds S]

Runs the benchmark once per seed (untraced) and prints, per metric, the
median and the quartile spread (Q3 - Q1) / median, next to the metric's
bound from BENCHMARK.json. Raw results are appended to
.bench_build/perfbench/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    log = os.path.join(ROOT, ".bench_build", "perfbench", f"spread-{a.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in a.seeds:
        out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", a.workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "result": result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for k in values:
            values[k].append(result["metrics"][k]["value"])
        print(f"seed {seed} done", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        else:
            spread = 0.0
        print(f"{k:16s} median {med:14.6g}  spread {spread:7.4f}  bound {bounds[k]:.2f}"
              f"  {'OK' if spread < bounds[k] / 3 else 'WIDE'}")


if __name__ == "__main__":
    main()
