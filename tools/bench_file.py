"""Writes BENCH_<workload>.json: one workload's end-to-end metrics at two
commits, from one perfbench/spread.py log per side.

    python3 tools/bench_file.py --workload driver-sparse \\
        --parent ../parent/.bench_build/perfbench/spread-driver-sparse.jsonl \\
        --change .bench_build/perfbench/spread-driver-sparse.jsonl

spread.py appends one line {"seed", "result"} per run. A pair is a seed
that both logs ran. The file records:

  * each side's revision: `git describe --always --dirty` of the checkout
    that holds its log, unless --parent-rev or --change-rev is given;
  * the core count of this machine (run the tool where the logs were made);
  * each pair's input fingerprint, `n=... m=... edge_hash=...`, as the
    benchmark prints it: the edge list of perfbench/src/Inputs.scala
    (`Inputs.rmat`) is a pure function of (workload, seed), recomputed here;
  * per metric of BENCHMARK.json's end_to_end list: each side's median,
    Q1 and Q3 over the pairs, the change's median relative to the parent's,
    and in how many pairs the change is better;
  * the runs and failed operations on each side.

The written file is printed too.

    python3 tools/bench_file.py --selfcheck

checks the tool and the committed files without running the benchmark:
each pair's fingerprint in every BENCH_*.json at the repository root
against the one recomputed from `Inputs.rmat`'s hashing, and the median,
Q1-Q3 and pairs-won arithmetic on a small synthetic pair of logs. It exits
non-zero on the first mismatch.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (scale, edge draws) of each workload's analog: perfbench/src/Inputs.scala.
ANALOGS = {"driver-sparse": (15, 1155000), "driver-dense": (13, 153600)}
# RMAT quadrant probabilities, as in Inputs.scala.
A, B, C = 0.57, 0.19, 0.19
U64 = np.uint64


def mix64(x):
    """SplitMix64 finalizer on uint64 arrays, wrapping as Scala's Long does."""
    with np.errstate(over="ignore"):
        z = x + U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> U64(30))) * U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> U64(27))) * U64(0x94D049BB133111EB)
        return z ^ (z >> U64(31))


def fingerprint(workload, seed):
    """`Inputs.rmat(analog, seed).fingerprint`."""
    scale, draws = ANALOGS[workload]
    n = 1 << scale
    seed_hash = mix64(np.array([seed], dtype=np.int64).view(U64))
    edge_hash = mix64(seed_hash ^ mix64(np.arange(draws, dtype=U64)))
    s = np.zeros(draws, dtype=np.int64)
    d = np.zeros(draws, dtype=np.int64)
    for level in range(scale):
        with np.errstate(over="ignore"):
            u = (mix64(edge_hash + U64(level)) >> U64(11)).astype(np.float64) * (1.0 / (1 << 53))
        s = s * 2 + (u >= A + B)
        d = d * 2 + ~((u < A) | ((u >= A + B) & (u < A + B + C)))
    keys = np.unique((s * n + d)[s != d])
    has_out = np.zeros(n, dtype=bool)
    has_out[keys // n] = True
    patched = np.flatnonzero(~has_out)
    keys = np.concatenate([keys, patched * n + (patched + 1) % n])
    with np.errstate(over="ignore"):
        total = int(mix64(keys.view(U64)).sum(dtype=U64))
    return f"n={n} m={len(keys)} edge_hash={total:016x}"


def read_log(path):
    """seed -> result, the last run of each seed."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                runs[entry["seed"]] = entry["result"]
    return runs


def revision(log):
    checkout = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(log))))
    out = subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(end_to_end, parent, change, seeds):
    """Per metric of `end_to_end` (BENCHMARK.json's list): each side's
    median and Q1-Q3 over `seeds`, the relative change and the pairs won."""
    metrics = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        before = [parent[s]["metrics"][name]["value"] for s in seeds]
        after = [change[s]["metrics"][name]["value"] for s in seeds]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(before, after))
        base, new = summary(before), summary(after)
        metrics[name] = {"unit": m["unit"], "better": m["better"], "parent": base, "change": new,
                         "change_vs_parent": new["median"] / base["median"] - 1 if base["median"] else None,
                         "change_better_in": f"{wins} of {len(seeds)}"}
    return metrics


def selfcheck():
    """Checks the committed BENCH files' fingerprints and this tool's
    arithmetic; raises SystemExit on a mismatch."""
    files = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not files:
        raise SystemExit("selfcheck: no BENCH_*.json at the repository root")
    for path in files:
        with open(path) as f:
            bench = json.load(f)
        for pair in bench["pairs"]:
            got = fingerprint(bench["workload"], pair["seed"])
            if got != pair["input"]:
                raise SystemExit(f"selfcheck: {os.path.basename(path)} seed {pair['seed']}: "
                                 f"file says {pair['input']}, Inputs.rmat gives {got}")
        print(f"selfcheck: {os.path.basename(path)}: {len(bench['pairs'])} fingerprints match")

    # Seed 6 runs on one side only, and the change's first run of seed 3
    # is superseded by its second: neither may count.
    spec = [{"name": "time", "unit": "s", "better": "lower"},
            {"name": "rate", "unit": "1/s", "better": "higher"}]
    parent = {1: (10, 100), 2: (20, 200), 3: (30, 300), 4: (40, 400), 5: (50, 500), 6: (1, 1)}
    change = [(1, (9, 150)), (2, (21, 150)), (3, (1000, 0)), (3, (25, 350)), (4, (35, 450)), (5, (45, 450))]
    expected = {
        "time": {"parent": {"median": 30, "q1": 15, "q3": 45}, "change": {"median": 25, "q1": 15, "q3": 40},
                 "change_vs_parent": 25 / 30 - 1, "change_better_in": "4 of 5"},
        "rate": {"parent": {"median": 300, "q1": 150, "q3": 450}, "change": {"median": 350, "q1": 150, "q3": 450},
                 "change_vs_parent": 350 / 300 - 1, "change_better_in": "3 of 5"},
    }

    def line(seed, values):
        return json.dumps({"seed": seed, "result": {"metrics": {
            m["name"]: {"value": v, "unit": m["unit"]} for m, v in zip(spec, values)}}})

    with tempfile.TemporaryDirectory() as tmp:
        logs = {}
        for side, entries in (("parent", list(parent.items())), ("change", change)):
            logs[side] = os.path.join(tmp, f"{side}.jsonl")
            with open(logs[side], "w") as f:
                f.write("".join(line(s, v) + "\n" for s, v in entries))
        before, after = read_log(logs["parent"]), read_log(logs["change"])
    seeds = sorted(set(before) & set(after))
    got = compare(spec, before, after, seeds)
    for name, want in expected.items():
        for key, value in want.items():
            have = got[name][key]
            same = (have == value if isinstance(value, str) else
                    abs(have - value) < 1e-12 if not isinstance(value, dict) else
                    all(abs(have[k] - v) < 1e-12 for k, v in value.items()))
            if not same:
                raise SystemExit(f"selfcheck: synthetic {name} {key}: got {have}, expected {value}")
    print(f"selfcheck: synthetic logs: median, Q1-Q3, relative change and pairs won match over {len(seeds)} pairs")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--selfcheck", action="store_true", help="check the committed BENCH files and this tool")
    p.add_argument("--workload", choices=sorted(ANALOGS))
    p.add_argument("--parent", help="spread.py log of the parent commit")
    p.add_argument("--change", help="spread.py log of the change")
    p.add_argument("--parent-rev")
    p.add_argument("--change-rev")
    p.add_argument("--out", help="default: BENCH_<workload>.json at the repository root")
    a = p.parse_args()
    if a.selfcheck:
        selfcheck()
        return
    if not (a.workload and a.parent and a.change):
        p.error("--workload, --parent and --change are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = read_log(a.parent), read_log(a.change)
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        raise SystemExit("the two logs have no seed in common")
    bench = {
        "workload": a.workload,
        "parent_rev": a.parent_rev or revision(a.parent),
        "change_rev": a.change_rev or revision(a.change),
        "cores": len(os.sched_getaffinity(0)),
        "pairs": [{"seed": s, "input": fingerprint(a.workload, s)} for s in seeds],
        "runs": {side: {"attempted": sum(log[s]["attempted"] for s in seeds),
                        "failed": sum(log[s]["failed"] for s in seeds)}
                 for side, log in (("parent", parent), ("change", change))},
        "metrics": compare(spec["end_to_end"], parent, change, seeds),
    }
    out = a.out or os.path.join(ROOT, f"BENCH_{a.workload}.json")
    with open(out, "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")
    print(json.dumps(bench, indent=2))


if __name__ == "__main__":
    main()
