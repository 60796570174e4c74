"""TPA benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Builds the program and the benchmark from source (build.py), runs one
workload in a fresh JVM and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The metrics must be
exactly the `end_to_end` (trace 0) or `per_layer` (trace 1) entries of
BENCHMARK.json, with their units; otherwise no result line is printed and
the exit code is 1. Workloads, metrics and baselines: perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench", "out")
# The JVM's own start, warm-up and traced Spark section, on top of --seconds.
RUN_MARGIN_S = 140

sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
import build  # noqa: E402

JVM_OPTS = [
    "-Xms2g",
    "-Xmx2g",
    "-XX:+AlwaysPreTouch",
    "-Dspark.driver.host=127.0.0.1",
    "-Dlog4j2.configurationFile=" + os.path.join(BENCH_DIR, "log4j2.properties"),
] + [
    # Spark on JDK 17 needs these opens (see build.sbt).
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def fail(msg):
    print(f"run: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected(mode_key):
    return {m["name"]: m["unit"] for m in spec()[mode_key]}


def validate(result, mode_key):
    """Problems with one result object, as a list of strings."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    want = expected(mode_key)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = [f"missing metric {k}" for k in want if k not in got]
    problems += [f"unexpected metric {k}" for k in got if k not in want]
    problems += [f"metric {k} has unit {got[k]}, expected {u}"
                 for k, u in want.items() if k in got and got[k] != u]
    return problems


def jvm(args, timeout):
    """Run the benchmark JVM; stream its output, return its stdout lines.
    The JVM is killed when it has not exited `timeout` seconds after start."""
    classpath = build.build()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    cmd = (["java"] + JVM_OPTS + ["-Djava.io.tmpdir=" + scratch, "-cp", classpath, "repro.perfbench.Main"]
           + args + ["--out", OUT_DIR])
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(scratch, "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, expire)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if not line.startswith("{"):
                print(line, end="", flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if expired.is_set():
        fail(f"benchmark JVM did not finish within {timeout} s")
    if code != 0:
        fail(f"benchmark JVM exited with code {code}")
    return lines


def run(a):
    names = [w["name"] for w in spec()["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload}; expected one of {names}")
    lines = jvm(["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                 "--trace", str(a.trace)], a.seconds + RUN_MARGIN_S)
    if not lines or not lines[-1].startswith("{"):
        fail("no result line")
    result = json.loads(lines[-1])
    problems = validate(result, "per_layer" if a.trace else "end_to_end")
    if problems:
        fail("; ".join(problems))
    print(json.dumps(result))


def selfcheck():
    """Tiny graphs: metric sets in both modes, corrupted results counted as
    failures, and the Spark edge table checked under local[1], [2] and [3]."""
    lines = jvm(["--workload", "selfcheck", "--seed", "1", "--seconds", "1", "--trace", "0"], 400)
    cases = {}
    for line in lines:
        if line.startswith("selfcheck "):
            _, name, body = line.split(" ", 2)
            cases[name] = json.loads(body)
    problems = []
    for name, result in sorted(cases.items()):
        mode = "per_layer" if name.startswith("trace1") else "end_to_end"
        problems += [f"{name}: {p}" for p in validate(result, mode)]
        if name.endswith("corrupt"):
            if result["failed"] == 0 or result["correct"]:
                problems.append(f"{name}: the zeroed stranger vector was not counted as a failure")
        elif result["failed"] != 0 or not result["correct"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} failed")
    if len(cases) != 5:
        problems.append(f"expected 5 cases, got {sorted(cases)}")
    if problems:
        fail("selfcheck failed:\n  " + "\n  ".join(problems))
    print(f"selfcheck passed: {len(cases)} cases")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if a.selfcheck:
        selfcheck()
    elif a.workload is None or a.seed is None or a.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    else:
        run(a)


if __name__ == "__main__":
    main()
