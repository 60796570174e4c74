"""Build file of the benchmark: compiles the program (src/main/scala) and
the benchmark (perfbench/src) with the Scala compiler that ships in
Spark's jars, into .bench_build/perfbench/<source hash>/classes.

    python3 perfbench/build.py        # prints the runtime classpath

The Spark distribution is found through SPARK_HOME, or else through
`spark-submit` on PATH. The output is reused while no source changes.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            sys.exit("build: set SPARK_HOME or put spark-submit on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars")
    if not os.path.isdir(jars):
        sys.exit(f"build: no jars directory under {home}")
    return jars


def sources():
    program = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(program):
        sys.exit("build: program sources src/main/scala not found")
    found = sorted(glob.glob(os.path.join(program, "**", "*.scala"), recursive=True))
    found += sorted(glob.glob(os.path.join(BENCH_DIR, "src", "*.scala")))
    return found


def build():
    """Compile if needed; return the runtime classpath."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for path in srcs + [os.path.abspath(__file__)]:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    out = os.path.join(BUILD_DIR, digest.hexdigest()[:16])
    classes = os.path.join(out, "classes")
    classpath = classes + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(os.path.join(out, "done")):
        return classpath

    def jar(prefix):
        hits = glob.glob(os.path.join(jars, prefix + "-2.*.jar"))
        if len(hits) != 1:
            sys.exit(f"build: expected one {prefix} jar in {jars}, found {hits}")
        return hits[0]

    compiler = os.pathsep.join(jar(p) for p in ("scala-compiler", "scala-library", "scala-reflect"))
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "classes"))
    print(f"build: compiling {len(srcs)} sources", file=sys.stderr)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", compiler, "scala.tools.nsc.Main",
           "-nowarn", "-usejavacp:false", "-classpath", os.path.join(jars, "*"),
           "-d", os.path.join(tmp, "classes")] + srcs
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit("build: compilation failed")
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    open(os.path.join(out, "done"), "w").close()
    return classpath


if __name__ == "__main__":
    print(build())
