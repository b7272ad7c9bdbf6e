#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the program's sources
(src/main/scala) together with the benchmark code (perfbench/src) with sbt,
and records the resulting classpath under perfbench/target; later runs reuse
it until a source file changes. The run itself is one JVM (Spark local mode,
one worker thread per core) whose standard output ends with the result line.
Spark's log goes to perfbench/out/<workload>.log.
"""
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SOURCES = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(BENCH, "target")
OUT = os.path.join(BENCH, "out")
CLASSPATH = os.path.join(TARGET, "bench-classpath.txt")
STAMP = os.path.join(TARGET, "bench-classpath.stamp")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Spark on Java 17 needs these module openings (as spark-submit passes them).
JAVA_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every input of the build, so an edit triggers a rebuild."""
    h = hashlib.sha256()
    inputs = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in (SOURCES, os.path.join(BENCH, "src")):
        for d, _, files in sorted(os.walk(top)):
            inputs += [os.path.join(d, f) for f in sorted(files)]
    for path in inputs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def classpath():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == stamp:
                with open(CLASSPATH) as c:
                    return c.read().strip()
    print("perfbench: compiling (first run in this checkout)", file=sys.stderr)
    proc = subprocess.run(
        ["sbt", "-batch", "-error", "export Runtime/fullClasspath"],
        cwd=BENCH, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"build failed (sbt exit {proc.returncode})")
    cp = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(cp)
    with open(STAMP, "w") as f:
        f.write(stamp)
    return cp


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    if not os.path.isdir(SOURCES):
        fail(f"no program sources at {os.path.relpath(SOURCES)}; run from a full checkout")
    workload = args[args.index("--workload") + 1]
    cp = classpath()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-Xms3g", "-Xmx3g", f"-Djava.io.tmpdir={tmp}"] + JAVA_OPENS
           + ["-cp", cp, "perfbench.Main"] + args)
    log_path = os.path.join(OUT, f"{os.path.basename(workload)}.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stderr=log)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s; see {log_path}")
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
    sys.exit(code)


if __name__ == "__main__":
    main()
