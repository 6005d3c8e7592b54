#!/usr/bin/env python3
"""TAG-join benchmark runner.

    python3 perfbench/run.py --workload local|dist|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the program and the benchmark from
source (see build.py), runs one workload in a fresh JVM, and prints the
result as one JSON object on the last line of standard output. `--trace 1`
prints the per-layer metrics instead of the end-to-end ones and writes the
spans and superstep records to `.bench_build/perfbench-trace/`. `--workload
all` runs every workload in turn with the end-to-end metrics and prints each
one's result line, prefixed by its name.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["local", "dist"]
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Module opens Spark needs on JDK 17 (the list spark-submit passes).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def run_workload(classes, workload, seed, seconds, trace):
    """Run one workload in its own JVM; return its parsed result or None."""
    scratch = os.path.abspath(os.path.join(".bench_build", "perfbench-run"))
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    trace_out = os.path.join(".bench_build", "perfbench-trace", f"{workload}-seed{seed}.jsonl")
    cp = os.pathsep.join([classes] + build.classpath(build.spark_jars_dir()))
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-Djdk.reflect.useDirectMethodHandle=false",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={os.path.join(scratch, 'spark-local')}",
            f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
            "-Dspark.driver.host=127.0.0.1"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "perfbench.Main", "--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace), "--trace-out", trace_out])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] {workload}: timed out after {RUN_TIMEOUT_S}s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # the JVM ends without stopping Spark, so its scratch files stay behind
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"[perfbench] {workload}: exit code {proc.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"[perfbench] {workload}: malformed result {lines[-1]}", file=sys.stderr)
        return None
    return result


def main():
    # turn SIGTERM into an exception so that the JVM is stopped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    try:
        classes = build.build()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    if a.workload != "all":
        result = run_workload(classes, a.workload, a.seed, a.seconds, a.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    ok = True
    for w in WORKLOADS:
        result = run_workload(classes, w, a.seed, a.seconds, a.trace)
        if result is None:
            return 1
        for name, m in result["metrics"].items():
            print(f"{w:5s} {name:22s} {m['value']:>14.6g} {m['unit']}")
        print(f"{w:5s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
