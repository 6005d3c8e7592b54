#!/usr/bin/env python3
"""Build file of the TAG-join benchmark.

Compiles the program's sources (`src/main/scala`) together with the
benchmark's own sources (`perfbench/src`) with the Scala compiler that ships
in the Spark distribution, so no build tool and no dependency resolution are
needed. Classes go to `.bench_build/perfbench/<source hash>/classes`; a build
is reused while the sources are unchanged.

Run from the root of a checkout:

    python3 perfbench/build.py      # prints the classes directory
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOTS = ["src/main/scala", os.path.join(os.path.relpath(HERE), "src")]
BUILD_ROOT = os.path.join(".bench_build", "perfbench")


class BuildError(Exception):
    pass


def spark_jars_dir():
    """The `jars` directory of the Spark distribution on this host."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found "
                         "(set SPARK_HOME)")
    return jars


def classpath(jars_dir):
    return sorted(glob.glob(os.path.join(jars_dir, "*.jar")))


def sources():
    if not os.path.isdir(SOURCE_ROOTS[0]):
        raise BuildError(f"program sources not found: {SOURCE_ROOTS[0]} "
                         "(run from the root of a checkout)")
    files = []
    for root in SOURCE_ROOTS:
        files += glob.glob(os.path.join(root, "**", "*.scala"), recursive=True)
    return sorted(files)


def build():
    """Compile if needed; return the classes directory."""
    srcs = sources()
    h = hashlib.sha256()
    for f in srcs + [os.path.abspath(__file__)]:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    out = os.path.join(BUILD_ROOT, h.hexdigest()[:16])
    classes = os.path.join(out, "classes")
    if os.path.isdir(classes):
        return classes

    jars = spark_jars_dir()
    cp = classpath(jars)
    compiler = [j for j in cp if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print(f"[perfbench] compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-classpath", os.pathsep.join(cp),
           "-d", tmp] + srcs
    r = subprocess.run(cmd, stdout=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {r.returncode}")
    os.rename(tmp, classes)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
