#!/usr/bin/env python3
"""Builds and runs the GM query benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call in a checkout compiles the program's sources together with the
benchmark (sbt, offline) into .bench_build/; later calls reuse that build as
long as no source changed. The benchmark itself runs in one JVM; its last line
of standard output is the JSON result, and its exit code is passed through.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ("dq-expand", "hq-exact", "hq-answer")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs these packages opened (as the repo's build.sbt does).
JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def sources_digest():
    h = hashlib.sha256()
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (PROGRAM, os.path.join(HERE, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "sbt.offline" not in env.get("SBT_OPTS", "") and os.path.exists(repos):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.override.build.repos=true"
                           f" -Dsbt.repository.config={repos} -Dsbt.offline=true").strip()
    return env


def classpath():
    """Compiles once per source digest; returns the runtime classpath."""
    cp_file = os.path.join(BUILD, f"classpath-{sources_digest()}.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            return fh.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    start = time.time()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
           "compile", "export Runtime/fullClasspath"]
    code, out = run_group(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=sbt_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = (out or "").strip().splitlines()
    if code != 0 or not lines or "classes" not in lines[-1]:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail("build failed" if code is not None else "build timed out", 3)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1].strip())
    print(f"perfbench: built in {time.time() - start:.1f} s", file=sys.stderr)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not os.path.exists(os.path.join(PROGRAM, "repro", "core", "GM.scala")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM, os.getcwd())}")

    cp = classpath()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *JAVA_OPENS, "-Xms3g", "-Xmx3g",
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.driver.bindAddress=127.0.0.1",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}  # keep scratch in the checkout
    code, _ = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 124)
    sys.exit(code)


if __name__ == "__main__":
    main()
