#!/usr/bin/env python3
"""Skyline benchmark: build the program from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: storesales-incomplete, anticorrelated and sql-mix (listed with
their reasons in BENCHMARK.json) and storesales-complete (runnable, not
listed: see perfbench/README.md). The first run in a checkout compiles the
program and the benchmark with sbt; later runs reuse the build while the
sources are unchanged. Each run starts one JVM with a fixed heap and
`local[N]`, N = one less than the CPUs this process may use: the spare CPU
serves the driver, GC and JIT threads, which keeps run-to-run spread low.
Its standard output ends with one JSON object: correct, attempted, failed,
metrics. Everything the run writes goes under .bench_build/perfbench.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# JDK 17 module opens that spark-submit normally injects.
MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]

# What the build reads: a change to any of these triggers a rebuild.
SOURCES = [
    (ROOT, ["build.sbt", "project", "src/main", "jobs"]),
    (HERE, ["build.sbt", "project/build.properties", "src/main"]),
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    for base, entries in SOURCES:
        for entry in entries:
            path = os.path.join(base, entry)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, f) for d, subdirs, fs in os.walk(path)
                if "target" not in os.path.relpath(d, path).split(os.sep)
                for f in fs)
            for f in files:
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, cwd, timeout, stdout=None, env=None):
    """Run cmd in its own process group and return its exit code, or None
    on timeout; the group is killed if it is still running when this returns
    (timeout, or SIGTERM to this script)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def sbt_env():
    """sbt resolves offline, from the local caches only."""
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def build(digest):
    """Compile program and benchmark; return the runtime classpath."""
    stamp = os.path.join(OUT, "build.stamp")
    cp_file = os.path.join(OUT, "classpath.txt")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                with open(cp_file) as fh:
                    return fh.read().strip()
    with open(os.path.join(OUT, "build.log"), "wb") as log:
        code = run_bounded(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
            HERE, BUILD_TIMEOUT_S, stdout=log, env=sbt_env())
    if code != 0:
        fail(f"build failed (exit {code}); see {os.path.join(OUT, 'build.log')}")
    with open(os.path.join(HERE, "target", "runtime-classpath.txt")) as fh:
        cp = fh.read().strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp, "w") as fh:
        fh.write(digest)
    return cp


def cpu_times():
    """Aggregate CPU jiffies (user, nice, system, idle, iowait, irq, softirq,
    steal) from /proc/stat, or None where it does not exist."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of the CPU time between two cpu_times() readings that the
    hypervisor gave to other guests: a run slowed by a busy host shows it."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def commit(digest):
    """The git commit of the checkout, or a digest of its sources."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "source-sha256:" + digest[:16]
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "source-sha256:" + digest[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"the program's sources are missing ({need}); run from a full checkout")
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    digest = source_digest()
    classpath = build(digest)

    cores = max(1, len(os.sched_getaffinity(0)) - 1)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC"] + \
        [f"--add-opens={m}=ALL-UNNAMED" for m in MODULE_OPENS] + [
        "-Dspark.driver.host=127.0.0.1",
        f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
        f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
        f"-Dperfbench.cores={cores}",
        f"-Dperfbench.commit={commit(digest)}",
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--out", OUT,
    ]
    out_file = os.path.join(OUT, f"run-{a.workload}.out")
    cpu0 = cpu_times()
    with open(out_file, "wb") as out:
        code = run_bounded(cmd, ROOT, RUN_TIMEOUT_S, stdout=out)
    steal = steal_share(cpu0, cpu_times())
    with open(out_file, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", 3)
    if code != 0:
        fail(f"benchmark JVM exited with {code}", code)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark JVM printed no result line", 4)
    for line in lines[:-1]:
        print(line)
    if steal is not None:
        print(f"host: {steal:.2%} of CPU time stolen by the hypervisor during the run")
    print(lines[-1])


if __name__ == "__main__":
    main()
