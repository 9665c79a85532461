#!/usr/bin/env python3
"""Builds the alcopd benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hot_probe|tune|mixed_open \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/ (CMake,
RelWithDebInfo, the library from src/ plus perfbench/); the first call
configures and builds, later calls only rebuild what changed. The last
line of standard output is the benchmark's JSON result; build output and
the human summary go to standard error. Exits non-zero, without a
result line, when the sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def source_sha():
    """SHA-256 over every file of src/ and perfbench/, names included."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: src/ not found next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                           "-j", jobs], stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot_probe", "tune", "mixed_open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               # Relative, so the daemon's unix socket path stays short.
               "--run-dir", os.path.relpath(run_dir, ROOT), "--git-sha", git_sha(),
               "--source-sha", source_sha()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
