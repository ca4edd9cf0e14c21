#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root.  The benchmark is an OCaml program
(perfbench/src) built against the repository's own libraries: this
script copies lib/ and the benchmark sources into a staging workspace
under .bench_build/, builds it there with dune in the release profile,
and runs it with the same arguments.  The program's standard output,
whose last line is the result object, is passed through unchanged.
Everything the run writes stays under .bench_build/.
"""

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
STAGE = os.path.join(BUILD, "stage")
PROFILE = "release"
FIRST_BUILD_TIMEOUT_S = 840  # compiles lib/ from scratch
REBUILD_TIMEOUT_S = 60  # nothing or little to recompile
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync(src, dst):
    """Make dst a copy of src, rewriting only files whose bytes differ."""
    os.makedirs(dst, exist_ok=True)
    keep = set()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
        rel = os.path.relpath(dirpath, src)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        for name in filenames:
            s = os.path.join(dirpath, name)
            d = os.path.normpath(os.path.join(dst, rel, name))
            keep.add(d)
            with open(s, "rb") as f:
                data = f.read()
            if os.path.exists(d):
                with open(d, "rb") as f:
                    if f.read() == data:
                        continue
            with open(d, "wb") as f:
                f.write(data)
    for dirpath, _, filenames in os.walk(dst):
        for name in filenames:
            d = os.path.normpath(os.path.join(dirpath, name))
            if d not in keep:
                os.remove(d)


def source_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            p = os.path.join(dirpath, name)
            h.update(os.path.relpath(p, path).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build():
    lib = os.path.join(ROOT, "lib")
    if not os.path.isdir(lib) or not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("run from the repository root: lib/ and dune-project are missing")
    src = os.path.join(HERE, "src")
    exe = os.path.join(STAGE, "_build", "default", "bench", "main.exe")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout: a second run.py waits here.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        timeout = REBUILD_TIMEOUT_S if os.path.exists(exe) else FIRST_BUILD_TIMEOUT_S
        sync(lib, os.path.join(STAGE, "lib"))
        bench = os.path.join(STAGE, "bench")
        sync(src, bench)
        shutil.move(os.path.join(bench, "dune-project"), os.path.join(STAGE, "dune-project"))
        env = dict(os.environ, DUNE_CACHE="disabled")
        try:
            proc = subprocess.run(
                ["dune", "build", "--root", STAGE, "--profile", PROFILE,
                 "--display", "quiet", "./bench/main.exe"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=timeout)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    return exe, lib


def main():
    exe, lib = build()
    cmd = [exe] + sys.argv[1:] + [
        "--out", BUILD,
        "--build-profile", PROFILE,
        "--git-rev", git_rev(),
        "--source-digest", source_digest(lib),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
