#!/usr/bin/env python3
"""Builds and runs the scheduling engine's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark program is compiled
from the checkout's own sources (a Release CMake build of perfbench/ in
$CARGO_TARGET_DIR, default .bench_build), then run with the same
arguments. Build output goes to stderr; the program's stdout is passed
through, so its last line is the JSON result. Exits non-zero without a
result when the sources are missing or the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output sent to stderr."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    run_quiet(configure)
    jobs = str(max(1, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def source_facts():
    """The commit when the checkout is a git work tree, and always a digest
    of the library and benchmark sources, so results name what was measured."""
    commit = "none"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def main():
    binary = build()
    commit, digest = source_facts()
    cmd = [binary] + sys.argv[1:] + ["--commit", commit, "--source-digest", digest]
    result = subprocess.run(cmd, cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
