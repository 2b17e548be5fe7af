#!/usr/bin/env python3
"""Builds and runs the DSF benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every argument is passed to the dsf_perfbench program.  The first call
configures perfbench/ with CMake into .bench_build/perfbench at the
repository root (the library is compiled from src/); later calls rebuild
incrementally.  Build output goes to stderr.  The program's report goes to
stdout, and its last line is the JSON result.  Exit codes: 0 ok, 1 a run
failed its correctness gate, 2 bad arguments or a failed build, 3 the
simulation threw.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dsf_perfbench")


def build():
    """Configures (once) and builds dsf_perfbench; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "dsf_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                check=False).returncode
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if rc != 0:
            return False
    return True


def revision():
    """The git revision when ROOT is a git checkout, else a digest of the
    library and benchmark sources, so every result names what it ran."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, check=True).stdout.strip()
            return rev + ("-dirty" if dirty else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:12]


def main():
    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    cmd = [BINARY] + sys.argv[1:] + ["--git-rev", revision()]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
