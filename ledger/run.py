#!/usr/bin/env python3
"""Build and run the cnsim ledger benchmark.

Usage (from the repository root):

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the ledger package (ledger/CMakeLists.txt, which
compiles the cnsim library from src/) into $CARGO_TARGET_DIR/ledger, or
.bench_build/ledger when that variable is unset, then runs the harness.
Build output goes to stderr; the harness's report goes to stdout, and
its last line is the JSON result. Exits non-zero, without a result, if
the build or the run fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "ledger")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "ledger")


def build(out):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "cnsim_ledger")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the simulator and ledger sources, so a report names
    the exact code it measured even in a checkout without git."""
    h = hashlib.sha256()
    for top in ("src", "ledger"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"ledger: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary] + sys.argv[1:] + [
        "--run-dir", os.path.join(os.path.dirname(build_dir()), "ledger-run"),
        "--git-commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"ledger: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return p.returncode if p.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
