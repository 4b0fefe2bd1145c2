#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It configures and builds a Release
tree under .bench_build/perfbench (the program under test comes from
src/, unchanged), then runs the perfbench binary, whose last line of
standard output is the result object. Build output goes to standard
error. `--workload all` runs every workload in turn, for a person reading
the numbers; it prints no single result line.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["hot-read", "cold-check", "live-churn", "batch-scale"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the program and benchmark sources, for provenance when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no program sources (src/CMakeLists.txt) in this directory")
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 os.path.join(root, BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", os.path.join(root, BUILD_DIR), "--target",
                "perfbench", "dime_server", "-j", jobs]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_one(root, args, workload):
    work_dir = os.path.join(root, ".bench_build", f"work-{os.getpid()}")
    trace_dir = os.path.join(root, ".bench_build", "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        os.path.join(root, BUILD_DIR, "perfbench"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--server-binary", os.path.join(root, BUILD_DIR, "dime", "dime_server"),
        "--work-dir", work_dir,
        "--trace-path", os.path.join(trace_dir, f"{workload}-seed{args.seed}.jsonl"),
        "--git-sha", git_sha(root), "--source-digest", source_digest(root),
    ]
    try:
        # Its own process group, so a hung run is stopped together with the
        # server it started.
        proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr,
                                start_new_session=True)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    root = os.getcwd()
    build(root)
    sys.stdout.flush()
    if args.workload != "all":
        sys.exit(run_one(root, args, args.workload))
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        worst = max(worst, run_one(root, args, workload))
    sys.exit(worst)


if __name__ == "__main__":
    main()
