#!/usr/bin/env python3
"""Build the end-to-end graphlogd benchmark from source and run it once.

    python3 bench_e2e/run.py --workload closure_mix --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under bench_e2e/; the first run compiles src/ and takes a
few minutes, later runs only check that the build is current. The last
line of standard output is the run's JSON result (see NOTES.md). Build
output goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "bench_e2e")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench_e2e"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(bdir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("bench_e2e: no GraphLog sources next to bench_e2e/ "
                 "(expected src/CMakeLists.txt); run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "bench_e2e", "bench_e2e_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("bench_e2e: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload",
                   choices=["closure_mix", "point_lookups", "ingest_churn"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "bench_e2e_test")])
                 .returncode)
    cmd = [os.path.join(bdir, "bench_e2e"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "run"), "--rev", revision()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
