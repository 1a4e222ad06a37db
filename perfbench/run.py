#!/usr/bin/env python3
"""Build valpipe's benchmark from source and run one workload.

    python3 perfbench/run.py --workload figures|compile|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --test      # the benchmark's own helper tests

Run from the repository root.  The build tree lives in $CARGO_TARGET_DIR
(default .bench_build); the first run configures and builds a Release tree
there.  The benchmark binary prints the result JSON as the last stdout line;
build output goes to stderr.  Any failure exits non-zero without a result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures", "compile", "serve")
BUILD_TIMEOUT_S = 850
# A measured phase runs at most 3 x --seconds; set-up and checks take well
# under this margin on top.
RUN_MARGIN_S = 80


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(d), "perfbench")


def run_checked(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; raises on failure."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("timed out: " + " ".join(cmd))
    if code != 0:
        raise RuntimeError("exit %d: %s" % (code, " ".join(cmd)))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("valpipe sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                BUILD_TIMEOUT_S)
    return out


def source_id():
    """git commit when ROOT is a git work tree, else a digest of the sources
    measured."""
    if shutil.which("git"):
        try:
            git = ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"]
            rev = subprocess.run(git, capture_output=True, text=True, timeout=10)
            lines = rev.stdout.split()
            if (rev.returncode == 0 and len(lines) == 2 and
                    os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
                return lines[1]
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_binary(cmd, seconds):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=3 * seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark run timed out")
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's helper tests")
    args = ap.parse_args()
    try:
        if args.test:
            out = build(["perfbench_helpers_test"])
            return subprocess.call([os.path.join(out, "perfbench_helpers_test")],
                                   stdout=sys.stderr)
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        out = build(["perfbench"])
        workdir = os.path.relpath(os.path.dirname(out))
        return run_binary([os.path.join(out, "perfbench"),
                           "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", str(args.trace),
                           "--workdir", workdir,
                           "--commit", source_id()], args.seconds)
    except RuntimeError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
