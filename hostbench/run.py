#!/usr/bin/env python3
"""Build and run hostbench, the hostnet simulator's benchmark.

Run from the repository root:

  python3 hostbench/run.py --workload fig03_cold|fleet_fork|tcp_stacks \\
      --seed N --seconds S --trace 0|1 [--tables]
  python3 hostbench/run.py --selftest

The first call configures and builds the benchmark (hostbench/CMakeLists.txt,
which compiles the library from ../src) under $CARGO_TARGET_DIR/hostbench,
default .bench_build/hostbench; later calls only rebuild what changed. Build
output goes to stderr. The last line of stdout is the run's JSON result; its
metric names are checked against BENCHMARK.json. A traced run (--trace 1)
also writes its spans as a Chrome trace next to the build directory.
The exit code is non-zero when the build fails, any check fails, or the
output does not match BENCHMARK.json.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def run_checked(cmd, **kw):
    """Runs cmd to completion; on interruption stops it and waits for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build(target):
    bdir = os.path.join(build_root(), "hostbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc, _ = run_checked(["cmake", "-S", HERE, "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr)
        if rc != 0:
            sys.exit("run.py: cmake configure failed")
    rc, _ = run_checked(["cmake", "--build", bdir, "--target", target, "-j", JOBS],
                        stdout=sys.stderr)
    if rc != 0:
        sys.exit("run.py: build of %s failed" % target)
    return os.path.join(bdir, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tables", action="store_true",
                    help="also print the result tables (pinned-file format)")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the determinism self-tests")
    args = ap.parse_args()

    if args.selftest:
        rc, _ = run_checked([build("hostbench_selftest")], cwd=ROOT)
        return rc
    if not args.workload:
        ap.error("--workload is required")

    binary = build("hostbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_root(), "trace-%s-seed%d.json" % (args.workload, args.seed))]
    if args.tables:
        cmd.append("--tables")
    rc, out = run_checked(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc != 0:
        return rc

    result = json.loads(out.strip().splitlines()[-1])
    got, want = set(result["metrics"]), expected_metrics(args.trace)
    if got != want:
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - got), sorted(got - want)), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
