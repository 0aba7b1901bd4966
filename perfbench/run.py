#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0 \\
        --server-flags "..." --warm-rate R --cold-rate R \\
        --warm-ladder R1,R2,... --cold-ladder R1,R2,... --p99-limit-us US

BENCHMARK.json holds the full command with the fixed server flags, rates,
ladders and p99 limit; see perfbench/README.md.  Run from the repository
root.  The benchmark package (perfbench/CMakeLists.txt) is configured and
built into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on
first use.  The last line of stdout is the run's JSON result; the exit
status is non-zero when any answer was wrong, lost or reordered, or when
the run could not be set up.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_warm", "serve_cold", "check_sweep")
# A run must end within 180 s; leave room for the build check and teardown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir, targets):
    """Configure once, then bring the targets up to date; output to stderr."""
    steps = []
    configured = any(os.path.exists(os.path.join(out_dir, f)) for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_bounded(cmd, capture):
    """Run cmd in its own process group; kill the whole group on timeout or
    on SIGTERM/SIGINT so no server it spawned outlives the run."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True, text=True)

    def stop(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run timed out after %d s" % RUN_TIMEOUT_S)
    # The runner reaps its servers itself; this only catches one it left
    # behind by crashing.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool) or result["attempted"] < 1:
        raise ValueError("malformed result %s" % line)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        raise ValueError("metrics %s differ from BENCHMARK.json %s" % (got, wanted))
    return result


def main():
    if sys.argv[1:] == ["--self-test"]:
        out = build_dir()
        build(out, ["perfbench_tests"])
        code, _ = run_bounded([os.path.join(out, "perfbench_tests")], capture=False)
        return code

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--server-flags", required=True)
    ap.add_argument("--warm-rate", required=True)
    ap.add_argument("--cold-rate", required=True)
    ap.add_argument("--warm-ladder", required=True)
    ap.add_argument("--cold-ladder", required=True)
    ap.add_argument("--p99-limit-us", required=True)
    args = ap.parse_args()

    out = build_dir()
    build(out, ["perfbench_runner", "fusecu_serve_bin", "fusecu_check_bin"])
    work = os.path.join(out, "runs", "%s-%d-%d" % (args.workload, args.seed, args.trace))
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", out, "--work-dir", work,
           "--server-flags", args.server_flags,
           "--warm-rate", args.warm_rate, "--cold-rate", args.cold_rate,
           "--warm-ladder", args.warm_ladder, "--cold-ladder", args.cold_ladder,
           "--p99-limit-us", args.p99_limit_us]
    code, stdout = run_bounded(cmd, capture=True)
    lines = stdout.rstrip("\n").split("\n") if stdout else []
    for line in lines[:-1]:
        print(line)
    if code not in (0, 1) or not lines:
        sys.exit("perfbench: runner failed with status %d" % code)
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (ValueError, OSError) as e:
        sys.exit("perfbench: bad result line: %s" % e)
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
