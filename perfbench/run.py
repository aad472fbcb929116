#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark binary)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. The binary's output is checked against
BENCHMARK.json (every end-to-end metric with --trace 0, every per-layer
metric with --trace 1, with the units listed there) and then printed; its
last line is the JSON result. Spans of a traced run are written beside
the build as trace-<workload>-<seed>.json.

Exit status: the binary's (0 = all checks passed, 1 = a correctness check
failed); 3 when the build fails, 4 when the output breaks the contract,
5 on a timeout, 2 on bad arguments.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                f.flush()
                with open(log) as g:
                    tail = g.read()[-4000:]
                sys.stderr.write(tail + "\nbuild failed: see %s\n" % log)
                # A failed configure leaves a cache that would skip the
                # configure step next time; drop it.
                if cmd[1] == "-S":
                    try:
                        os.remove(os.path.join(out, "CMakeCache.txt"))
                    except OSError:
                        pass
                sys.exit(3)
    return os.path.join(out, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {r["name"]: r["unit"] for r in rows}, [w["name"] for w in spec["workloads"]]


def check_result(line, trace):
    """Return an error string if the result line breaks the contract."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(res)
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            return "%s is not a whole number" % k
    if res["attempted"] < 1:
        return "no operation was attempted"
    want, _ = expected_metrics(trace)
    got = res["metrics"]
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metric names differ: missing %s, extra %s" % (missing, extra)
    for name, m in got.items():
        if sorted(m) != ["unit", "value"] or m["unit"] != want[name]:
            return "metric %s is %s, want unit %s" % (name, m, want[name])
        if not isinstance(m["value"], (int, float)):
            return "metric %s has no numeric value" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        exe = build("perfbench_tests")
        return subprocess.call([exe])
    _, workloads = expected_metrics(bool(args.trace))
    if args.workload not in workloads:
        ap.error("--workload must be one of %s" % ", ".join(workloads))
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build("lqcd_perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-%d.json" % (args.workload, args.seed))]
    start = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("benchmark run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 5
    if proc.returncode not in (0, 1):
        sys.stdout.write(out)
        sys.stderr.write("benchmark binary exited with %d\n" % proc.returncode)
        return proc.returncode or 2
    lines = out.rstrip("\n").split("\n")
    err = check_result(lines[-1], bool(args.trace))
    if err:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("benchmark output breaks the contract: %s\n" % err)
        return 4
    sys.stdout.write("run: %.1f s wall\n" % (time.time() - start))
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
