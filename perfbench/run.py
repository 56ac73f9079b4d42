#!/usr/bin/env python3
"""Host-time benchmark of the CHERIoT simulator (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fleet_busy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (and with it the simulator library from
src/) in Release mode under $CARGO_TARGET_DIR, default .bench_build. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. Exports, span JSON and the Chrome trace of a
traced run go to .bench_out/<workload>/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_busy", "fleet_idle", "mc_explore", "observe")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, **kwargs):
    """Runs cmd to completion; the child never outlives this process."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run_child(["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run_child(["cmake", "--build", build_dir, "-j2"],
                        stdout=sys.stderr)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "cheriot_perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def declared_metrics(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace, expect_digest):
    out_dir = os.path.join(ROOT, ".bench_out", workload)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out_dir]
    if expect_digest is not None:
        cmd += ["--expect-digest", expect_digest]
    code, out = run_child(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stdout.write(out or "")
        fail(f"{workload} exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        fail(f"{workload} printed no result line")
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    wrong = sorted(k for k, v in metrics.items()
                   if declared.get(k) != v["unit"])
    missing = sorted(k for k in declared if k not in metrics)
    if wrong or (missing and not trace):
        sys.stdout.write(out)
        fail(f"metrics not as declared in BENCHMARK.json: {wrong + missing}")
    # A layer the workload does not exercise reports 0.
    result["metrics"] = {k: metrics.get(k, {"value": 0, "unit": unit})
                         for k, unit in declared.items()}
    return lines[:-1], result


def expected_digest(workload, seed):
    """The recorded digest, for the default seed or a workload whose inputs
    do not depend on the seed; None otherwise."""
    digests = load_json(os.path.join(HERE, "digests.json"))
    if (seed != digests["default_seed"] and
            workload not in digests["fixed_inputs"]):
        return None
    return digests["digests"][workload]


def self_test(binary, seconds):
    """Shows that a wrong recorded digest is reported as a failure."""
    ok = True
    for workload in WORKLOADS:
        right = expected_digest(workload, 1)
        wrong = f"{int(right, 16) ^ 1:016x}"
        _, good = run_workload(binary, workload, 1, seconds, False, right)
        _, bad = run_workload(binary, workload, 1, seconds, False, wrong)
        passed = (good["correct"] and good["failed"] == 0 and
                  not bad["correct"] and bad["failed"] >= 1)
        ok = ok and passed
        print(f"self-test {workload}: recorded digest -> failed "
              f"{good['failed']}/{good['attempted']}; wrong digest -> failed "
              f"{bad['failed']}/{bad['attempted']}: "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a wrong digest raises failed")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must not be negative")

    binary = build()
    if args.self_test:
        return self_test(binary, min(args.seconds, 1))
    lines, result = run_workload(binary, args.workload, args.seed,
                                 args.seconds, args.trace == 1,
                                 expected_digest(args.workload, args.seed))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
