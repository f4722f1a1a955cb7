#!/usr/bin/env python3
"""Build and run the mulink benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads: fleet_paced, fleet_churn, session_replay (see perfbench/README.md).

Each run first builds perfbench/ with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, under the
repository root; the package compiles the library sources from ../src, so
a run always measures the tree it sits in. The build is incremental after
the first run. Build output goes to stderr. The benchmark's own stdout is
passed through once its last line has been checked: one JSON object whose
"metrics" hold exactly the end-to-end metrics of BENCHMARK.json with
--trace 0 and exactly its per-layer metrics with --trace 1. A traced run
also writes its spans to .bench_build/perfbench-traces/.

--self-test builds and runs the harness tests (perfbench/tests).

Exit codes: the benchmark's own (0 correct, 1 a correctness check failed,
2 usage or environment error); 2 when the sources or the build are missing;
3 when the result line does not match BENCHMARK.json; 124 on timeout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no mulink sources under {os.path.join(ROOT, 'src')}; "
             "run from a complete checkout of the repository")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("CMake configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build(["perfbench_harness_test"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_harness_test")]).returncode)
    if not args.workload:
        fail("--workload is required")

    build_dir = build(["mulink_perfbench"])
    command = [os.path.join(build_dir, "mulink_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(build_dir), "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.spans")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 124)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        print("\n".join(lines[:-1]))
        fail("the benchmark printed no result line", 3)
    want = expected_metrics(args.trace)
    if names != want:
        print("\n".join(lines[:-1]))
        fail(f"result metrics differ from BENCHMARK.json: missing {sorted(want - names)}, "
             f"unexpected {sorted(names - want)}", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
