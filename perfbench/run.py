#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds perfbench/ (an optimized standalone CMake project compiled against
the repository's src/ libraries) into .bench_build/perfbench, runs one
workload, and relays the binary's report. The last line of standard output
is the result object; it is printed only when it carries exactly the
metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1). Any build failure, crash, hang or harness error
exits nonzero without a result line.

--smoke runs every workload briefly in both modes and checks the results;
it is the benchmark's own test.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns True on success."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Returns an error string, or None when `line` is a valid result."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last output line is not a JSON result"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys differ from " + str(sorted(RESULT_KEYS))
    if result["correct"] is not True:
        return "result not marked correct"
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)
            and attempted >= 1 and 0 <= failed <= attempted):
        return "bad attempted/failed counts"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric names differ: missing {missing}, unexpected {extra}"
    for name, unit in want.items():
        entry = got[name]
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            return f"metric {name} malformed or unit is not {unit}"
        if not isinstance(entry["value"], (int, float)):
            return f"metric {name} has no numeric value"
    return None


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{workload}-seed{seed}.json")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S}s")
        return 4, []
    lines = out.splitlines()
    if process.returncode != 0:
        log(f"{workload}: exited with code {process.returncode}")
        return process.returncode if process.returncode > 0 else 4, lines
    if not lines:
        log(f"{workload}: no output")
        return 5, lines
    error = check_result(lines[-1], trace)
    if error:
        log(f"{workload}: {error}")
        return 5, lines
    return 0, lines


def smoke():
    failures = 0
    for trace in (False, True):
        for workload in ("consensus-mix", "svc-steady", "svc-failover",
                         "check-sweep"):
            code, lines = run(workload, 7, 1, trace)
            status = "ok" if code == 0 else f"FAILED ({code})"
            detail = ""
            if code == 0:
                result = json.loads(lines[-1])
                detail = (f"attempted={result['attempted']} "
                          f"failed={result['failed']}")
            print(f"smoke {workload} trace={int(trace)}: {status} {detail}")
            failures += code != 0
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    code, lines = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    # Without a valid result the last line must not look like one.
    for line in lines if code == 0 else lines[:-1]:
        print(line)
    if code != 0 and lines:
        log("result withheld: " + lines[-1][:200])
    return code


if __name__ == "__main__":
    sys.exit(main())
