#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark workload.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds the library and the benchmark into .bench_build/ (later calls only
re-check the build). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
setup_s is the median over SETUP_RUNS fresh processes (the measured run and
SETUP_RUNS - 1 set-up-only runs). With --trace 1 they are the per-layer
metrics, from one traced run whose spans are written to
.bench_build/traces/. The exit code is non-zero, and no result is printed,
when the build fails, the benchmark crashes, or a metric BENCHMARK.json
names is missing or has the wrong unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SETUP_RUNS = 3
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


class BenchError(Exception):
    """A failure that must end the run without a result."""


def build(targets=("perfbench",)):
    """Configure (once) and build the given targets; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    tmp = BUILD / "tmp"  # compiler temporaries stay inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = BUILD / "build.log"
    with open(log, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release", *gen]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env, timeout=BUILD_TIMEOUT_S).returncode:
                raise BenchError(f"cmake configure failed; see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
               *targets]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                          env=env, timeout=BUILD_TIMEOUT_S).returncode:
            raise BenchError(f"build failed; see {log}")
    return BUILD


def parse_result(stdout):
    """Split the benchmark's output into its '#' lines and its JSON result."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"last line is not JSON: {e}") from e
    return [line for line in lines[:-1] if line.startswith("#")], result


def run_binary(args, scratch, extra):
    """Run the benchmark binary once; returns (info lines, result)."""
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch), *extra]
    env = dict(os.environ, TMPDIR=str(scratch))
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {RUN_TIMEOUT_S}s: {cmd}") from e
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise BenchError(f"exit code {p.returncode}: {' '.join(cmd)}")
    return parse_result(p.stdout)


def required_metrics(spec, trace):
    """{name: unit} of the metrics BENCHMARK.json asks for in this mode."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(metrics, required):
    """Every required metric present, with its unit, and nothing else."""
    problems = []
    for name, unit in required.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing {name}")
        elif got.get("unit") != unit:
            problems.append(f"{name} has unit {got.get('unit')!r}, not {unit!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    problems += [f"unexpected {n}" for n in metrics if n not in required]
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["table3", "midshape", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    try:
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            raise BenchError(f"{spec_path} not found")
        spec = json.loads(spec_path.read_text())
        build()
        scratch = BUILD / "runs" / str(os.getpid())
        try:
            correct = True
            setups = []
            extra = []
            if args.trace:
                traces = BUILD / "traces"
                traces.mkdir(exist_ok=True)
                extra = ["--spans", str(
                    traces / f"{args.workload}-seed{args.seed}.jsonl")]
            else:
                for _ in range(SETUP_RUNS - 1):
                    _, res = run_binary(args, scratch, ["--setup-only"])
                    correct = correct and res["correct"]
                    setups.append(res["metrics"]["setup_s"]["value"])
            info, result = run_binary(args, scratch, extra)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

        metrics = result["metrics"]
        if not args.trace:
            setups.append(metrics["setup_s"]["value"])
            # The median, so one slow process start does not move it.
            metrics["setup_s"]["value"] = statistics.median(setups)
            info.append("# setup_s samples: " +
                        " ".join(repr(s) for s in setups))
        problems = check_metrics(metrics, required_metrics(spec, args.trace))
        if problems:
            raise BenchError("metrics do not match BENCHMARK.json: " +
                             "; ".join(problems))
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for line in info:
        print(line)
    print(json.dumps({
        "correct": bool(correct and result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
