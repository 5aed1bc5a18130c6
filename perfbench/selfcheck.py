#!/usr/bin/env python3
"""Check the benchmark itself on short runs of every workload.

Each run is given one second; a --trace 0 run still makes its minimum
of 100 timed operations (perfbench.cc kMinTimedOps).

Usage, from the repository root:

    python3 perfbench/selfcheck.py

For each workload of BENCHMARK.json it confirms that
  * run.py prints, as its last line, a correct result with exactly the
    end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
    each a finite number with the unit BENCHMARK.json gives it;
  * the program ran on one CPU, and the spans of every traced
    operation fit in its wall time: the apps::run* build and scoring
    spans plus the solve span, the sampler's in-call time (summed over
    threads) within the solve span, and the build, sampler and scoring
    spans together.
It also checks that perfbench/layers.json maps exactly the per-layer
metrics, onto end-to-end metrics and workloads that exist, and that
run.py fails without a result where there is no source tree.
Exits non-zero on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 1


def check(condition, message):
    if not condition:
        print(f"selfcheck: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_layers_file():
    layers = json.loads(run.LAYERS.read_text())["per_layer"]
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    check(sorted(layers) == sorted(names),
          "layers.json does not map exactly the per_layer metrics")
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    for name, entry in layers.items():
        check(set(entry["moves"]) <= end_to_end,
              f"{name} moves an unknown end-to-end metric")
        check(set(entry["on"]) <= workloads, f"{name} names an unknown workload")


def check_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, f"{workload} --trace {trace} exited non-zero")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{workload}: failed operations")
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in expected),
          f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
    for m in expected:
        printed = result["metrics"][m["name"]]
        check(printed["unit"] == m["unit"],
              f"{workload}: {m['name']} printed in {printed['unit']}")
        check(isinstance(printed["value"], (int, float))
              and math.isfinite(printed["value"]),
              f"{workload}: {m['name']} is not a finite number")


def check_spans(binary, workload):
    layers = json.loads(run.LAYERS.read_text())
    raw = run.run_program(binary, [
        f"--workload={workload}", "--seed=1", f"--seconds={SECONDS}",
        "--trace=1",
        f"--max-bad-pixel-percent={layers['stereo16_max_bad_pixel_percent']}",
        f"--baselines={run.BASELINES}"], SECONDS)
    check(raw["cpus"] == 1, f"{workload}: ran on {raw['cpus']} CPUs, not 1")
    traced = [op for op in raw["ops"] if op["traced"]]
    check(traced, f"{workload}: no traced operation in {SECONDS} s")
    for op in traced:
        spans = op["build_ns"] + op["solve_ns"] + op["metrics_ns"]
        check(spans <= op["wall_ns"],
              f"{workload}: build+solve+metrics spans exceed the wall time")
        check(op["sampler_busy_ns"] <= op["solve_ns"],
              f"{workload}: sampler time exceeds the solve span")
        check(op["build_ns"] + op["sampler_busy_ns"] + op["metrics_ns"]
              <= op["wall_ns"], f"{workload}: spans exceed the wall time")


def check_fails_without_sources():
    bare = run.BUILD_DIR.parent / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         BENCHMARK["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py printed a result without a source tree")


def main():
    check_layers_file()
    binary = run.build()
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace)
        check_spans(binary, workload)
        print(f"selfcheck: {workload} ok")
    check_fails_without_sources()
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
