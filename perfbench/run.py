#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench program and the libraries under src/ into
.bench_build/perfbench, then runs the workload as a closed loop of
whole application solves for S seconds.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  Times are
process CPU time, which leaves out time the host ran other guests on
the CPU (steal).  Other tenants of a shared host also slow operations
down to half speed, for seconds to minutes at a time, through the
caches and memory they share, and that shows in CPU time too.  A
run's median and tail move with how much of the run such a phase
covered, so they are printed only on the context line; the solve time
and throughput are those of the run's fastest operation, the one the
other tenants slowed least.  The set-up (scene generation plus the
first, cold operation) is repeated in SETUP_RUNS fresh processes;
setup_s and peak_rss_mib are their medians.

--trace 1 prints the per-layer metrics from a run whose operations
alternate untraced and traced (see perfbench.cc).  Which end-to-end
metric each one should move, and on which workload, is recorded in
perfbench/layers.json.

The last stdout line is the result object {"correct", "attempted",
"failed", "metrics"}; the line before it records what the numbers
depend on (CPUs available and used, threads, SIMD backend, build type,
commit or source digest, seed, operations per run) and, for --trace 0,
the operations' CPU-time median and 90th percentile and wall-clock
median.  A failed
build, a missing source tree or a crashed run exits non-zero without
printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
LAYERS = BENCH_DIR / "layers.json"
BASELINES = ROOT / "tests" / "golden" / "quality_baselines.json"
SETUP_RUNS = 5
# Time a program run may take beyond its --seconds: set-up, the cold
# and reference operations, and the last operation past the deadline.
SLACK_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/CMakeLists.txt under {ROOT}; run from the repository root")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return BUILD_DIR / "perfbench"


def run_program(binary, args, seconds):
    """Run the program, allowing SLACK_S beyond its seconds of
    operations, and return the record it prints last."""
    try:
        proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                              text=True, timeout=seconds + SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def commit_of_checkout():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(main, setups):
    ops = main["ops"]
    cpus = sorted(op["cpu_ns"] / 1e9 for op in ops)
    best = min(ops, key=lambda op: op["cpu_ns"])
    rank = math.ceil(0.9 * len(cpus))  # nearest-rank 90th percentile
    metrics = {
        "solve_cpu_s_min": (best["cpu_ns"] / 1e9, "s"),
        "pixel_updates_per_cpu_s": (
            best["pixel_updates"] / (best["cpu_ns"] / 1e9), "1/s"),
        "setup_s": (statistics.median(
            s["setup"]["setup_cpu_ns"] / 1e9 for s in setups), "s"),
        "peak_rss_mib": (statistics.median(
            s["setup"]["peak_rss_mib"] for s in setups), "MiB"),
    }
    return metrics, {
        "solve_cpu_s_p50": statistics.median(cpus),
        "solve_cpu_s_p90": cpus[rank - 1],
        "p90_samples_beyond": len(cpus) - rank,
        "solve_wall_s_p50": statistics.median(
            op["wall_ns"] / 1e9 for op in ops),
    }


def per_layer(main):
    ops = main["ops"]
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    if not traced or not untraced:
        fail("the traced run holds no traced or no untraced operation; "
             "give it more --seconds")
    n = len(traced)

    def total(key):
        return sum(op[key] for op in traced)

    def counter(name):
        return sum(op["counters"].get(name, 0) for op in traced)

    updates = total("pixel_updates")
    busy = total("sampler_busy_ns")
    build_ns = total("build_ns")
    metrics_ns = total("metrics_ns")
    row_cache = (total("row_cache_draw_hits") + total("row_cache_classify_hits")
                 + total("row_cache_misses"))
    lut = counter("core.lambda_lut.hits") + counter("core.lambda_lut.misses")
    planes = (counter("mrf.energy_cache.clean_hits")
              + counter("mrf.energy_cache.recomputed"))
    wall_traced = [op["wall_ns"] for op in traced]
    return {
        "img.scene_s": (main["setup"]["scene_ns"] / 1e9, "s"),
        "apps.build_ns_per_op": (build_ns / n, "ns"),
        "core.sampler.busy_ns_per_update": (ratio(busy, updates), "ns"),
        "core.sampler.calls_per_op": (total("sampler_calls") / n, "count"),
        "core.sampler.clones_per_op": (total("sampler_clones") / n, "count"),
        "core.row_cache.draw_hit_rate": (
            ratio(total("row_cache_draw_hits"), row_cache), "ratio"),
        "core.row_cache.miss_rate": (
            ratio(total("row_cache_misses"), row_cache), "ratio"),
        "core.race_tables.built": (
            counter("core.race_fastpath.misses") / n, "count"),
        "core.lambda_lut.hit_rate": (
            ratio(counter("core.lambda_lut.hits"), lut), "ratio"),
        "mrf.self_ns_per_update": (ratio(
            total("cpu_ns") - busy - build_ns - metrics_ns, updates), "ns"),
        "mrf.energy_cache.hit_rate": (
            ratio(counter("mrf.energy_cache.clean_hits"), planes), "ratio"),
        "mrf.energy_cache.invalidations_per_update": (
            ratio(counter("mrf.energy_cache.invalidations"), updates), "count"),
        "shard.halo.wait_ns_per_update": (
            ratio(counter("shard.halo.wait_ns"), updates), "ns"),
        "shard.halo.send_ns_per_update": (
            ratio(counter("shard.halo.send_ns"), updates), "ns"),
        "shard.halo.bytes_per_op": (
            counter("shard.halo.bytes_sent") / n, "B"),
        "shard.phase.interior_ns_per_update": (
            ratio(counter("shard.phase.interior_ns"), updates), "ns"),
        "util.thread_pool.tasks_per_op": (
            counter("util.thread_pool.tasks") / n, "count"),
        "util.idle_frac": (
            1.0 - ratio(total("cpu_ns"), sum(wall_traced)), "ratio"),
        "metrics.eval_ns_per_op": (metrics_ns / n, "ns"),
        "core.tie_rate": (ratio(total("ties"), total("samples")), "ratio"),
        "core.no_sample_rate": (
            ratio(total("no_sample"), total("samples")), "ratio"),
        "mrf.accept_rate": (ratio(total("label_changes"), updates), "ratio"),
        "mrf.pixel_updates_per_op": (updates / n, "count"),
        "trace.overhead_frac": (
            min(op["cpu_ns"] for op in traced)
            / min(op["cpu_ns"] for op in untraced) - 1.0, "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    layers = json.loads(LAYERS.read_text())
    program_args = [
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--max-bad-pixel-percent={layers['stereo16_max_bad_pixel_percent']}",
        f"--baselines={BASELINES}",
    ]
    main_run = run_program(binary, program_args + [
        f"--seconds={args.seconds}", f"--trace={args.trace}"], args.seconds)
    attempted = int(main_run["attempted"])
    failed = int(main_run["failed"])
    setups = [main_run]
    if args.trace == 0:
        for _ in range(SETUP_RUNS - 1):
            setup = run_program(binary, program_args + ["--setup-only"], 0)
            attempted += int(setup["attempted"])
            failed += int(setup["failed"])
            if setup["cold_digest"] != main_run["cold_digest"]:
                print("perfbench: a cold set-up in another process gave "
                      "different output", file=sys.stderr)
                failed += 1
            setups.append(setup)
        metrics, extra = end_to_end(main_run, setups)
    else:
        metrics, extra = per_layer(main_run), {}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": main_run["nproc"],
        "cpus": main_run["cpus"],
        "threads": main_run["threads"],
        "simd_backend": main_run["simd_backend"],
        "build_type": main_run["build_type"],
        "commit": commit_of_checkout(),
        "source_sha256": source_digest(),
        "ops_per_run": len(main_run["ops"]),
        "setup_runs": len(setups),
        "failed_ops_frac": failed / attempted,
        **extra,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
