#!/usr/bin/env python3
"""besovbm benchmark: one named closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload moments-dim16 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

A run repeats the workload's round in a single process, one round after the
other, for ``--seconds``.  With ``--trace 0`` it reports the end-to-end
metrics (round times of ``orlicz-scales`` in reference seconds, see
``reference.py``); with ``--trace 1`` it runs half the time untraced and half traced
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is an ``info`` object (machine, report
digests, failure tags).  ``--smoke`` runs every workload at a tiny size in
both modes and checks the emitted metric names and units against
``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RUNS = HERE / "_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
MIN_ROUNDS = 2  # the second round re-runs the first seed: the determinism check

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
PER_LAYER = {
    "simulate.sample_bm.calls": "count/round",
    "simulate.sample_bm.self_s": "s/round",
    "simulate.sample_bm.mb_computed": "MB/round",
    "spaces.space_norm.calls": "count/round",
    "spaces.space_norm.self_s": "s/round",
    "spaces.space_norm.elements": "count/round",
    "besov.integer_p_lp_norms.calls": "count/round",
    "besov.integer_p_lp_norms.self_s": "s/round",
    "besov.integer_p_lp_norms.mults_computed": "count/round",
    "besov.integer_p_besov_totals.calls": "count/round",
    "besov.integer_p_besov_totals.self_s": "s/round",
    "besov.increment_norms.calls": "count/round",
    "besov.increment_norms.self_s": "s/round",
    "besov.dyadic_increment_lp.calls": "count/round",
    "besov.dyadic_increment_lp.self_s": "s/round",
    "maxima.empirical_sup_mean.calls": "count/round",
    "maxima.empirical_sup_mean.self_s": "s/round",
    "maxima.variable_mean.calls": "count/round",
    "maxima.variable_mean.self_s": "s/round",
    "maxima.normal_draws_computed": "count/round",
    "orlicz.luxemburg_norm.calls": "count/round",
    "orlicz.luxemburg_norm.self_s": "s/round",
    "orlicz.orlicz_norm.calls": "count/round",
    "orlicz.orlicz_norm.self_s": "s/round",
    "orlicz.evaluate.calls": "count/round",
    "harness.driver.self_s": "s/round",
    "harness.emit.self_s": "s/round",
    "harness.emit.bytes": "B/round",
    "cli.main.self_s": "s/round",
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def prepare() -> None:
    """Pin numeric libraries to one thread and import besovbm from ``src``.

    Must run before numpy is imported.  Exits with an error when the
    checkout holds no besovbm sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "besovbm" / "__init__.py").is_file():
        raise SystemExit(f"error: no besovbm sources under {src}")
    sys.path.insert(0, str(src))


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(name: str, seed: int, tiny: bool, repeats: int) -> float:
    """Median wall time of a fresh process importing besovbm and building inputs.

    One extra spawn first fills the bytecode cache and is not counted.  No
    timeout: with one, ``subprocess`` polls the child in sleeps of up to
    50 ms, which would quantise the measurement.
    """
    probe_dir = RUNS / f"probe-{os.getpid()}"
    command = [sys.executable, str(HERE / "probe.py"), name, str(seed), str(probe_dir)]
    if tiny:
        command.append("--tiny")
    times = []
    try:
        for _ in range(repeats + 1):
            start = time.perf_counter()
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times[1:])


@dataclass
class Round:
    wall: float
    cpu: float
    checked: object  # workloads.Checked
    ref_wall: float = math.nan  # the reference kernel run after the round
    ref_cpu: float = math.nan


def measure(workload, inputs, seconds: float, digests: dict, tracer=None, reference=None) -> list:
    """Closed loop: run rounds back to back until the end nearest ``seconds``.

    Another round starts while, at the median lap (round, check and
    reference kernel) so far, it would end less than half a lap past
    ``seconds``.

    With ``reference`` (the module), the reference kernel runs after each
    round and its check, untimed for the round.
    """
    rounds, laps = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + statistics.median(laps) / 2 <= seconds:
        lap = time.perf_counter()
        scope = tracer.round() if tracer is not None else contextlib.nullcontext()
        cpu, wall = time.process_time(), time.perf_counter()
        with scope:
            output = workload.run_round(inputs)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        rounds.append(Round(wall, cpu, workload.check(inputs, output, digests)))
        if reference is not None:
            rounds[-1].ref_wall, rounds[-1].ref_cpu = reference.timed_kernel()
        laps.append(time.perf_counter() - lap)
    return rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the info object."""
    import reference
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    scaled = workload.reference_scaled
    run_dir = RUNS / f"{name}-{os.getpid()}"
    digests: dict = {}
    try:
        inputs = workload.build(seed, str(run_dir), tiny)
        if trace:
            plain = measure(workload, inputs, seconds / 2, digests)
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                traced = measure(workload, inputs, seconds / 2, digests, tracer)
            finally:
                tracer.uninstall()
            tracer.write(str(RUNS / f"spans-{name}-seed{seed}.jsonl"))
            rounds = plain + traced
        else:
            setup_s = measure_setup(name, seed, tiny, setup_repeats)
            rounds = measure(workload, inputs, seconds, digests, reference=reference if scaled else None)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r.checked.ops for r in rounds)
    failed = sum(r.checked.failed_ops for r in rounds)
    measured = {}
    if trace:
        values = tracer.median_stats(PER_LAYER)
        values["trace.overhead_frac"] = (
            statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain)
        )
    else:
        measured = {"wall_s": statistics.median(r.wall for r in rounds), "cpu_s": statistics.median(r.cpu for r in rounds)}
        if scaled:
            nominal = reference.NOMINAL_S
            wall_s = nominal * statistics.median(r.wall / r.ref_wall for r in rounds)
            cpu_s = nominal * statistics.median(r.cpu / r.ref_cpu for r in rounds)
            measured["reference_kernel_s"] = statistics.median(r.ref_wall for r in rounds)
        else:
            wall_s, cpu_s = measured["wall_s"], measured["cpu_s"]
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ops_per_s": workload.work(inputs) / wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
        }
    units = PER_LAYER if trace else END_TO_END
    tags = Counter(tag for r in rounds for tag in r.checked.tags)
    unexpected = sorted(tag for tag in tags if tag not in workloads.KNOWN_DEFECTS)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "work_per_round": workload.work(inputs),
        "work_unit": workload.work_unit,
        "wall_s_max": max(r.wall for r in rounds),
        "reference_scaled": scaled and not trace,
        "measured_round_s": measured,
        "failed_frac": failed / attempted,
        "failure_tags": dict(sorted(tags.items())),
        "unexpected_failures": unexpected,
        "report_sha256": digests,
        "machine": machine_info(),
    }
    return result, info


def smoke() -> int:
    """Every workload at a tiny size, both modes; names and units must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        for trace in (False, True):
            result, _ = run_workload(name, 1, 0.0, trace, tiny=True, setup_repeats=1)
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            match = got == want[trace]
            ok = ok and match
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics "
                  f"{'match' if match else 'DO NOT MATCH'} BENCHMARK.json; "
                  f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            if not match:
                print(f"  missing {sorted(set(want[trace].items()) - set(got.items()))}")
                print(f"  unexpected {sorted(set(got.items()) - set(want[trace].items()))}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, both modes")
    args = parser.parse_args(argv)
    prepare()
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
