"""The mugci benchmark: one command, three workloads.

    python3 perfbench/run.py --workload axioms|graphical|directed \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures ``src/mugci`` there and
exits with code 2, printing no result, when that package is missing.

The load is closed-loop with one client: one process, one thread, and each
job starts when the previous one returns.  Set-up imports the program,
makes the seed's round of inputs (``gen.py``) and runs a few warm-up jobs;
it is repeated ``SETUP_REPEATS`` times and ``setup_s`` is the median.  The
timed part then runs whole rounds until about ``--seconds`` have passed;
each round takes the next variant of every input (``gen.round_instances``).
After timing, every execution goes through the output gate (``check.py``).

On the 2-vCPU virtual machine where ``baseline.json`` was recorded, every
Python program ran a quarter faster or slower from one minute to the next.
So the run interleaves a fixed pure-Python calibration loop
(``calibration_work``) every ``CALIBRATE_EVERY_S`` of job time, and reports
times scaled to the speed at which that loop takes
``REFERENCE_CALIBRATION_S`` (see ``Calibrated``).  Raw figures are printed
on the lines before the result.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` one round runs untraced and the next under the tracer
(``tracing.py``), and the last line reports the per-layer metrics.  Lines
before it describe the environment and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array

import gen
import jobs
from check import Gate
from tracing import Tracer

SETUP_REPEATS = 5
WARMUP_JOBS = 3
MIN_JOBS = 100   # so that at least ten samples lie beyond p90
CALIBRATE_EVERY_S = 0.25
# Times are reported as they would read while calibration_work takes this
# long: about its median on the machine of baseline.json (2 vCPU Xeon at
# 2.1 GHz, Python 3.11).  It fixes the scale; it does not affect ratios.
REFERENCE_CALIBRATION_S = 0.012


def calibration_work() -> int:
    """Fixed work in the style of mugci's: frozensets, dicts and sorting."""
    total = 0
    for i in range(100):
        sets = [frozenset((a, b, (a * b + i) % 7)) for a in range(12) for b in range(12)]
        sizes = {s: len(s) for s in sets}
        total += len(sorted(sizes, key=lambda s: tuple(sorted(s))))
    return total


class Calibrated:
    """Raw durations, and calibrations interleaved with them.

    A calibration runs at the start and then closes every stretch of
    ``CALIBRATE_EVERY_S`` of durations.  ``scaled`` multiplies each
    duration by the reference over the mean of the two calibrations around
    its stretch, which follows the machine's drift within a run.
    """

    def __init__(self):
        self.raw = array("d")
        self.calibrations: list[float] = []
        self._ends: list[int] = []      # len(raw) at each calibration
        self._since = 0.0
        self._calibrate()

    def _calibrate(self) -> None:
        start = time.perf_counter()
        calibration_work()
        self.calibrations.append(time.perf_counter() - start)
        self._ends.append(len(self.raw))
        self._since = 0.0

    def add(self, duration: float) -> None:
        self.raw.append(duration)
        self._since += duration
        if self._since >= CALIBRATE_EVERY_S:
            self._calibrate()

    def close(self) -> None:
        """Calibrate unless the last stretch is closed already."""
        if len(self.raw) > self._ends[-1]:
            self._calibrate()

    @property
    def scaled(self) -> list[float]:
        out = []
        for i in range(len(self._ends) - 1):
            mean = (self.calibrations[i] + self.calibrations[i + 1]) / 2
            scale = REFERENCE_CALIBRATION_S / mean
            out.extend(d * scale for d in self.raw[self._ends[i]:self._ends[i + 1]])
        return out


def tail_percentile(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(0.9 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_round(mugci, round_jobs, workdir, latencies: Calibrated, gate: Gate, tracer=None):
    clock = time.perf_counter
    for index, job in enumerate(round_jobs):
        if tracer is not None:
            tracer.current_job = index
        start = clock()
        try:
            code, text = jobs.execute(mugci, job, workdir)
            error = None
        except Exception as exc:  # a raising job is a failed job, not a crash
            code, text, error = None, None, repr(exc)
        latencies.add(clock() - start)
        gate.record(job, code, text, error)
    latencies.close()


def set_up(workload: str, seed: int, workdir):
    """Import, generate round 0 and warm up.

    Returns the program, round 0's jobs and the set-up time.  The time
    leaves out deleting and writing the model files: on the machine of
    baseline.json that was almost all kernel time, about 0.4 ms a file, and
    it varied twofold between runs while the rest of set-up did not.
    """
    start = time.perf_counter()
    mugci = jobs.import_program()
    instances = gen.round_instances(workload, seed, 0)
    generated = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    gen.write_files(instances, workdir)
    round_jobs = gen.job_order(workload, seed, 0, instances)
    written = time.perf_counter()
    # the first structure's first jobs, so that every seed warms up alike
    first = gen.WORKLOADS[workload].kinds[0].name + ":0:"
    warm = sorted((j for j in round_jobs if j.id.startswith(first)), key=lambda j: j.id)
    for job in warm[:WARMUP_JOBS]:
        jobs.execute(mugci, job, workdir)
    return mugci, round_jobs, (generated - start) + (time.perf_counter() - written)


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or platform.system()}",
        "nproc": os.cpu_count(),
    }


def environment(workload: str, seed: int, round_jobs) -> dict:
    return {
        **machine(),
        "workload": workload,
        "seed": seed,
        "why": gen.WORKLOADS[workload].why,
        "jobs_per_round": len(round_jobs),
        "jobs_per_kind": gen.jobs_per_kind(round_jobs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = jobs.BENCH_DIR / ".work" / f"{args.workload}-{args.seed}"
    setup_times = Calibrated()
    try:
        for _ in range(SETUP_REPEATS):
            mugci, round_jobs, seconds = set_up(args.workload, args.seed, workdir)
            setup_times.add(seconds)
            setup_times.close()
    except jobs.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, round_jobs)
    for key, value in env.items():
        print(f"env {key}: {value}")

    gate = Gate(args.workload, mugci)
    gate.add_inputs(workdir, round_jobs)

    def next_round(index: int):
        """Round ``index``'s jobs; its inputs are written outside job timing."""
        if index == 0:
            return round_jobs
        later = gen.write_round(args.workload, args.seed, index, workdir)
        gate.add_inputs(workdir, later)
        return later

    latencies = Calibrated()
    if args.trace:
        run_round(mugci, next_round(0), workdir, latencies, gate)
        traced_jobs = next_round(1)
        traced_latencies = Calibrated()
        tracer = Tracer()
        tracer.install()
        run_round(mugci, traced_jobs, workdir, traced_latencies, gate, tracer)
        tracer.remove()
        if not tracer.restored():
            print("error: removing the tracer left a wrapper in place", file=sys.stderr)
            return 1
        metrics = tracer.layer_metrics(sum(traced_latencies.scaled) / sum(latencies.scaled))
        print(f"trace spans: {tracer.span_count()}")
    else:
        start = time.perf_counter()
        rounds = 0
        while True:
            this_round = next_round(rounds)
            round_start = time.perf_counter()
            run_round(mugci, this_round, workdir, latencies, gate)
            rounds += 1
            elapsed = time.perf_counter() - start
            last_round = time.perf_counter() - round_start
            if len(latencies.raw) >= MIN_JOBS and elapsed + last_round / 2 >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scaled = latencies.scaled
        p90, beyond = tail_percentile(scaled)
        metrics = {
            "jobs_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(scaled) * 1000, "unit": "ms"},
            "job_p90_ms": {"value": p90 * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times.scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        raw = latencies.raw
        print(f"run rounds: {rounds}, jobs: {len(scaled)}, samples beyond p90: {beyond}, "
              f"seconds: {elapsed:.3f}")
        print(f"raw jobs_per_s: {len(raw) / elapsed:.4f}, "
              f"job_p50_ms: {statistics.median(raw) * 1000:.4f}, "
              f"job_p90_ms: {tail_percentile(raw)[0] * 1000:.4f}, "
              f"setup_s: {statistics.median(setup_times.raw):.4f}")
        print(f"calibration: {len(latencies.calibrations)} runs, median "
              f"{statistics.median(latencies.calibrations):.5f} s, reference "
              f"{REFERENCE_CALIBRATION_S} s")

    failures = gate.finish()
    shutil.rmtree(workdir, ignore_errors=True)
    for message in failures:
        print(f"FAILED {message}")
    failed = len(failures)
    print(f"fail_ratio: {failed / gate.attempted} (failed {failed} of {gate.attempted})")
    for name, metric in metrics.items():
        print(f"metric {name}: {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
