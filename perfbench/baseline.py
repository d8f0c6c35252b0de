"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--out FILE]

For every workload of ``BENCHMARK.json`` it runs ``run.py`` once for each
of the seeds 1 to 10, one run at a time, and
reports per end-to-end metric the median, the quartiles and the spread
(interquartile distance as a share of the median) next to the metric's
bound from ``BENCHMARK.json``.  With ``--out`` it also writes the summary
and the environment as JSON, which is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import run

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {
        "environment": {**run.machine(), "seeds": SEEDS, "run_seconds": spec["run_seconds"]},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, s, spec["run_seconds"]) for s in SEEDS]
        kinds = gen.jobs_per_kind(
            [job for inst in gen.round_instances(workload, SEEDS[0], 0) for job in inst.jobs])
        entry = {
            "why": gen.WORKLOADS[workload].why,
            "jobs_per_round": sum(kinds.values()),
            "jobs_per_kind": kinds,
            "all_correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            stats = summarise([r["metrics"][metric["name"]]["value"] for r in results])
            entry["metrics"][metric["name"]] = {"unit": metric["unit"], **stats}
            print(f"{workload:10s} {metric['name']:12s} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']})", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
