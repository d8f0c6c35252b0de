"""The percentile rule, the output gate and the command's contract."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import jobs
import run
from check import Gate

ROOT = Path(__file__).resolve().parents[2]


def test_p90_has_at_least_ten_samples_beyond_it():
    for n in (run.MIN_JOBS, 101, 109, 250, 1000):
        samples = [float(i) for i in range(n)]
        value, beyond = run.tail_percentile(samples)
        assert beyond >= 10
        assert beyond == sum(1 for s in samples if s > value)


def _round(tmp_path, workload):
    round_jobs = gen.write_round(workload, 3, 0, tmp_path)
    mugci = jobs.import_program()
    gate = Gate(workload, mugci)
    gate.add_inputs(tmp_path, round_jobs)
    return mugci, gate, round_jobs


def test_gate_passes_real_outputs_and_fails_corrupted_ones(tmp_path):
    mugci, gate, round_jobs = _round(tmp_path, "graphical")
    for job in round_jobs[:6]:
        code, text = jobs.execute(mugci, job, tmp_path)
        gate.record(job, code, text, None)
        gate.record(job, code, text, None)
    assert gate.finish() == [] and gate.attempted == 12
    job = round_jobs[0]
    code, text = jobs.execute(mugci, job, tmp_path)
    gate.record(job, code, text + " ", None)
    gate.record(job, 2, text, None)
    gate.record(job, None, None, "ValueError()")
    assert len(gate.finish()) == 3 and gate.attempted == 15


def test_gate_fails_a_job_whose_input_differs_from_the_recorded_one(tmp_path):
    round_jobs = gen.write_round("directed", 3, 0, tmp_path)
    job = round_jobs[0]
    path = tmp_path / job.file
    path.write_text(path.read_text() + "\n")
    mugci = jobs.import_program()
    gate = Gate("directed", mugci)
    gate.add_inputs(tmp_path, round_jobs)
    code, text = jobs.execute(mugci, job, tmp_path)
    gate.record(job, code, text, None)
    assert gate.finish() == [f"{job.id}: input differs from the recorded one"]


def test_gate_counts_every_execution_of_a_job_that_fails_an_outside_check(tmp_path):
    mugci, gate, round_jobs = _round(tmp_path, "graphical")
    derivable = next(j for j in round_jobs if j.expect == "proven")
    assert gate._check_independent(derivable, 1, "result: not-derivable\n") is not None
    code, text = jobs.execute(mugci, derivable, tmp_path)
    for _ in range(3):
        gate.record(derivable, code, text, None)
    gate._check_independent = lambda job, code, text: "wrong"
    assert len(gate.finish()) == 3


def test_gate_checks_closures_against_networkx(tmp_path):
    mugci, gate, round_jobs = _round(tmp_path, "axioms")
    job = next(j for j in round_jobs if j.graph is not None and j.id.startswith("path5:")
               and j.argv[0] == "closure")
    code, text = jobs.execute(mugci, job, tmp_path)
    assert gate._check_independent(job, code, text) is None
    dropped = "\n".join(text.splitlines()[:-1]) + "\n"
    assert gate._check_independent(job, code, dropped) is not None


def test_job_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from pathlib import Path\n"
        "import gen, jobs\n"
        "m = jobs.import_program(); d = Path(sys.argv[2])\n"
        "for w in ('graphical', 'directed'):\n"
        "    for j in gen.write_round(w, 5, 0, d / w)[:40]:\n"
        "        print(j.id, *jobs.execute(m, j, d / w))\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outputs.append(subprocess.run(
            [sys.executable, "-c", script, str(ROOT / "perfbench"), str(tmp_path / hash_seed)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
    assert outputs[0] == outputs[1] and outputs[0]


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "directed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_short_run_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "directed", "--seed", "2",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_calibrated_scales_each_stretch_by_its_two_calibrations():
    c = run.Calibrated()
    for d in (0.2, 0.1):          # 0.3 s closes the first stretch
        c.add(d)
    c.add(0.05)
    c.close()
    assert len(c.calibrations) == 3
    ref = run.REFERENCE_CALIBRATION_S
    c.calibrations = [ref, 3 * ref, ref]   # stretch means 2*ref and 2*ref
    assert c.scaled == pytest.approx([0.1, 0.05, 0.025])
    c.close()                              # nothing new: no extra calibration
    assert len(c.calibrations) == 3
