"""The input generator: seeded, self-contained, sized for the percentile rule."""

import ast
import json
from pathlib import Path

import gen
import run


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_files(tmp_path):
    for workload in gen.WORKLOADS:
        gen.write_round(workload, 7, 1, tmp_path / f"{workload}-a")
        gen.write_round(workload, 7, 1, tmp_path / f"{workload}-b")
        assert _files(tmp_path / f"{workload}-a") == _files(tmp_path / f"{workload}-b")


def test_other_seed_draws_other_inputs_in_the_same_mix(tmp_path):
    for workload in gen.WORKLOADS:
        a = gen.write_round(workload, 1, 0, tmp_path / "a")
        b = gen.write_round(workload, 2, 0, tmp_path / "b")
        assert gen.jobs_per_kind(a) == gen.jobs_per_kind(b)
        assert sorted(j.id for j in a) != sorted(j.id for j in b)
        assert gen.WORKLOADS[workload].why


def test_every_round_has_enough_jobs_for_p90():
    for workload in gen.WORKLOADS:
        count = sum(len(i.jobs) for i in gen.round_instances(workload, 0, 0))
        assert count >= run.MIN_JOBS


def test_generator_does_not_use_the_program():
    tree = ast.parse(Path(gen.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "mugci" not in imported


def test_instances_do_not_depend_on_the_seed_and_labellings_share_a_shape():
    for kind in gen.WORKLOADS["axioms"].kinds:
        one = gen.instance("axioms", kind, 0, 1)
        assert one.text == gen.instance("axioms", kind, 0, 1).text
        other = gen.instance("axioms", kind, 0, 2)
        assert len(one.text.splitlines()) == len(other.text.splitlines())
        assert [j.argv[0] for j in one.jobs] == [j.argv[0] for j in other.jobs]
    round_a = {i.jobs[0].id: i.text for i in gen.round_instances("axioms", 1, 0)}
    round_b = {i.jobs[0].id: i.text for i in gen.round_instances("axioms", 2, 0)}
    for key in round_a.keys() & round_b.keys():
        assert round_a[key] == round_b[key]


def test_rounds_of_one_run_share_no_file_and_no_call_repeats():
    for workload in gen.WORKLOADS:
        seen = set()
        for round_index in range(gen.LABELLINGS):
            files = {i.jobs[0].file for i in gen.round_instances(workload, 4, round_index)}
            assert not files & seen
            seen |= files
        calls = [(i.text, json.dumps(j.argv), json.dumps(j.queries))
                 for i in gen.catalogue(workload) for j in i.jobs]
        assert len(set(calls)) == len(calls)
