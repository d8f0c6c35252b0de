"""Running one job through mugci's user paths, and the recorded references.

A CLI job calls ``mugci.cli.main(argv, out=StringIO())`` in process; an
oracle job makes the README's library calls.  Either way the job reads and
parses its model file itself.  Names are looked up on the modules at call
time, so a traced run goes through the tracer's wrappers.

``reference/<workload>.json`` maps each catalogue job to the digests of its
input, exit code and stdout, recorded by ``record.py``.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import sys
from pathlib import Path

from gen import Job, _set

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE_DIR = BENCH_DIR / "reference"


class MissingProgram(RuntimeError):
    """The checkout has no ``src/mugci`` to measure."""


def import_program():
    """Import ``mugci`` afresh from the checkout's ``src``; never another copy."""
    if not (SRC_DIR / "mugci" / "__init__.py").is_file():
        raise MissingProgram(f"no mugci package under {SRC_DIR}")
    if sys.path[0] != str(SRC_DIR):
        sys.path.insert(0, str(SRC_DIR))
    for name in [n for n in sys.modules if n == "mugci" or n.startswith("mugci.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mugci = importlib.import_module("mugci")
    importlib.import_module("mugci.cli")
    if Path(mugci.__file__).resolve().parent != SRC_DIR / "mugci":
        raise MissingProgram(f"imported mugci from {mugci.__file__}, not {SRC_DIR}")
    return mugci


def execute(mugci, job: Job, workdir: Path) -> tuple[int, str]:
    """Run one job; returns (exit code, stdout text)."""
    path = str(workdir / job.file)
    if job.argv is not None:
        out = io.StringIO()
        code = mugci.cli.main([path if a == "{file}" else a for a in job.argv], out=out)
        return code, out.getvalue()
    with open(path, encoding="utf-8") as handle:
        model = mugci.parse_model(handle.read())
    joint = mugci.sample_dag_joint(model.digraphs["D"], seed=job.joint_seed)
    lines = [
        f"{_set(x)}|{_set(z)}|{_set(y)} {int(mugci.ci_holds(joint, x, z, y))}"
        for x, z, y in job.queries
    ]
    return 0, "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def input_digest(job: Job, model_text: str) -> str:
    """Digest of everything the program receives for this job."""
    call = json.dumps([job.argv, job.queries, job.joint_seed])
    return digest(model_text + "\0" + call)


def load_reference(workload: str) -> dict[str, list]:
    """job id -> [input digest, exit code, stdout digest]."""
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
