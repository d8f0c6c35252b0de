"""Record the reference outputs of every catalogue job.

Run ``python3 perfbench/record.py [WORKLOAD ...]`` on the commit whose
outputs are the reference; it rewrites ``perfbench/reference/<workload>.json``
with each job's input digest, exit code and stdout digest.  A later commit
passes the benchmark's output gate only if it reproduces these bytes.
"""

from __future__ import annotations

import json
import shutil
import sys

import gen
import jobs


def record(workload: str) -> dict[str, list]:
    mugci = jobs.import_program()
    workdir = jobs.BENCH_DIR / ".work" / f"record-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = {}
    for inst in gen.catalogue(workload):
        (workdir / inst.jobs[0].file).write_text(inst.text, encoding="utf-8")
        for job in inst.jobs:
            code, text = jobs.execute(mugci, job, workdir)
            reference[job.id] = [jobs.input_digest(job, inst.text), code, jobs.digest(text)]
    shutil.rmtree(workdir)
    return reference


if __name__ == "__main__":
    jobs.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(gen.WORKLOADS):
        ref = record(name)
        path = jobs.REFERENCE_DIR / f"{name}.json"
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(ref.items())]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{name}: {len(ref)} jobs -> {path.name}")
