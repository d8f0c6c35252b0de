"""Output gate: decides which job executions failed.

Every execution is compared with the recorded reference (exit code and
stdout bytes).  Where a reference exists that does not go through the code
under test, each distinct job is also checked against it, once per run and
outside the timed region:

* a verdict known by construction (contraction targets are derivable, the
  bare intersection pattern is not);
* networkx separation for closures and axiom queries on one-graph models
  (the separations of a single graph are closed under the axioms, so the
  closure is exactly that set) and for ``dsep`` on DAGs without
  deterministic elements;
* d-separation implies independence in the sampled joint, for oracle jobs.

networkx is imported only by those checks, so it is not resident while the
jobs run and the benchmark's ``peak_rss_mb`` is read.
"""

from __future__ import annotations

from itertools import product

import gen
import jobs
from gen import Job


def _result_line(text: str) -> str | None:
    return next((ln for ln in text.splitlines() if ln.startswith("result: ")), None)


def _parse_set(text: str) -> frozenset:
    body = text.strip().strip("{}")
    return frozenset(e for e in body.split(",") if e)


def _parse_statement(line: str):
    x, z, y = (_parse_set(p) for p in line.split("|"))
    return x, z, y


def graph_separations(graph: dict) -> set:
    """Every canonical (x, z, y) that z separates in the element graph."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph["elements"])
    g.add_edges_from(graph["edges"])
    elements = graph["elements"]
    out = set()
    for zmask in range(1 << len(elements)):
        z = frozenset(e for i, e in enumerate(elements) if zmask >> i & 1)
        rest = [e for e in elements if e not in z]
        component = {}
        for c, members in enumerate(nx.connected_components(g.subgraph(rest))):
            component.update((e, c) for e in members)
        for sides in product((0, 1, 2), repeat=len(rest)):
            x = frozenset(e for e, s in zip(rest, sides) if s == 1)
            y = frozenset(e for e, s in zip(rest, sides) if s == 2)
            if not x or not y or sorted(x) > sorted(y):
                continue
            if not {component[e] for e in x} & {component[e] for e in y}:
                out.add((x, z, y))
    return out


def _is_d_separator(dag: dict, x: set, y: set, z: set) -> bool:
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(dag["elements"])
    g.add_edges_from(dag["arcs"])
    return nx.is_d_separator(g, x, y, z)


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


class Gate:
    """Judges every execution of a run's jobs.

    ``add_inputs`` checks a round's inputs before it runs.  ``record``
    compares an execution with the reference as soon as it returns, and
    keeps per job only its exit code, its stdout where an outside check
    reads it, and a count; so what the gate holds while the jobs run hardly
    grows with the number of rounds.  ``finish`` then makes each job again
    from its id and runs the outside checks once per job.
    """

    def __init__(self, workload: str, mugci):
        self.workload = workload
        self.reference = jobs.load_reference(workload)
        self.mugci = mugci
        self.attempted = 0
        self.failures: list[str] = []
        self._bad_inputs: dict[str, str] = {}   # job id -> why its input is wrong
        self._passed: dict[str, list] = {}      # job id -> [code, text, executions]
        self._separations: dict[str, set] = {}

    def add_inputs(self, workdir, round_jobs: list[Job]) -> None:
        """Compare a round's model files and calls with the recorded ones."""
        texts: dict[str, str] = {}
        for job in round_jobs:
            if job.file not in texts:
                texts[job.file] = (workdir / job.file).read_text(encoding="utf-8")
            want = self.reference.get(job.id)
            if want is not None and want[0] != jobs.input_digest(job, texts[job.file]):
                self._bad_inputs[job.id] = "input differs from the recorded one"

    def record(self, job: Job, code: int | None, text: str | None,
               error: str | None) -> None:
        self.attempted += 1
        why = self._against_reference(job, code, text, error)
        if why is not None:
            self.failures.append(f"{job.id}: {why}")
        elif job.id in self._passed:
            self._passed[job.id][2] += 1
        else:
            keep = job.expect is not None or job.graph is not None or job.queries is not None
            self._passed[job.id] = [code, text if keep else None, 1]

    def finish(self) -> list[str]:
        """Run the outside checks; returns one message per failed execution."""
        made: dict[str, dict[str, Job]] = {}
        for job_id in sorted(self._passed):   # one instance's jobs are adjacent
            code, text, executions = self._passed[job_id]
            key = job_id.rsplit(":", 1)[0]
            if key not in made:
                made = {key: {j.id: j for j in gen.instance_by_key(self.workload, key).jobs}}
            why = self._check_independent(made[key][job_id], code, text)
            if why is not None:
                self.failures.extend([f"{job_id}: {why}"] * executions)
        self._passed = {}
        return self.failures

    def _against_reference(self, job: Job, code, text, error) -> str | None:
        if error is not None:
            return f"raised {error}"
        want = self.reference.get(job.id)
        if want is None:
            return "no recorded reference"
        if job.id in self._bad_inputs:
            return self._bad_inputs[job.id]
        if code != want[1]:
            return f"exit code {code}, reference {want[1]}"
        if jobs.digest(text) != want[2]:
            return "stdout differs from the reference"
        return None

    def _check_independent(self, job: Job, code: int, text: str) -> str | None:
        if job.expect is not None and _result_line(text) != f"result: {job.expect}":
            return f"expected 'result: {job.expect}' by construction"
        if job.graph is not None:
            return self._check_graph(job, code, text)
        if job.dag is not None and job.argv is not None and not job.dag["det"]:
            argv = job.argv
            x, z, y = (set(filter(None, _argv_value(argv, f).split(",")))
                       for f in ("--x", "--z", "--y"))
            if _is_d_separator(job.dag, x, y, z) != (code == 0):
                return "dsep verdict differs from networkx"
        if job.queries is not None:
            return self._check_oracle(job, text)
        return None

    def _check_graph(self, job: Job, code: int, text: str) -> str | None:
        if job.file not in self._separations:
            self._separations[job.file] = graph_separations(job.graph)
        expected = self._separations[job.file]
        if job.argv[0] == "closure":
            got = {_parse_statement(ln) for ln in text.splitlines()[2:]}
            return None if got == expected else "closure differs from networkx separations"
        x, z, y = _parse_statement(_argv_value(job.argv, "--stmt"))
        canonical = (x, z, y) if sorted(x) < sorted(y) else (y, z, x)
        if (canonical in expected) != (code == 0):
            return "axiom verdict differs from networkx separation"
        return None

    def _check_oracle(self, job: Job, text: str) -> str | None:
        digraph = self.mugci.DiGraph(
            self.mugci.Universe(job.dag["elements"]), job.dag["arcs"], job.dag["det"]
        )
        for (x, z, y), line in zip(job.queries, text.splitlines()):
            if digraph.d_separated(x, z, y) and not line.endswith(" 1"):
                return f"d-separated but not independent: {line}"
        return None
