"""Seeded input generator for the mugci benchmark.

Writes model files as ``.mug`` text and describes one job per program call.
It imports nothing from ``mugci``, so no program output decides the corpus.

A workload is a fixed list of *structures* per kind (say three 6-element
paths); each structure comes in ``LABELLINGS`` variants that differ only in
element names and query choices.  The run seed picks one variant per
structure and the order of the round's jobs, and each further round of a
run takes every structure's next variant.  So each seed and each round get
their own inputs, every job's expected output is recorded once
(``reference/``), and the cost of a round does not depend on the seed.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LETTERS = string.ascii_lowercase
PAIRS = [a + b for a in LETTERS for b in LETTERS]
LABELLINGS = 6

# Copies of the repository's statement and graph fixtures, so the corpus
# does not change when the test suite does.
FIXTURES = {
    "chaining": (
        "universe w x y z\n"
        "stmt P1: {x,z} | {y} | {w}\n"
        "stmt P2: {x} | {z} | {y}\n"
    ),
    "chains": (
        "# chain x-z-y next to a triangle with no separation\n"
        "universe x y z\n"
        "graph Chain {\n  node 0 = {x};\n  node 1 = {z};\n  node 2 = {y};\n"
        "  edge 0 1;\n  edge 1 2;\n}\n"
        "graph Triangle {\n  node 0 = {x};\n  node 1 = {z};\n  node 2 = {y};\n"
        "  edge 0 1;\n  edge 1 2;\n  edge 0 2;\n}\n"
    ),
    "intersection": (
        "universe w x y z\n"
        "stmt P1: {x} | {y,z} | {w}\n"
        "stmt P2: {x} | {w,z} | {y}\n"
    ),
    "mixing": (
        "# mixing premises: two statements over four elements\n"
        "universe w x y z\n"
        "stmt P1: {x,y} | {z} | {w}\n"
        "stmt P2: {x} | {z} | {y}\n"
    ),
}


@dataclass
class Job:
    """One program call.

    ``argv`` is the CLI argument list with ``{file}`` standing for the
    model path; an oracle job has no argv and lists ``queries`` instead.
    ``expect`` is a verdict known by construction (the first ``result:``
    line), and ``graph`` / ``dag`` carry structure for outside checks.
    """

    id: str
    file: str
    argv: list[str] | None = None
    queries: list[list[list[str]]] | None = None
    joint_seed: int | None = None
    expect: str | None = None
    graph: dict | None = None
    dag: dict | None = None


@dataclass
class Instance:
    text: str
    jobs: list[Job] = field(default_factory=list)


@dataclass(frozen=True)
class Kind:
    """``count`` structures, each made by ``make(shape, labels, key, file)``.

    ``shape`` draws everything structural.  ``labels`` is seeded by the
    labelling and draws only element names (and, for fixtures, queries).
    """

    name: str
    count: int
    make: Callable[[random.Random, random.Random, str, str], Instance]


@dataclass(frozen=True)
class Workload:
    why: str
    kinds: tuple[Kind, ...]


# ---------------------------------------------------------------- helpers

def _set(elements) -> str:
    return "{" + ",".join(sorted(elements)) + "}"


def _stmt_arg(x, z, y) -> str:
    return f"{_set(x)}|{_set(z)}|{_set(y)}"


def _triple(rng: random.Random, universe: list[str]):
    """Disjoint x, z, y over the universe, x and y non-empty."""
    pool = list(universe)
    rng.shuffle(pool)
    nx_ = rng.randint(1, max(1, len(pool) // 3))
    ny = rng.randint(1, max(1, len(pool) // 3))
    rest = pool[nx_ + ny:]
    return pool[:nx_], rest[:rng.randint(0, len(rest))], pool[nx_:nx_ + ny]


def _graph_block(name: str, nodes: list[list[str]], edges) -> str:
    lines = [f"graph {name} {{"]
    lines += [f"  node {i} = {_set(es)};" for i, es in enumerate(nodes)]
    lines += [f"  edge {a} {b};" for a, b in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _premise_text(names, premises) -> str:
    lines = [f"universe {' '.join(names)}"]
    for p, (x, z, y) in enumerate(premises):
        lines.append(f"stmt P{p}: {_set(x)} | {_set(z)} | {_set(y)}")
    return "\n".join(lines) + "\n"


def _expanded(nodes: list[list[str]], edges) -> dict:
    """Element adjacency of a multi-element-node graph, as an edge list."""
    pairs = set()
    for es in nodes:
        pairs.update((a, b) for a in es for b in es if a < b)
    for a, b in edges:
        pairs.update(
            (min(p, q), max(p, q)) for p in nodes[a] for q in nodes[b] if p != q
        )
    elements = sorted({e for es in nodes for e in es})
    return {"elements": elements, "edges": sorted(pairs)}


def _closure_jobs(inst: Instance, key: str, file: str, rng, universe,
                  queries: int, graph: dict | None = None) -> None:
    inst.jobs.append(Job(f"{key}:closure", file, ["closure", "{file}"], graph=graph))
    asked: list[str] = []
    while len(asked) < queries:
        stmt = _stmt_arg(*_triple(rng, universe))
        if stmt in asked:
            continue
        inst.jobs.append(Job(
            f"{key}:query{len(asked)}", file,
            ["query", "{file}", "--stmt", stmt, "--mode", "axioms"],
            graph=graph,
        ))
        asked.append(stmt)


# ---------------------------------------------------------------- axioms

def _fixture(rng, labels, key, file) -> Instance:
    """A fixture with its elements renamed; the labelling picks names and queries."""
    name = sorted(FIXTURES)[int(key.split(":")[1]) % len(FIXTURES)]
    text = FIXTURES[name]
    old = text.split("universe ", 1)[1].split("\n", 1)[0].split()
    rename = dict(zip(old, labels.sample(LETTERS, len(old))))
    text = re.sub(r"\b[a-z]\b", lambda m: rename.get(m.group(), m.group()), text)
    universe = [rename[e] for e in old]
    inst = Instance(text)
    _closure_jobs(inst, key, file, labels, universe, queries=3)
    return inst


def _path(n: int):
    def make(rng, labels, key, file) -> Instance:
        names = labels.sample(LETTERS, n)
        nodes = [[e] for e in names]
        edges = [(i, i + 1) for i in range(n - 1)]
        inst = Instance(f"universe {' '.join(names)}\n" + _graph_block("P", nodes, edges))
        _closure_jobs(inst, key, file, rng, names, queries=1 if n < 7 else 0,
                      graph=_expanded(nodes, edges))
        return inst
    return make


def _grid(rng, labels, key, file) -> Instance:
    names = labels.sample(LETTERS, 6)
    nodes = [[e] for e in names]
    edges = [(r * 3 + c, r * 3 + c + 1) for r in range(2) for c in range(2)]
    edges += [(c, 3 + c) for c in range(3)]
    inst = Instance(f"universe {' '.join(names)}\n" + _graph_block("G", nodes, edges))
    _closure_jobs(inst, key, file, rng, names, queries=2, graph=_expanded(nodes, edges))
    return inst


def _random_graph(rng, names: list[str], density: float):
    """Connected-ish graph over names; some nodes carry two elements."""
    pool = list(names)
    rng.shuffle(pool)
    nodes: list[list[str]] = []
    while pool:
        take = 2 if len(pool) > 2 and rng.random() < 0.2 else 1
        nodes.append(pool[:take])
        pool = pool[take:]
    edges = [
        (a, b)
        for a in range(len(nodes))
        for b in range(a + 1, len(nodes))
        if rng.random() < density
    ]
    return nodes, edges


def _random_models(elements: int, graphs: int):
    def make(rng, labels, key, file) -> Instance:
        names = labels.sample(LETTERS, elements)
        blocks = []
        graph = None
        for g in range(graphs):
            members = names if graphs == 1 else rng.sample(names, rng.randint(3, elements))
            nodes, edges = _random_graph(rng, members, density=0.4)
            blocks.append(_graph_block(f"G{g}", nodes, edges))
            if graphs == 1:
                graph = _expanded(nodes, edges)
        inst = Instance(f"universe {' '.join(names)}\n" + "".join(blocks))
        _closure_jobs(inst, key, file, rng, names, queries=2, graph=graph)
        return inst
    return make


def _premise_models(elements: int, premises: tuple[int, int]):
    def make(rng, labels, key, file) -> Instance:
        names = labels.sample(LETTERS, elements)
        count = rng.randint(*premises)
        inst = Instance(_premise_text(names, [_triple(rng, names) for _ in range(count)]))
        _closure_jobs(inst, key, file, rng, names, queries=2)
        return inst
    return make


# ---------------------------------------------------------------- graphical

def _parts(rng, labels, elements: int):
    """Random X, Z, Y, W: X, Y, W non-empty, Z possibly empty."""
    names = labels.sample(LETTERS, elements)
    sizes = [1, 1, 1, 0]
    for _ in range(elements - 3):
        sizes[rng.randrange(4)] += 1
    cut = 0
    out = []
    for size in sizes:
        out.append(names[cut:cut + size])
        cut += size
    x, y, w, z = out
    return names, x, z, y, w


def _graphical_jobs(inst: Instance, key, file, targets) -> None:
    for t, (x, z, y, expect) in enumerate(targets):
        stmt = _stmt_arg(x, z, y)
        inst.jobs.append(Job(
            f"{key}:replay{t}", file,
            ["query", "{file}", "--stmt", stmt, "--mode", "replay"],
            expect=None if expect is None else ("proven" if expect else "not-derivable"),
        ))
        inst.jobs.append(Job(
            f"{key}:search{t}", file,
            ["query", "{file}", "--stmt", stmt, "--mode", "search",
             "--max-moves", "3", "--max-graphs", "8"],
            expect=None if expect is None else ("proven" if expect else "exhausted"),
        ))


def _contraction(rng, labels, key, file) -> Instance:
    """I(X, Z+Y, W) and I(X, Z, Y) give I(X, Z, Y+W) and I(X, Z, W)."""
    names, x, z, y, w = _parts(rng, labels, rng.choice((4, 5)))
    premises = [(x, z + y, w), (x, z, y)]
    inst = Instance(_premise_text(names, premises))
    _graphical_jobs(inst, key, file, [(x, z, y + w, True), (x, z, w, True)])
    return inst


def _intersection(rng, labels, key, file) -> Instance:
    """I(X, Z+W, Y) and I(X, Z+Y, W) do not give I(X, Z, Y+W)."""
    names, x, z, y, w = _parts(rng, labels, rng.choice((4, 5)))
    premises = [(x, z + w, y), (x, z + y, w)]
    inst = Instance(_premise_text(names, premises))
    _graphical_jobs(inst, key, file, [(x, z, y + w, False)])
    return inst


def _random_premises(rng, labels, key, file) -> Instance:
    names = labels.sample(LETTERS, rng.choice((4, 5)))
    premises = [_triple(rng, names) for _ in range(rng.randint(2, 3))]
    inst = Instance(_premise_text(names, premises))
    x, z, y = _triple(rng, names)
    _graphical_jobs(inst, key, file, [(x, z, y, None)])
    return inst


# ---------------------------------------------------------------- directed

def _random_dag(rng, labels, n: int, det_share: float):
    names = labels.sample(PAIRS, n)
    arcs = []
    for j in range(1, n):
        for i in rng.sample(range(j), min(j, rng.randint(0, 3))):
            arcs.append((names[i], names[j]))
    det = sorted(e for e in names if rng.random() < det_share)
    return names, sorted(arcs), det


def _digraph_text(names, arcs, det) -> str:
    lines = [f"universe {' '.join(names)}", "digraph D {"]
    lines += [f"  {'det node' if e in det else 'node'} {e};" for e in names]
    lines += [f"  arc {a} {b};" for a, b in arcs]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dag(n_range: tuple[int, int], dsep_queries: int):
    def make(rng, labels, key, file) -> Instance:
        det_share = rng.choice((0.0, 0.1))  # half are checked against networkx
        names, arcs, det = _random_dag(rng, labels, rng.randint(*n_range), det_share)
        inst = Instance(_digraph_text(names, arcs, det))
        dag = {"elements": names, "arcs": arcs, "det": det}
        for q in range(dsep_queries):
            nx_, nz, ny = rng.randint(1, 3), rng.randint(0, 4), rng.randint(1, 3)
            pool = rng.sample(names, nx_ + nz + ny)
            x, z, y = pool[:nx_], pool[nx_:nx_ + nz], pool[nx_ + nz:]
            inst.jobs.append(Job(
                f"{key}:dsep{q}", file,
                ["dsep", "{file}", "--graph", "D", "--x", ",".join(sorted(x)),
                 "--z", ",".join(sorted(z)), "--y", ",".join(sorted(y))],
                dag=dag,
            ))
        inst.jobs.append(Job(f"{key}:moralize", file,
                             ["moralize", "{file}", "--graph", "D"]))
        order = list(reversed(names))  # children before their parents
        inst.jobs.append(Job(f"{key}:jointree", file,
                             ["build-jointree", "{file}", "--graph", "D",
                              "--order", ",".join(order)]))
        return inst
    return make


def _oracle(rng, labels, key, file) -> Instance:
    names, arcs, det = _random_dag(rng, labels, rng.randint(6, 8), det_share=0.15)
    inst = Instance(_digraph_text(names, arcs, det))
    queries = [[sorted(s) for s in _triple(rng, names)] for _ in range(4)]
    inst.jobs.append(Job(f"{key}:oracle", file, queries=queries,
                         joint_seed=rng.randrange(10**6),
                         dag={"elements": names, "arcs": arcs, "det": det}))
    return inst


# ---------------------------------------------------------------- workloads

WORKLOADS: dict[str, Workload] = {
    "axioms": Workload(
        why=(
            "closure and axiom queries: graphoid.closure does almost all the "
            "work, with mug.enumerate_satisfied and ugraph.separates as the "
            "rest; one graph's separations are queried thousands of times"
        ),
        kinds=(
            Kind("fixture", 8, _fixture),
            Kind("path5", 12, _path(5)),
            Kind("path6", 3, _path(6)),
            Kind("path7", 1, _path(7)),
            Kind("grid", 8, _grid),
            Kind("graph5x1", 10, _random_models(5, 1)),
            Kind("graph5x3", 8, _random_models(5, 3)),
            Kind("graph6x1", 2, _random_models(6, 1)),
            Kind("premise5", 10, _premise_models(5, (3, 8))),
            Kind("premise6", 2, _premise_models(6, (3, 8))),
        ),
    ),
    "graphical": Workload(
        why=(
            "replay and bounded search on 4-5 element premise models: "
            "derivation.search drives mug.witness, Mug construction and "
            "ugraph.separates over many short-lived graphs"
        ),
        kinds=(
            Kind("contraction", 60, _contraction),
            Kind("intersection", 60, _intersection),
            Kind("random", 80, _random_premises),
        ),
    ),
    "directed": Workload(
        why=(
            "dsep, moralize and build-jointree through the CLI on 16-64 "
            "element DAGs, plus exact-oracle jobs on DAGs of at most 8 "
            "elements; a fresh moral graph per query, so no graph is reused"
        ),
        kinds=(
            Kind("dag16", 80, _dag((16, 24), 12)),
            Kind("dag64", 40, _dag((48, 64), 12)),
            Kind("oracle", 300, _oracle),
        ),
    ),
}


def instance(workload: str, kind: Kind, structure: int, labelling: int) -> Instance:
    """One labelling of one structure; independent of any run seed."""
    key = f"{kind.name}:{structure}:{labelling}"
    shape = random.Random(f"{workload}/{kind.name}:{structure}")
    labels = random.Random(f"{workload}/{kind.name}:{structure}/labels:{labelling}")
    return kind.make(shape, labels, key, f"{kind.name}-{structure}-{labelling}.mug")


def instance_by_key(workload: str, key: str) -> Instance:
    """The instance whose jobs have ids ``<key>:<job>``."""
    kind_name, structure, labelling = key.split(":")
    kind = next(k for k in WORKLOADS[workload].kinds if k.name == kind_name)
    return instance(workload, kind, int(structure), int(labelling))


def catalogue(workload: str):
    """Every instance a round of ``workload`` can use, in a fixed order."""
    for kind in WORKLOADS[workload].kinds:
        for structure in range(kind.count):
            for labelling in range(LABELLINGS):
                yield instance(workload, kind, structure, labelling)


def round_instances(workload: str, seed: int, round_index: int) -> list[Instance]:
    """Every structure of the workload, each in a seed-chosen labelling.

    Each round of a run moves every structure on to its next labelling, so
    the first ``LABELLINGS`` rounds share no file and no argv: a memo kept
    across calls in one process gets no more hits than a fresh process would.
    """
    rng = random.Random(f"{workload}/round/{seed}")
    return [
        instance(workload, kind, structure,
                 (rng.randrange(LABELLINGS) + round_index) % LABELLINGS)
        for kind in WORKLOADS[workload].kinds
        for structure in range(kind.count)
    ]


def jobs_per_kind(jobs: list[Job]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for job in jobs:
        kind = job.id.split(":", 1)[0]
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def write_files(instances: list[Instance], out: Path) -> None:
    """Write each instance's model file."""
    out.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        (out / inst.jobs[0].file).write_text(inst.text, encoding="utf-8")


def job_order(workload: str, seed: int, round_index: int,
              instances: list[Instance]) -> list[Job]:
    """A round's jobs in the order they run."""
    jobs = [job for inst in instances for job in inst.jobs]
    random.Random(f"{workload}/order/{seed}/{round_index}").shuffle(jobs)
    return jobs


def write_round(workload: str, seed: int, round_index: int, out: Path) -> list[Job]:
    """Write one round's model files; return its jobs in the order they run."""
    instances = round_instances(workload, seed, round_index)
    write_files(instances, out)
    return job_order(workload, seed, round_index, instances)

