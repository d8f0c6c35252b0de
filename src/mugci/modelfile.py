"""Model-file parsing and serialization.

The input format is line-oriented with ``#`` comments.  A model declares one
universe and any number of named undirected graphs, directed graphs, join
trees, and statements::

    universe b d e l t
    graph G { node 0 = {e,l,t}; node 1 = {b,d,e}; edge 0 1; }
    digraph D { node e; det node d; arc e d; }
    jointree J { cluster 0 = {e,l,t}; cluster 1 = {b,d,e}; link 0 1; }
    stmt S: {l} | {e} | {b}

Graph and join-tree blocks may span lines; ``universe`` and ``stmt`` occupy
a single line.  Sepsets of join trees are always computed, never declared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .dsep import DiGraph, JoinTree
from .errors import (
    DuplicateName,
    ModelSyntaxError,
    UnknownElement,
)
from .model import Statement, Universe, format_set
from .ugraph import UGraph

# One pass classifies each token by its group: 1 a name, 2 any other valid
# token (a digit run or punctuation), 3 a character no token can start with.
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|(\d+|[{}();:|=,])|(\S)")


class _Token(NamedTuple):
    text: str
    line: int
    column: int
    is_name: bool = False


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN_RE.finditer(line.split("#", 1)[0]):
            kind = match.lastindex
            if kind == 3:
                raise ModelSyntaxError(
                    f"unexpected character {match.group()!r}",
                    lineno,
                    match.start() + 1,
                )
            tokens.append(_Token(match.group(), lineno, match.start() + 1, kind == 1))
    return tokens


@dataclass
class ModelFile:
    """Parsed model: a universe plus named graphs, trees, and statements."""

    universe: Universe
    graphs: dict[str, UGraph] = field(default_factory=dict)
    digraphs: dict[str, DiGraph] = field(default_factory=dict)
    jointrees: dict[str, JoinTree] = field(default_factory=dict)
    statements: dict[str, Statement] = field(default_factory=dict)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expectation: str) -> _Token:
        pos = self.pos
        if pos == len(self.tokens):
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ModelSyntaxError(f"expected {expectation} at end of input",
                                   last.line, last.column)
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, text: str) -> _Token:
        tok = self.next(repr(text))
        if tok.text != text:
            raise ModelSyntaxError(
                f"expected {text!r}, found {tok.text!r}", tok.line, tok.column
            )
        return tok

    def name(self, what: str) -> _Token:
        tok = self.next(what)
        if not tok.is_name:
            raise ModelSyntaxError(
                f"expected {what}, found {tok.text!r}", tok.line, tok.column
            )
        return tok

    def integer(self, what: str) -> tuple[int, _Token]:
        tok = self.next(what)
        if not tok.text.isdigit():
            raise ModelSyntaxError(
                f"expected {what}, found {tok.text!r}", tok.line, tok.column
            )
        return int(tok.text), tok

    def element_set(self, universe: Universe | None) -> frozenset:
        """Parse ``{a,b,...}``; ``{}`` is the empty set."""
        self.expect("{")
        members = []
        tok = self.peek()
        if tok is not None and tok.text != "}":
            while True:
                el = self.name("element name")
                if universe is not None and el.text not in universe:
                    raise UnknownElement(
                        f"element {el.text!r} is not in the universe "
                        f"(line {el.line}, column {el.column})"
                    )
                members.append(el.text)
                tok = self.peek()
                if tok is not None and tok.text == ",":
                    self.pos += 1
                    continue
                break
        self.expect("}")
        return frozenset(members)


def parse_model(text: str) -> ModelFile:
    """Parse model text; syntax errors carry line and column."""
    parser = _Parser(_tokenize(text))
    universe: Universe | None = None
    model: ModelFile | None = None
    names_taken: set[str] = set()

    def fresh_name(tok: _Token) -> str:
        if tok.text in names_taken:
            raise DuplicateName(f"name {tok.text!r} already used (line {tok.line})")
        names_taken.add(tok.text)
        return tok.text

    def need_model(tok: _Token) -> ModelFile:
        if model is None:
            raise ModelSyntaxError(
                "universe must be declared first", tok.line, tok.column
            )
        return model

    while parser.peek() is not None:
        head = parser.next("declaration")
        if head.text == "universe":
            if universe is not None:
                raise ModelSyntaxError(
                    "universe already declared", head.line, head.column
                )
            names = []
            while (tok := parser.peek()) is not None and tok.line == head.line:
                names.append(parser.name("element name").text)
            if not names:
                raise ModelSyntaxError(
                    "universe needs at least one element", head.line, head.column
                )
            if len(set(names)) != len(names):
                raise ModelSyntaxError(
                    "duplicate element in universe", head.line, head.column
                )
            universe = Universe(names)
            model = ModelFile(universe)
        elif head.text == "graph":
            m = need_model(head)
            name = fresh_name(parser.name("graph name"))
            m.graphs[name] = _parse_graph_block(parser, universe)
        elif head.text == "digraph":
            m = need_model(head)
            name = fresh_name(parser.name("digraph name"))
            m.digraphs[name] = _parse_digraph_block(parser, universe)
        elif head.text == "jointree":
            m = need_model(head)
            name = fresh_name(parser.name("jointree name"))
            m.jointrees[name] = _parse_jointree_block(parser, universe)
        elif head.text == "stmt":
            m = need_model(head)
            name = fresh_name(parser.name("statement name"))
            parser.expect(":")
            x = parser.element_set(universe)
            parser.expect("|")
            z = parser.element_set(universe)
            parser.expect("|")
            y = parser.element_set(universe)
            m.statements[name] = Statement(x, z, y)
        else:
            raise ModelSyntaxError(
                f"unknown declaration {head.text!r}", head.line, head.column
            )

    if model is None:
        raise ModelSyntaxError("empty model: no universe declared", 1, 1)
    return model


def _parse_graph_block(parser: _Parser, universe: Universe) -> UGraph:
    parser.expect("{")
    nodes: dict[int, frozenset] = {}
    edges = []
    while True:
        tok = parser.next("'node', 'edge', or '}'")
        if tok.text == "}":
            break
        if tok.text == "node":
            nid, id_tok = parser.integer("node id")
            if nid in nodes:
                raise ModelSyntaxError(
                    f"duplicate node id {nid}", id_tok.line, id_tok.column
                )
            parser.expect("=")
            elements = parser.element_set(universe)
            if not elements:
                raise ModelSyntaxError(
                    "node element set may not be empty", id_tok.line, id_tok.column
                )
            nodes[nid] = elements
        elif tok.text == "edge":
            a, a_tok = parser.integer("node id")
            b, b_tok = parser.integer("node id")
            for nid, t in ((a, a_tok), (b, b_tok)):
                if nid not in nodes:
                    raise ModelSyntaxError(f"unknown node {nid}", t.line, t.column)
            if a == b:
                raise ModelSyntaxError("self-loop", a_tok.line, a_tok.column)
            edges.append((a, b))
        else:
            raise ModelSyntaxError(
                f"expected 'node' or 'edge', found {tok.text!r}",
                tok.line,
                tok.column,
            )
        parser.expect(";")
    return UGraph(nodes, edges)


def _parse_digraph_block(parser: _Parser, universe: Universe) -> DiGraph:
    parser.expect("{")
    declared: list[str] = []
    deterministic = []
    arcs = []

    def declared_element(tok: _Token) -> str:
        if tok.text not in universe:
            raise UnknownElement(
                f"element {tok.text!r} is not in the universe "
                f"(line {tok.line}, column {tok.column})"
            )
        return tok.text

    while True:
        tok = parser.next("'node', 'det', 'arc', or '}'")
        if tok.text == "}":
            break
        if tok.text in ("node", "det"):
            if tok.text == "det":
                parser.expect("node")
            el = parser.name("element name")
            name = declared_element(el)
            if name in declared:
                raise ModelSyntaxError(
                    f"node {name!r} declared twice", el.line, el.column
                )
            declared.append(name)
            if tok.text == "det":
                deterministic.append(name)
        elif tok.text == "arc":
            a = parser.name("element name")
            b = parser.name("element name")
            for t in (a, b):
                declared_element(t)
                if t.text not in declared:
                    raise ModelSyntaxError(
                        f"arc endpoint {t.text!r} is not a declared node",
                        t.line,
                        t.column,
                    )
            arcs.append((a.text, b.text))
        else:
            raise ModelSyntaxError(
                f"expected 'node', 'det', or 'arc', found {tok.text!r}",
                tok.line,
                tok.column,
            )
        parser.expect(";")
    return DiGraph(Universe(declared), arcs, deterministic)


def _parse_jointree_block(parser: _Parser, universe: Universe) -> JoinTree:
    parser.expect("{")
    clusters: dict[int, frozenset] = {}
    links = []
    while True:
        tok = parser.next("'cluster', 'link', or '}'")
        if tok.text == "}":
            break
        if tok.text == "cluster":
            cid, id_tok = parser.integer("cluster id")
            if cid in clusters:
                raise ModelSyntaxError(
                    f"duplicate cluster id {cid}", id_tok.line, id_tok.column
                )
            parser.expect("=")
            elements = parser.element_set(universe)
            if not elements:
                raise ModelSyntaxError(
                    "cluster may not be empty", id_tok.line, id_tok.column
                )
            clusters[cid] = elements
        elif tok.text == "link":
            a, a_tok = parser.integer("cluster id")
            b, b_tok = parser.integer("cluster id")
            for cid, t in ((a, a_tok), (b, b_tok)):
                if cid not in clusters:
                    raise ModelSyntaxError(
                        f"unknown cluster {cid}", t.line, t.column
                    )
            if a == b:
                raise ModelSyntaxError("self-link", a_tok.line, a_tok.column)
            links.append((a, b))
        else:
            raise ModelSyntaxError(
                f"expected 'cluster' or 'link', found {tok.text!r}",
                tok.line,
                tok.column,
            )
        parser.expect(";")
    return JoinTree(clusters, links)


def format_ugraph(name: str, g: UGraph) -> str:
    lines = [f"graph {name} {{"]
    for n in sorted(g.nodes):
        lines.append(f"  node {n} = {format_set(g.nodes[n])};")
    for a, b in sorted(tuple(sorted(e)) for e in g.edges):
        lines.append(f"  edge {a} {b};")
    lines.append("}")
    return "\n".join(lines)


def format_digraph(name: str, d: DiGraph) -> str:
    lines = [f"digraph {name} {{"]
    for e in d.universe:
        prefix = "det node" if e in d.deterministic else "node"
        lines.append(f"  {prefix} {e};")
    for a, b in sorted(d.arcs):
        lines.append(f"  arc {a} {b};")
    lines.append("}")
    return "\n".join(lines)


def format_jointree(name: str, t: JoinTree) -> str:
    lines = [f"jointree {name} {{"]
    for c in sorted(t.clusters):
        lines.append(f"  cluster {c} = {format_set(t.clusters[c])};")
    for a, b in sorted(tuple(sorted(l)) for l in t.links):
        lines.append(f"  link {a} {b};")
    lines.append("}")
    return "\n".join(lines)


def serialize_model(model: ModelFile) -> str:
    """Deterministic text for a model; reparses to an equal model."""
    parts = ["universe " + " ".join(model.universe)]
    for name, g in model.graphs.items():
        parts.append(format_ugraph(name, g))
    for name, d in model.digraphs.items():
        parts.append(format_digraph(name, d))
    for name, t in model.jointrees.items():
        parts.append(format_jointree(name, t))
    for name, s in model.statements.items():
        parts.append(f"stmt {name}: {s}")
    return "\n".join(parts) + "\n"
