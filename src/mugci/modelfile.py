"""Model-file parsing, and the printers for the graphs and join trees it reads.

The input format is line-oriented with ``#`` comments.  A model declares one
universe and any number of named undirected graphs, directed graphs, join
trees, and statements::

    universe b d e l t
    graph G { node 0 = {e,l,t}; node 1 = {b,d,e}; edge 0 1; }
    digraph D { node e; det node d; arc e d; }
    jointree J { cluster 0 = {e,l,t}; cluster 1 = {b,d,e}; link 0 1; }
    stmt S: {l} | {e} | {b}

Tokens are names (``[A-Za-z_][A-Za-z0-9_]*``), digit runs and the marks
``{}();:|=,``.  Graph and join-tree blocks may span lines; ``universe`` reads
the names on its own line and ``stmt`` occupies a single line.  Errors carry
the line and column of the token at fault.  Sepsets of join trees are always
computed, never declared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from string import ascii_letters, digits
from typing import Iterable

from .dsep import DiGraph, JoinTree
from .errors import DuplicateName, ModelError, ModelSyntaxError, UnknownElement
from .model import Statement, Universe
from .ugraph import UGraph

# A token is a name, a digit run or one punctuation mark, so a token is a
# name exactly when ``str.isidentifier`` holds.  Every other non-space
# character is an error; ``\d`` and ``\s`` are Unicode classes.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}();:|=,]")
_BAD_RE = re.compile(r"[^A-Za-z_\d\s{}();:|=,]")
# The ASCII characters ``_BAD_RE`` accepts; ``\s`` holds "\x1c"-"\x1f" too.
_ALLOWED = (ascii_letters + digits + "_\t\n\v\f\r\x1c\x1d\x1e\x1f {}();:|=,").encode()
# In an ASCII text where no digit runs into a name character, every run of
# name characters is one name or one digit run, so the tokens are the words
# left when the marks are spaced out: ``str.split`` and ``\s`` split on the
# same characters.
_GLUED_RE = re.compile(r"[0-9][A-Za-z_]")
_MARKS = "{}();:|=,"
# The line breaks of ``str.splitlines`` ("\r\n" is one), and a comment up
# to the next one.
_BREAK_RE = re.compile(r"[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")
_COMMENT_RE = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
# Clauses read fixed windows of up to four tokens; the padding after the
# last token matches no name, number or punctuation mark.
_PAD = ["\n"] * 4
# Expected-name text of each named declaration.
_DECLARATIONS = {
    "graph": "graph name",
    "digraph": "digraph name",
    "jointree": "jointree name",
    "stmt": "statement name",
}


@dataclass
class ModelFile:
    """Parsed model: a universe plus named graphs, trees, and statements."""

    universe: Universe
    graphs: dict[str, UGraph] = field(default_factory=dict)
    digraphs: dict[str, DiGraph] = field(default_factory=dict)
    jointrees: dict[str, JoinTree] = field(default_factory=dict)
    statements: dict[str, Statement] = field(default_factory=dict)


class _Tokens:
    """Token strings of a model text, read from the whole text at once.

    Lines are found only for ``universe``, which reads the first line that
    holds a token, and for the line and column of an error.
    """

    def __init__(self, text: str):
        # A comment becomes a space, so that no "\r" before it and "\n"
        # after it can join into one line break.
        body = _COMMENT_RE.sub(" ", text) if "#" in text else text
        self.body = body
        # An ASCII text is clean when deleting the allowed characters leaves
        # nothing; the regex is left to place the first bad one.
        if not body.isascii() or body.encode().translate(None, _ALLOWED):
            if bad := _BAD_RE.search(body):
                line, column = self._line_column(bad.start())
                raise ModelSyntaxError(f"unexpected character {bad.group()!r}", line, column)
        toks, self.first_line_end = _tokenize(body)
        self.n = len(toks)
        self.toks = toks + _PAD

    def _line_column(self, offset: int) -> tuple[int, int]:
        breaks = list(_BREAK_RE.finditer(self.body, 0, offset))
        line = len(breaks) + 1 - self.body.count("\r\n", 0, offset)
        return line, offset - (breaks[-1].end() if breaks else 0) + 1

    def position(self, j: int) -> tuple[int, int]:
        match = next(islice(_TOKEN_RE.finditer(self.body), j, None))
        return self._line_column(match.start())

    def error(self, message: str, j: int) -> ModelSyntaxError:
        return ModelSyntaxError(message, *self.position(j))

    def expected(self, j: int, what: str, at_end: str = "") -> ModelSyntaxError:
        if j < self.n:
            return self.error(f"expected {what}, found {self.toks[j]!r}", j)
        line, column = self.position(self.n - 1) if self.n else (1, 1)
        return ModelSyntaxError(
            f"expected {at_end or what} at end of input", line, column
        )

    def outsider(self, j: int) -> ModelError:
        """The error for token j where a universe element belongs."""
        if not self.toks[j].isidentifier():
            return self.expected(j, "element name")
        line, column = self.position(j)
        return UnknownElement(
            f"element {self.toks[j]!r} is not in the universe "
            f"(line {line}, column {column})"
        )

    def element_set(self, j: int, members: frozenset) -> tuple[frozenset, int]:
        """Parse ``{a,b,...}`` at token j; ``{}`` is the empty set."""
        toks = self.toks
        if toks[j] != "{":
            raise self.expected(j, "'{'")
        j += 1
        found = []
        if toks[j] != "}" and j < self.n:
            while True:
                if toks[j] not in members:
                    raise self.outsider(j)
                found.append(toks[j])
                if toks[j + 1] != ",":
                    j += 1
                    break
                j += 2
        if toks[j] != "}":
            raise self.expected(j, "'}'")
        return frozenset(found), j + 1


def _splittable(body: str) -> bool:
    """Whether ``str.split`` reads a checked text's tokens, once its marks
    are spaced out."""
    return body.isascii() and not _GLUED_RE.search(body)


def _tokenize(body: str) -> tuple[list[str], int]:
    """The tokens of a checked text, and how many lie on the first line that
    holds one; a token starts at the first character that is not a space."""
    if _splittable(body):
        for mark in _MARKS:
            body = body.replace(mark, f" {mark} ")
        words = str.split
    else:
        words = _TOKEN_RE.findall
    toks = words(body)
    brk = _BREAK_RE.search(body, len(body) - len(body.lstrip()))
    return toks, len(words(body[:brk.start()])) if brk else len(toks)


def parse_model(text: str) -> ModelFile:
    """Parse model text; syntax errors carry line and column."""
    p = _Tokens(text)
    toks = p.toks
    model: ModelFile | None = None
    members: frozenset = frozenset()
    names_taken: set[str] = set()
    i = 0
    while i < p.n:
        head = toks[i]
        if head == "universe":
            if model is not None:
                raise p.error("universe already declared", i)
            end = p.first_line_end  # i is 0: any other first token raises
            for j in range(i + 1, end):
                if not toks[j].isidentifier():
                    raise p.expected(j, "element name")
            names = toks[i + 1:end]
            if not names:
                raise p.error("universe needs at least one element", i)
            members = frozenset(names)
            if len(members) != len(names):
                raise p.error("duplicate element in universe", i)
            model = ModelFile(Universe._from_sorted(sorted(names)))
            i = end
            continue
        if head not in _DECLARATIONS:
            raise p.error(f"unknown declaration {head!r}", i)
        if model is None:
            raise p.error("universe must be declared first", i)
        name = toks[i + 1]
        if not name.isidentifier():
            raise p.expected(i + 1, _DECLARATIONS[head])
        if name in names_taken:
            line = p.position(i + 1)[0]
            raise DuplicateName(f"name {name!r} already used (line {line})")
        names_taken.add(name)
        i += 2
        if head == "digraph":
            model.digraphs[name], i = _digraph_block(p, i, members, model.universe)
        elif head == "graph":
            nodes, edges, i = _numbered_block(p, i, members, _GRAPH_WORDS)
            model.graphs[name] = UGraph(nodes, edges)
        elif head == "jointree":
            clusters, links, i = _numbered_block(p, i, members, _TREE_WORDS)
            model.jointrees[name] = JoinTree(clusters, links)
        else:
            sides = []
            for mark in ":||":
                if toks[i] != mark:
                    raise p.expected(i, repr(mark))
                side, i = p.element_set(i + 1, members)
                sides.append(side)
            model.statements[name] = Statement(*sides)

    if model is None:
        raise ModelSyntaxError("empty model: no universe declared", 1, 1)
    return model


def _digraph_block(
    p: _Tokens, i: int, members: frozenset, universe: Universe
) -> tuple[DiGraph, int]:
    """A digraph over the file's universe when it declares every element of
    it, else over a universe of its own made of what it declares."""
    toks = p.toks
    if toks[i] != "{":
        raise p.expected(i, "'{'")
    i += 1
    declared: dict[str, None] = {}
    deterministic = []
    arcs = []
    while True:
        head = toks[i]
        if head == "arc":
            a, b = toks[i + 1:i + 3]
            if a not in declared or b not in declared:
                for j in (i + 1, i + 2):
                    if not toks[j].isidentifier():
                        raise p.expected(j, "element name")
                for j in (i + 1, i + 2):
                    if toks[j] not in declared:
                        if toks[j] not in members:
                            raise p.outsider(j)
                        raise p.error(
                            f"arc endpoint {toks[j]!r} is not a declared node", j
                        )
            arcs.append((a, b))
            i += 3
        elif head == "node" or head == "det":
            if head == "det":
                i += 1
                if toks[i] != "node":
                    raise p.expected(i, "'node'")
            el = toks[i + 1]
            if el not in members:
                raise p.outsider(i + 1)
            if el in declared:
                raise p.error(f"node {el!r} declared twice", i + 1)
            declared[el] = None
            if head == "det":
                deterministic.append(el)
            i += 2
        elif head == "}":
            if len(declared) != len(members):
                universe = Universe._from_sorted(sorted(declared))
            return DiGraph(universe, arcs, deterministic), i + 1
        else:
            raise p.expected(
                i, "'node', 'det', or 'arc'", at_end="'node', 'det', 'arc', or '}'"
            )
        if toks[i] != ";":
            raise p.expected(i, "';'")
        i += 1


# Words of the two blocks of numbered element sets joined in pairs: item and
# pair keywords, the id's name, and the texts of the errors they can raise.
_GRAPH_WORDS = ("node", "edge", "node id", "duplicate node id",
                "node element set may not be empty", "unknown node", "self-loop")
_TREE_WORDS = ("cluster", "link", "cluster id", "duplicate cluster id",
               "cluster may not be empty", "unknown cluster", "self-link")


def _numbered_block(
    p: _Tokens, i: int, members: frozenset, words: tuple[str, ...]
) -> tuple[dict[int, frozenset], list[tuple[int, int]], int]:
    item, pair, label, duplicate, empty, unknown, loop = words
    toks = p.toks
    if toks[i] != "{":
        raise p.expected(i, "'{'")
    i += 1
    sets: dict[int, frozenset] = {}
    pairs = []
    while True:
        head = toks[i]
        if head == item:
            if not toks[i + 1].isdigit():
                raise p.expected(i + 1, label)
            key = int(toks[i + 1])
            if key in sets:
                raise p.error(f"{duplicate} {key}", i + 1)
            if toks[i + 2] != "=":
                raise p.expected(i + 2, "'='")
            elements, end = p.element_set(i + 3, members)
            if not elements:
                raise p.error(empty, i + 1)
            sets[key] = elements
            i = end
        elif head == pair:
            for j in (i + 1, i + 2):
                if not toks[j].isdigit():
                    raise p.expected(j, label)
            a, b = int(toks[i + 1]), int(toks[i + 2])
            for j, key in ((i + 1, a), (i + 2, b)):
                if key not in sets:
                    raise p.error(f"{unknown} {key}", j)
            if a == b:
                raise p.error(loop, i + 1)
            pairs.append((a, b))
            i += 3
        elif head == "}":
            return sets, pairs, i + 1
        else:
            raise p.expected(
                i, f"{item!r} or {pair!r}", at_end=f"{item!r}, {pair!r}, or '}}'"
            )
        if toks[i] != ";":
            raise p.expected(i, "';'")
        i += 1


def format_ugraph(name: str, g: UGraph) -> str:
    universe, nodes, adj = g._packed_form()
    return format_packed(name, universe, nodes, adj)


def format_packed(name: str, universe: Universe, nodes: tuple, adj: tuple) -> str:
    """A graph in ``packed_graph``'s form as a ``graph`` block: nodes in id
    order, then edges in (a, b) order."""
    text = universe.text
    lines = [f"graph {name} {{"]
    lines += [f"  node {n} = {text(m)};" for n, m in nodes]
    tails = [f" {n};" for n, _ in nodes]
    for i, nbrs in enumerate(adj):
        head = f"  edge {nodes[i][0]}"
        later = nbrs >> i + 1  # each edge once, from its lower end
        while later:
            low = later & -later
            later ^= low
            lines.append(head + tails[i + low.bit_length()])
    lines.append("}")
    return "\n".join(lines)


def format_jointree(name: str, t: JoinTree) -> str:
    clusters = t.clusters
    universe = Universe._from_sorted(sorted(frozenset().union(*clusters.values())))
    masks = [(c, universe.mask(clusters[c])) for c in sorted(clusters)]
    return format_join_masks(name, universe, masks, t.links)


def format_join_masks(
    name: str, universe: Universe, clusters: Iterable[tuple[int, int]], links: Iterable
) -> str:
    """A join tree as a ``jointree`` block, from (cluster id, element mask)
    pairs in id order and links as pairs of ids."""
    text = universe.text
    lines = [f"jointree {name} {{"]
    lines += [f"  cluster {c} = {text(m)};" for c, m in clusters]
    lines += [f"  link {a} {b};" for a, b in sorted(tuple(sorted(l)) for l in links)]
    lines.append("}")
    return "\n".join(lines)
