from __future__ import annotations

import random
import re
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mugci import Statement, parse_model
from mugci.dsep import DiGraph, JoinTree
from mugci.errors import (
    DuplicateName,
    ModelError,
    ModelSyntaxError,
    UnknownElement,
)
from mugci.model import Universe
from mugci import modelfile
from mugci.modelfile import ModelFile, _splittable, _Tokens
from mugci.ugraph import UGraph, packed_graph

from object_layer import serialize_model

FIXTURES = Path(__file__).parent / "fixtures"


def test_minimal_statement_file():
    model = parse_model("universe x z y\nstmt S1: {x} | {z} | {y}\n")
    assert list(model.universe) == ["x", "y", "z"]
    assert model.statements == {
        "S1": Statement(frozenset("x"), frozenset("z"), frozenset("y"))
    }


def test_empty_sets_in_statements():
    model = parse_model("universe a b\nstmt S: {a} | {} | {b}\n")
    assert model.statements["S"].z == frozenset()


def test_multi_element_node_graph():
    model = parse_model(
        "universe a b c\n"
        "graph G {\n"
        "  node 0 = {a};\n"
        "  node 1 = {b,c};\n"
        "  edge 0 1;\n"
        "}\n"
    )
    g = model.graphs["G"]
    assert g.nodes[1] == frozenset("bc")
    assert g.edges == frozenset({frozenset((0, 1))})


def test_digraph_block():
    model = parse_model(
        "universe a b c\n"
        "digraph D { node a; det node b; node c; arc a b; arc b c; }\n"
    )
    d = model.digraphs["D"]
    assert d.deterministic == frozenset("b")
    assert d.arcs == frozenset({("a", "b"), ("b", "c")})


def test_digraph_declaring_part_of_the_universe_gets_its_own():
    text = (
        "universe a b c\n"
        "digraph D { node a; node b; node c; arc a b; }\n"
        "digraph E { node c; det node a; arc c a; }\n"
    )
    model = parse_model(text)
    d, e = model.digraphs["D"], model.digraphs["E"]
    assert d.universe is model.universe
    assert e.universe == Universe("ac")
    assert e.arcs == frozenset({("c", "a")})
    assert e.deterministic == frozenset("a")
    assert e.parents("a") == frozenset("c")
    with pytest.raises(UnknownElement):
        e.parents("b")
    with pytest.raises(UnknownElement):
        e.d_separated({"a"}, set(), {"b"})
    assert not e.d_separated({"a"}, set(), {"c"})
    assert e.moralize() == UGraph({0: {"a"}, 1: {"c"}}, [(0, 1)])
    assert outcome(parse_model, text) == reference_outcome(text)


def assert_checked_universe(got: Universe, names) -> None:
    """got is the universe ``Universe(names)`` builds, in every respect."""
    want = Universe(names)
    assert got.elements == want.elements and list(got) == list(want)
    assert got.bits == want.bits and got.full == want.full
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def test_parsed_universes_are_the_checked_universes():
    # The parser builds its universes from names the tokenizer has already
    # checked; each must be what the checking constructor builds.
    rng = random.Random(1299)
    pool = ["a", "B", "_x", "v10", "v2", "if", "Z_9", "ab", "a_b", "aB", "x1"]
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.mug"))]
    for _ in range(60):
        names = rng.sample(pool, rng.randint(1, len(pool)))
        nodes = rng.sample(names, rng.randint(1, len(names)))
        clauses = [f"node {e};" for e in nodes]
        clauses += [f"arc {a} {b};" for a, b in zip(nodes, nodes[1:])]
        texts.append(f"universe {' '.join(names)}\ndigraph D {{{' '.join(clauses)}}}\n")
    texts.append(dag_text(random.Random(11), 24))
    digraphs = subsets = 0
    for text in texts:
        model = parse_model(text)
        declared = re.search(r"^universe (.*)$", text, re.M).group(1).split()
        assert_checked_universe(model.universe, declared)
        for name, body in re.findall(r"digraph (\w+) \{(.*?)\}", text, re.S):
            nodes = re.findall(r"\bnode (\w+);", body)
            universe = model.digraphs[name].universe
            assert_checked_universe(universe, nodes)
            digraphs += 1
            subsets += len(universe) < len(model.universe)
    assert digraphs > 50 and subsets > 20, (digraphs, subsets)


def test_jointree_block_computes_sepsets():
    model = parse_model(
        "universe a b c\n"
        "jointree T { cluster 0 = {a,b}; cluster 1 = {b,c}; link 0 1; }\n"
    )
    t = model.jointrees["T"]
    assert t.sepset(0, 1) == frozenset("b")


def test_undeclared_element_is_pinpointed():
    text = "universe a b\nstmt S: {a} | {} | {q}\n"
    with pytest.raises(UnknownElement) as err:
        parse_model(text)
    assert "'q'" in str(err.value) and "line 2" in str(err.value)


def test_duplicate_names_rejected():
    text = "universe a b\nstmt S: {a} | {} | {b}\nstmt S: {b} | {} | {a}\n"
    with pytest.raises(DuplicateName):
        parse_model(text)
    cross_kind = (
        "universe a b\n"
        "graph N { node 0 = {a}; }\n"
        "stmt N: {a} | {} | {b}\n"
    )
    with pytest.raises(DuplicateName):
        parse_model(cross_kind)


def test_universe_must_come_first():
    with pytest.raises(ModelSyntaxError):
        parse_model("stmt S: {a} | {} | {b}\nuniverse a b\n")


def test_syntax_errors_carry_position():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("universe a b\ngraph G { node 0 = {a} }\n")  # missing ';'
    assert err.value.line == 2
    with pytest.raises(ModelSyntaxError):
        parse_model("universe a b\ngraph G { edge 0 1; }\n")  # unknown nodes
    with pytest.raises(ModelSyntaxError):
        parse_model("universe a$b\n")


def test_comments_and_blank_lines_ignored():
    model = parse_model(
        "# heading\nuniverse a b  # trailing\n\nstmt S: {a} | {} | {b}\n"
    )
    assert "S" in model.statements


def test_round_trip_fixture_files(pytestconfig):
    fixtures = pytestconfig.rootpath / "tests" / "fixtures"
    for path in sorted(fixtures.glob("*.mug")):
        model = parse_model(path.read_text())
        assert parse_model(serialize_model(model)) == model


def test_serialization_is_stable():
    text = (
        "universe a b c\n"
        "graph G { node 1 = {b,c}; node 0 = {a}; edge 0 1; }\n"
        "stmt S: {c,a} | {} | {b}\n"
    )
    model = parse_model(text)
    once = serialize_model(model)
    assert serialize_model(parse_model(once)) == once


# -- differential: the parser against a frozen copy of its predecessor ------
#
# Everything from ``_TOKEN_RE`` to ``_parse_jointree_block`` below is a
# verbatim copy of the token-at-a-time parser that ``modelfile`` used before
# it parsed plain token strings (only ``parse_model`` is renamed).  Both must
# build equal models, serialized alike, or raise the same error type with
# the same text, line and column.

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


def reference_parse_model(text: str) -> ModelFile:
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


def outcome(parse, text):
    try:
        model = parse(text)
    except ModelError as exc:
        position = getattr(exc, "line", None), getattr(exc, "column", None)
        return type(exc), str(exc), position
    return "ok", model, serialize_model(model)


def reference_outcome(text):
    return outcome(reference_parse_model, text)


def dag_text(rng, n):
    """A DAG model like those of ``perfbench/gen.py``, but with several
    clauses on some lines, comments inside the block and CRLF line ends."""
    names = [f"v{i}" for i in range(n)]
    lines = [f"universe {' '.join(names)}", "digraph D {  # the DAG"]
    clauses = [
        f"{'det node' if rng.random() < 0.2 else 'node'} {e};" for e in names
    ]
    for j in range(1, n):
        for i in rng.sample(range(j), min(j, rng.randint(0, 3))):
            clauses.append(f"arc {names[i]} {names[j]};")
    while clauses:
        take = rng.choice((1, 1, 2, 3))
        lines.append("  " + " ".join(clauses[:take]))
        clauses = clauses[take:]
        if rng.random() < 0.1:
            lines.append("  # a comment inside the block")
    lines.append("}")
    lines.append("stmt S: {v0} | {v1,v2} | {v3}")
    return "\r\n".join(lines) + "\r\n"


def mutation_corpus():
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.mug"))]
    texts.append("universe a b c\nstmt S: {a} | {} | {b,c}\n")
    texts.append(dag_text(random.Random(7), 18))
    return texts


# Characters a mutation inserts: name and digit characters, punctuation,
# comment and line breaks, and characters no token may start with, among
# them a non-ASCII letter and a non-ASCII digit (which ``\d`` accepts).
MUTATION_ALPHABET = list("ab_Z09{}();:|=,# \n\t-$.") + ["é", "٣", "\r\n", "3ab"]


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.4:
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
        elif roll < 0.7:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i + 1:]
    return text


def test_parse_errors_match_reference_on_mutated_models():
    rng = random.Random(2024)
    texts = mutation_corpus()
    kinds = set()
    for _ in range(3000):
        text = mutate(rng, rng.choice(texts))
        got = outcome(parse_model, text)
        assert got == reference_outcome(text), text
        kinds.add(got[0])
    # the mutations reach success as well as several kinds of error
    assert {"ok", ModelSyntaxError, UnknownElement} <= kinds


# -- the two tokenizers ----------------------------------------------------------


def split_branch(text):
    """Whether the parser reads text's tokens by ``str.split``."""
    return _splittable(_Tokens(text).body)


def findall_tokens(body):
    """The tokens of a checked text and how many lie on its first line that
    holds one, as ``_TOKEN_RE.findall`` reads them."""
    token_re, break_re = modelfile._TOKEN_RE, modelfile._BREAK_RE
    first = token_re.search(body)
    brk = break_re.search(body, first.end()) if first else None
    cut = brk.start() if brk else len(body)
    return token_re.findall(body), len(token_re.findall(body, 0, cut))


def test_split_tokens_match_findall():
    # The corpus and the texts of the mutation test, and larger DAGs; a text
    # the character check refuses never reaches a tokenizer.
    rng = random.Random(2024)
    corpus = mutation_corpus()
    mutated = [mutate(rng, rng.choice(corpus)) for _ in range(3000)]
    dags = [dag_text(random.Random(seed), n) for seed, n in ((11, 24), (3, 64))]
    assert all(split_branch(text) for text in dags)
    branches = {True: 0, False: 0}
    for text in corpus + dags + mutated:
        try:
            p = _Tokens(text)
        except ModelSyntaxError:
            continue
        assert (p.toks[:p.n], p.first_line_end) == findall_tokens(p.body), text
        branches[_splittable(p.body)] += 1
    assert branches[True] > 1000 and branches[False] > 100, branches


@pytest.mark.parametrize(
    "text",
    [
        "universe a b\nstmt S: {a} | {} | {b} 3ab\n",  # a digit run, then a name
        "universe x1y b\nstmt S: {x1y} | {} | {b}\n",  # a digit inside a name
        "universe a b\ngraph G { node ٣ = {a}; }\n",  # a digit outside ASCII
    ],
)
def test_findall_reads_what_split_would_misread(text):
    assert not split_branch(text)
    p = _Tokens(text)
    assert (p.toks[:p.n], p.first_line_end) == findall_tokens(p.body)


def test_benchmark_model_shapes_take_the_split_branch():
    # The shapes of the benchmark's generated models: a DAG over two-letter
    # names, a premise model and a graph model with numbered nodes.
    universe = "universe ab qz hu xw\n"
    dag = universe + (
        "digraph D {\n  det node ab;\n  node qz;\n  node hu;\n  node xw;\n"
        "  arc ab qz;\n  arc ab hu;\n  arc qz xw;\n}\n"
    )
    premises = universe + (
        "stmt P0: {ab} | {} | {hu,qz}\nstmt P1: {ab,xw} | {qz} | {hu}\n"
    )
    graph = universe + (
        "graph G0 {\n  node 0 = {ab,hu};\n  node 1 = {qz};\n  node 12 = {xw};\n"
        "  edge 0 1;\n  edge 1 12;\n}\n"
    )
    for text in (dag, premises, graph):
        assert split_branch(text), text
        parse_model(text)


# -- the character check -----------------------------------------------------


def test_allowed_bytes_are_the_ascii_characters_the_regex_accepts():
    allowed = modelfile._ALLOWED
    assert len(set(allowed)) == len(allowed)
    for c in range(128):
        assert (bytes([c]) in allowed) == (modelfile._BAD_RE.match(chr(c)) is None), hex(c)


def test_every_bad_ascii_character_is_placed(monkeypatch):
    searched = []

    class CountingRegex:
        def search(self, text):
            searched.append(text)
            return BAD_RE.search(text)

    BAD_RE = modelfile._BAD_RE
    monkeypatch.setattr(modelfile, "_BAD_RE", CountingRegex())
    # A clean ASCII text is passed without the regex.
    parse_model(dag_text(random.Random(5), 24))
    assert searched == []
    bad = [chr(c) for c in range(128) if bytes([c]) not in modelfile._ALLOWED]
    assert "#" in bad and "\x00" in bad and "\x7f" in bad and "-" in bad
    for ch in bad:
        if ch == "#":  # a comment, removed before the check
            continue
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(f"universe a b\r\nstmt S: {{a}} |{ch} {{}} | {{b}}\n")
        assert str(err.value) == f"unexpected character {ch!r} (line 2, column 14)"
    # Outside ASCII the regex decides: a Unicode space and digit are clean.
    searched.clear()
    parse_model("universe a b\u2028graph G { node \u0663 = {a}; }\n")
    assert len(searched) == 1


@pytest.mark.parametrize(
    "text",
    [
        "universe a é\n",
        "universe a b\ngraph G { node ٣ = {a}; }\n",
        "universe a b\ngraph G { node 0 = {a}; edge 0 -1; }\n",
        "universe a b\nstmt S: {a} | {} | {3b}\n",
        "universe 3a\n",
        "universe a # b\nstmt S: {a} | {} | {b}\n",
        "universe a b\nstmt S: {a} | {} | {b}",
        "universe a b\nstmt",
        "",
    ],
)
def test_parse_errors_match_reference_on_edge_cases(text):
    assert outcome(parse_model, text) == reference_outcome(text)


# Every line break of ``str.splitlines`` next to comments: a comment between
# "\r" and "\n" must not join them into one break, and a break a comment
# does not end must still end the universe line.
@pytest.mark.parametrize(
    "text",
    [
        "universe a b\r# c\nstmt S: {a} | {} | {q}\n",
        "\r# lead\nuniverse a b\ngraph G { node 0 = {a}; node x = {b}; }\n",
        "universe a b # c\r\nstmt S: {a} | {} | {b} $\n",
        *(f"universe a b #{c}x{c}stmt S: {{a}} | {{}} | {{c}}\n"
          for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029\r"),
        "universe a\x1fb\nstmt S: {a} | {} | {b} é\n",
    ],
)
def test_line_breaks_around_comments_match_reference(text):
    got = outcome(parse_model, text)
    assert got[0] != "ok"
    assert got == reference_outcome(text)


# One text per error the clauses can raise, each placed after other clauses
# on its line, so that a wrong token index shows in the column.
CLAUSE_ERRORS = [
    "graph G { node 0 = {a}; node 1 = {b}; edge 1 1; }",
    "graph G { node 0 = {a}; node 0 = {b}; }",
    "graph G { node 0 = {a}; node 1 = {}; }",
    "graph G { node 0 = {a}; edge 0 2; }",
    "graph G { node 0 = {a}; edge 0 1 }",
    "graph G { node 0 = {a} arc 0 1; }",
    "jointree J { cluster 0 = {a}; cluster 1 = {b}; link 1 1; }",
    "jointree J { cluster 0 = {a}; cluster 0 = {b}; }",
    "jointree J { cluster 0 = {a}; cluster 1 = {}; }",
    "jointree J { cluster 0 = {a}; link 2 0; }",
    "jointree J { cluster 0 = {a}; link a 0; }",
    "digraph D { node a; node b; node a; }",
    "digraph D { node a; arc a b; }",
    "digraph D { node a; arc a q; }",
    "digraph D { node a; arc a 1; }",
    "digraph D { node a; det b; }",
    "digraph D { node a; det node q; }",
    "digraph D { node a; node b; arc a b; arc b a; }",
    "digraph D { node a; arc a a; }",
    "digraph D { node a; edge a a; }",
    "digraph D { node a; node b",
    "stmt S: {a} | {b} | {a,}",
    "stmt S: {a} | {b} {a}",
    "stmt S: {a} | {b} | {a}; stmt S: {b} | {} | {a}",
    "stmt S: {a} | {b} | {a} universe a",
    "stmt S: {a} | {b} | {a} S",
    "stmt 1: {a} | {} | {b}",
    "stmt S: {a} | {} | {b} graph",
]


@pytest.mark.parametrize("clause", CLAUSE_ERRORS)
def test_clause_errors_match_reference(clause):
    text = "universe a b c\n# clauses\n  " + clause + "\n"
    got = outcome(parse_model, text)
    assert got[0] != "ok"
    assert got == reference_outcome(text)


# -- fuzz: hostile text raises only model errors --------------------------------

# Keywords, names, numbers and punctuation, and characters and line breaks
# that no token may hold, among them non-ASCII letters and digits.
FUZZ_PIECES = [
    "universe", "graph", "digraph", "jointree", "stmt", "node", "det", "arc",
    "edge", "cluster", "link", "a", "b", "c", "_x", "0", "1", "12", "٣",
    "{", "}", "(", ")", ";", ":", "|", "=", ",", " ", "\t", "\n", "\r\n",
    "\r", "\x0c", "\u2028", "#", "é", "\x00", "-", "$", "\\", "'", "😀",
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["", "universe a b c\n", "universe a b c\ndigraph D {"]),
    st.lists(st.one_of(st.sampled_from(FUZZ_PIECES), st.text(max_size=3)), max_size=40),
)
def test_fuzzed_text_parses_or_raises_model_error(prefix, pieces):
    text = prefix + "".join(pieces)
    got = outcome(parse_model, text)  # any other exception fails the test
    if got[0] == "ok":
        assert isinstance(got[1], ModelFile)
    assert got == reference_outcome(text)


# -- the printers ------------------------------------------------------------


def random_printable_graph(rng):
    """Names and a graph under sparse non-negative ids, with multi-element
    nodes, elements on several nodes and isolated nodes."""
    names = [f"e{i}" for i in range(rng.randint(1, 6))]
    ids = rng.sample(range(0, 200), rng.randint(0, 9))
    nodes = {n: rng.sample(names, rng.randint(1, min(3, len(names)))) for n in ids}
    share = rng.choice((0.0, 0.15, 0.4, 0.8))
    edges = [(a, b) for a, b in combinations(ids, 2) if rng.random() < share]
    return names, UGraph(nodes, edges)


def printed_items(text, item):
    """The numbers after each ``item`` keyword of a printed block, in order."""
    found = re.findall(rf"^  {item} (\d+) ?(\d+)?", text, re.M)
    return [tuple(int(x) for x in pair if x) for pair in found]


def test_packed_printer_round_trips_random_graphs():
    rng = random.Random(71)
    seen = {"multi": 0, "repeated": 0, "isolated": 0, "empty": 0}
    for _ in range(400):
        names, g = random_printable_graph(rng)
        text = modelfile.format_ugraph("G", g)
        universe = Universe(names)
        assert modelfile.format_packed("G", universe, *packed_graph(universe, g)) == text
        assert text.startswith("graph G {\n") and text.endswith("\n}")
        assert printed_items(text, "node") == [(n,) for n in sorted(g.nodes)]
        assert printed_items(text, "edge") == sorted(tuple(sorted(e)) for e in g.edges)
        assert text.count("\n") == len(g.nodes) + len(g.edges) + 1
        back = parse_model(f"universe {' '.join(names)}\n{text}\n").graphs["G"]
        assert back == g
        seen["multi"] += any(len(es) > 1 for es in g.nodes.values())
        seen["repeated"] += sum(map(len, g.nodes.values())) > len(g.elements)
        seen["isolated"] += any(not g.neighbors(n) for n in g.nodes)
        seen["empty"] += not g.nodes
    assert min(seen.values()) > 10, seen


def test_join_tree_printer_round_trips_random_trees():
    rng = random.Random(73)
    for _ in range(300):
        names = [f"e{i}" for i in range(rng.randint(1, 6))]
        ids = rng.sample(range(0, 200), rng.randint(0, 7))
        clusters = {c: rng.sample(names, rng.randint(1, len(names))) for c in ids}
        pairs = list(combinations(ids, 2))
        links = rng.sample(pairs, min(len(pairs), rng.randint(0, 4)))
        links = [link[::-1] if rng.random() < 0.5 else link for link in links]
        t = JoinTree(clusters, links)
        text = modelfile.format_jointree("J", t)
        universe = Universe(names)
        masks = [(c, universe.mask(t.clusters[c])) for c in sorted(t.clusters)]
        assert modelfile.format_join_masks("J", universe, masks, t.links) == text
        assert printed_items(text, "cluster") == [(c,) for c in sorted(ids)]
        assert printed_items(text, "link") == sorted(tuple(sorted(l)) for l in links)
        assert parse_model(f"universe {' '.join(names)}\n{text}\n").jointrees["J"] == t
