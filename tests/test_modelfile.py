import random
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from mugci import Statement, modelfile, parse_model, serialize_model
from mugci.errors import (
    DuplicateName,
    ModelError,
    ModelSyntaxError,
    UnknownElement,
)

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


# -- differential: one-pass tokenizer against the per-token regex check ------
#
# The reference below re-checks every token text with ``re.fullmatch`` and
# every name with a second pattern; the one-pass tokenizer classifies tokens
# by the group that matched.  Both must raise the same errors with the same
# text, line and column, and parse the same models.


@dataclass(frozen=True)
class _RefToken:
    text: str
    line: int
    column: int


def reference_tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in modelfile._TOKEN_RE.finditer(body):
            tok = _RefToken(match.group(), lineno, match.start() + 1)
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}();:|=,]", tok.text):
                raise ModelSyntaxError(
                    f"unexpected character {tok.text!r}", tok.line, tok.column
                )
            tokens.append(tok)
    return tokens


def reference_name(self, what):
    tok = self.next(what)
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok.text):
        raise ModelSyntaxError(
            f"expected {what}, found {tok.text!r}", tok.line, tok.column
        )
    return tok


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except ModelError as exc:
        return type(exc), str(exc)


def reference_outcome(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "_tokenize", reference_tokenize)
        mp.setattr(modelfile._Parser, "name", reference_name)
        return outcome(parse_model, text)


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


def test_tokenizer_matches_reference_tokens():
    for path in sorted(FIXTURES.glob("*.mug")):
        text = path.read_text()
        got = [(t.text, t.line, t.column) for t in modelfile._tokenize(text)]
        want = [(t.text, t.line, t.column) for t in reference_tokenize(text)]
        assert got == want


def test_parse_errors_match_reference_on_mutated_models():
    rng = random.Random(2024)
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.mug"))]
    texts.append("universe a b c\nstmt S: {a} | {} | {b,c}\n")
    kinds = set()
    for _ in range(3000):
        text = mutate(rng, rng.choice(texts))
        got = outcome(parse_model, text)
        assert got == reference_outcome(text), text
        kinds.add(got[0])
    # the mutations reach success as well as several kinds of error
    assert {"ok", ModelSyntaxError, UnknownElement} <= kinds


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
