import contextlib
import io
import random
import signal
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mugci import ENUMERATION_GUARD, AxiomStep, Closure, Mug, cli
from mugci.cli import _build_parser, main
from mugci.dsep import JoinTree, build_join_tree
from mugci.errors import InvalidOrder, ModelError
from mugci.model import format_set
from mugci.modelfile import format_jointree, format_ugraph, parse_model
from mugci.ugraph import UGraph

FIXTURES = "tests/fixtures"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_closure_lists_statements_in_order():
    code, text = run("closure", f"{FIXTURES}/mixing.mug")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "universe: w x y z"
    assert lines[1] == "statements: 9"
    assert lines[2:] == [
        "{w} | {x,z} | {y}",
        "{w} | {y,z} | {x}",
        "{w} | {z} | {x}",
        "{w} | {z} | {x,y}",
        "{w} | {z} | {y}",
        "{w,x} | {z} | {y}",
        "{w,y} | {z} | {x}",
        "{x} | {w,z} | {y}",
        "{x} | {z} | {y}",
    ]


def test_closure_emit_chains_verifies():
    code, text = run("closure", f"{FIXTURES}/mixing.mug", "--emit-chains")
    assert code == 0
    assert "[1] given:" in text


def test_closure_json_mode():
    import json

    code, text = run("closure", f"{FIXTURES}/mixing.mug", "--json")
    assert code == 0
    payload = json.loads(text)
    assert payload["count"] == 9
    assert payload["universe"] == ["w", "x", "y", "z"]


def test_closure_json_emit_chains_carries_verified_chains():
    import json

    code, text = run("closure", f"{FIXTURES}/mixing.mug", "--json", "--emit-chains")
    assert code == 0
    records = json.loads(text)["statements"]
    assert len(records) == 9
    for record in records:
        chain = record["chain"]
        assert chain[-1]["conclusion"] == record["statement"]
        for i, step in enumerate(chain, 1):
            assert all(1 <= p < i for p in step["premises"])
            assert (step["rule"] == "given") == (step["premises"] == [])
    wu = next(r for r in records if r["statement"] == "{w} | {x,z} | {y}")
    assert wu["chain"] == [
        {"rule": "given", "premises": [], "conclusion": "{w} | {z} | {x,y}"},
        {"rule": "weak_union", "premises": [1], "conclusion": "{w} | {x,z} | {y}"},
    ]


def test_axiom_path_builds_no_mug(monkeypatch):
    # The closure takes the model's graphs as they are and packs their
    # separations itself: no Mug is built and no separation decoded.
    chains = f"{FIXTURES}/chains.mug"
    calls = [
        ["closure", chains, *flags]
        for flags in ([], ["--emit-chains"], ["--json"], ["--emit-chains", "--json"])
    ]
    calls.append(["query", chains, "--stmt", "{x}|{z}|{y}", "--mode", "axioms"])
    expected = [run(*argv) for argv in calls]
    assert all(code == 0 and text for code, text in expected)

    def no_mug(*args, **kwargs):
        raise AssertionError("the axiom path used a Mug")

    monkeypatch.setattr(Mug, "__init__", no_mug)
    monkeypatch.setattr(Mug, "enumerate_satisfied", no_mug)
    assert [run(*argv) for argv in calls] == expected


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_closure_refuses_a_chain_that_does_not_verify(monkeypatch, extra):
    real_chain = Closure.chain

    def corrupt_chain(self, s):
        # Replace the last step by a contraction without premises.
        steps = real_chain(self, s)
        return steps[:-1] + (AxiomStep("contraction", (), s),)

    monkeypatch.setattr(Closure, "chain", corrupt_chain)
    out = io.StringIO()
    with pytest.raises(AssertionError, match="failed verification"):
        main(["closure", f"{FIXTURES}/mixing.mug", "--emit-chains", *extra], out=out)
    # Nothing of the refused chain is printed.
    assert "[1]" not in out.getvalue() and '"chain"' not in out.getvalue()


def test_closure_includes_graph_satisfied_statements():
    code, text = run("closure", f"{FIXTURES}/chains.mug")
    assert code == 0
    assert "{x} | {z} | {y}" in text


def test_query_axioms_proven_and_not():
    code, text = run(
        "query", f"{FIXTURES}/mixing.mug", "--stmt", "{x}|{z}|{y,w}"
    )
    assert code == 0
    assert text.startswith("statement: {w,y} | {z} | {x}\nresult: proven\nchain:\n")
    assert "chain-verified: true" in text

    code, text = run(
        "query", f"{FIXTURES}/intersection.mug", "--stmt", "{x}|{z}|{y,w}"
    )
    assert code == 1
    assert text == "statement: {w,y} | {z} | {x}\nresult: not-derivable\n"


def test_query_trivial_statement():
    code, text = run("query", f"{FIXTURES}/mixing.mug", "--stmt", "{}|{z}|{y}")
    assert code == 0
    assert "trivially-true" in text


def test_query_replay_emits_verified_script():
    code, text = run(
        "query", f"{FIXTURES}/mixing.mug", "--stmt", "{x}|{z}|{y,w}",
        "--mode", "replay",
    )
    assert code == 0
    assert text.startswith("statement: {w,y} | {z} | {x}\nresult: proven\ninitial-graphs:")
    assert "script-verified: true" in text
    assert "combine" in text


def test_query_replay_singletonizes_only_while_seeding(tmp_path, monkeypatch):
    # initial_mug rebuilds each declared graph (odd ids, a two-element node)
    # and each premise witness; replay then takes the model as it is
    import mugci.derivation as derivation
    import mugci.mug as mug

    model = tmp_path / "declared.mug"
    model.write_text(
        "universe v w x y z\n"
        "stmt P1: {x,y} | {z} | {w}\n"
        "stmt P2: {x} | {z} | {y}\n"
        "graph G { node 3 = {v}; node 5 = {w,z}; edge 3 5; }\n"
    )
    calls = []
    real = mug.packed_singletons

    def counting(nodes, adj):
        calls.append((nodes, adj))
        return real(nodes, adj)

    monkeypatch.setattr(mug, "packed_singletons", counting)
    monkeypatch.setattr(derivation, "packed_singletons", counting)
    parsed = parse_model(model.read_text())
    derivation.initial_mug(
        parsed.universe, parsed.statements.values(), parsed.graphs.values()
    )
    seeded = calls[:]
    assert len(seeded) == 3
    calls.clear()
    code, text = run("query", str(model), "--stmt", "{x}|{z}|{y,w}", "--mode", "replay")
    assert code == 0 and "combine" in text and "script-verified: true" in text
    assert calls == seeded


def test_query_replay_on_chaining_premises():
    code, text = run(
        "query", f"{FIXTURES}/chaining.mug", "--stmt", "{x}|{z}|{w}",
        "--mode", "replay",
    )
    assert code == 0
    assert "script-verified: true" in text


def test_query_search_finds_and_exhausts():
    code, text = run(
        "query", f"{FIXTURES}/mixing.mug", "--stmt", "{x}|{z}|{y,w}",
        "--mode", "search", "--max-moves", "3", "--max-graphs", "8",
    )
    assert code == 0
    assert "script-verified: true" in text

    code, text = run(
        "query", f"{FIXTURES}/intersection.mug", "--stmt", "{x}|{z}|{y,w}",
        "--mode", "search", "--max-moves", "3", "--max-graphs", "6",
    )
    assert code == 1
    assert text.startswith("statement: {w,y} | {z} | {x}\nresult: exhausted\n")
    assert "states-explored:" in text


def test_query_search_builds_one_element_graph_per_initial_graph(monkeypatch):
    from test_ugraph import count_element_graph_builds

    path = f"{FIXTURES}/intersection.mug"
    with open(path, encoding="utf-8") as f:
        initial = cli._seed_mug(parse_model(f.read())).packed
    built = count_element_graph_builds(monkeypatch)
    code, text = run(
        "query", path, "--stmt", "{x}|{z}|{y,w}",
        "--mode", "search", "--max-moves", "3", "--max-graphs", "8",
    )
    assert code == 1 and "result: exhausted" in text
    # each premise's witness graph is built as the model keys it; search
    # reads the keys from the model's records
    assert len(initial) == 2
    assert sorted(g for g in built if g in initial) == sorted(initial)


def test_query_verifies_each_emitted_script_once(monkeypatch):
    calls = []
    verify = cli.verify_script

    def counted(script):
        calls.append(script)
        return verify(script)

    monkeypatch.setattr(cli, "verify_script", counted)
    for mode in ("replay", "search"):
        calls.clear()
        code, text = run(
            "query", f"{FIXTURES}/mixing.mug", "--stmt", "{x}|{z}|{y,w}",
            "--mode", mode, "--max-moves", "3", "--max-graphs", "8",
        )
        assert code == 0 and "result: proven" in text
        assert "script-verified: true" in text
        assert len(calls) == 1, mode


def test_dsep_exit_codes():
    code, text = run(
        "dsep", f"{FIXTURES}/directed.mug", "--graph", "Observed",
        "--x", "x", "--z", "z", "--y", "y,w",
    )
    assert code == 0 and "result: separated" in text
    code, text = run(
        "dsep", f"{FIXTURES}/directed.mug", "--graph", "Prop",
        "--x", "x", "--z", "z", "--y", "y",
    )
    assert code == 1 and "result: not-separated" in text
    # A query that fails validation prints nothing, not a query line.
    for x, z, y in (("x", "z", "q"), ("x,w", "z", "w,y")):
        code, text = run(
            "dsep", f"{FIXTURES}/directed.mug", "--graph", "Observed",
            "--x", x, "--z", z, "--y", y,
        )
        assert code == 2 and text == ""


def test_moralize_output():
    code, text = run("moralize", f"{FIXTURES}/directed.mug", "--graph", "Chest")
    assert code == 0
    assert text.startswith("graph moral_Chest {")
    assert text.count("edge") == 6  # four skeleton edges plus two marriages


def test_check_jointree():
    code, text = run(
        "check-jointree", f"{FIXTURES}/directed.mug", "--tree", "Good"
    )
    assert code == 0 and text.strip() == "valid"
    code, text = run(
        "check-jointree", f"{FIXTURES}/directed.mug", "--tree", "Broken"
    )
    assert code == 1 and "violation:" in text


def test_build_jointree_from_digraph():
    code, text = run(
        "build-jointree", f"{FIXTURES}/directed.mug", "--graph", "Chest",
        "--order", "t,d,e,l,b",
    )
    assert code == 0
    assert "jointree jointree_Chest {" in text
    assert "sepset" in text


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mug"
    bad.write_text("universe a b\nstmt S: {a} | {} | {q}\n")
    code, text = run("query", str(bad), "--stmt", "{a}|{}|{b}")
    assert code == 2
    code, text = run("query", f"{FIXTURES}/mixing.mug", "--stmt", "no-bars")
    assert code == 2
    code, text = run("dsep", f"{FIXTURES}/mixing.mug", "--graph", "Nope",
                     "--x", "x", "--z", "z", "--y", "y")
    assert code == 2
    code, text = run("closure", "does/not/exist.mug")
    assert code == 2


@pytest.mark.parametrize(
    "command, extra", [("closure", ()), ("query", ("--stmt", "{e0}|{}|{e1}"))]
)
def test_universe_over_guard_fails_fast(tmp_path, capsys, command, extra):
    n = ENUMERATION_GUARD + 1
    names = [f"e{i}" for i in range(n)]
    nodes = "; ".join(f"node {i} = {{{e}}}" for i, e in enumerate(names))
    edges = "; ".join(f"edge {i} {i + 1}" for i in range(n - 1))
    model = tmp_path / "big.mug"
    model.write_text(f"universe {' '.join(names)}\ngraph P {{ {nodes}; {edges}; }}\n")
    start = time.perf_counter()
    code, text = run(command, str(model), *extra)
    elapsed = time.perf_counter() - start
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: universe has {n} elements, guard is {ENUMERATION_GUARD}\n"
    )
    assert elapsed < 1.0


@pytest.mark.parametrize("mode", ["axioms", "replay", "search"])
def test_query_validates_declared_statements_before_printing(tmp_path, capsys, mode):
    model = tmp_path / "overlap.mug"
    model.write_text("universe a b\nstmt S: {a} | {} | {a}\n")
    code, text = run("query", str(model), "--stmt", "{a}|{}|{b}", "--mode", mode)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("closure",),
        ("query", "--stmt", "{a}|{}|{b}"),
        ("dsep", "--graph", "D", "--x", "a", "--z", "", "--y", "b"),
    ],
)
def test_model_that_is_not_utf8_exits_two(tmp_path, capsys, argv):
    model = tmp_path / "latin1.mug"
    model.write_bytes(b"universe a b\n# caf\xe9\n")
    code, text = run(argv[0], str(model), *argv[1:])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: {model} is not UTF-8: bad byte at offset 18\n"
    )


def test_search_is_not_bound_by_the_closure_guard(tmp_path, capsys):
    n = ENUMERATION_GUARD + 1
    model = tmp_path / "wide.mug"
    model.write_text(
        f"universe {' '.join(f'e{i}' for i in range(n))}\n"
        "stmt P: {e0} | {e1} | {e2}\n"
    )
    argv = ("query", str(model), "--stmt", "{e0}|{e1}|{e2}")
    code, text = run(*argv, "--mode", "search", "--max-moves", "3", "--max-graphs", "8")
    assert code == 0 and "result: proven" in text
    assert capsys.readouterr().err == ""
    code, _ = run(*argv, "--mode", "axioms")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: universe has {n} elements, guard is {ENUMERATION_GUARD}\n"
    )


@pytest.mark.parametrize("option", ["--max-moves", "--max-graphs"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_search_bounds_below_one_are_usage_errors(capsys, option, value):
    code, text = run(
        "query", f"{FIXTURES}/intersection.mug", "--stmt", "{x}|{z}|{y,w}",
        "--mode", "search", option, value,
    )
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: mugci query")
    assert f"argument {option}: expected a positive integer, got '{value}'" in err


def test_unknown_subcommand_exits_two():
    code, _ = run("frobnicate")
    assert code == 2


def test_build_jointree_rejects_multi_element_graphs(tmp_path):
    model = tmp_path / "multi.mug"
    model.write_text(
        "universe a b c\n"
        "graph G { node 0 = {a,b}; node 1 = {c}; edge 0 1; }\n"
    )
    code, _ = run("build-jointree", str(model), "--graph", "G",
                  "--order", "a,b,c")
    assert code == 2


def test_build_jointree_rejects_repeated_elements(tmp_path, capsys):
    model = tmp_path / "repeated.mug"
    model.write_text("universe a\ngraph H { node 0 = {a}; node 1 = {a}; edge 0 1; }\n")
    code, _ = run("build-jointree", str(model), "--graph", "H", "--order", "a")
    assert code == 2
    assert "repeats an element" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("closure", f"{FIXTURES}/mixing.mug", "--emit-chains"),
        ("query", f"{FIXTURES}/mixing.mug", "--stmt", "{x}|{z}|{y,w}",
         "--mode", "replay"),
        ("query", f"{FIXTURES}/intersection.mug", "--stmt", "{x}|{z}|{y,w}",
         "--mode", "search"),
        ("dsep", f"{FIXTURES}/directed.mug", "--graph", "Prop",
         "--x", "w", "--z", "z", "--y", "x,y,v"),
        ("moralize", f"{FIXTURES}/directed.mug", "--graph", "Prop"),
        ("build-jointree", f"{FIXTURES}/directed.mug", "--graph", "Chest",
         "--order", "b,d,e,l,t"),
        ("check-jointree", f"{FIXTURES}/directed.mug", "--tree", "Good"),
    ],
)
def test_repeated_runs_are_identical(argv):
    first = run(*argv)
    second = run(*argv)
    assert first == second


def test_parser_reuse_is_invisible(capsys):
    commands = [
        ("dsep", f"{FIXTURES}/directed.mug", "--graph", "D"),  # no --x: exit 2
        ("dsep", f"{FIXTURES}/directed.mug", "--graph", "Prop",
         "--x", "x", "--z", "z", "--y", "y"),
        ("moralize", f"{FIXTURES}/directed.mug", "--graph", "Prop"),
    ]
    first_calls = []
    for argv in commands:
        _build_parser.cache_clear()
        first_calls.append((run(*argv), capsys.readouterr()))
    _build_parser.cache_clear()
    reused = [(run(*argv), capsys.readouterr()) for argv in commands]
    assert reused == first_calls
    assert [code for (code, _), _ in reused] == [2, 1, 0]
    assert _build_parser() is _build_parser()


# -- dispatch: one argparse pass against the full parse -----------------------


def full_parse_main(argv):
    """``main`` as it was when every argv went through the top-level parser."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, sys.stdout)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


DIRECTED = f"{FIXTURES}/directed.mug"
QUERY = ("query", f"{FIXTURES}/intersection.mug", "--stmt", "{x}|{z}|{y,w}")
VALID_ARGVS = [
    ("closure", f"{FIXTURES}/chains.mug"),
    ("closure", f"{FIXTURES}/chains.mug", "--json", "--emit-chains"),
    QUERY,
    (*QUERY, "--mode", "replay"),
    (*QUERY, "--mode", "search", "--max-moves", "2", "--max-graphs", "4"),
    ("dsep", DIRECTED, "--graph", "Prop", "--x", "w", "--z", "z", "--y", "x,y,v"),
    ("moralize", DIRECTED, "--graph", "Prop"),
    ("check-jointree", DIRECTED, "--tree", "Broken"),
    ("build-jointree", DIRECTED, "--graph", "Chest", "--order", "b,d,e,l,t"),
    ("dsep", DIRECTED, "--graph", "Nope", "--x", "w", "--z", "", "--y", "x"),
    ("moralize", f"{FIXTURES}/missing.mug", "--graph", "Prop"),
    ("query", f"{FIXTURES}/intersection.mug", "--stmt={x}|{z}|{y,w}"),
    (*QUERY, "--max-m", "2", "--mode", "search"),
    ("moralize", "--graph", "Prop", "--", DIRECTED),
]
# Help and usage errors that the command's own parser prints.
COMMAND_USAGE_ARGVS = [
    ("moralize", "-h"),
    ("dsep", DIRECTED, "--help"),
    ("closure",),
    ("dsep", DIRECTED, "--graph", "Prop", "--x", "w"),
    (*QUERY, "--mode", "bogus"),
    (*QUERY, "--mode", "search", "--max-moves", "0"),
    (*QUERY, "--max", "2"),
]
# No command first, or words the command's parser leaves over: the full parse.
FULL_PARSE_ARGVS = [
    (),
    ("frobnicate",),
    ("-h",),
    ("--help",),
    ("-h", "moralize"),
    ("--help", "dsep", DIRECTED),
    ("--", "moralize", DIRECTED, "--graph", "Prop"),
    ("moralize", DIRECTED, "--graph", "Prop", "--bogus"),
    ("moralize", DIRECTED, "--graph", "Prop", "-x", "1"),
    ("moralize", DIRECTED, "extra", "--graph", "Prop"),
    ("moralize", DIRECTED, "--graph", "Prop", "--", "extra"),
]
ARGVS = VALID_ARGVS + COMMAND_USAGE_ARGVS + FULL_PARSE_ARGVS


@pytest.mark.parametrize("argv", ARGVS)
def test_dispatch_matches_the_full_parse(capsys, argv):
    got = main(list(argv)), capsys.readouterr()
    assert got == (full_parse_main(list(argv)), capsys.readouterr())


def test_only_argvs_the_command_parser_cannot_take_get_the_full_parse(monkeypatch):
    full_parses = []
    parse_args = _build_parser().parse_args
    monkeypatch.setattr(
        _build_parser(), "parse_args", lambda argv: full_parses.append(argv) or parse_args(argv)
    )
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in ARGVS:
            main(list(argv))
    assert full_parses == [list(argv) for argv in FULL_PARSE_ARGVS]


# -- fuzzing ------------------------------------------------------------------
#
# Whatever the model bytes and arguments, the CLI answers with exit code 0, 1
# or 2 and never with a traceback, and exit 2 prints nothing to stdout.  Most
# generated models parse, so that the subcommands themselves run: a name is
# now and then outside the universe or no name, one model in five gets a
# stray character and one in twenty a byte that is not UTF-8.  Hypothesis draws
# the seed of a ``random.Random`` that makes the choices: its own strategies
# favour the ends of their ranges, and these rates need even draws.


def _cli_call(rng):
    universe = rng.sample("abcde", rng.randint(1, 5))

    def name():
        return rng.choice(universe) if rng.random() < 0.995 else rng.choice(["q", "9"])

    def braced(least=0):
        # dict keys, not a set: the text must not depend on the hash seed
        return "{" + ",".join(dict.fromkeys(name() for _ in range(rng.randint(least, 3)))) + "}"

    def pair(pool):
        """Two of pool, now and then the same one twice."""
        return rng.sample(pool, 2) if len(pool) > 1 and rng.random() < 0.95 else [pool[0]] * 2

    def pairs(word, ids, count):
        """Pairs of declared ids, now and then an undeclared one."""
        pool = ids if rng.random() < 0.9 else range(5)
        return [f"{word} {' '.join(map(str, pair(pool)))};" for _ in range(count)]

    lines = ["universe " + " ".join(universe)]
    lines += [
        f"stmt S{i}: {braced()} | {braced()} | {braced()}"
        for i in range(rng.randint(0, 3))
    ]
    for g in rng.sample(["G", "H"], rng.randint(0, 2)):
        ids = rng.sample(range(4), rng.randint(1, 4))
        parts = [f"node {n} = {braced(1)};" for n in ids] + pairs("edge", ids, rng.randint(0, 3))
        lines.append(f"graph {g} {{ {' '.join(parts)} }}")
    if rng.random() < 0.8:
        parts = [f"{rng.choice(['', 'det '])}node {e};" for e in universe]
        parts += [f"arc {' '.join(pair(universe))};" for _ in range(rng.randint(0, len(universe) - 1))]
        lines.append(f"digraph D {{ {' '.join(parts)} }}")
    if rng.random() < 0.5:
        ids = rng.sample(range(4), rng.randint(1, 3))
        parts = [f"cluster {n} = {braced(1)};" for n in ids] + pairs("link", ids, len(ids) - 1)
        lines.append(f"jointree J {{ {' '.join(parts)} }}")
    text = "\n".join(lines)
    if rng.random() < 0.2:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice("{}();:|=,#é9\n") + text[at:]

    def names():
        return ",".join(name() for _ in range(rng.randint(0, 3)))

    graph = rng.choice(["D", "D", "G", "H"])
    bound = [rng.choice(["1", "2", "3"] * 6 + ["0", "x"]) for _ in range(2)]
    argv = rng.choice([
        ["closure", "{file}", *rng.choice([[], ["--emit-chains"], ["--json"]])],
        ["query", "{file}", "--stmt", f"{braced()}|{braced()}|{braced()}",
         "--mode", rng.choice(["axioms", "replay", "search"]),
         "--max-moves", bound[0], "--max-graphs", bound[1]],
        ["dsep", "{file}", "--graph", graph, "--x", names(), "--z", names(), "--y", names()],
        ["moralize", "{file}", "--graph", graph],
        ["check-jointree", "{file}", "--tree", rng.choice(["J", "K"])],
        ["build-jointree", "{file}", "--graph", graph, "--order",
         ",".join(rng.sample(universe, len(universe))) if rng.random() < 0.8 else names()],
        rng.sample(["closure", "query", "--stmt", "{file}", "-h", "x"], rng.randint(0, 3)),
    ])
    data = text.encode("utf-8")
    if rng.random() < 0.05:
        at = rng.randint(0, len(data))
        data = data[:at] + b"\xff" + data[at:]
    return data, argv


class CallTimedOut(Exception):
    """A CLI call outran its time bound.

    Not a ``ModelError`` or ``OSError`` (as ``TimeoutError`` is), so ``main``
    does not turn it into exit 2 and the test fails.
    """


def _time_out(signum, frame):
    raise CallTimedOut("a CLI call ran for more than 5 s")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cli_exits_0_1_or_2_without_a_traceback(tmp_path_factory, seed):
    data, argv = _cli_call(random.Random(seed))
    path = tmp_path_factory.mktemp("fuzz") / "model.mug"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(path) if a == "{file}" else a for a in argv], out=out)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (data, argv)
    assert "Traceback" not in err.getvalue(), (data, argv)
    assert code != 2 or out.getvalue() == "", (data, argv)


# -- moralize and build-jointree print what the library objects print ----------


def random_directed_case(rng, kind):
    """The text of a model with a digraph or graph named D, and the
    elements a join tree is built over."""
    n = {"one": 1, "large": rng.randint(48, 64)}.get(kind, rng.randint(2, 24))
    names = [f"v{i:02d}" for i in range(n)]
    rng.shuffle(names)  # so that the topological order is not the name order
    extra = [f"w{i}" for i in range(rng.randint(1, 3))] if kind == "own" else []
    head = f"universe {' '.join(names + extra)}\n"
    if kind == "graph":  # single-element nodes under sparse ids
        ids = rng.sample(range(300), n)
        pairs = [(a, b) for a, b in combinations(ids, 2) if rng.random() < 0.2]
        body = [f"node {i} = {{{e}}};" for i, e in zip(ids, names)]
        body += [f"edge {a} {b};" for a, b in pairs]
        return head + "graph D {\n  " + "\n  ".join(body) + "\n}\n", names
    # A disconnected DAG draws its arcs within two halves.
    cut = n // 2 if kind == "disconnected" else 0
    arcs = []
    for j in range(1, n):
        low = cut if j >= cut else 0
        for i in rng.sample(range(low, j), min(j - low, rng.randint(0, 3))):
            arcs.append((names[i], names[j]))
    det = {e for e in names if rng.random() < 0.2}
    body = [f"{'det node' if e in det else 'node'} {e};" for e in names]
    body += [f"arc {a} {b};" for a, b in arcs]
    return head + "digraph D {\n  " + "\n  ".join(body) + "\n}\n", names


def library_join_tree_text(base, order):
    chordal, tree = build_join_tree(base, order)
    links = sorted(tuple(sorted(link)) for link in tree.links)
    sepsets = "".join(f"sepset {a} {b} = {format_set(tree.sepset(a, b))}\n" for a, b in links)
    text = (format_ugraph("chordal_D", chordal) + "\n"
            + format_jointree("jointree_D", tree) + "\n" + sepsets)
    return text, chordal, tree


def test_moralize_and_build_jointree_print_the_library_objects(tmp_path, capsys):
    rng = random.Random(101)
    kinds = ["plain"] * 110 + ["disconnected"] * 40 + ["one"] * 10
    kinds += ["own"] * 30 + ["graph"] * 40 + ["large"] * 10
    bad_orders = 0
    for case, kind in enumerate(kinds):
        text, names = random_directed_case(rng, kind)
        path = tmp_path / f"case{case}.mug"
        path.write_text(text)
        model = parse_model(text)
        if kind == "graph":
            base = model.graphs["D"]
        else:
            base = model.digraphs["D"].moralize()
            assert run("moralize", str(path), "--graph", "D") == (
                0, format_ugraph("moral_D", base) + "\n"
            )
        order = rng.sample(names, len(names))
        if case % 10 == 9:  # a partial order, or one with an element twice
            order = order[1:] if case % 20 == 9 else order + order[:1]
            code, got = run("build-jointree", str(path), "--graph", "D",
                            "--order", ",".join(order))
            with pytest.raises(InvalidOrder) as err:
                build_join_tree(base, order)
            assert (code, got, capsys.readouterr().err) == (2, "", f"error: {err.value}\n")
            bad_orders += 1
            continue
        code, got = run("build-jointree", str(path), "--graph", "D",
                        "--order", ",".join(order))
        want, chordal, tree = library_join_tree_text(base, order)
        assert (code, got) == (0, want), text
        # The printed blocks parse back to the library's objects, and the
        # tree passes check-jointree.
        blocks = got[:got.index("\nsepset")] if "\nsepset" in got else got
        printed = tmp_path / f"printed{case}.mug"
        printed.write_text(text[:text.index("\n") + 1] + blocks)
        back = parse_model(printed.read_text())
        assert back.graphs["chordal_D"] == chordal
        assert back.jointrees["jointree_D"] == tree
        assert run("check-jointree", str(printed), "--tree", "jointree_D") == (0, "valid\n")
    assert bad_orders == len(kinds) // 10


def test_graph_printing_commands_build_no_ugraph_or_join_tree(monkeypatch, tmp_path):
    built = []
    for cls in (UGraph, JoinTree):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    dag = tmp_path / "chest.mug"
    dag.write_text(
        "universe b d e l t x\n"
        "digraph Chest { node t; node l; node b; det node e; node d;\n"
        "  arc t e; arc l e; arc e d; arc b d; }\n"
    )
    code, moral = run("moralize", str(dag), "--graph", "Chest")
    assert code == 0 and moral.count("edge") == 6
    code, tree = run("build-jointree", str(dag), "--graph", "Chest", "--order", "t,d,e,l,b")
    assert code == 0 and "jointree jointree_Chest {" in tree
    code, script = run("query", f"{FIXTURES}/chaining.mug", "--stmt", "{x}|{z}|{w}",
                       "--mode", "replay")
    assert code == 0 and "graph g0 {" in script and "script-verified: true" in script
    assert built == []
