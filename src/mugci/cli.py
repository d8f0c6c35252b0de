"""Command-line interface.

Exit codes: 0 when the queried property holds (or the command produced its
artifact), 1 when a statement does not follow or a structure is invalid,
2 on any parse or validation error.  Output is deterministic for fixed
input and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .derivation import (
    Exhausted,
    MoveScript,
    initial_mug,
    replay_chain,
    search,
    verify_script,
)
from .dsep import join_tree_masks
from .errors import ModelError
from .graphoid import AxiomStep, closure, prove, verify_chain
from .model import (
    TRIVIALLY_TRUE,
    Statement,
    format_set,
)
from .modelfile import (
    ModelFile,
    format_join_masks,
    format_packed,
    parse_model,
)
from .mug import Combine, Delete, Mug

SEARCH_DEFAULT_MOVES = 5
SEARCH_DEFAULT_GRAPHS = 10


def _positive_int(text: str) -> int:
    """argparse type of the search bounds: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_elements(text: str) -> frozenset:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    names = [part.strip() for part in body.split(",") if part.strip()]
    return frozenset(names)


def _parse_statement_arg(text: str) -> Statement:
    parts = text.split("|")
    if len(parts) != 3:
        raise ModelError(f"statement must look like '{{x}}|{{z}}|{{y}}': {text!r}")
    x, z, y = (_parse_elements(p) for p in parts)
    return Statement(x, z, y)


def _load_model(path: str) -> ModelFile:
    # Decoded whole, so that an error gives the offset in the file; the
    # parser reads "\r\n" and "\r" as line breaks, as text mode would.
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path} is not UTF-8: bad byte at offset {exc.start}") from None
    return parse_model(text)


def _seed_mug(model: ModelFile) -> Mug:
    """The graphical modes' starting model: declared graphs and statements."""
    return initial_mug(model.universe, model.statements.values(), model.graphs.values())


def _format_chain(chain: tuple[AxiomStep, ...]) -> list[str]:
    lines = []
    for i, step in enumerate(chain):
        label = step.rule
        if step.premises:
            label += "[" + ",".join(str(p + 1) for p in step.premises) + "]"
        lines.append(f"  [{i + 1}] {label}: {step.conclusion}")
    return lines


def _format_move(move) -> str:
    if isinstance(move, Delete):
        return f"delete graph={move.graph} node={move.node}"
    if isinstance(move, Combine):
        return f"combine graph={move.graph} stmt={move.statement}"
    raise TypeError(f"unknown move {move!r}")


def _print_script(script: MoveScript, verified: bool, out) -> None:
    universe = script.initial.universe
    print(f"initial-graphs: {len(script.initial.packed)}", file=out)
    for i, (nodes, adj) in enumerate(script.initial.packed):
        print(format_packed(f"g{i}", universe, nodes, adj), file=out)
    print("moves:", file=out)
    for i, move in enumerate(script.moves):
        print(f"  [{i + 1}] {_format_move(move)}", file=out)
    print(f"script-verified: {str(verified).lower()}", file=out)


def _verified(chain: tuple[AxiomStep, ...]) -> tuple[AxiomStep, ...]:
    """The chain, once it re-verifies from its own given steps."""
    givens = {st.conclusion for st in chain if st.rule == "given"}
    if not verify_chain(chain, givens):
        raise AssertionError(
            f"emitted chain for {chain[-1].conclusion} failed verification"
        )
    return chain


def _cmd_closure(args, out) -> int:
    model = _load_model(args.file)
    result = closure(model.statements.values(), model.universe, model.graphs.values())
    if args.json:
        ordered = list(result)
        payload = {
            "universe": list(model.universe),
            "count": len(ordered),
            "statements": [],
        }
        for s in ordered:
            record = {
                "x": sorted(s.x),
                "z": sorted(s.z),
                "y": sorted(s.y),
                "statement": str(s),
            }
            if args.emit_chains:
                record["chain"] = [
                    {
                        "rule": step.rule,
                        "premises": [p + 1 for p in step.premises],
                        "conclusion": str(step.conclusion),
                    }
                    for step in _verified(result.chain(s))
                ]
            payload["statements"].append(record)
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    lines = result.lines()
    print("universe: " + " ".join(model.universe), file=out)
    print(f"statements: {len(lines)}", file=out)
    if not args.emit_chains:
        if lines:
            print("\n".join(lines), file=out)
        return 0
    for line, s in zip(lines, result):
        print(line, file=out)
        for step in _format_chain(_verified(result.chain(s))):
            print(step, file=out)
    return 0


def _cmd_query(args, out) -> int:
    model = _load_model(args.file)
    target = model.universe.canonical(_parse_statement_arg(args.stmt))
    if target is TRIVIALLY_TRUE:
        print("result: trivially-true", file=out)
        return 0
    # Every check runs before the first line is printed, so an error leaves
    # stdout empty.
    if args.mode == "search":
        # Search needs no chain, so it neither pays for the axiom closure
        # nor is bound by the closure's size guard.
        outcome = search(_seed_mug(model), target, args.max_moves, args.max_graphs)
    else:
        outcome = prove(
            model.statements.values(), model.universe, model.graphs.values(), target
        )
        if outcome is not None and args.mode == "replay":
            outcome = replay_chain(_seed_mug(model), outcome)
    print(f"statement: {target}", file=out)
    if outcome is None:
        print("result: not-derivable", file=out)
        return 1
    if isinstance(outcome, Exhausted):
        print("result: exhausted", file=out)
        print(f"states-explored: {outcome.states_explored}", file=out)
        print(f"depth-reached: {outcome.depth_reached}", file=out)
        return 1
    if isinstance(outcome, MoveScript):
        verified = verify_script(outcome)
        if args.mode == "replay" and not verified:
            raise AssertionError("emitted script failed verification")
        print("result: proven", file=out)
        _print_script(outcome, verified, out)
        return 0
    lines = _format_chain(_verified(outcome))
    print("result: proven", file=out)
    print("chain:", file=out)
    for line in lines:
        print(line, file=out)
    print("chain-verified: true", file=out)
    return 0


def _cmd_dsep(args, out) -> int:
    model = _load_model(args.file)
    if args.graph not in model.digraphs:
        raise ModelError(f"no digraph named {args.graph!r}")
    d = model.digraphs[args.graph]
    x = _parse_elements(args.x)
    z = _parse_elements(args.z)
    y = _parse_elements(args.y)
    separated = d.d_separated(x, z, y)
    print(f"query: {format_set(x)} | {format_set(z)} | {format_set(y)}", file=out)
    print(f"result: {'separated' if separated else 'not-separated'}", file=out)
    return 0 if separated else 1


def _cmd_moralize(args, out) -> int:
    model = _load_model(args.file)
    if args.graph not in model.digraphs:
        raise ModelError(f"no digraph named {args.graph!r}")
    d = model.digraphs[args.graph]
    print(format_packed(f"moral_{args.graph}", d.universe, *d.moral_graph()), file=out)
    return 0


def _cmd_check_jointree(args, out) -> int:
    model = _load_model(args.file)
    if args.tree not in model.jointrees:
        raise ModelError(f"no jointree named {args.tree!r}")
    violations = model.jointrees[args.tree].validate()
    if not violations:
        print("valid", file=out)
        return 0
    for v in violations:
        print(f"violation: {v}", file=out)
    return 1


def _cmd_build_jointree(args, out) -> int:
    model = _load_model(args.file)
    if args.graph in model.graphs:
        universe, packed = model.graphs[args.graph]._packed_form()
        nodes, adj = packed.nodes, packed.adj
        if any(m & m - 1 for _, m in nodes):
            raise ModelError(
                f"graph {args.graph!r} has multi-element nodes; "
                f"build-jointree needs one element per node"
            )
        if len(universe) != len(nodes):
            raise ModelError(
                f"graph {args.graph!r} repeats an element; "
                f"build-jointree needs one node per element"
            )
    elif args.graph in model.digraphs:
        d = model.digraphs[args.graph]
        universe, (nodes, adj) = d.universe, d.moral_graph()
    else:
        raise ModelError(f"no graph or digraph named {args.graph!r}")
    order = [e for e in (p.strip() for p in args.order.split(",")) if e]
    filled, clusters, links = join_tree_masks(universe, nodes, adj, order)
    print(format_packed(f"chordal_{args.graph}", universe, nodes, filled), file=out)
    print(format_join_masks(f"jointree_{args.graph}", universe, enumerate(clusters), links),
          file=out)
    text = universe.text
    for a, b in sorted(links):
        print(f"sepset {a} {b} = {text(clusters[a] & clusters[b])}", file=out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mugci",
        description="Decide conditional-independence statements graphically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser, by name, for main

    p = sub.add_parser("closure", help="print the axiom closure of a model")
    p.add_argument("file")
    p.add_argument("--emit-chains", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("query", help="decide one statement")
    p.add_argument("file")
    p.add_argument("--stmt", required=True, help="'{x}|{z}|{y}'")
    p.add_argument("--mode", choices=("axioms", "replay", "search"),
                   default="axioms")
    p.add_argument("--max-moves", type=_positive_int, default=SEARCH_DEFAULT_MOVES)
    p.add_argument("--max-graphs", type=_positive_int, default=SEARCH_DEFAULT_GRAPHS)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("dsep", help="directed-graph separation test")
    p.add_argument("file")
    p.add_argument("--graph", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("moralize", help="print the moral graph of a digraph")
    p.add_argument("file")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_moralize)

    p = sub.add_parser("check-jointree", help="validate a declared join tree")
    p.add_argument("file")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=_cmd_check_jointree)

    p = sub.add_parser("build-jointree",
                       help="triangulate and build a join tree")
    p.add_argument("file")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", required=True, help="comma-separated elements")
    p.set_defaults(func=_cmd_build_jointree)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        # A command's words go to its parser alone, as the top-level parser
        # would hand them on.  Any other argv, or words that parser leaves
        # over, take the full parse, whose errors and help are the CLI's.
        args, extra = None, []
        if argv and argv[0] in parser.commands:
            args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
        if args is None or extra:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
