"""Graphical inference for conditional independence.

Two provably equivalent engines decide whether an independence statement
follows from given premises: fixpoint closure under the graphoid axioms, and
transformation sequences (node deletion, graph combination) on models made
of multiple undirected graphs.  Directed models are handled by ancestral
pruning, deterministic propagation, and moralization; exact discrete joints
provide the probabilistic ground truth.
"""

from .derivation import (
    Exhausted,
    MoveScript,
    initial_mug,
    replay_chain,
    replay_final,
    search,
    verify_script,
)
from .dsep import DiGraph, JoinTree, build_join_tree
from .graphoid import (
    AxiomStep,
    Closure,
    closure,
    prove,
    verify_chain,
)
from .model import (
    ENUMERATION_GUARD,
    TRIVIALLY_TRUE,
    CanonicalStatement,
    Statement,
    TriviallyTrue,
    Universe,
    canonical_triple,
    canonicalize,
    enumerate_canonical,
    statement_key,
)
from .modelfile import ModelFile, parse_model
from .mug import (
    Combine,
    Delete,
    Move,
    Mug,
    append_transformed,
)
from .prob import DiscreteJoint, all_ci, ci_holds, sample_dag_joint
from .ugraph import ElementGraph, UGraph

__all__ = [
    "AxiomStep",
    "CanonicalStatement",
    "Closure",
    "Combine",
    "Delete",
    "DiGraph",
    "DiscreteJoint",
    "ENUMERATION_GUARD",
    "ElementGraph",
    "Exhausted",
    "JoinTree",
    "ModelFile",
    "Move",
    "MoveScript",
    "Mug",
    "Statement",
    "TRIVIALLY_TRUE",
    "TriviallyTrue",
    "UGraph",
    "Universe",
    "all_ci",
    "append_transformed",
    "build_join_tree",
    "canonical_triple",
    "canonicalize",
    "ci_holds",
    "closure",
    "enumerate_canonical",
    "initial_mug",
    "parse_model",
    "prove",
    "replay_chain",
    "replay_final",
    "sample_dag_joint",
    "search",
    "statement_key",
    "verify_chain",
    "verify_script",
]
