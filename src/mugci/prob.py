"""Exact discrete-distribution semantics of conditional independence.

This is the numeric ground truth the symbolic machinery is checked against:
I(x, z, y) holds in a joint distribution iff conditioning on y never changes
the distribution of x once z is given, for every configuration of positive
probability.  Tables of ``fractions.Fraction`` give exact answers, which
matters because the interesting counterexamples live on zero-probability
configurations; float tables fall back to a tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable

from .dsep import DiGraph
from .errors import UniverseTooLarge, UnknownVariable
from .model import CanonicalStatement, Universe, enumerate_canonical

CI_FLOAT_TOLERANCE = 1e-9
MASS_FLOAT_TOLERANCE = 1e-12
ALL_CI_GUARD = 6


@dataclass(frozen=True)
class DiscreteJoint:
    """Dense joint table over finite variables, row-major in variable order."""

    variables: tuple[str, ...]
    cardinalities: tuple[int, ...]
    probabilities: tuple
    # Exact tables only: the probabilities as integer numerators over the
    # LCM of their denominators.  Cross-multiplication is homogeneous, so
    # ci_holds gets the same answers from these as from the fractions.
    _numerators: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.variables) != len(self.cardinalities):
            raise ValueError("one cardinality per variable")
        if any(c <= 0 for c in self.cardinalities):
            raise ValueError("cardinalities must be positive")
        size = 1
        for c in self.cardinalities:
            size *= c
        if len(self.probabilities) != size:
            raise ValueError(f"table needs {size} entries")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        probabilities = self.probabilities
        if self.exact:
            scale = lcm(*(p.denominator for p in probabilities))
            numerators = tuple(
                p.numerator * (scale // p.denominator) for p in probabilities
            )
            if sum(numerators) != scale:
                raise ValueError(f"probabilities sum to {sum(probabilities)}, not 1")
            object.__setattr__(self, "_numerators", numerators)
        elif abs(sum(probabilities) - 1) > MASS_FLOAT_TOLERANCE:
            raise ValueError(f"probabilities sum to {sum(probabilities)}, not 1")

    @property
    def exact(self) -> bool:
        return all(isinstance(p, (Fraction, int)) for p in self.probabilities)

    def configurations(self):
        """Yield (config tuple, probability) over the full product space."""
        for cfg, p in zip(product(*(range(c) for c in self.cardinalities)),
                          self.probabilities):
            yield cfg, p


def _positions(p: DiscreteJoint, names: Iterable[str]) -> tuple[int, ...]:
    index = {v: i for i, v in enumerate(p.variables)}
    out = []
    for name in sorted(names):
        if name not in index:
            raise UnknownVariable(f"no variable {name}")
        out.append(index[name])
    return tuple(out)


def ci_holds(
    p: DiscreteJoint,
    x: Iterable[str],
    z: Iterable[str],
    y: Iterable[str],
    tol: float = CI_FLOAT_TOLERANCE,
) -> bool:
    """Whether x is independent of y given z in the joint.

    Checked per configuration: whenever the z-configuration has positive
    mass, every positive-mass (z, y)-configuration must leave the
    conditional distribution of x unchanged.  Exact tables compare by
    cross-multiplication; float tables compare conditionals within ``tol``.
    """
    xs = _positions(p, x)
    zs = _positions(p, z)
    ys = _positions(p, y)
    if len(set(xs) | set(zs) | set(ys)) != len(xs) + len(zs) + len(ys):
        raise ValueError("ci_holds takes pairwise disjoint variable sets")

    exact = p._numerators is not None
    probabilities = p._numerators if exact else p.probabilities

    pz: dict = {}
    pzy: dict = {}
    pxz: dict = {}
    pxzy: dict = {}
    configurations = product(*(range(c) for c in p.cardinalities))
    for cfg, pr in zip(configurations, probabilities):
        if pr == 0:
            continue
        xc = tuple(cfg[i] for i in xs)
        zc = tuple(cfg[i] for i in zs)
        yc = tuple(cfg[i] for i in ys)
        pz[zc] = pz.get(zc, 0) + pr
        pzy[(zc, yc)] = pzy.get((zc, yc), 0) + pr
        pxz[(xc, zc)] = pxz.get((xc, zc), 0) + pr
        pxzy[(xc, zc, yc)] = pxzy.get((xc, zc, yc), 0) + pr

    x_configs = list(product(*(range(p.cardinalities[i]) for i in xs)))
    for zc in product(*(range(p.cardinalities[i]) for i in zs)):
        mass_z = pz.get(zc, 0)
        if mass_z == 0:
            continue
        for yc in product(*(range(p.cardinalities[i]) for i in ys)):
            mass_zy = pzy.get((zc, yc), 0)
            if mass_zy == 0:
                continue
            for xc in x_configs:
                joint = pxzy.get((xc, zc, yc), 0)
                marginal = pxz.get((xc, zc), 0)
                if exact:
                    if joint * mass_z != marginal * mass_zy:
                        return False
                elif abs(joint / mass_zy - marginal / mass_z) > tol:
                    return False
    return True


def all_ci(p: DiscreteJoint, max_variables: int = ALL_CI_GUARD) -> frozenset:
    """Every canonical statement over the variables that holds in the joint."""
    if len(p.variables) > max_variables:
        raise UniverseTooLarge(
            f"{len(p.variables)} variables, guard is {max_variables}"
        )
    universe = Universe(p.variables)
    return frozenset(
        s
        for s in enumerate_canonical(universe, max_variables)
        if ci_holds(p, s.x, s.z, s.y)
    )


def holds(p: DiscreteJoint, s: CanonicalStatement) -> bool:
    return ci_holds(p, s.x, s.z, s.y)


def sample_dag_joint(d: DiGraph, seed: int) -> DiscreteJoint:
    """Random binary joint factorizing along the directed graph.

    Non-deterministic elements get conditional probabilities in
    {1/10, ..., 9/10} per parent configuration; deterministic elements get a
    random 0/1 function of their parents.  The table is exact and
    reproducible from the seed.
    """
    rng = random.Random(seed)
    variables = tuple(d.universe)
    position = {v: i for i, v in enumerate(variables)}
    # Each factor is weight/10 (weight/1 for a deterministic element): keep
    # the integer weights of value 0 and value 1 and divide once at the end.
    factors = []
    scale = 1
    for v in variables:
        parents = tuple(sorted(d.parents(v)))
        deterministic = v in d.deterministic
        rows = {}
        for cfg in product((0, 1), repeat=len(parents)):
            if deterministic:
                one = rng.randrange(2)
                rows[cfg] = (1 - one, one)
            else:
                one = rng.randint(1, 9)
                rows[cfg] = (10 - one, one)
        if not deterministic:
            scale *= 10
        factors.append((tuple(position[q] for q in parents), rows))
    probabilities = []
    for cfg in product((0, 1), repeat=len(variables)):
        weight = 1
        for value, (parents, rows) in zip(cfg, factors):
            weight *= rows[tuple(cfg[i] for i in parents)][value]
        probabilities.append(Fraction(weight, scale))
    return DiscreteJoint(variables, (2,) * len(variables), tuple(probabilities))


def as_floats(p: DiscreteJoint) -> DiscreteJoint:
    """Float copy of an exact table (for tolerance-mode checks)."""
    return DiscreteJoint(
        p.variables, p.cardinalities, tuple(float(v) for v in p.probabilities)
    )
