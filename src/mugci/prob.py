"""Exact discrete-distribution semantics of conditional independence.

This is the numeric ground truth the symbolic machinery is checked against:
I(x, z, y) holds in a joint distribution iff conditioning on y never changes
the distribution of x once z is given, for every configuration of positive
probability.  Tables of ``fractions.Fraction`` give exact answers, which
matters because the interesting counterexamples live on zero-probability
configurations; float tables fall back to a tolerance.  Inside, exact tables
are integer numerators over one denominator, addressed by integer
configuration indices; ``Fraction`` appears only at the boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import mul
from typing import Iterable

from .dsep import DiGraph
from .errors import UniverseTooLarge, UnknownVariable
from .model import Universe, enumerate_canonical

CI_FLOAT_TOLERANCE = 1e-9
MASS_FLOAT_TOLERANCE = 1e-12
ALL_CI_GUARD = 7


@dataclass(frozen=True)
class DiscreteJoint:
    """Dense joint table over finite variables, row-major in variable order."""

    variables: tuple[str, ...]
    cardinalities: tuple[int, ...]
    probabilities: tuple
    # Exact tables only: the probabilities as integer numerators over one
    # common denominator.  Cross-multiplication is homogeneous, so ci_holds
    # gets the same answers from these as from the fractions.
    _numerators: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.variables) != len(self.cardinalities):
            raise ValueError("one cardinality per variable")
        if any(c <= 0 for c in self.cardinalities):
            raise ValueError("cardinalities must be positive")
        size = prod(self.cardinalities)
        if len(self.probabilities) != size:
            raise ValueError(f"table needs {size} entries")
        probabilities = self.probabilities
        if self.exact:
            scale = lcm(*(p.denominator for p in probabilities))
            numerators = tuple(
                p.numerator * (scale // p.denominator) for p in probabilities
            )
            if any(n < 0 for n in numerators):
                raise ValueError("probabilities must be nonnegative")
            if sum(numerators) != scale:
                raise ValueError(f"probabilities sum to {sum(probabilities)}, not 1")
            object.__setattr__(self, "_numerators", numerators)
        elif any(p < 0 for p in probabilities):
            raise ValueError("probabilities must be nonnegative")
        elif abs(sum(probabilities) - 1) > MASS_FLOAT_TOLERANCE:
            raise ValueError(f"probabilities sum to {sum(probabilities)}, not 1")

    @classmethod
    def _from_weights(
        cls, variables: tuple[str, ...], cardinalities: tuple[int, ...],
        weights: list[int],
    ) -> "DiscreteJoint":
        """The exact table with entries weight/total, for nonnegative integer
        weights: the weights are its numerators as they are, so nothing is
        checked or re-derived, and its probabilities are made on first read."""
        joint = object.__new__(cls)
        fields = joint.__dict__
        fields["variables"] = variables
        fields["cardinalities"] = cardinalities
        fields["_numerators"] = tuple(weights)
        return joint

    def __getattr__(self, name: str):
        # Reached only for a field that is not set: the probabilities of a
        # table from _from_weights, each distinct Fraction built once.
        if name != "probabilities" or "_numerators" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        weights = self._numerators
        total = sum(weights)
        fractions = {w: Fraction(w, total) for w in set(weights)}
        probabilities = tuple(map(fractions.__getitem__, weights))
        self.__dict__["probabilities"] = probabilities
        return probabilities

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
) -> bool:
    """Whether x is independent of y given z in the joint.

    Checked per configuration: whenever the z-configuration has positive
    mass, every positive-mass (z, y)-configuration must leave the
    conditional distribution of x unchanged.  Exact tables compare by
    cross-multiplication; float tables compare conditionals within
    ``CI_FLOAT_TOLERANCE``.
    """
    xs = _positions(p, x)
    zs = _positions(p, z)
    ys = _positions(p, y)
    if len(set(xs) | set(zs) | set(ys)) != len(xs) + len(zs) + len(ys):
        raise ValueError("ci_holds takes pairwise disjoint variable sets")

    exact = p._numerators is not None
    probabilities = p._numerators if exact else p.probabilities
    cards = p.cardinalities

    # Key every configuration by its mixed-radix index over x, z, y (x most
    # significant), built variable by variable in table order.
    place = {}
    size = 1
    for i in reversed(xs + zs + ys):
        place[i] = size
        size *= cards[i]
    keys = [0]
    for i, c in enumerate(cards):
        if i in place:
            digits = [d * place[i] for d in range(c)]
            keys = [k + d for k in keys for d in digits]
        else:
            keys = [k for k in keys for _ in range(c)]

    pxzy = [0] * size
    for k, pr in zip(keys, probabilities):
        pxzy[k] += pr
    y_size = prod(cards[i] for i in ys)
    zy_size = y_size * prod(cards[i] for i in zs)
    pxz = [0] * (size // y_size)
    pzy = [0] * zy_size
    for k, pr in enumerate(pxzy):
        if pr:
            pxz[k // y_size] += pr
            pzy[k % zy_size] += pr
    pz = [0] * (zy_size // y_size)
    for zy, pr in enumerate(pzy):
        pz[zy // y_size] += pr

    for k, joint in enumerate(pxzy):
        zy = k % zy_size
        mass_zy = pzy[zy]
        if not mass_zy:
            continue
        mass_z = pz[zy // y_size]
        marginal = pxz[k // y_size]
        if exact:
            if joint * mass_z != marginal * mass_zy:
                return False
        elif abs(joint / mass_zy - marginal / mass_z) > CI_FLOAT_TOLERANCE:
            return False
    return True


def all_ci(p: DiscreteJoint) -> frozenset:
    """Every canonical statement over the variables that holds in the joint."""
    if len(p.variables) > ALL_CI_GUARD:
        raise UniverseTooLarge(f"{len(p.variables)} variables, guard is {ALL_CI_GUARD}")
    universe = Universe(p.variables)
    return frozenset(
        s for s in enumerate_canonical(universe) if ci_holds(p, s.x, s.z, s.y)
    )


def sample_dag_joint(d: DiGraph, seed: int) -> DiscreteJoint:
    """Random binary joint factorizing along the directed graph.

    Non-deterministic elements get conditional probabilities in
    {1/10, ..., 9/10} per parent configuration; deterministic elements get a
    random 0/1 function of their parents.  The table is exact and
    reproducible from the seed.
    """
    rng = random.Random(seed)
    variables = tuple(d.universe)
    n = len(variables)
    size = 1 << n
    # Row-major: the first variable is the most significant bit of a
    # configuration's index.
    bit = {v: 1 << (n - 1 - i) for i, v in enumerate(variables)}
    indices = range(size)
    # Each factor is weight/10 (weight/1 for a deterministic element): keep
    # integer weights, one factor at a time; their total is the denominator.
    weights = [1] * size
    for v in variables:
        # Parent configurations in product((0, 1), ...) order over the sorted
        # parents, as index bits; each draws its row of v's factor.
        rows = [0]
        for q in sorted(d.parents(v)):
            rows = [r | b for r in rows for b in (0, bit[q])]
        deterministic = v in d.deterministic
        lookup = {}
        for row in rows:
            if deterministic:
                one = rng.randrange(2)
                lookup[row] = 1 - one
            else:
                one = rng.randint(1, 9)
                lookup[row] = 10 - one
            lookup[row | bit[v]] = one
        mask = bit[v] | rows[-1]  # the last row has every parent bit set
        weights = list(
            map(mul, weights, map(lookup.__getitem__, map(mask.__and__, indices)))
        )
    return DiscreteJoint._from_weights(variables, (2,) * n, weights)

