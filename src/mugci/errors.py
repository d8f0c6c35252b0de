"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidOverlap(ModelError):
    """Statement sides overlap outside the conditioning set."""


class UniverseTooLarge(ModelError):
    """Exhaustive enumeration guard exceeded."""


class MissingElements(ModelError):
    """Graph does not contain every element of the query triple."""


class UnknownElement(ModelError):
    """Element not declared in the universe at hand."""


class UnknownNode(ModelError):
    """Node id not present in the graph."""


class SelfLoop(ModelError):
    """Edge endpoints must differ."""


class SameNode(ModelError):
    """Merging requires two distinct nodes."""


class EmptyPart(ModelError):
    """The parts a node is split into must be non-empty."""


class CoverageGap(ModelError):
    """The parts a node is split into must jointly cover its elements."""


class CyclicGraph(ModelError):
    """Directed graphs must be acyclic."""


class StatementNotSatisfied(ModelError):
    """Graph combination needs its statement satisfied first."""


class WrongElementSet(ModelError):
    """Graph combination needs a graph over exactly the statement's kept side."""


class PremiseNotSatisfied(ModelError):
    """Replay requires every given statement to be satisfied initially."""


class ReducedGraphLosesSeparation(ModelError):
    """Deleting extraneous nodes must keep the premise separation intact."""


class UnknownVariable(ModelError):
    """Variable not present in the joint distribution."""


class InvalidOrder(ModelError):
    """Elimination order must be a permutation of the graph's elements."""


class DuplicateName(ModelError):
    """Model files require unique names."""


class ModelSyntaxError(ModelError):
    """Model file text could not be parsed."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
