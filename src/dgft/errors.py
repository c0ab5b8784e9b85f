"""Exception types shared across the package.

The CLI maps these onto exit codes: parse failures exit 2, dimension
mismatches exit 3, numerical failures exit 4.
"""


class DgftError(Exception):
    """Base class for every error raised by this package."""


class InvalidValueError(DgftError, ValueError):
    """A value breaks a precondition (a non-finite weight, a nonzero row
    sum, unequal lengths); a ``ValueError`` too, for callers catching that."""


class NodeIndexError(DgftError):
    """An edge endpoint lies outside the valid node range."""


class SelfLoopError(DgftError):
    """An edge connects a node to itself; self-loops are rejected."""


class DuplicateEdgeError(DgftError):
    """The same (source, destination) pair appears more than once."""


class GraphSizeError(DgftError):
    """A node count is refused: not an integer, below the least a graph (or the
    ring generator) takes, too large for an n x n matrix, or an empty matrix's 0."""


class DimensionMismatchError(DgftError):
    """Operands disagree on the number of nodes."""


class NonSquareError(DgftError):
    """A square matrix was required."""


class NoConvergenceError(DgftError):
    """The eigenvalue iteration did not converge; the input is pathological."""


class SingularMatrixError(DgftError):
    """Matrix inversion met an exactly singular matrix (a zero pivot)."""


class ReconstructionError(DgftError):
    """A decomposition failed to reproduce its input within tolerance."""


class EmptyTapsError(DgftError):
    """A filter needs at least one tap."""


class ParseError(DgftError):
    """An input file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IllConditionedBasisWarning(UserWarning):
    """The computed basis is numerically ill conditioned.

    Defective matrices legitimately have ill-conditioned Jordan bases, so
    this is a caveat attached to an otherwise valid result, not an error.
    """
