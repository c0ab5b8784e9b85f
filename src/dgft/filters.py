"""Linear shift-invariant graph filters as polynomials in the Laplacian.

A filter is a tap vector h = (h_0, ..., h_M), lowest order first: the
operator is H = h_0 I + h_1 L + ... + h_M L^M. Taps follow the dtype rule
(:func:`dgft.graph.real_or_complex`), and an empty tap vector raises
:class:`EmptyTapsError` (:func:`dgft.linalg.matrix_polynomial_apply`
does both). Every such polynomial commutes with
the shift S = I - L, and conversely (when each distinct eigenvalue of L
has a one-dimensional eigenspace) every operator commuting with the
shift is such a polynomial. Application is offered in the vertex domain
(Horner in L, M matrix-vector products) and in the spectral domain
(analysis, the same Horner routine in the Jordan matrix J, synthesis):
h(J) is diagonal when L is diagonalizable and upper triangular on each
Jordan block, where a chain's coefficients leak into those above it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .graph import _as_square, _Record, _unit_scale, signal_values
from .linalg import (
    SpectralDecomposition,
    cluster_eigenvalues,
    matrix_polynomial_apply,
)
from .spectral import as_laplacian, gft, igft

# Relative commutator size below which an operator counts as shift invariant.
COMMUTATOR_TOL = 1e-10


def apply_vertex_domain(lap, h, f) -> np.ndarray:
    """Run the filter as repeated shifts: Horner in L against the signal.

    Costs one matrix-vector product per tap after the first and never
    forms the operator matrix.
    """
    lap = as_laplacian(lap)
    return matrix_polynomial_apply(lap.matrix, h, signal_values(f, lap.n))


def materialize(lap, h) -> np.ndarray:
    """The filter as an explicit operator matrix h(L): Horner applied to I."""
    lap = as_laplacian(lap)
    return matrix_polynomial_apply(lap.matrix, h, np.eye(lap.n))


def apply_spectral_domain(decomposition: SpectralDecomposition, h, f) -> np.ndarray:
    """Filter through the spectral domain: analyze, apply h(J), synthesize.

    ``L = V J V^{-1}`` gives ``h(L) = V h(J) V^{-1}``, so the middle step
    is the same Horner routine the vertex domain runs, only on ``J``,
    applied through the layout the decomposition keeps of its eigenvalues
    and chain heads (:class:`dgft.linalg._Bidiagonal`).
    It agrees with :func:`apply_vertex_domain` up to roundoff.
    """
    filtered = matrix_polynomial_apply(decomposition._bidiagonal, h, gft(decomposition, f))
    return igft(decomposition, filtered)


class ShiftInvariance(_Record):
    """Commutation verdict as its evidence: ``residual``, the relative
    commutator ``||L H - H L||_F / (||L||_F ||H||_F)`` (0 when the commutator
    is exactly 0). It is a ratio, so it reads the same in any unit of weight.

    Truthy exactly when ``residual <= COMMUTATOR_TOL``, so the result drops
    into any boolean context and cannot hold a verdict its evidence
    contradicts.
    """

    residual: float

    def __init__(self, residual):
        self.__dict__.update(residual=residual)

    def __bool__(self) -> bool:
        return bool(self.residual <= COMMUTATOR_TOL)


def is_shift_invariant(lap, operator: np.ndarray) -> ShiftInvariance:
    """Whether an operator commutes with the graph shift.

    S = I - L commutes with H exactly when L does, so the test runs on
    the Laplacian directly, after each of ``L`` and ``H`` is brought to
    unit scale (:func:`dgft.graph._unit_scale`), so that no product
    overflows or underflows. The relative residual
    ``||L H - H L||_F / (||L||_F ||H||_F)`` is compared against
    ``COMMUTATOR_TOL``. An operator that is not n x n raises
    :class:`NonSquareError` or :class:`DimensionMismatchError`, and one with
    a non-finite entry :class:`InvalidValueError`.
    """
    m, op = as_laplacian(lap).matrix, _as_square(operator)
    if len(op) != len(m):
        raise DimensionMismatchError(f"operator is {len(op)}x{len(op)}, graph has {len(m)} nodes")
    (m, _), (op, _) = _unit_scale(m), _unit_scale(op)
    # numpy's sums, not a BLAS dot product, whose order follows the thread count
    residual, norm_m, norm_op = (float(np.linalg.norm(x, axis=(-2, -1)))
                                 for x in (m @ op - op @ m, m, op))
    return ShiftInvariance(residual and residual / (norm_m * norm_op))  # no 0 / 0 at m or op 0


class EigenvalueMultiplicity(_Record):
    eigenvalue: complex
    algebraic: int
    geometric: int

    def __init__(self, eigenvalue, algebraic, geometric):
        self.__dict__.update(eigenvalue=eigenvalue, algebraic=algebraic, geometric=geometric)


class MultiplicityReport(_Record):
    """Geometric multiplicity per distinct eigenvalue, plus the verdict.

    ``polynomials_span_commutant`` means every distinct eigenvalue has a
    one-dimensional eigenspace, the condition under which the polynomial
    filters are the whole algebra of shift-invariant operators. A failed
    check is purely diagnostic: polynomial filters still work, they just
    no longer span everything that commutes with the shift.
    """

    entries: tuple[EigenvalueMultiplicity, ...]
    polynomials_span_commutant: bool

    def __init__(self, entries):
        span = all(e.geometric == 1 for e in entries)
        self.__dict__.update(entries=entries, polynomials_span_commutant=span)


def check_lsi_preconditions(decomposition: SpectralDecomposition) -> MultiplicityReport:
    """Group the decomposition's blocks by eigenvalue and count eigenspaces.

    Geometric multiplicity of a distinct eigenvalue is the number of
    blocks carrying it; algebraic is the total of their sizes. Distinct
    means separated by more than the decomposition's clustering tolerance.
    Entries follow their first block, so they come in frequency order.
    A value shared by several blocks is their mean; a lone block's value
    is its eigenvalue, bit for bit. The blocks are read off the chain
    heads (``proper_indices``), with no :class:`JordanBlock` built.
    """
    heads = np.asarray(decomposition.proper_indices)
    values = decomposition.eigenvalues[heads].astype(complex)
    sizes = np.diff(heads, append=decomposition.n).tolist()
    listed = values.tolist()
    return MultiplicityReport(entries=tuple(
        EigenvalueMultiplicity(
            eigenvalue=listed[c[0]] if len(c) == 1 else complex(np.mean(values[c])),
            algebraic=sum(sizes[i] for i in c),
            geometric=len(c),
        )
        for c in cluster_eigenvalues(values, decomposition.cluster_tol)
    ))
