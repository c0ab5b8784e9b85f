"""Graph Fourier transform, shift, variation, and frequency ordering.

The basis comes from the directed Laplacian: decompose L = V J V^{-1}
(diagonal J when a full eigenvector basis exists, Jordan blocks when not)
and expand signals in the columns of V. The analysis map is f_hat =
V^{-1} f, synthesis is f = V f_hat. When L is normal the basis is
unitary, so V^{-1} is V's conjugate transpose: real and orthonormal for
undirected graphs, DFT-like for the directed cycle and other normal
digraphs.

Frequency is |lambda|: total variation of a proper eigenvector under the
shift S = I - L equals |lambda| times its 1-norm, so magnitude ordering
ranks the basis from smoothest to most oscillatory.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidValueError
from .graph import (
    DirectedLaplacian,
    Graph,
    _Record,
    directed_laplacian,
    real_or_complex,
    signal_values,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    RECON_LIMIT,
    SpectralDecomposition,
    _dot,
    jordan_decompose,
    matrix_polynomial_apply,
    order_with_ties,
)

# (identity tap, first-difference tap): S f = f - L f.
SHIFT_TAPS = (1.0, -1.0)


def as_laplacian(source) -> DirectedLaplacian:
    """Coerce a Graph, DirectedLaplacian, or raw matrix to a Laplacian."""
    if isinstance(source, DirectedLaplacian):
        return source
    if isinstance(source, Graph):
        return directed_laplacian(source)
    return DirectedLaplacian(np.asarray(source))


def shift(lap, f) -> np.ndarray:
    """Apply the graph shift S = I - L to a signal.

    Implemented as the two-tap polynomial (1, -1) in L through the same
    Horner routine the filter module uses, so a shift and the filter
    h = [1, -1] produce bit-identical output. On the directed cycle this
    is the classical delay: integer-valued signals come back exactly
    rotated by one position.
    """
    lap = as_laplacian(lap)
    return matrix_polynomial_apply(lap.matrix, SHIFT_TAPS, signal_values(f, lap.n))


def shift_operator(lap) -> np.ndarray:
    """Materialize S = I - L as a dense matrix."""
    lap = as_laplacian(lap)
    return np.eye(lap.n) - lap.matrix


@np.errstate(over="ignore", invalid="ignore")
def total_variation(lap, f) -> float | np.ndarray:
    """TV(f) = sum of |(L f)_i|: the 1-norm of the signal's local differences.

    Zero exactly on constants; for a unit proper eigenvector at lambda it equals
    |lambda| times the eigenvector's 1-norm. An (n, k) block ``f`` gives an array of
    k values, one per column, from one product ``L f``. Past float64 it is ``inf``.
    """
    lap = as_laplacian(lap)
    if np.ndim(f) == 2:
        block = real_or_complex(f)
        if len(block) != lap.n:
            raise DimensionMismatchError(f"block has {len(block)} rows, graph has {lap.n} nodes")
        return np.abs(_dot(lap.matrix, block)).sum(axis=0)
    return float(np.sum(np.abs(_dot(lap.matrix, signal_values(f, lap.n)))))


@np.errstate(over="ignore", invalid="ignore")
def quadratic_form(lap, f) -> float:
    """Quadratic (2-Dirichlet) smoothness: half the squared 2-norm of L f (past float64, inf)."""
    lap = as_laplacian(lap)
    diff = _dot(lap.matrix, signal_values(f, lap.n))
    return 0.5 * float(np.real(np.vdot(diff, diff)))


class FrequencyOrdering(_Record):
    """Permutation of spectral indices from lowest to highest frequency.

    ``order[k]`` is the spectral index holding frequency rank ``k``.
    ``tie_groups`` lists the groups of two or more indices whose magnitudes
    coincide within tolerance (conjugate pairs, for one), already in their
    deterministic resolved order: real part ascending, then imaginary part
    ascending, so the negative-imaginary half of a pair comes first.
    ``ranks``, derived, is the inverse permutation of ``order``.
    """

    order: tuple[int, ...]
    tie_groups: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]

    def __init__(self, order, tie_groups):
        ranks = tuple(np.argsort(order).tolist())
        self.__dict__.update(order=order, tie_groups=tie_groups, ranks=ranks)


def order_frequencies(eigenvalues) -> FrequencyOrdering:
    """Rank eigenvalues by |lambda|, breaking ties by (real, imaginary).

    Magnitudes agreeing within the fixed relative slack of
    :func:`dgft.linalg.order_with_ties` form a tie and are resolved by
    (real, imaginary) regardless of sub-tolerance magnitude noise. The
    underlying sort is stable, so repeated eigenvalues (Jordan chains
    share one value across their columns) keep their original relative
    order and chains stay contiguous, head first.
    """
    order, tie_groups = order_with_ties(eigenvalues)
    return FrequencyOrdering(order=tuple(order), tie_groups=tuple(tie_groups))


class Spectrum(_Record):
    """A signal's expansion in the graph Fourier basis.

    Entry r pairs ``eigenvalues[r]`` with coefficient ``coefficients[r]``;
    ``ordering`` ranks the entries by frequency, derived from the
    eigenvalues (:func:`order_frequencies`). Entries are in spectral
    (basis column) order, which for a spectrum of a decomposition
    (:func:`spectrum`) is frequency order: its ``ordering.order`` is
    ``range(n)``. Both arrays follow the dtype rule
    (:func:`dgft.graph.real_or_complex`).
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    ordering: FrequencyOrdering
    n: int

    def __init__(self, eigenvalues, coefficients):
        w = real_or_complex(eigenvalues, copy=True).ravel()
        c = real_or_complex(coefficients, copy=True).ravel()
        if w.shape != c.shape:
            raise InvalidValueError("eigenvalues and coefficients must have equal length")
        w.flags.writeable = False
        c.flags.writeable = False
        self.__dict__.update(
            eigenvalues=w, coefficients=c, ordering=order_frequencies(w), n=int(w.size)
        )


def gft(decomposition: SpectralDecomposition, f) -> np.ndarray:
    """Analysis: coefficients of ``f`` in the graph Fourier basis."""
    return _dot(decomposition.v_inv, signal_values(f, decomposition.n))


def igft(decomposition: SpectralDecomposition, f_hat) -> np.ndarray:
    """Synthesis: rebuild the vertex-domain signal from its coefficients."""
    return _dot(decomposition.v, signal_values(f_hat, decomposition.n))


def spectrum(decomposition: SpectralDecomposition, f) -> Spectrum:
    """GFT of ``f`` packaged with its eigenvalues and frequency ranking."""
    return Spectrum(eigenvalues=decomposition.eigenvalues, coefficients=gft(decomposition, f))


def decompose(
    source,
    tol: float = DEFAULT_RANK_TOL,
    *,
    cluster_tol: float | None = None,
    recon_tol: float = RECON_LIMIT,
) -> SpectralDecomposition:
    """Spectral decomposition of a graph's Laplacian: :func:`jordan_decompose`
    of its matrix.

    Each weakly connected component takes its own route there: ``eigh`` for
    an undirected one, ``eigh`` of the Hermitian part for another normal one
    (the directed cycle, circulants), and the Jordan treatment for the
    rest. Every route applies the same deterministic basis convention (unit
    scale, pivot phase, each component's constant null vector snapped to
    its exact unit form) and returns one SpectralDecomposition, so callers
    never branch. ``cluster_tol`` merges eigenvalues on every route, and
    every threshold is relative to ``L``. A basis whose residual
    ``||V J V^-1 - L||_F`` exceeds ``recon_tol * ||L||_F`` is refused with
    :class:`ReconstructionError`.
    """
    return jordan_decompose(
        as_laplacian(source).matrix, tol, cluster_tol=cluster_tol, recon_tol=recon_tol
    )
