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

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValueError
from .graph import (
    DirectedLaplacian,
    Graph,
    directed_laplacian,
    is_normal,
    is_real_symmetric,
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
    symmetric_eigen_decompose,
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


def total_variation(lap, f) -> float:
    """TV(f) = sum of |(L f)_i|: the 1-norm of the signal's local differences.

    Zero exactly on constants; for a unit proper eigenvector at lambda it
    equals |lambda| times the eigenvector's 1-norm.
    """
    lap = as_laplacian(lap)
    return float(np.sum(np.abs(_dot(lap.matrix, signal_values(f, lap.n)))))


def quadratic_form(lap, f) -> float:
    """Quadratic (2-Dirichlet) smoothness: half the squared 2-norm of L f."""
    lap = as_laplacian(lap)
    diff = _dot(lap.matrix, signal_values(f, lap.n))
    return 0.5 * float(np.real(np.vdot(diff, diff)))


@dataclass(frozen=True)
class FrequencyOrdering:
    """Permutation of spectral indices from lowest to highest frequency.

    ``order[k]`` is the spectral index holding frequency rank ``k``;
    ``ranks`` is the inverse permutation. ``tie_groups`` lists the groups
    of two or more indices whose magnitudes coincide within tolerance
    (conjugate pairs, for one), already in their deterministic resolved
    order: real part ascending, then imaginary part ascending, so the
    negative-imaginary half of a pair comes first.
    """

    order: tuple[int, ...]
    ranks: tuple[int, ...]
    tie_groups: tuple[tuple[int, ...], ...]


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
    return FrequencyOrdering(
        order=tuple(order),
        ranks=tuple(np.argsort(order).tolist()),  # the inverse permutation
        tie_groups=tuple(tie_groups),
    )


@dataclass(frozen=True)
class Spectrum:
    """A signal's expansion in the graph Fourier basis.

    Entry r pairs ``eigenvalues[r]`` with coefficient ``coefficients[r]``;
    ``ordering`` ranks the entries by frequency, derived from the
    eigenvalues (:func:`order_frequencies`). Rows are in spectral (basis
    column) order, not rank order. Both arrays follow the dtype rule
    (:func:`dgft.graph.real_or_complex`).
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    ordering: FrequencyOrdering = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        w = real_or_complex(self.eigenvalues, copy=True).ravel()
        c = real_or_complex(self.coefficients, copy=True).ravel()
        if w.shape != c.shape:
            raise InvalidValueError("eigenvalues and coefficients must have equal length")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "coefficients", c)
        w.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "ordering", order_frequencies(w))
        object.__setattr__(self, "n", int(w.size))


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
    """Spectral decomposition of a graph's Laplacian, picking the right path.

    The routing, each test run at most once: a real symmetric Laplacian
    (undirected graphs, :func:`is_real_symmetric`), then a normal one
    (:func:`is_normal`; the directed cycle, circulants), goes through the
    unitary solver :func:`symmetric_eigen_decompose`; everything else
    gets the Jordan treatment. A symmetric Laplacian pays no normality
    test, and a non-normal one is usually rejected by its O(n^2) probe.
    Both paths take the same tolerances, apply the same deterministic
    basis convention (unit scale, pivot phase, constant eigenvector
    snapped to ones over root n) and return the same SpectralDecomposition
    shape, so callers never branch. ``cluster_tol`` merges eigenvalues on
    either path. Either path refuses, with :class:`ReconstructionError`, a
    basis whose residual ``||V J V^-1 - L||_F`` exceeds
    ``recon_tol * max(1, ||L||_F)``.
    """
    m = as_laplacian(source).matrix
    solve = symmetric_eigen_decompose if is_real_symmetric(m) or is_normal(m) else jordan_decompose
    return solve(m, tol=tol, cluster_tol=cluster_tol, recon_tol=recon_tol)
