"""Weighted directed graphs, degree matrices, and the in-degree Laplacian.

Edge weights may be complex; arrays follow the dtype rule of
:func:`real_or_complex`. The weight matrix convention is
``weights[i, j]`` = weight of the directed edge from node ``j`` to node
``i``, so the in-degree of node ``i`` is the ``i``-th row sum and the
Laplacian is the in-degree diagonal minus the weight matrix. Node indices
are 0-based throughout the API; 1-based labels only exist in the edge-list
file format (see :mod:`dgft.io`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateEdgeError,
    GraphSizeError,
    InvalidValueError,
    NodeIndexError,
    NonSquareError,
    SelfLoopError,
)

# Entrywise tolerance for accepting a matrix as real symmetric.
SYMMETRY_TOL = 1e-12

# Relative commutator size, against ||m||_F^2, for accepting a matrix as normal.
NORMALITY_TOL = 1e-12

# Row sums of a Laplacian must vanish to this fraction of the largest
# absolute row sum.
ROW_SUM_TOL = 1e-10


def real_or_complex(values, *, copy: bool = False) -> np.ndarray:
    """``values`` as a C-contiguous array under the package's one dtype rule
    (:class:`dgft.linalg.SpectralDecomposition`): complex128 exactly when an
    entry has a nonzero imaginary part, float64 otherwise. ``copy`` demands
    a fresh array even when the input already has that dtype and layout.
    """
    a = np.asarray(values)
    if np.iscomplexobj(a) and a.imag.any():
        dtype = complex
    else:
        a, dtype = a.real, float
    return np.array(a, dtype=dtype, order="C") if copy else np.asarray(a, dtype=dtype, order="C")


def _as_square(matrix, *, copy: bool = False) -> np.ndarray:
    """:func:`real_or_complex`, refusing anything but a square matrix."""
    a = real_or_complex(matrix, copy=copy)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_real_symmetric(m: np.ndarray) -> bool:
    """Real and symmetric, entrywise within SYMMETRY_TOL.

    The one test for "symmetric": it sends a matrix down the unitary path
    of :func:`dgft.spectral.decompose`, before any normality test, and
    defines :attr:`Graph.is_undirected`.
    ``m`` follows the dtype rule, so a complex ``m`` has a nonzero
    imaginary entry and is not real.
    """
    return not np.iscomplexobj(m) and float(np.max(np.abs(m - m.T), initial=0.0)) <= SYMMETRY_TOL


def is_normal(m: np.ndarray) -> bool:
    """``m mᴴ = mᴴ m``: the commutator within NORMALITY_TOL * ||m||_F^2 (Frobenius).

    The one test for "normal": it sends a non-symmetric matrix down the
    unitary path of :func:`dgft.spectral.decompose`. A fixed probe vector
    ``x`` through ``m (mᴴ x) - mᴴ (m x)`` rejects most matrices in O(n^2),
    since ``||C x|| <= ||C||_F ||x||``; only a matrix that passes the
    probe pays the O(n^3) commutator.

    Both sides scale with ``|m|^2``, so an ``m`` with an entry of 1 or
    more is first scaled down by the power of two that brings its largest
    entry below 1. That is exact in binary (short of subnormal entries),
    so verdicts keep their bits, and large weights cannot overflow.
    """
    m = m * 2.0 ** -max(0, int(np.frexp(np.max(np.abs(m), initial=0.0))[1]))
    ms = m.conj().T
    bound = NORMALITY_TOL * float(np.linalg.norm(m)) ** 2
    x = np.cos(np.arange(m.shape[0]))  # fixed and generic: no structure to align with
    if float(np.linalg.norm(m @ (ms @ x) - ms @ (m @ x))) > bound * float(np.linalg.norm(x)):
        return False
    return float(np.linalg.norm(m @ ms - ms @ m)) <= bound


@dataclass(frozen=True)
class Graph:
    """Weighted directed graph over ``n`` nodes.

    ``weights[i, j]`` holds the weight of the edge from node ``j`` to node
    ``i``; the diagonal must be zero and the weights finite. Instances are
    immutable: the weight matrix is copied and made read-only on creation.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise GraphSizeError(f"node count must be >= 1, got {self.n}")
        w = _as_square(self.weights, copy=True)
        if w.shape[0] != self.n:
            raise DimensionMismatchError(
                f"weight matrix is {w.shape[0]}x{w.shape[1]} but n={self.n}"
            )
        if np.any(np.diag(w) != 0):
            bad = int(np.flatnonzero(np.diag(w))[0])
            raise SelfLoopError(f"nonzero diagonal entry at node {bad}")
        if not np.isfinite(w).all():
            dst, src = np.argwhere(~np.isfinite(w))[0]
            raise InvalidValueError(f"edge ({src}, {dst}) has non-finite weight {w[dst, src]}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def is_undirected(self) -> bool:
        """Whether the Laplacian is real symmetric (:func:`is_real_symmetric`).

        These graphs take the unitary path of :func:`dgft.spectral.decompose`
        with a real basis and a real spectrum; negative weights count,
        complex ones do not. Normal digraphs (:func:`is_normal`) take that
        path too, with a complex basis.
        """
        return is_real_symmetric(directed_laplacian(self).matrix)


@dataclass(frozen=True)
class GraphSignal:
    """One (possibly complex) value per node, as a length-``n`` vector."""

    values: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        v = real_or_complex(self.values, copy=True).ravel()
        if v.size == 0:
            raise DimensionMismatchError("a signal needs at least one value")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n", int(v.size))


@dataclass(frozen=True)
class DirectedLaplacian:
    """In-degree Laplacian of a directed graph.

    Row sums are zero by construction, which is what makes the constant
    vector an eigenvector at eigenvalue zero.
    """

    matrix: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        m = _as_square(self.matrix, copy=True)
        if not np.isfinite(m).all():
            raise InvalidValueError("a non-finite entry; not a valid in-degree Laplacian matrix")
        row_sums = np.abs(m.sum(axis=1))
        limit = ROW_SUM_TOL * max(float(np.max(np.abs(m).sum(axis=1), initial=0.0)), 0.0)
        if np.any(row_sums > limit):
            worst = int(np.argmax(row_sums))
            raise InvalidValueError(
                f"row {worst} sums to {m.sum(axis=1)[worst]:.3e}; "
                "not a valid in-degree Laplacian"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n", int(m.shape[0]))


def signal_values(f, n: int) -> np.ndarray:
    """Coerce ``f`` (GraphSignal or array-like) to a length-``n`` vector.

    Real or complex by :func:`real_or_complex`.
    """
    if isinstance(f, GraphSignal):
        values = f.values
    else:
        values = real_or_complex(f).ravel()
    if values.size != n:
        raise DimensionMismatchError(f"signal has {values.size} values, graph has {n} nodes")
    return values


def build_graph(n: int, edges: list[tuple[int, int, complex]]) -> Graph:
    """Build a graph from ``(src, dst, weight)`` triples with 0-based indices.

    Self-loops and duplicate (src, dst) pairs are rejected rather than
    silently folded or summed; ingestion bugs should surface loudly.
    """
    if n < 1:
        raise GraphSizeError(f"node count must be >= 1, got {n}")
    weights = np.zeros((n, n), dtype=complex)
    seen: set[tuple[int, int]] = set()
    for src, dst, weight in edges:
        if not (0 <= src < n) or not (0 <= dst < n):
            raise NodeIndexError(f"edge ({src}, {dst}) outside range [0, {n})")
        if src == dst:
            raise SelfLoopError(f"self-loop at node {src}")
        if (src, dst) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({src}, {dst})")
        seen.add((src, dst))
        weights[dst, src] = weight
    return Graph(n=n, weights=weights)


def in_degree_matrix(g: Graph) -> np.ndarray:
    """Diagonal matrix of in-degrees (row sums of the weight matrix)."""
    return np.diag(g.weights.sum(axis=1))


def out_degree_vector(g: Graph) -> np.ndarray:
    """Vector of out-degrees (column sums of the weight matrix)."""
    return g.weights.sum(axis=0)


def directed_laplacian(g: Graph) -> DirectedLaplacian:
    """In-degree Laplacian: in-degree diagonal minus the weight matrix."""
    return DirectedLaplacian(matrix=in_degree_matrix(g) - g.weights)


def ring_graph(n: int) -> Graph:
    """Directed cycle on ``n`` nodes, unit weights, node k fed by node k-1.

    Its shift operator (identity minus Laplacian) is exactly the cyclic
    delay of classical discrete-time signals.
    """
    if n < 2:
        raise GraphSizeError(f"a ring needs at least 2 nodes, got {n}")
    edges = [((k - 1) % n, k, 1.0 + 0.0j) for k in range(n)]
    return build_graph(n, edges)


def demo_graph() -> Graph:
    """Five-node weighted digraph used throughout the docs and tests.

    Integer weights, strongly asymmetric, with one complex-conjugate pair
    in its Laplacian spectrum; small enough to check by hand.
    """
    edges_1based = [
        (5, 1, 3),
        (1, 2, 1),
        (3, 2, 2),
        (4, 3, 3),
        (1, 4, 2),
        (2, 4, 4),
        (5, 4, 1),
        (1, 5, 3),
        (2, 5, 3),
    ]
    edges = [(s - 1, d - 1, complex(w)) for s, d, w in edges_1based]
    return build_graph(5, edges)
