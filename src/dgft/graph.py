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

from collections.abc import Iterable
from numbers import Integral, Number

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
    if a.dtype.kind == "c" and a.imag.any():
        dtype = complex
    else:
        a, dtype = a.real, float
    return np.array(a, dtype=dtype, order="C") if copy else np.asarray(a, dtype=dtype, order="C")


def _as_square(matrix, *, copy: bool = False) -> np.ndarray:
    """:func:`real_or_complex`, refusing anything but a finite square matrix
    with at least one row: the one check of every matrix from outside."""
    a = real_or_complex(matrix, copy=copy)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        raise GraphSizeError("a matrix needs at least one row, got shape (0, 0)")
    if not (finite := np.isfinite(a)).all():
        row, col = np.argwhere(~finite)[0]
        raise InvalidValueError(f"non-finite entry {a[row, col]} at row {row}, column {col}")
    return a


def _ldexp(x: np.ndarray, e) -> np.ndarray:
    """``x * 2^e``, real or complex: exact within float64's normal range."""
    if x.dtype.kind != "c":
        return np.ldexp(x, e)
    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, e), np.ldexp(x.imag, e)
    return out


def _unit_scale(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(2^-e m, e)`` for a matrix or each matrix of a stack, exactly
    (:func:`_ldexp`): ``e`` is even, as ``eig``'s bits follow ``4^k m`` but
    not ``2 m``, and brings the largest real or imaginary part into [1/4, 1)
    (0 for a zero matrix). Read off the parts, not a norm, it overflows at
    no scale."""
    part = np.ascontiguousarray(m).view(float) if m.dtype.kind == "c" else m  # re, im side by side
    big = np.maximum(part.max(axis=(-2, -1), initial=0.0), -part.min(axis=(-2, -1), initial=0.0))
    e = np.frexp(big)[1]  # from the extremes of each part: no |m| is allocated
    e += e & 1
    return _ldexp(m, -e[..., None, None]), e


def is_normal(m: np.ndarray) -> np.ndarray:
    """``m mᴴ = mᴴ m`` for each matrix of a stack ``m`` (shape (..., k, k)):
    the commutator within NORMALITY_TOL * ||m||_F^2 (Frobenius), one
    verdict per matrix.

    The one test for "normal": it sends a component that is not exactly
    Hermitian down the unitary route of :func:`dgft.linalg.jordan_decompose`.
    A fixed probe vector ``x`` through ``m (mᴴ x) - mᴴ (m x)`` rejects most
    matrices in O(k^2), since ``||C x|| <= ||C||_F ||x||``; only a stack
    with a matrix that passes the probe pays the O(k^3) commutator.

    Both sides scale with ``|m|^2``, so each matrix is first brought to
    unit scale on its own (:func:`_unit_scale`). That is exact, so verdicts
    on ``2^k m`` and ``m`` agree: no large weight overflows, no small
    commutator underflows into "normal".
    """
    m = _unit_scale(m)[0]
    ms = m.conj().swapaxes(-1, -2)
    bound = NORMALITY_TOL * np.linalg.norm(m, axis=(-2, -1)) ** 2
    x = np.cos(np.arange(m.shape[-1]))[:, None]  # fixed and generic: no structure to align with
    probe = np.linalg.norm(m @ (ms @ x) - ms @ (m @ x), axis=(-2, -1)) <= bound * np.linalg.norm(x)
    if not probe.any():
        return probe
    return probe & (np.linalg.norm(m @ ms - ms @ m, axis=(-2, -1)) <= bound)


class _Record:
    """Base of the package's immutable records: frozen dataclasses without the
    code generation, which cost every process about 8 ms of import (2-vCPU
    Xeon). A subclass's annotated names are its fields, in order; its
    ``__init__`` stores them once through ``self.__dict__``. Equality (within
    one class, array fields by value), the hash and the repr go by the field
    tuple. A subclass inherits its base's fields, as a subclass of a
    dataclass does.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(vars(cls).get("__annotations__", ()))

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in zip(self._astuple(), other._astuple())
        )

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _node_count(n, least: int = 1) -> int:
    """``n`` checked as a node count before anything is allocated: an integer
    (a bool is none), at least ``least``, and small enough that numpy can
    address an n x n complex matrix (:class:`GraphSizeError` otherwise)."""
    if type(n) is bool or not isinstance(n, Integral):
        raise GraphSizeError(f"node count must be an integer, got {n!r}")
    if (n := int(n)) < least:  # a Python int: n * n cannot wrap around
        raise GraphSizeError(f"node count must be >= {least}, got {n}")
    if n * n * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise GraphSizeError(f"node count {n} is too large for an n x n matrix")
    return n


class Graph(_Record):
    """Weighted directed graph over ``n`` nodes, one per row of ``weights``.

    ``weights[i, j]`` holds the weight of the edge from node ``j`` to node
    ``i``; the diagonal must be zero and the weights finite. Instances are
    immutable: the weight matrix is copied and made read-only on creation.
    """

    weights: np.ndarray
    n: int

    def __init__(self, weights):
        w = _as_square(weights, copy=True)
        if np.any(np.diag(w) != 0):
            bad = int(np.flatnonzero(np.diag(w))[0])
            raise SelfLoopError(f"nonzero diagonal entry at node {bad}")
        w.flags.writeable = False
        self.__dict__.update(weights=w, n=len(w))


class GraphSignal(_Record):
    """One (possibly complex) value per node, as a length-``n`` vector."""

    values: np.ndarray
    n: int

    def __init__(self, values):
        v = real_or_complex(values, copy=True).ravel()
        if v.size == 0:
            raise DimensionMismatchError("a signal needs at least one value")
        v.flags.writeable = False
        self.__dict__.update(values=v, n=int(v.size))


class DirectedLaplacian(_Record):
    """In-degree Laplacian of a directed graph.

    Row sums are zero by construction, which is what makes the constant
    vector an eigenvector at eigenvalue zero.
    """

    matrix: np.ndarray
    n: int

    def __init__(self, matrix):
        m = _as_square(matrix, copy=True)
        # At unit scale no row sum overflows. Row sums are products with ones (BLAS).
        u, ones = _unit_scale(m)[0], np.ones(len(m))
        largest = float(np.max(np.abs(u) @ ones))
        row_sums = np.abs(u @ ones)
        if np.any(row_sums > ROW_SUM_TOL * largest):
            worst = int(np.argmax(row_sums))
            raise InvalidValueError(
                f"row {worst} sums to {row_sums[worst] / largest:.3e} of the largest "
                "absolute row sum; not a valid in-degree Laplacian"
            )
        m.flags.writeable = False
        self.__dict__.update(matrix=m, n=int(m.shape[0]))

    @property
    def is_undirected(self) -> bool:
        """Whether the Laplacian is real and exactly symmetric, in any unit
        of weight.

        Each component of these graphs takes the Hermitian route of
        :func:`dgft.linalg.jordan_decompose`, with a real basis and a real
        spectrum; negative weights count, complex ones do not. Components
        of normal digraphs (:func:`is_normal`) take the unitary route too,
        with a complex basis.
        """
        m = self.matrix
        return not np.iscomplexobj(m) and np.array_equal(m, m.T)


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


def _clean_columns(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> bool:
    """:func:`build_graph`'s checks on whole, nonempty index and weight columns."""
    return (weight.dtype.kind in "biufc" and weight.ndim == 1 and not (src == dst).any()
            and 0 <= min(src.min(), dst.min()) and max(src.max(), dst.max()) < n
            and np.diff(np.sort(dst * n + src)).all())


def build_graph(n: int, edges: Iterable[tuple[int, int, complex]]) -> Graph:
    """Build a graph from ``(src, dst, weight)`` triples with 0-based indices.

    Edges come from outside: each must be a triple of two integer node
    indices in ``[0, n)`` (:class:`NodeIndexError`; a bool is none) and a
    number (:class:`InvalidValueError`, as for a non-triple), and no edge may
    be a self-loop or repeat a (src, dst) pair; neither is folded or summed.
    The checks run on whole columns; a failed one names the first offending edge.
    The n x n matrix comes first: one memory cannot hold is a :class:`GraphSizeError`.
    It is float64 unless a weight has an imaginary part or is another number (a Fraction).
    """
    n = _node_count(n)
    weights = _zeros(n, float)
    edges = list(edges)
    try:
        src, dst, weight = zip(*edges, strict=True) if edges else ((), (), ())
        clean = all(issubclass(t, Integral) and t is not bool for t in {*map(type, src + dst)})
        (src, dst), weight = np.fromiter(src + dst, np.intp).reshape(2, -1), np.asarray(weight)
        clean = clean and _clean_columns(n, src, dst, weight)
    except (TypeError, ValueError, OverflowError):  # no edges, not all triples, past int64
        clean = False
    seen: set[tuple[int, int]] = set()
    for edge in () if clean else edges:  # only a failed check walks the edges
        if not hasattr(edge, "__len__") or len(edge) != 3:
            raise InvalidValueError(f"edge {edge!r} is not a (src, dst, weight) triple")
        s, d, w = edge
        if any(type(i) is bool or not isinstance(i, Integral) or not 0 <= i < n for i in (s, d)):
            raise NodeIndexError(f"edge ({s!r}, {d!r}) needs integer node indices in [0, {n})")
        if not isinstance(w, (Number, np.bool_)):
            raise InvalidValueError(f"edge ({s}, {d}) has weight {w!r}, not a number")
        if s == d:
            raise SelfLoopError(f"self-loop at node {s}")
        if (s, d) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({s}, {d})")
        seen.add((s, d))
    weight = real_or_complex(weight) if weight.dtype.kind == "c" else weight  # every edge passed
    if weight.dtype.kind not in "biuf":  # complex, or other numbers as objects
        weights = _zeros(n, complex)
    weights[dst, src] = weight
    return Graph(weights)


def _zeros(n: int, dtype) -> np.ndarray:
    """An n x n zero matrix; one memory cannot hold is a :class:`GraphSizeError`."""
    try:
        return np.zeros((n, n), dtype=dtype)
    except MemoryError as exc:
        raise GraphSizeError(f"node count {n} is too large for an n x n matrix: {exc}") from None


def in_degree_matrix(g: Graph) -> np.ndarray:
    """Diagonal matrix of in-degrees (row sums of the weight matrix), each finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = g.weights.sum(axis=1)
    if not np.isfinite(d).all():
        raise InvalidValueError(f"in-degree of node {np.argmin(np.isfinite(d))} overflows float64")
    return np.diag(d)


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
    n = _node_count(n, least=2)
    edges = (((k - 1) % n, k, 1.0 + 0.0j) for k in range(n))  # read after the n x n matrix
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
