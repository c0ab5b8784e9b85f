"""Dense linear algebra: eigen and Jordan decompositions, inversion.

The eigenvalue, symmetric-eigenvalue, and inversion kernels delegate to
LAPACK through numpy, which implements the classical pipelines:
Hessenberg reduction plus implicitly shifted QR for the nonsymmetric
case, tridiagonalization for the symmetric case, partial-pivoted LU for
the inverse. The unitary path (:func:`symmetric_eigen_decompose`)
takes every normal matrix, real symmetric or not, through ``eigh`` of its
Hermitian part and needs neither the nonsymmetric ``eig`` nor an inverse
of the full matrix. Arrays follow the dtype rule of
:func:`dgft.graph.real_or_complex`, so the arithmetic stays real wherever
the input is: a real matrix goes through the real nonsymmetric kernel, so
its conjugate eigenvalue pairs come out exactly conjugate; the Jordan
chains of each real eigenvalue cluster of such a matrix are built in real
arithmetic; and a real basis is normalized, inverted and checked in real
arithmetic. So is the complex basis of a real matrix, through its real
pair form: each pair of exactly conjugate columns stands in as its real
and imaginary parts (:func:`_finish`). What LAPACK does not provide, and
what this module adds, is the numerical Jordan machinery: eigenvalue
clustering, rank-revealing null-space chains of generalized eigenvectors,
block assembly, the bidiagonal layout of ``J`` with its products
(:class:`_Bidiagonal`), and one deterministic basis convention, applied
to every basis, so downstream transforms are reproducible run to run.

Every decomposition certifies itself. ``basis_condition`` is the 1-norm
condition ``||V||_1 * ||V^-1||_1``, read off the inverse the
decomposition builds anyway: at least 1, and n for a unitary basis such
as the ring's DFT. ``residual`` is ``||V J V^-1 - A||_F``, evaluated
through the real pair form where there is one, and a
decomposition whose residual exceeds ``recon_tol * ||A||_F`` is refused
with :class:`ReconstructionError` rather than returned.

Jordan structure is discontinuous in the matrix entries, so every
multiplicity decision here is tolerance-driven. The defaults below are
engineering choices, each a fraction of the input's own size, never an
absolute constant, so ``2^k A`` decomposes as ``A`` does. The rank,
clustering and reconstruction tolerances are parameters of both paths
(CLI ``--tol``, ``--tol-cluster`` and ``--tol-recon``); the tie and
ill-conditioning thresholds are fixed module constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EmptyTapsError,
    IllConditionedBasisWarning,
    NoConvergenceError,
    NonSquareError,
    ReconstructionError,
    SingularMatrixError,
)
from .graph import _as_square, real_or_complex

# Rank decisions treat singular values below rank_tol * ||matrix||_F as zero.
DEFAULT_RANK_TOL = 1e-8

# Basis condition number above which results carry an ill-conditioned flag.
ILL_CONDITIONED_LIMIT = 1e12

# Relative reconstruction residual above which a decomposition is refused.
RECON_LIMIT = 1e-6


def _default_cluster_tol(n: int, norm: float) -> float:
    """Absolute distance under which computed eigenvalues are merged, for an
    n x n matrix with ``||A||_F`` equal to ``norm``.

    A fraction of the matrix with no floor, so that rounding-split multiple
    eigenvalues cluster back together without merging distinct ones.
    """
    return 1e-6 * norm / n


def _frobenius(a: np.ndarray, recon_tol: float) -> float:
    """``||A||_F``, the scale of the default cluster tolerance, the zero
    snap and the certificate bound ``recon_tol * ||A||_F``. A bound that
    overflows certifies nothing, and neither does a norm that underflows to
    0 on a nonzero ``A``: :class:`ReconstructionError` before any kernel.
    """
    with np.errstate(over="ignore"):  # an overflowed norm is refused just below
        norm = float(np.linalg.norm(a))
    if not math.isfinite(recon_tol * norm):
        raise ReconstructionError("recon_tol * ||A||_F overflows; nothing can be certified")
    if norm == 0 and a.any():
        raise ReconstructionError("||A||_F underflows; nothing can be certified")
    return norm


@dataclass(frozen=True)
class JordanBlock:
    """One block: ``size`` columns starting at ``start`` share ``eigenvalue``."""

    eigenvalue: complex
    size: int
    start: int


@dataclass(frozen=True)
class SpectralDecomposition:
    """Factorization A = V J V^{-1} with per-block structure metadata.

    ``v`` holds the basis columns (chain heads are proper eigenvectors,
    listed first within each block) and ``j`` is block diagonal with unit
    superdiagonals inside blocks. The columns come in frequency order:
    ``order_frequencies(eigenvalues).order`` is ``range(n)``
    (:func:`dgft.spectral.order_frequencies`), so a column's spectral
    index is its frequency rank. ``is_unitary_basis`` marks the unitary
    path of :func:`symmetric_eigen_decompose` (real symmetric and other
    normal matrices), where ``v_inv`` is exactly ``v.conj().T``.

    ``residual`` is the absolute reconstruction residual
    ``||V J V^-1 - A||_F`` the decomposition was certified with. The
    eigenvalues, the blocks and both verdicts are read off ``j`` and
    ``basis_condition`` rather than stored, ``blocks`` once, on first access.

    The dtype rule (:func:`dgft.graph.real_or_complex`), which the
    package applies to every array it takes in and to the basis it
    builds: an array is complex128 exactly when an entry has a nonzero
    imaginary part, and float64 otherwise. So ``j`` is real exactly when
    every eigenvalue is real, ``v`` is real for a real symmetric matrix
    and for a real matrix with a real spectrum, conjugate pairs make both
    complex, and ``v_inv`` has the dtype of ``v``. Transforms and filters
    on a real basis run real BLAS, and a complex signal against a real
    basis runs as one real product over its real and imaginary parts.

    A real ``A``'s complex basis is inverted and certified in its real
    pair form (:func:`_finish`): ``V = W T`` with a real ``W`` and an
    exact ``T``, ``residual`` is evaluated as ``(W B) Z - A`` with
    ``B = T J T^-1`` and ``Z = W^-1``, and ``v_inv = T^-1 Z`` is
    assembled exactly, so each pair's two rows are exact conjugates.
    """

    v: np.ndarray
    j: np.ndarray
    v_inv: np.ndarray
    is_unitary_basis: bool
    basis_condition: float
    cluster_tol: float
    residual: float
    n: int = field(init=False)

    def __post_init__(self):
        n = self.v.shape[0]
        for name in ("v", "j", "v_inv"):
            m = getattr(self, name)
            if m.shape != (n, n):
                raise NonSquareError(f"{name} has shape {m.shape}, expected ({n}, {n})")
            m.flags.writeable = False
        object.__setattr__(self, "n", n)

    @cached_property
    def blocks(self) -> tuple[JordanBlock, ...]:
        """The Jordan blocks in column order, each from a proper column up to the next."""
        starts = self.proper_indices
        ends = starts[1:] + (self.n,)
        return tuple(JordanBlock(complex(self.j[s, s]), e - s, s) for s, e in zip(starts, ends))

    @property
    def eigenvalues(self) -> np.ndarray:
        """The diagonal of ``j``, one entry per basis column (read-only).

        A copy, so a caller keeping the eigenvalues does not keep ``j``.
        """
        w = self.j.diagonal().copy()
        w.flags.writeable = False
        return w

    @property
    def is_diagonalizable(self) -> bool:
        """Every Jordan block is 1x1: no column of ``j`` continues a chain."""
        return _Bidiagonal(self.j).inner.size == 0

    @property
    def ill_conditioned(self) -> bool:
        """The basis condition exceeds :data:`ILL_CONDITIONED_LIMIT`."""
        return self.basis_condition > ILL_CONDITIONED_LIMIT

    @property
    def proper_indices(self) -> tuple[int, ...]:
        """Columns of ``v`` that are proper eigenvectors: each continues no chain."""
        return tuple(np.delete(np.arange(self.n), _Bidiagonal(self.j).inner).tolist())

    def reconstruct(self) -> np.ndarray:
        """Recompute ``(V J) V^{-1}``, the product the decomposition was
        certified with (``V J`` by :class:`_Bidiagonal`); compare it against
        the input to bound the error."""
        return (self.v @ _Bidiagonal(self.j)) @ self.v_inv


def cluster_eigenvalues(values, tol: float, labels=None) -> list[list[int]]:
    """Group indices of eigenvalues whose pairwise distance chains below tol.

    Single-linkage: two values land in one cluster when connected through
    intermediate values each within ``tol`` of the next. Members are listed
    in ascending index order and clusters by their smallest member. Given
    ``labels``, one per value, only values with equal labels link.

    Sort and sweep: after a sort by real part, each value is compared only
    with the values after it whose real part lies within ``2 * tol``, so
    the work follows the number of near pairs rather than n^2. The near
    pairs are index arrays, joined into clusters by
    :func:`_component_minima` without a Python loop per pair.
    """
    w = np.asarray(values, dtype=complex).ravel()
    order = np.argsort(w.real, kind="stable")
    ws = w[order]
    # A pair within tol differs by at most tol in real part; doubling the
    # window keeps that true through rounding, and the distance test decides.
    ends = np.searchsorted(ws.real, ws.real + 2.0 * tol, side="right")
    # Every sorted position s against each t in (s, ends[s]), as flat arrays.
    counts = np.maximum(ends - np.arange(1, w.size + 1), 0)
    s = np.repeat(np.arange(w.size), counts)
    t = s + 1 + np.arange(s.size) - np.repeat(np.cumsum(counts) - counts, counts)
    near = np.abs(ws[t] - ws[s]) <= tol
    if labels is not None:
        near &= np.take(labels, order[s]) == np.take(labels, order[t])
    roots = _component_minima(w.size, order[s[near]], order[t[near]])
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(roots.tolist()):
        groups.setdefault(root, []).append(i)
    return list(groups.values())


def _component_minima(n: int, i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Smallest member of each node's connected component, edges ``i[e]--k[e]``.

    Min-label propagation: every round lowers the two roots (labels) of
    each edge's endpoints to the smaller of them, then pointer jumping
    flattens the labels until each node points at a root. A round that
    changes nothing leaves every edge inside one label, and that label is
    the component's smallest member, the one node no label can go below.
    """
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[i], labels[k])
        hooked = labels.copy()
        np.minimum.at(hooked, np.concatenate([labels[i], labels[k]]), np.tile(low, 2))
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _converged(kernel, *args, **kwargs):
    """Call an iterative LAPACK kernel; its convergence failure is typed."""
    try:
        return kernel(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"{kernel.__name__} did not converge: {exc}") from exc


def _nullspace_basis(m: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space (SVD, threshold cutoff)."""
    _, s, vh = _converged(np.linalg.svd, m)
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].conj().T


# Relative slack when deciding two magnitudes are the same frequency.
DEFAULT_TIE_TOL = 1e-10


def order_with_ties(
    values, tie_tol: float = DEFAULT_TIE_TOL
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Permutation ordering complex values by magnitude, ties resolved.

    Indices whose magnitudes chain together within ``tie_tol * mag``
    (the larger magnitude of each consecutive pair) form one tie group;
    inside it, ranking goes by real part (again chained, with the slack
    of the group's largest magnitude, since a computed conjugate pair can
    disagree in its last digit there too) and then by imaginary part, so
    the negative-imaginary member of a pair always lists first. Exact
    repeats keep their input order (every sort here is stable), which
    keeps Jordan chains contiguous. Returns (order, tie groups of size
    >= 2).

    Each chaining compares a value only with its predecessor in sorted
    order, so the groups are runs split at consecutive differences.
    """
    w = np.asarray(values, dtype=complex).ravel()
    if w.size == 0:
        return [], []
    mag = np.abs(w)
    order = np.argsort(mag, kind="stable")
    m = mag[order]
    group = np.cumsum(np.r_[True, ~(np.abs(np.diff(m)) <= tie_tol * m[1:])]) - 1
    ends = np.flatnonzero(np.r_[group[1:] != group[:-1], True])
    slack = tie_tol * m[ends]  # magnitudes ascend, so the last is the largest
    # Within each group, by real part; runs of chained real parts, by imaginary part.
    order = order[np.lexsort((w.real[order], group))]
    split = (np.diff(group) != 0) | ~(np.abs(np.diff(w.real[order])) <= slack[group[1:]])
    order = order[np.lexsort((w.imag[order], np.cumsum(np.r_[True, split])))]
    starts = np.r_[0, ends[:-1] + 1].tolist()
    groups = [tuple(order[s : e + 1].tolist()) for s, e in zip(starts, ends.tolist()) if e > s]
    return order.tolist(), groups


def _normalize_chains(v: np.ndarray, heads: np.ndarray) -> None:
    """Scale and phase every Jordan chain of ``v`` in place via its head.

    ``heads`` marks each chain's first column. One scalar applies to a
    whole chain so the unit superdiagonal of its block survives: the head
    (the proper eigenvector) gets unit norm with its largest-magnitude
    entry rotated real positive (first such entry on ties), and the tail
    inherits the same factor.

    A real ``v`` stays real. Its factors are still formed by complex
    division, whose rounding differs from real division, so a real basis
    gets the bits a complex one with the same values would.
    """
    head = v[:, heads]
    norms = np.linalg.norm(head, axis=0)
    pivots = head[np.argmax(np.abs(head), axis=0), np.arange(head.shape[1])]
    factors = np.ones(head.shape[1], dtype=complex)
    live = norms > 0  # a zero head (a singular basis) leaves its chain as it is
    factors[live] = np.conj(pivots[live], dtype=complex) / (np.abs(pivots[live]) * norms[live])
    v *= (factors if np.iscomplexobj(v) else factors.real)[np.cumsum(heads) - 1]


def _orthogonal_residual(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Project out span(q) (orthonormal columns); repeated for stability."""
    r = x - q @ (q.conj().T @ x)
    return r - q @ (q.conj().T @ r)


def _jordan_chains(
    a: np.ndarray, lam: complex, multiplicity: int, rank_tol: float
) -> list[list[np.ndarray]]:
    """Generalized-eigenvector chains for one clustered eigenvalue.

    Null spaces of increasing powers of ``a - lam*I`` give the nullity
    sequence; its increments fix how many chains exist of each length
    (chains of length >= s each occupy one dimension of the step from
    power s-1 to power s). Chain tops are picked from the deepest null
    space, orthogonal to everything already claimed, then walked down by
    repeated multiplication, ranks cut at ``rank_tol`` times each power's
    own Frobenius norm. Returned longest chain first, heads first within
    each chain. Returns fewer than ``multiplicity`` vectors, or none, when
    the cluster was a numerical artifact; the caller backfills.

    The arithmetic follows the arguments: a real ``a`` with a real ``lam``
    keeps the powers, null spaces and chains real. At each chain level the
    null-space basis is projected off the obstruction once, and one thin
    SVD of what remains gives the level's tops all at once: its leading
    ``chain_counts[s]`` left singular vectors, orthonormal and orthogonal
    to the obstruction. A ``chain_counts[s]``-th singular value at or below
    1e-10 is a shortfall. A chain's level vector joins the obstruction when
    its residual exceeds 1e-12 of its norm. The tops walk down as one block
    product per level.
    """
    n = a.shape[0]
    shifted = a - lam * np.eye(n)
    nullities = [0]
    bases = [np.zeros((n, 0), dtype=shifted.dtype)]
    power = np.eye(n, dtype=shifted.dtype)
    while nullities[-1] < multiplicity and len(nullities) <= multiplicity:
        power = power @ shifted
        basis = _nullspace_basis(power, rank_tol * float(np.linalg.norm(power)))
        if basis.shape[1] <= nullities[-1]:
            break
        nullities.append(basis.shape[1])
        bases.append(basis)
    depth = len(nullities) - 1
    padded = nullities + [nullities[-1]]
    chain_counts = {
        s: 2 * padded[s] - padded[s - 1] - padded[s + 1] for s in range(1, depth + 1)
    }
    # A nullity past the multiplicity, or nullity increments that grow
    # with the power, fit no Jordan structure: the cluster is an artifact.
    if depth == 0 or nullities[-1] > multiplicity or min(chain_counts.values()) < 0:
        return []

    chains: list[list[np.ndarray]] = []
    for s in range(depth, 0, -1):
        count = chain_counts[s]
        if count == 0:
            continue
        # Everything a new length-s chain top must stay independent of:
        # the null space one power down, plus the level-s vector of every
        # chain already constructed.
        obstruction = bases[s - 1]
        for chain in chains:
            level_vec = chain[s - 1]  # chain[k] is the level-(k+1) vector
            r = _orthogonal_residual(level_vec, obstruction)
            r_norm = float(np.linalg.norm(r))
            if r_norm > 1e-12 * float(np.linalg.norm(level_vec)):
                obstruction = np.column_stack([obstruction, r / r_norm])
        residuals = _orthogonal_residual(bases[s], obstruction)
        tops, sigma, _ = _converged(np.linalg.svd, residuals, full_matrices=False)
        if sigma[count - 1] <= 1e-10:
            return chains  # numerical shortfall; caller backfills
        levels = [tops[:, :count]]  # levels[k] holds the level-(s-k) vectors
        for _ in range(s - 1):
            levels.append(shifted @ levels[-1])
        chains += [[level[:, i] for level in reversed(levels)] for i in range(count)]
    return chains


class _Bidiagonal:
    """The layout of ``J`` and its products, O(n) per row or column.

    ``J`` (:class:`SpectralDecomposition`) holds the eigenvalues on its
    diagonal and a one above each chain-tail column, that is each column
    that continues a Jordan chain, and zeros elsewhere. ``J @ x`` scales
    each row of ``x`` by its eigenvalue and adds each chain-tail row to
    the row above it; ``x @ J`` scales each column and adds, to each
    chain-tail column, the column before it. ``x`` is a vector or a block
    (n rows for ``J @ x``, n columns for ``x @ J``), and 1x1 blocks cost
    no superdiagonal work.
    """

    __array_ufunc__ = None  # ``ndarray @ self`` defers to __rmatmul__

    @staticmethod
    def dense(eigenvalues: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """The n x n ``J`` of ``eigenvalues`` with a chain tail at each column
        ``heads`` leaves unmarked, real exactly when every eigenvalue is."""
        j = np.diag(real_or_complex(eigenvalues))
        inner = np.flatnonzero(~heads)
        j[inner - 1, inner] = 1.0
        return j

    def __init__(self, j: np.ndarray):
        self.diagonal = j.diagonal()
        self.inner = np.flatnonzero(j.diagonal(1)) + 1  # the chain-tail columns

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.diagonal.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        y[self.inner - 1] += x[self.inner]
        return y

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        y = x * self.diagonal
        y[..., self.inner] += x[..., self.inner - 1]
        return y


def _finish(
    a: np.ndarray,
    stacks: list[np.ndarray],
    columns: list[np.ndarray],
    eigenvalues: np.ndarray,
    chains: np.ndarray,
    *,
    norm: float,
    tol: float,
    cluster_tol: float,
    unitary: bool,
    recon_tol: float,
) -> SpectralDecomposition:
    """The one tail of both decomposition paths: column order, basis
    convention, J, inverse and the certificate, on whole arrays.

    ``stacks`` holds the rows of each stack of equal-size components as an
    (m, k) array, ascending within a component; a connected ``A``, and the
    unitary path, give one stack of all n rows. A component is named by
    its smallest row. ``columns`` holds each stack's (m, k, k) vectors,
    ``columns[s][i][:, t]`` the t-th column of component i in its rows.
    Numbered stack by stack, component by component, each column has an
    entry in the complex ``eigenvalues`` and in ``chains``, which numbers
    the chains 0, 1, ... in the order ties keep; a chain's columns come
    head first and share one eigenvalue. ``norm`` is ``||A||_F``. In order:

    1. When a component has exactly one 1x1 block at zero and each of its
       rows of ``A`` sums to zero, both within ``tol * norm`` (every graph
       Laplacian), that block's eigenvalue becomes exactly 0 and its
       vector the component's all-ones vector.
    2. One :func:`order_with_ties` of the eigenvalues, the ones ``J``'s
       diagonal gets, orders the chains; at one value the longest chain
       comes first, then the component with the smallest row (both sorts
       are stable). The ordering is idempotent, so the columns come out
       in frequency order: each column's index is its frequency rank.
    3. Each component's columns, in that order, fill its rows of ``V``,
       which is C-contiguous. Each chain is scaled and phased through its
       head (:func:`_normalize_chains`), which gives a snapped vector its
       exact unit form ``1/sqrt(k)``, and ``J`` is laid out.
    4. Columns ``c`` and ``c + 1`` form a pair when ``A`` is real, the
       basis is not ``unitary``, both are 1x1 blocks, their eigenvalues
       are exact conjugates and ``v[:, c + 1] == conj(v[:, c])`` holds
       exactly. ``W`` is ``V`` with each pair's columns replaced by
       ``Re v_c`` and ``Im v_c`` (:func:`_pair_form`), so ``V = W T``
       exactly, ``T`` holding one block ``[[1, 1], [i, -i]]`` per pair.
       ``W`` follows the dtype rule: it is real once every complex column
       has its partner, and it is ``V`` itself when there are no pairs.
       Each stack of ``W`` is inverted alone by ``np.linalg.inv`` in its
       dtype (:func:`_inverse`) into ``Z``, a ``unitary`` basis by its
       conjugate transpose, and ``V^-1 = T^-1 Z`` is assembled exactly:
       each pair's rows are ``(Z[c] -/+ i Z[c + 1]) / 2``. Each stack's
       residual is ``||(W B) Z - A||_F`` with ``B = T J T^-1``, which is
       ``J`` with each pair's diagonal replaced by ``[[a, b], [-b, a]]``
       for ``lambda_c = a + ib``; ``W B`` is the pair form of ``V J``,
       formed once by :class:`_Bidiagonal`. As ``T`` is exact, this is the
       residual of the returned ``v``, ``j`` and ``v_inv`` in another
       summation order. Their root sum of squares, above ``recon_tol *
       norm``, raises :class:`ReconstructionError`: the basis does not
       reproduce ``A``.

    ``v``, its inverse and ``j`` follow the dtype rule
    (:class:`SpectralDecomposition`). A basis condition
    ``||V||_1 * ||V^-1||_1`` above :data:`ILL_CONDITIONED_LIMIT` raises
    :class:`IllConditionedBasisWarning` and sets the flag on the result;
    defective matrices legitimately live there, so it is not an error.
    """
    n = a.shape[0]
    home = np.empty(n, dtype=int)  # each row's component: its smallest row
    for rows in stacks:
        home[rows] = rows[:, :1]
    component = home[np.concatenate([rows.ravel() for rows in stacks])]  # each column's
    length = np.bincount(chains)[chains]  # each column's chain's

    zero = (length == 1) & (np.abs(eigenvalues) <= tol * norm)
    lone = np.bincount(component[zero], minlength=n) == 1
    loose = np.bincount(home, np.abs(a.sum(axis=1)) > tol * norm, n)  # rows not summing to 0
    snap = zero & (lone & (loose == 0))[component]
    eigenvalues = np.where(snap, 0, eigenvalues)

    # Every sort is stable and a chain's columns share one eigenvalue, so they stay together.
    order = np.lexsort((chains, component, -length))
    order = order[order_with_ties(eigenvalues[order])[0]]  # V's columns, in order
    heads = np.diff(chains[order], prepend=-1) != 0

    # A component's i-th smallest row and its i-th column share a slot.
    slot, owner = np.empty(n, dtype=int), component[order]
    slot[np.argsort(home, kind="stable")] = np.argsort(owner, kind="stable")
    parts, basis, first = [(rows, slot[rows]) for rows in stacks], [], 0
    for (rows, cols), stack in zip(parts, columns):  # block i of each stack is component i's
        flat = stack.transpose(1, 0, 2).reshape(rows.shape[1], -1)  # column i * k + t
        basis.append((rows, cols, np.take(flat, order[cols] - first, axis=1).transpose(1, 0, 2)))
        first += rows.size
    v = _block_diagonal(n, basis)
    v[:, snap[order]] = home[:, None] == owner[snap[order]]  # each its component's ones vector
    _normalize_chains(v, heads)
    v = real_or_complex(v)  # a complex matrix can still have a real basis
    j = _Bidiagonal.dense(eigenvalues[order], heads)

    # The pairs: 1x1 blocks c, c + 1 of a real A with exactly conjugate values and columns.
    c = np.empty(0, dtype=int)
    if np.isrealobj(a) and np.iscomplexobj(v) and not unitary:
        lam, single = j.diagonal(), heads & np.append(heads[1:], True)
        c = np.flatnonzero(
            single[:-1] & single[1:] & (lam[:-1].imag != 0) & (lam[1:] == lam[:-1].conj())
        )
        c = c[(v[:, c + 1] == v[:, c].conj()).all(axis=0)]
    w, wb = _pair_form(v, c), _pair_form(v @ _Bidiagonal(j), c)  # W and W B
    z = w.conj().T if unitary else _block_diagonal(
        n, [(cols, rows, _inverse(w[_blocks(rows, cols, n)])) for rows, cols in parts]
    )
    v_inv = z
    if c.size:  # V^-1 = T^-1 Z
        v_inv, re, im = z.astype(complex), z[c] / 2, 1j * (z[c + 1] / 2)
        v_inv[c], v_inv[c + 1] = re - im, re + im
    residuals = [wb[_blocks(*part, n)] @ z[_blocks(*part[::-1], n)] for part in parts]
    del w, wb, z  # not held through the norms, which copy each residual's parts
    for r, (rows, _) in zip(residuals, parts):
        r -= a[_blocks(rows, rows, n)]
    residual = math.hypot(*[float(np.linalg.norm(r)) for r in residuals])
    if not residual <= recon_tol * norm:  # a NaN residual is refused too
        raise ReconstructionError(
            f"decomposition residual {residual:.3e} exceeds "
            f"{recon_tol * norm:.3e}; results would be unreliable"
        )
    condition = float(np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1))
    if condition > ILL_CONDITIONED_LIMIT:
        warnings.warn(
            f"Jordan basis condition {condition:.3e} exceeds "
            f"{ILL_CONDITIONED_LIMIT:.0e}; transform results carry that uncertainty",
            IllConditionedBasisWarning,
            stacklevel=3,
        )
    return SpectralDecomposition(
        v=v,
        j=j,
        v_inv=v_inv,
        is_unitary_basis=unitary,
        basis_condition=condition,
        cluster_tol=cluster_tol,
        residual=residual,
    )


# Matrix powers and chains span ||A||^k in scale, so at extreme weights they can
# overflow; the chain then falls short or fails the certificate, with no numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def jordan_decompose(
    a,
    tol: float = DEFAULT_RANK_TOL,
    *,
    cluster_tol: float | None = None,
    recon_tol: float = RECON_LIMIT,
) -> SpectralDecomposition:
    """Numerical Jordan decomposition A = V J V^{-1}, component by component.

    Up to a permutation ``A`` is block diagonal over its weakly connected
    components (its nonzeros as edges), so its Jordan form is the direct
    sum of theirs; components of one size share one stacked ``eig``. A
    component's computed eigenvalues are clustered (single linkage at
    ``cluster_tol``, default :func:`_default_cluster_tol` of the whole
    ``A``, as is the certificate bound), each cluster is
    represented by its mean, and generalized-eigenvector chains are built
    from rank-revealing null spaces of powers of the shifted submatrix.
    Blocks are ordered by their eigenvalue in ``J``, by (magnitude, real,
    imaginary) with ties (:func:`order_with_ties`); at one value the
    longest chain comes first, then the component with the smallest node.
    A cluster that yields too few chains leaves its other columns with
    their own eigenvectors, each ranked by its own eigenvalue.

    The basis follows the one convention of :func:`_finish`, certified
    block by block. A reconstruction residual above ``recon_tol`` relative
    raises :class:`ReconstructionError`; a basis condition above
    :data:`ILL_CONDITIONED_LIMIT` raises :class:`IllConditionedBasisWarning`.
    """
    a = _as_square(a)
    n, norm = len(a), _frobenius(a, recon_tol)
    ct = _default_cluster_tol(n, norm) if cluster_tol is None else float(cluster_tol)
    home = _component_minima(n, *np.nonzero(a))  # each row's component: its smallest row
    size = np.bincount(home)[home]

    # Components of each size k as an (m, k) stack of rows; the columns follow.
    by_size = np.lexsort((home, size))
    stacks = [by_size[size[by_size] == k].reshape(-1, k) for k in sorted(set(size.tolist()))]
    subs = [a[_blocks(rows, rows, n)] for rows in stacks]
    values, columns = zip(*[_converged(np.linalg.eig, sub) for sub in subs])
    w = np.concatenate([x.ravel() for x in values])
    first = np.cumsum([0] + [x.size for x in values])  # each stack's first column

    # Every column its own chain until its cluster says otherwise; chains
    # number by their cluster's first column, then by their head's place.
    lams, chains = w.astype(complex), np.arange(n) * n
    for cluster in [c for c in cluster_eigenvalues(w, ct, home[by_size]) if len(c) > 1]:
        s = int(np.searchsorted(first, cluster[0], side="right")) - 1
        i, t = np.divmod(np.subtract(cluster, first[s]), stacks[s].shape[1])  # one component
        lam = complex(np.mean(w[cluster]))
        mu = lam.real if lam.imag == 0 else lam  # real chains, even in a stack eig made complex
        found = _jordan_chains(subs[s][i[0]], mu, len(cluster), tol)
        # The chains take the cluster's first columns, longest first. A shortfall is a
        # clustering artifact: the rest keep their eigenvectors, each its own block.
        covered = sum(lengths := [len(chain) for chain in found])
        columns[s][i[0]][:, t[:covered]] = np.transpose([x for chain in found for x in chain])
        lengths += [1] * (len(cluster) - covered)
        lams[cluster[:covered]] = lam
        chains[cluster] = cluster[0] * n + np.repeat(np.cumsum(lengths) - lengths, lengths)
    chains = np.unique(chains, return_inverse=True)[1]
    return _finish(
        a, stacks, columns, lams, chains,
        norm=norm, tol=tol, cluster_tol=ct, unitary=False, recon_tol=recon_tol,
    )


def _blocks(rows: np.ndarray, cols: np.ndarray, n: int):
    """Index of the (m, k, k) stack of submatrices ``M[rows[i]][:, cols[i]]``
    of an n x n ``M``. A component of n rows is all of ``M``, its rows and
    columns in order, so its index is basic: ``M[...]`` is a (1, n, n)
    view, not a gather."""
    return None if rows.shape[1] == n else (rows[:, :, None], cols[:, None, :])


def _block_diagonal(n: int, parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """The n x n matrix holding each (rows, cols, stack) of ``parts`` at its
    blocks (:func:`_blocks`), zeros elsewhere. A stack of all n rows is the
    matrix, so it comes back as it is, not copied."""
    if _blocks(*parts[0][:2], n) is None:
        return parts[0][2][0]
    out = np.zeros((n, n), dtype=np.result_type(*[stack for *_, stack in parts]))
    for rows, cols, stack in parts:
        out[_blocks(rows, cols, n)] = stack
    return out


def _pair_form(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``m T^-1`` for the pairs ``c``, ``c + 1`` of :func:`_finish`: each
    pair's columns become the real and imaginary parts of column ``c``,
    which is exact when column ``c + 1`` is its conjugate. The result
    follows the dtype rule; with no pairs it is ``m`` itself."""
    if not c.size:
        return m
    out = m.copy()
    out[:, c + 1] = m[:, c].imag
    out[:, c] = m[:, c].real
    return real_or_complex(out)


def symmetric_eigen_decompose(
    a,
    *,
    tol: float = DEFAULT_RANK_TOL,
    cluster_tol: float | None = None,
    recon_tol: float = RECON_LIMIT,
) -> SpectralDecomposition:
    """Unitary spectral decomposition of a normal matrix, real symmetric
    the common case.

    ``eigh`` decomposes the Hermitian part ``H = (A + Aᴴ)/2``. For a
    Hermitian ``A``, a real symmetric one (every undirected graph) in
    particular, that is ``A`` itself and the eigenvalues come out exactly
    real. Otherwise the skew-Hermitian part ``A - H`` commutes with ``H``
    when ``A`` is normal (:func:`dgft.graph.is_normal`; the directed ring,
    for one), so it acts inside each eigenspace of ``H``: each cluster of
    ``H``'s eigenvalues (single linkage at ``cluster_tol``, default
    :func:`_default_cluster_tol`, as on the Jordan path) is split by a
    small ``eig`` of ``A`` restricted to the cluster's columns,
    orthonormalized by QR. A matrix symmetric only to rounding is split the
    same way, so a repeated eigenvalue of it may part into values with
    imaginary parts of the asymmetry's size.
    The basis is unitary either way and ``v_inv`` is ``v.conj().T``; no
    ``eig`` and no inverse of the full matrix run.

    Every column is a 1x1 block of one component, the whole matrix, and
    passes through the same finisher as :func:`jordan_decompose`
    (:func:`_finish`): ordered by (magnitude, real, imaginary), unit norm
    with the largest-magnitude entry real positive, and a unique constant
    null vector snapped to ``(1/sqrt(n)) * ones``. The residual is
    certified against ``a`` and ``recon_tol`` as on the Jordan path, which
    also refuses a matrix that is not normal: its unitary basis cannot
    reproduce it.
    """
    a = _as_square(a)
    n, norm = len(a), _frobenius(a, recon_tol)
    h = a if np.array_equal(a, a.conj().T) else (a + a.conj().T) / 2.0
    w, v = _converged(np.linalg.eigh, h)
    ct = _default_cluster_tol(n, norm) if cluster_tol is None else float(cluster_tol)
    if h is not a:  # split each cluster of H by A restricted to its columns
        sv = (a - h) @ v
        clusters = cluster_eigenvalues(w, ct)
        values, split = w.astype(complex), v.astype(complex)
        for k in {len(c) for c in clusters}:
            idx = np.array([c for c in clusters if len(c) == k])  # one row per cluster
            q = v[:, idx]  # (n, clusters, k): each cluster's columns
            restricted = np.einsum("nci,ncj->cij", q.conj(), sv[:, idx])
            restricted[:, range(k), range(k)] += w[idx]  # Qᴴ H Q, diagonal by eigh
            values[idx], vectors = _converged(np.linalg.eig, restricted)
            split[:, idx] = np.einsum("nci,cij->ncj", q, np.linalg.qr(vectors)[0])
        w, v = values, split

    return _finish(  # every column its own chain, of the one component
        a, [np.arange(n)[None]], [v[None]], w.astype(complex), np.arange(n),
        norm=norm, tol=tol, cluster_tol=ct, unitary=True, recon_tol=recon_tol,
    )


def _inverse(a: np.ndarray) -> np.ndarray:
    """``np.linalg.inv`` in the dtype of ``a``; an exactly singular ``a``
    (a zero pivot) raises :class:`SingularMatrixError`."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is exactly singular: {exc}") from exc


def _dot(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` without promoting a float64 ``a`` to complex.

    A float64 ``a`` against a complex vector or block ``x`` runs as one
    real product with ``x``'s real and imaginary parts side by side,
    (n, 2k) for k columns, read and written in place as complex128 pairs.
    Any other ``a`` only needs to support ``@``.
    """
    if getattr(a, "dtype", None) != float or not np.iscomplexobj(x):
        return a @ x
    x = np.ascontiguousarray(x, dtype=complex)
    y = a @ x.view(float).reshape(x.shape[0], -1)
    return y.view(complex).reshape(y.shape[0], *x.shape[1:])


def matrix_polynomial_apply(a, taps, vec: np.ndarray) -> np.ndarray:
    """Apply the tap polynomial in ``a`` to a vector without forming it.

    Horner: exactly ``len(taps) - 1`` products with ``a`` (:func:`_dot`),
    which only needs to support ``@``. ``vec`` may also be a block of
    columns; the identity gives the polynomial as a matrix.
    """
    t = real_or_complex(taps).ravel()
    if t.size == 0:
        raise EmptyTapsError("at least one tap is required")
    acc = t[-1] * vec
    for coeff in t[-2::-1]:
        acc = _dot(a, acc) + coeff * vec
    return acc
