"""Dense linear algebra: eigen and Jordan decompositions, inversion.

The eigenvalue, symmetric-eigenvalue, and inversion kernels delegate to
LAPACK through numpy, which implements the classical pipelines:
Hessenberg reduction plus implicitly shifted QR for the nonsymmetric
case, tridiagonalization for the symmetric case, partial-pivoted LU for
the inverse. :func:`jordan_decompose` is the one pipeline: it routes each
weakly connected component on its own, and the unitary routes take every
normal component, real symmetric or not, through ``eigh`` of its
Hermitian part, with neither the nonsymmetric ``eig`` of the component
nor an inverse. Arrays follow the dtype rule of
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
clustering and reconstruction tolerances are parameters of every route
(CLI ``--tol``, ``--tol-cluster`` and ``--tol-recon``); the tie and
ill-conditioning thresholds are fixed module constants.
"""

from __future__ import annotations

import math
import sys
import warnings
from functools import cached_property

import numpy as np

from .errors import (
    EmptyTapsError,
    IllConditionedBasisWarning,
    InvalidValueError,
    NoConvergenceError,
    NonSquareError,
    ReconstructionError,
    SingularMatrixError,
)
from .graph import _as_square, _ldexp, _Record, _unit_scale, is_normal, real_or_complex

# Rank decisions treat singular values below rank_tol * ||matrix||_F as zero.
DEFAULT_RANK_TOL = 1e-8

# Basis condition number above which results carry an ill-conditioned flag.
ILL_CONDITIONED_LIMIT = 1e12

# Relative reconstruction residual above which a decomposition is refused.
RECON_LIMIT = 1e-6


def _is_tolerance(value) -> bool:
    """A tolerance is a finite number above zero; NaN fails every comparison."""
    return 0 < value < math.inf


def _default_cluster_tol(n: int, norm: float) -> float:
    """Absolute distance under which computed eigenvalues are merged, for an
    n x n matrix with ``||A||_F`` equal to ``norm``.

    A fraction of the matrix with no floor, so that rounding-split multiple
    eigenvalues cluster back together without merging distinct ones.
    """
    return 1e-6 * norm / n


class JordanBlock(_Record):
    """One block: ``size`` columns starting at ``start`` share ``eigenvalue``."""

    eigenvalue: complex
    size: int
    start: int

    def __init__(self, eigenvalue, size, start):
        self.__dict__.update(eigenvalue=eigenvalue, size=size, start=start)


class SpectralDecomposition(_Record):
    """Factorization A = V J V^{-1} with per-block structure metadata.

    ``v`` holds the basis columns (chain heads are proper eigenvectors,
    listed first within each block). ``J`` is kept as ``eigenvalues``, its
    diagonal, and ``proper_indices``, the columns that start a chain; each
    other column continues the chain before it, with a one above it in
    ``J``. The columns come in frequency order: ``order_frequencies(
    eigenvalues).order`` is ``range(n)``, so a column's spectral index is
    its frequency rank. ``is_unitary_basis`` marks a basis whose every
    component took a unitary route of :func:`jordan_decompose` (real
    symmetric and other normal components), where ``v_inv`` is exactly
    ``v.conj().T``; a component on a unitary route has that property in
    its own block either way.

    ``residual`` is the absolute residual ``||V J V^-1 - A||_F`` it was
    certified with. ``basis_condition``, derived, is ``||V||_1 * ||V^-1||_1``.
    The blocks and both verdicts are read off the fields rather than stored,
    ``blocks`` once, on first access; ``_bidiagonal`` keeps ``J``'s layout
    (:class:`_Bidiagonal`).

    The dtype rule (:func:`dgft.graph.real_or_complex`), which the
    package applies to every array it takes in and to the basis it
    builds: an array is complex128 exactly when an entry has a nonzero
    imaginary part, and float64 otherwise. So ``eigenvalues`` and ``J``
    are real exactly when every eigenvalue is, ``v`` is real for a real
    symmetric matrix and for a real matrix with a real spectrum, conjugate
    pairs make both complex, and ``v_inv`` has the dtype of ``v``.
    Transforms and filters on a real basis run real BLAS, and a complex
    signal against a real basis runs as one real product over its real
    and imaginary parts.

    A complex basis is inverted and certified in its real pair form
    (:func:`_finish`), each pair of exactly conjugate columns standing in
    as its real and imaginary parts: ``V = W T`` with an exact ``T``,
    ``residual`` is evaluated as ``(W B) Z - A`` with ``B = T J T^-1`` and
    ``Z = W^-1``, and ``v_inv = T^-1 Z`` is assembled exactly, so each
    pair's two rows are exact conjugates. ``W`` is real once every complex
    column has its partner.
    """

    v: np.ndarray
    eigenvalues: np.ndarray
    proper_indices: tuple[int, ...]
    v_inv: np.ndarray
    is_unitary_basis: bool
    cluster_tol: float
    residual: float
    basis_condition: float
    n: int

    def __init__(self, v, eigenvalues, proper_indices, v_inv, is_unitary_basis, cluster_tol,
                 residual):
        n = v.shape[0]
        for name, m in (("v", v), ("v_inv", v_inv)):
            if m.shape != (n, n):
                raise NonSquareError(f"{name} has shape {m.shape}, expected ({n}, {n})")
            m.flags.writeable = False
        w, heads = real_or_complex(eigenvalues), np.asarray(proper_indices)
        if w.shape != (n,):
            raise InvalidValueError(f"eigenvalues of shape {w.shape} for {n} basis columns")
        if not (heads.ndim == 1 and heads.dtype.kind in "iu" and heads[:1].tolist() == [0]
                and (np.diff(heads) > 0).all() and heads[-1] < n):
            raise InvalidValueError(f"proper indices {proper_indices!r} must rise from 0 below {n}")
        w.flags.writeable = False
        cond = np.abs(v).sum(axis=0).max() * np.abs(v_inv).sum(axis=0).max()
        self.__dict__.update(
            v=v, eigenvalues=w, proper_indices=tuple(heads.tolist()), v_inv=v_inv,
            is_unitary_basis=is_unitary_basis, cluster_tol=cluster_tol, residual=residual,
            basis_condition=float(cond), n=n,
            _bidiagonal=_Bidiagonal(w, heads),  # read by every transform
        )

    @cached_property
    def blocks(self) -> tuple[JordanBlock, ...]:
        """The Jordan blocks in column order, each from a proper column up to the next."""
        starts, w = self.proper_indices, self.eigenvalues
        ends = starts[1:] + (self.n,)
        return tuple(JordanBlock(complex(w[s]), e - s, s) for s, e in zip(starts, ends))

    @property
    def is_diagonalizable(self) -> bool:
        """Every Jordan block is 1x1: every column is proper."""
        return len(self.proper_indices) == self.n

    @property
    def ill_conditioned(self) -> bool:
        """The basis condition exceeds :data:`ILL_CONDITIONED_LIMIT`."""
        return self.basis_condition > ILL_CONDITIONED_LIMIT

    def reconstruct(self) -> np.ndarray:
        """Recompute ``(V J) V^{-1}`` from the fields (``V J`` by
        :class:`_Bidiagonal`); compare it against the input to bound the
        error. A real ``A``'s complex basis was certified block by block in
        its real pair form ``(W B) Z`` (:func:`_finish`): the same product,
        summed in another order."""
        return (self.v @ self._bidiagonal) @ self.v_inv


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

    Min-label hooking: every round hooks the larger root (label) of each
    edge's endpoints onto the smaller, then pointer jumping flattens the
    labels until each node points at a root. Labels only fall, each within
    its node's component, so once every edge lies inside one label, that
    label is the component's smallest member, the one no label goes below.
    """
    labels = np.arange(n)
    while ((low := labels[i]) != (high := labels[k])).any():
        np.minimum.at(labels, np.maximum(low, high), np.minimum(low, high))
        while ((jumped := labels[labels]) != labels).any():
            labels = jumped
    return labels


def _converged(kernel, *args, **kwargs):
    """Call an iterative LAPACK kernel; its convergence failure is typed."""
    try:
        return kernel(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"{kernel.__name__} did not converge: {exc}") from exc


def _nullspace_basis(m: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``m`` (SVD): the
    singular values at or below ``rank_tol * ||m||_F`` count as zero.

    ``||m||_F`` is read off those singular values, as their root sum of
    squares in ``math.hypot``, not summed over ``m`` by BLAS, whose order
    follows the thread count; so the rank does not.
    """
    _, s, vh = _converged(np.linalg.svd, m)
    rank = int(np.count_nonzero(s > rank_tol * math.hypot(*s.tolist())))
    return vh[rank:].conj().T


# Relative slack when deciding two magnitudes are the same frequency.
DEFAULT_TIE_TOL = 1e-10


# A magnitude past float64 is inf; its difference from any other, inf or NaN, is no tie.
@np.errstate(over="ignore", invalid="ignore")
def order_with_ties(values) -> tuple[list[int], list[tuple[int, ...]]]:
    """Permutation ordering complex values by magnitude, ties resolved.

    Indices whose magnitudes chain together within ``DEFAULT_TIE_TOL * mag``
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
    mag = np.abs(w)
    order = np.argsort(mag, kind="stable")
    m = mag[order]
    tie = (np.abs(d := np.diff(m)) <= DEFAULT_TIE_TOL * m[1:]) & np.isfinite(d)
    if not tie.any():  # no tie: the magnitude sort is the whole answer
        return order.tolist(), []
    group = np.cumsum(np.append(True, ~tie)) - 1
    ends = np.flatnonzero(np.append(group[1:] != group[:-1], True))
    slack = DEFAULT_TIE_TOL * m[ends]  # magnitudes ascend, so the last is the largest
    # Within each group, by real part; runs of chained real parts, by imaginary part.
    order = order[np.lexsort((w.real[order], group))]
    split = (np.diff(group) != 0) | ~(np.abs(np.diff(w.real[order])) <= slack[group[1:]])
    order = order[np.lexsort((w.imag[order], np.cumsum(np.append(True, split))))].tolist()
    starts = np.append(0, ends[:-1] + 1).tolist()
    return order, [tuple(order[s : e + 1]) for s, e in zip(starts, ends.tolist()) if e > s]


def _normalize_chains(v: np.ndarray, heads: np.ndarray) -> None:
    """Scale and phase every Jordan chain of ``v`` in place via its head.

    ``heads`` marks each chain's first column. One scalar applies to a
    whole chain so the unit superdiagonal of its block survives: the head
    (the proper eigenvector) gets unit norm with its largest-magnitude
    entry rotated real positive (first such entry on ties), and the tail
    inherits the same factor.

    ``v`` is read in place when every column heads a chain, and a norm's
    last bits may follow its layout. A real ``v`` stays real. Its factors
    are still formed by complex division, whose rounding differs from real
    division, so a real basis gets the bits a complex one would.
    """
    head = v if heads.all() else v[:, heads]
    mag = np.abs(head)
    norms, pivots = np.sqrt(np.einsum("ij,ij->j", mag, mag)), np.argmax(mag, axis=0)
    pivots = head[pivots, np.arange(head.shape[1])]
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
    own Frobenius norm (:func:`_nullspace_basis`). Returned longest chain
    first, heads first within each chain. A cluster gets all its chains or
    none: where the nullities stop short of ``multiplicity`` or pass it,
    fit no Jordan structure, or a level falls short, the cluster was a
    numerical artifact, and none is returned, so each of its columns keeps
    its own eigenvector and eigenvalue.

    The arithmetic follows the arguments: a real ``a`` with a real ``lam``
    keeps the powers, null spaces and chains real. At each chain level s
    the obstruction is one orthonormal basis: the null space one power
    down, or, below a chain already built, one QR of that null space and
    each built chain's level-s vector. The null-space basis is projected
    off it once, and one thin SVD of what remains gives the level's tops
    all at once: its leading ``counts[s - 1]`` left singular vectors,
    orthonormal and orthogonal to the obstruction. A ``counts[s - 1]``-th
    singular value at or below 1e-10 is a shortfall. The tops walk down as
    one block product per level.
    """
    n = a.shape[0]
    shifted = a - lam * np.eye(n)
    nullities = [0]
    bases = [np.zeros((n, 0), dtype=shifted.dtype)]
    power = np.eye(n, dtype=shifted.dtype)
    while nullities[-1] < multiplicity:  # at most multiplicity powers: each raises the nullity
        power = power @ shifted
        basis = _nullspace_basis(power, rank_tol)
        if basis.shape[1] <= nullities[-1]:
            break
        nullities.append(basis.shape[1])
        bases.append(basis)
    # counts[s - 1] chains of length s: the padded nullities' second differences.
    padded = nullities + [nullities[-1]]
    counts = [2 * mid - lo - hi for lo, mid, hi in zip(padded, padded[1:], padded[2:])]
    # Nullities that stop short of the multiplicity or pass it, or whose
    # increments grow with the power, fit no Jordan structure of the whole
    # cluster: the cluster is an artifact.
    if not counts or nullities[-1] != multiplicity or min(counts) < 0:
        return []

    chains: list[list[np.ndarray]] = []
    for s in range(len(counts), 0, -1):
        count = counts[s - 1]
        if count == 0:
            continue
        # Everything a new length-s chain top must stay independent of:
        # the null space one power down, plus the level-s vector of every
        # chain already constructed (chain[k] is its level-(k+1) vector).
        # The null space alone is orthonormal already, so the first level
        # with chains skips the QR, which every cluster would pay for
        # nothing (about 2 ms per 200-node chain union).
        obstruction = bases[s - 1]
        if chains:
            obstruction = np.linalg.qr(
                np.column_stack([obstruction] + [chain[s - 1] for chain in chains]))[0]
        residuals = _orthogonal_residual(bases[s], obstruction)
        tops, sigma, _ = _converged(np.linalg.svd, residuals, full_matrices=False)
        if sigma[count - 1] <= 1e-10:
            return []  # a numerical shortfall: all the chains or none
        levels = [tops[:, :count]]  # levels[k] holds the level-(s-k) vectors
        for _ in range(s - 1):
            levels.append(shifted @ levels[-1])
        chains += [[level[:, i] for level in reversed(levels)] for i in range(count)]
    return chains


class _Bidiagonal:
    """The layout of ``J`` and its products, O(n) per row or column.

    ``J`` (:class:`SpectralDecomposition`), never formed, holds
    ``eigenvalues`` on its diagonal, a one above each chain-tail column
    (each column not in ``proper_indices``) and zeros elsewhere. ``J @ x``
    scales each row of ``x`` by its eigenvalue and adds each chain-tail
    row to the row above it; ``x @ J`` scales each column and adds, to
    each chain-tail column, the column before it. ``x`` is a vector or a
    block (n rows for ``J @ x``, n columns for ``x @ J``), and a ``J`` with
    no chain tail (every block 1x1) costs no superdiagonal work at all.
    """

    __array_ufunc__ = None  # ``ndarray @ self`` defers to __rmatmul__

    def __init__(self, eigenvalues: np.ndarray, proper_indices: np.ndarray):
        self.diagonal = eigenvalues
        self.inner = np.delete(np.arange(eigenvalues.size), proper_indices)  # the chain tails

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.diagonal.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        if self.inner.size:
            y[self.inner - 1] += x[self.inner]
        return y

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        y = x * self.diagonal
        y[..., self.inner] += x[..., self.inner - 1]
        return y


def _finish(
    a: np.ndarray,
    home: np.ndarray,
    stacks: list[tuple],
    *,
    norm: float,
    tol: float,
    cluster_tol: float,
    recon_tol: float,
    scale: int,
) -> SpectralDecomposition:
    """The one tail of every route of :func:`jordan_decompose`: column
    order, basis convention, J, inverse and the certificate, on whole arrays.

    ``stacks`` holds one record ``(rows, columns, eigenvalues, chains,
    unitary)`` per stack of m equal-size components, k rows each, in the
    order their columns are numbered. ``rows`` is an (m, k) array,
    ascending within a component; a connected ``A`` gives one stack of all
    n rows. ``columns`` holds the (m, k, k) vectors, ``columns[i][:, t]``
    the t-th column of component i in its rows, and ``unitary`` says
    whether they form a unitary basis. Numbered stack by stack, component
    by component, each column has an entry in the complex ``eigenvalues``
    and in ``chains``, which names its chain by the chain head's column; a
    chain's columns come head first and share one eigenvalue. ``home``
    names each row's component by its smallest row. ``a`` is the input ``A`` times
    ``2^-scale`` and ``norm`` its ``||.||_F``; steps 1 to 4 run at that
    scale. In order:

    1. When a component has exactly one 1x1 block at zero and each of its
       rows of ``A`` sums to zero, both within ``tol * norm`` (every graph
       Laplacian), that block's eigenvalue becomes exactly 0 and its
       vector the component's all-ones vector.
    2. One :func:`order_with_ties` of the eigenvalues, the ones ``J``'s
       diagonal gets, orders the chains; at one value the longest chain
       comes first, then the component with the smallest row, then the
       chain whose head has the smallest column (both sorts are stable).
       The ordering is idempotent, so the columns come out in frequency
       order: each column's index is its frequency rank.
    3. Each component's columns, in that order, fill its rows of ``V``,
       which is C-contiguous. Each chain is scaled and phased through its
       head (:func:`_normalize_chains`), which gives a snapped vector its
       exact unit form ``1/sqrt(k)``. ``J`` is kept as eigenvalues and heads.
    4. Columns ``c`` and ``c + 1`` form a pair when neither is in a
       ``unitary`` stack, both are 1x1 blocks, their eigenvalues are exact
       conjugates and ``v[:, c + 1] == conj(v[:, c])`` holds exactly, as a
       real ``A``'s ``eig`` gives them. ``W`` is built once from ``V``:
       ``Re V``, each pair's second column ``Im v_c``, so ``V = W T``
       exactly, ``T`` holding one block ``[[1, 1], [i, -i]]`` per pair.
       ``W`` is real once every complex column has its partner, and ``V``
       when there are no pairs.
       Each stack of ``W`` is inverted alone into ``Z``: a ``unitary`` one
       by its conjugate transpose, any other by ``np.linalg.inv`` in its
       dtype (:func:`_inverse`). ``V^-1 = T^-1 Z`` is written exactly into
       one complex copy of ``Z``: each pair's rows are ``(Z[c] -/+ i Z[c +
       1]) / 2``. Each stack's residual is ``||(W B) Z - A||_F`` with ``B =
       T J T^-1``, ``J`` with each pair's diagonal replaced by ``[[a, b],
       [-b, a]]`` for ``lambda_c = a + ib``. ``W B`` is formed from ``W``
       in ``W``'s arithmetic: each column times its diagonal entry of
       ``B``, each chain tail plus the column before it
       (:class:`_Bidiagonal`), a pair's columns ``x a - y b`` and ``x b +
       y a`` for ``x = Re v_c`` and ``y = Im v_c``. As ``T`` is exact,
       this is the residual of the returned ``v``, ``J`` and ``v_inv`` in
       another summation order. Their root sum of squares, above
       ``recon_tol * norm``, raises :class:`ReconstructionError`: the basis
       does not reproduce ``A``.
    5. Back to the input's scale, exactly: eigenvalues, residual and
       ``cluster_tol`` times ``2^scale``; column p of each chain (the head
       is p = 0) times ``2^(-scale p)`` and its row of ``V^-1`` times
       ``2^(scale p)``. A chain that leaves float64's normal range on the
       way, or an eigenvalue, the residual or ``cluster_tol`` that
       overflows or underflows to 0, raises one :class:`ReconstructionError`.

    ``v``, its inverse and the eigenvalues follow the dtype rule
    (:class:`SpectralDecomposition`). A basis condition
    ``||V||_1 * ||V^-1||_1`` above :data:`ILL_CONDITIONED_LIMIT` raises
    :class:`IllConditionedBasisWarning` and sets the flag on the result;
    defective matrices legitimately live there, so it is not an error.
    """
    n = a.shape[0]
    rows_of, columns, values, keys, unitary = zip(*stacks)
    eigenvalues, chains = np.concatenate(values), np.concatenate(keys)
    component = home[np.concatenate([rows.ravel() for rows in rows_of])]  # each column's
    length = np.bincount(chains)[chains]  # each column's chain's

    zero = (length == 1) & (np.abs(eigenvalues) <= tol * norm)
    lone = np.bincount(component[zero], minlength=n) == 1
    loose = np.bincount(home, np.abs(a.sum(axis=1)) > tol * norm, n)  # rows not summing to 0
    snap = zero & (lone & (loose == 0))[component]
    eigenvalues = np.where(snap, 0, eigenvalues)

    # Every sort is stable and a chain's columns share one eigenvalue, so they stay together.
    order = np.lexsort((chains, component, -length))
    order = order[order_with_ties(eigenvalues[order])[0]]  # V's columns, in order
    heads = np.append(True, np.diff(chains[order]) != 0)  # each chain's first column

    # A component's i-th smallest row and its i-th column share a slot.
    slot, owner = np.empty(n, dtype=int), component[order]
    slot[np.argsort(home, kind="stable")] = np.argsort(owner, kind="stable")
    parts, basis, first = [(rows, slot[rows]) for rows in rows_of], [], 0
    for (rows, cols), stack in zip(parts, columns):  # block i of each stack is component i's
        if ((pick := order[cols] - first).ravel() != np.arange(pick.size)).any():  # not in order
            flat = stack.transpose(1, 0, 2).reshape(rows.shape[1], -1)  # column i * k + t
            stack = np.take(flat, pick, axis=1).transpose(1, 0, 2)
        basis.append((rows, cols, stack))
        first += rows.size
    v = _block_diagonal(n, basis)
    v[:, snap[order]] = home[:, None] == owner[snap[order]]  # each its component's ones vector
    _normalize_chains(v, heads)
    v = real_or_complex(v)  # a complex matrix can still have a real basis
    lam, proper = real_or_complex(eigenvalues[order]), np.flatnonzero(heads)  # J

    # The pairs: 1x1 blocks c, c + 1 outside the unitary stacks with exactly conjugate
    # values and columns; keep marks the other columns.
    c, keep = np.empty(0, dtype=int), np.ones(n, dtype=bool)
    if np.iscomplexobj(v):
        inverted = np.repeat(np.logical_not(unitary), [rows.size for rows in rows_of])[order]
        single = heads & np.append(heads[1:], True) & inverted
        c = np.flatnonzero(
            single[:-1] & single[1:] & (lam[:-1].imag != 0) & (lam[1:] == lam[:-1].conj())
        )
        c = c[(v[:, c + 1] == v[:, c].conj()).all(axis=0)]
        keep[c], keep[c + 1] = False, False
    # W = V T^-1: V itself without pairs, complex while a complex column lacks its partner.
    w = v if not c.size else (v if v.imag[:, keep].any() else v.real).copy()
    w[:, c], w[:, c + 1] = (head := v[:, c]).real, head.imag
    wb, imag = w @ _Bidiagonal(real_or_complex(np.where(keep, lam, lam.real)), proper), lam[c].imag
    wb[:, c] -= w[:, c + 1] * imag
    wb[:, c + 1] += w[:, c] * imag
    z = _block_diagonal(n, [
        (cols, rows, b.conj().transpose(0, 2, 1) if u else _inverse(b))
        for (rows, cols), u in zip(parts, unitary)
        for b in [w[_blocks(rows, cols, n)]]
    ])
    v_inv = z
    if c.size:  # V^-1 = T^-1 Z: rows c, c + 1 are (Z[c] -/+ i Z[c + 1]) / 2, written in place
        v_inv, h, t = z.astype(complex), z[c] / 2, z[c + 1] / 2
        hi, ti = (h.imag, t.imag) if np.iscomplexobj(z) else (0.0, 0.0)
        v_inv.real[c], v_inv.imag[c] = h.real + ti, hi - t.real
        v_inv.real[c + 1], v_inv.imag[c + 1] = h.real - ti, hi + t.real
    residuals = [wb[_blocks(*part, n)] @ z[_blocks(*part[::-1], n)] for part in parts]
    del w, wb, z  # not held through the norms, which copy each residual's parts
    for r, (rows, _) in zip(residuals, parts):
        r -= a[_blocks(rows, rows, n)]
    residual = math.hypot(*[float(np.linalg.norm(r)) for r in residuals])
    if not residual <= recon_tol * norm:  # a NaN residual is refused too
        shown = np.ldexp([residual, recon_tol * norm], scale)
        raise ReconstructionError(
            f"decomposition residual {shown[0]:.3e} exceeds "
            f"{shown[1]:.3e}; results would be unreliable"
        )
    p = np.arange(n) - np.maximum.accumulate(np.where(heads, np.arange(n), 0))  # chain place
    tail, s = p > 0, scale * p[p > 0]
    cols, rows = _ldexp(v[:, tail], -s), _ldexp(v_inv[tail], s[:, None])
    parts = np.concatenate([lam.view(float), [residual, cluster_tol]])  # lam's real (, imag)
    back = np.ldexp(parts, scale)
    if not (np.array_equal(_ldexp(cols, s), v[:, tail])
            and np.array_equal(_ldexp(rows, -s[:, None]), v_inv[tail])
            and np.isfinite(back).all() and back[parts != 0].all()):
        raise ReconstructionError("a Jordan chain, an eigenvalue, the residual or cluster_tol "
                                  "leaves float64's range at this scale")
    v[:, tail], v_inv[tail] = cols, rows
    lam, (residual, cluster_tol) = back[:-2].view(lam.dtype), back[-2:].tolist()
    dec = SpectralDecomposition(v, lam, proper, v_inv, all(unitary), cluster_tol, residual)
    if dec.ill_conditioned:
        frame, level = sys._getframe(), 1  # the warning names the first frame outside the package
        while frame.f_globals.get("__package__") == __package__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"Jordan basis condition {dec.basis_condition:.3e} exceeds "
            f"{ILL_CONDITIONED_LIMIT:.0e}; transform results carry that uncertainty",
            IllConditionedBasisWarning,
            stacklevel=level,
        )
    return dec


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
    sum of theirs. Each component takes one of three routes, each test run
    at most once, and components of one route and one size share one
    stacked kernel:

    - exactly Hermitian (every undirected graph): ``eigh`` alone, with
      exactly real eigenvalues and no normality test;
    - otherwise normal (:func:`dgft.graph.is_normal`; the directed ring,
      circulants): ``eigh`` of the Hermitian part, each of its eigenvalue
      clusters split by a small ``eig`` (:func:`_split_clusters`). A
      component symmetric only to rounding is split the same way, so a
      repeated eigenvalue of it may part into values with imaginary parts
      of the asymmetry's size;
    - everything else: ``eig``; its computed eigenvalues are clustered,
      each cluster is represented by its mean, and generalized-eigenvector
      chains are built from rank-revealing null spaces of powers of the
      shifted component (:func:`_jordan_chains`). A cluster gets all its
      chains or none; none leaves each of its columns its own eigenvector
      and eigenvalue, ranked by that eigenvalue.

    The first two routes give a unitary block of the basis, the third an
    inverted one. Clusters form within a component only, by single linkage
    at ``cluster_tol`` (default :func:`_default_cluster_tol` of the whole
    ``A``, as is the certificate bound). Every route ends in the one
    finisher (:func:`_finish`): columns in frequency order, by (magnitude,
    real, imaginary) with ties (:func:`order_with_ties`), at one value the
    longest chain first, then the component with the smallest node, then
    the chain with the smallest head column; one basis convention,
    certified block by block. A non-finite entry, or a ``tol``,
    ``recon_tol`` or given ``cluster_tol`` that is not a finite number
    above zero (:func:`_is_tolerance`), raises :class:`InvalidValueError`
    before any kernel runs. A reconstruction residual above
    ``recon_tol`` relative raises :class:`ReconstructionError`, which
    also refuses a component a route cannot reproduce; a basis condition
    above :data:`ILL_CONDITIONED_LIMIT` raises
    :class:`IllConditionedBasisWarning`. Everything runs on ``2^-e A`` at
    unit scale (:func:`dgft.graph._unit_scale`), so ``4^k A`` decomposes as
    ``A`` does, bit for bit, at any scale whose chains and eigenvalues fit.
    """
    for name, value in (("tol", tol), ("recon_tol", recon_tol), ("cluster_tol", cluster_tol)):
        if value is not None and not _is_tolerance(value):
            raise InvalidValueError(f"{name} must be a finite number above zero, got {value!r}")
    # Scaling back to A's scale can overflow, which _finish refuses; so can a product with a
    # near-singular inverse, which fails the certificate. Neither gives a numpy warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        a, e = _unit_scale(_as_square(a))  # every kernel runs at unit scale
        n, norm = len(a), float(np.linalg.norm(a, axis=(-2, -1)))  # numpy's sum, not BLAS
        if not math.isfinite(recon_tol * norm):
            raise ReconstructionError(
                f"recon_tol {recon_tol!r} overflows; nothing can be certified")
        ct = (_default_cluster_tol(n, norm) if cluster_tol is None
              else np.ldexp(float(cluster_tol), -e))
        home = _component_minima(n, *np.divmod(np.flatnonzero(a != 0), n))  # nonzeros as edges
        size = np.bincount(home)[home]
        by_size = np.lexsort((home, size))

        # Components of each size k as an (m, k) stack of rows with their
        # submatrices, split by route (0 Hermitian, 1 normal, 2 Jordan) and
        # decomposed stack by stack.
        stacks, first = [], 0
        for k in sorted(set(size.tolist())):
            rows = by_size[size[by_size] == k].reshape(-1, k)
            sub = a[_blocks(rows, rows, n)]
            route = np.where((sub == sub.conj().transpose(0, 2, 1)).all(axis=(1, 2)), 0, 2)
            if (rest := route > 0).any():
                route[rest] = np.where(is_normal(sub if rest.all() else sub[rest]), 1, 2)
            for r in sorted(set(route.tolist())):
                pick = route == r
                part = sub if pick.all() else sub[pick]
                h = (part + part.conj().transpose(0, 2, 1)) / 2.0 if r == 1 else part
                w, v = _converged(np.linalg.eig if r == 2 else np.linalg.eigh, h)
                w = w.ravel()  # column i * k + t of component i
                clusters = cluster_eigenvalues(w, ct, np.arange(w.size) // k) if r else []
                if r == 1:
                    w, v = _split_clusters(part - h, w, v, clusters)
                # Every column its own chain until its cluster says otherwise; a chain
                # is named by its head's column.
                lams, keys = w.astype(complex), first + np.arange(w.size)
                for cluster in [c for c in clusters if len(c) > 1 and r == 2]:
                    i, t = np.divmod(cluster, k)  # one component
                    lam = complex(np.mean(w[cluster]))
                    lam = 0j if abs(lam) <= tol * norm else lam  # the zero snap's threshold
                    mu = lam.real if lam.imag == 0 else lam  # real chains, even in a complex stack
                    # The chains, longest first, take all the cluster's columns, or none does.
                    if found := _jordan_chains(part[i[0]], mu, len(cluster), tol):
                        v[i[0]][:, t] = np.transpose([x for chain in found for x in chain])
                        lams[cluster] = lam
                        lengths = [len(chain) for chain in found]
                        heads = keys[cluster][np.cumsum(lengths) - lengths]
                        keys[cluster] = np.repeat(heads, lengths)
                stacks.append((rows[pick], v, lams, keys, r < 2))
                first += w.size
        return _finish(a, home, stacks, norm=norm, tol=tol, cluster_tol=ct, recon_tol=recon_tol,
                       scale=int(e))


def _split_clusters(skew, w, v, clusters):
    """Eigenpairs of a stack of normal matrices ``H + skew``, from ``eigh``'s
    ``w`` (flat, column ``i * k + t`` of component ``i``) and ``v`` (m, k,
    k) of the Hermitian parts ``H``.

    ``skew`` commutes with ``H`` when the matrix is normal, so it acts
    inside each eigenspace of ``H``: each of ``clusters`` (flat column
    indices, within one component each) is split by a small ``eig`` of
    the matrix restricted to the cluster's columns, orthonormalized by QR.
    Clusters of one size share one stacked ``eig``. Returns the complex
    eigenvalues (flat) and the (m, k, k) unitary basis.
    """
    k = v.shape[1]
    flat = v.transpose(1, 0, 2).reshape(k, -1)  # column i * k + t
    sv = (skew @ v).transpose(1, 0, 2).reshape(k, -1)
    values, split = w.astype(complex), flat.astype(complex)
    for size in {len(c) for c in clusters}:
        idx = np.array([c for c in clusters if len(c) == size])  # one row per cluster
        q = flat[:, idx]  # (k, clusters, size): each cluster's columns
        restricted = np.einsum("nci,ncj->cij", q.conj(), sv[:, idx])
        restricted[:, range(size), range(size)] += w[idx]  # Qᴴ H Q, diagonal by eigh
        values[idx], vectors = _converged(np.linalg.eig, restricted)
        split[:, idx] = np.einsum("nci,cij->ncj", q, np.linalg.qr(vectors)[0])
    return values, split.reshape(k, -1, k).transpose(1, 0, 2)


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
    if x.dtype.kind != "c" or getattr(a, "dtype", None) != float:
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
