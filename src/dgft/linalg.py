"""Dense linear algebra: eigen and Jordan decompositions, inversion.

The eigenvalue, symmetric-eigenvalue, and LU kernels delegate to LAPACK
(via numpy/scipy), which implements the classical pipelines: Hessenberg
reduction plus implicitly shifted QR for the nonsymmetric case,
tridiagonalization for the symmetric case, partial-pivoted LU for solves.
Results are complex, but the arithmetic stays real wherever the input is:
a matrix with an all-zero imaginary part goes through the real
nonsymmetric kernel, so its conjugate eigenvalue pairs come out exactly
conjugate; the Jordan chains of each real eigenvalue cluster of such a
matrix are built in real arithmetic; and a basis with an all-zero
imaginary part is factored by a real LU. What LAPACK does not provide,
and what this module adds, is the numerical Jordan machinery: eigenvalue
clustering, rank-revealing null-space chains of generalized
eigenvectors, block assembly, and a deterministic basis normalization so
downstream transforms are reproducible run to run.

``basis_condition`` is the 1-norm condition ``||V||_1 * ||V^-1||_1``,
read off the inverse the decomposition builds anyway: at least 1, and n
for a unitary basis such as the ring's DFT. scipy is imported only when a
Jordan basis is inverted, so the symmetric path never loads it.

Jordan structure is discontinuous in the matrix entries, so every
multiplicity decision here is tolerance-driven. The defaults below are
engineering choices. The rank tolerance and the clustering tolerance are
parameters (CLI ``--tol`` and ``--tol-cluster``); the tie, pivot and
ill-conditioning thresholds are fixed module constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyTapsError,
    IllConditionedBasisWarning,
    NoConvergenceError,
    NonSquareError,
    NotSymmetricError,
    SingularMatrixError,
)
from .graph import _as_complex_square, is_real_symmetric

# Rank decisions treat singular values below rank_tol * scale as zero.
DEFAULT_RANK_TOL = 1e-8

# Relative pivot size under which LU-based inversion refuses to proceed.
SINGULAR_PIVOT_TOL = 1e-14

# Basis condition number above which results carry an ill-conditioned flag.
ILL_CONDITIONED_LIMIT = 1e12


def default_cluster_tol(a: np.ndarray) -> float:
    """Absolute distance under which computed eigenvalues are merged.

    Scales with the matrix so that rounding-split multiple eigenvalues
    cluster back together without merging genuinely distinct ones.
    """
    n = a.shape[0]
    return max(1e-8, 1e-6 * float(np.linalg.norm(a)) / n)


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
    superdiagonals inside blocks. ``is_unitary_basis`` marks the symmetric
    path, where ``v_inv`` is exactly the transpose of ``v``. The
    eigenvalues and both verdicts are read off ``j``, ``blocks`` and
    ``basis_condition`` rather than stored.
    """

    v: np.ndarray
    j: np.ndarray
    v_inv: np.ndarray
    blocks: tuple[JordanBlock, ...]
    is_unitary_basis: bool
    basis_condition: float
    cluster_tol: float
    n: int = field(init=False)

    def __post_init__(self):
        n = self.v.shape[0]
        for name in ("v", "j", "v_inv"):
            m = getattr(self, name)
            if m.shape != (n, n):
                raise NonSquareError(f"{name} has shape {m.shape}, expected ({n}, {n})")
            m.flags.writeable = False
        if sum(b.size for b in self.blocks) != n:
            raise NonSquareError("block sizes do not sum to the matrix dimension")
        object.__setattr__(self, "n", n)

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
        """Every Jordan block is 1x1."""
        return all(b.size == 1 for b in self.blocks)

    @property
    def ill_conditioned(self) -> bool:
        """The basis condition exceeds :data:`ILL_CONDITIONED_LIMIT`."""
        return self.basis_condition > ILL_CONDITIONED_LIMIT

    @property
    def proper_indices(self) -> tuple[int, ...]:
        """Columns of ``v`` that are proper eigenvectors (chain heads)."""
        return tuple(b.start for b in self.blocks)

    def reconstruct(self) -> np.ndarray:
        """Recompute V J V^{-1}; compare against the input to bound error."""
        return self.v @ self.j @ self.v_inv


def cluster_eigenvalues(values, tol: float) -> list[list[int]]:
    """Group indices of eigenvalues whose pairwise distance chains below tol.

    Single-linkage: two values land in one cluster when connected through
    intermediate values each within ``tol`` of the next. Members are listed
    in ascending index order and clusters by their smallest member.

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


def _basis_condition(v: np.ndarray, v_inv: np.ndarray) -> float:
    """The 1-norm condition ``||V||_1 * ||V^-1||_1`` of a basis and its inverse."""
    return float(np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1))


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


def _chain_split(indices: list[int], key, slack) -> list[list[int]]:
    """Split sorted indices where consecutive key values jump past slack(idx)."""
    out: list[list[int]] = []
    for idx in indices:
        if out and abs(key(idx) - key(out[-1][-1])) <= slack(idx):
            out[-1].append(idx)
        else:
            out.append([idx])
    return out


def order_with_ties(
    values, tie_tol: float = DEFAULT_TIE_TOL
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Permutation ordering complex values by magnitude, ties resolved.

    Indices whose magnitudes chain together within ``tie_tol * (1 + mag)``
    form one tie group; inside it, ranking goes by real part (again with
    the same slack, since a computed conjugate pair can disagree in its
    last digit there too) and then by imaginary part, so the
    negative-imaginary member of a pair always lists first. Exact repeats
    keep their input order (every sort here is stable), which keeps
    Jordan chains contiguous. Returns (order, tie groups of size >= 2).
    """
    w = np.asarray(values, dtype=complex).ravel()

    def mag(r: int) -> float:
        return abs(w[r])

    by_mag = sorted(range(w.size), key=mag)
    order: list[int] = []
    groups: list[tuple[int, ...]] = []
    for group in _chain_split(by_mag, mag, lambda r: tie_tol * (1.0 + mag(r))):
        resolved: list[int] = []
        by_re = sorted(group, key=lambda r: w[r].real)
        slack = tie_tol * (1.0 + max(mag(r) for r in group))
        for sub in _chain_split(by_re, lambda r: w[r].real, lambda r: slack):
            resolved.extend(sorted(sub, key=lambda r: w[r].imag))
        order.extend(resolved)
        if len(resolved) > 1:
            groups.append(tuple(resolved))
    return order, groups


def _normalize_chains(v: np.ndarray, blocks: list[JordanBlock]) -> None:
    """Scale and phase every Jordan chain of ``v`` in place via its head.

    One scalar applies to a whole chain so the unit superdiagonal of its
    block survives: the head (the proper eigenvector) gets unit norm with
    its largest-magnitude entry rotated real positive (first such entry on
    ties), and the tail inherits the same factor.
    """
    heads = v[:, [b.start for b in blocks]]
    norms = np.linalg.norm(heads, axis=0)
    pivots = heads[np.argmax(np.abs(heads), axis=0), np.arange(len(blocks))]
    factors = np.ones(len(blocks), dtype=complex)
    live = norms > 0  # a zero head (a singular basis) leaves its chain as it is
    factors[live] = np.conj(pivots[live]) / (np.abs(pivots[live]) * norms[live])
    v *= np.repeat(factors, [b.size for b in blocks])


def _orthogonal_residual(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Project out span(q) (orthonormal columns); repeated for stability."""
    r = x - q @ (q.conj().T @ x)
    return r - q @ (q.conj().T @ r)


def _jordan_chains(
    a: np.ndarray, lam: complex, multiplicity: int, rank_tol: float, scale: float
) -> list[list[np.ndarray]]:
    """Generalized-eigenvector chains for one clustered eigenvalue.

    Null spaces of increasing powers of ``a - lam*I`` give the nullity
    sequence; its increments fix how many chains exist of each length
    (chains of length >= s each occupy one dimension of the step from
    power s-1 to power s). Chain tops are picked from the deepest null
    space, orthogonal to everything already claimed, then walked down by
    repeated multiplication. Returned longest chain first, heads first
    within each chain. Returns fewer than ``multiplicity`` vectors, or
    none, when the cluster was a numerical artifact; the caller backfills.

    The arithmetic follows the arguments: a real ``a`` with a real ``lam``
    keeps the powers, null spaces and chains real. At each chain level the
    candidates are projected against the obstruction once; each pick
    takes the largest residual (first on ties, refused at 1e-10), forms
    its top against the full obstruction, and removes that top from the
    residuals by a rank-1 update.
    """
    n = a.shape[0]
    shifted = a - lam * np.eye(n)
    nullities = [0]
    bases = [np.zeros((n, 0), dtype=shifted.dtype)]
    power = np.eye(n, dtype=shifted.dtype)
    while nullities[-1] < multiplicity and len(nullities) <= multiplicity:
        power = power @ shifted
        cutoff = rank_tol * max(scale, float(np.linalg.norm(power)))
        basis = _nullspace_basis(power, cutoff)
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
        # Everything a new length-s chain top must stay independent of:
        # the null space one power down, plus the level-s vector of every
        # chain already constructed.
        obstruction = bases[s - 1]
        for chain in chains:
            level_vec = chain[s - 1]  # chain[k] is the level-(k+1) vector
            r = _orthogonal_residual(level_vec, obstruction)
            r_norm = float(np.linalg.norm(r))
            if r_norm > 1e-12:
                obstruction = np.column_stack([obstruction, r / r_norm])
        candidates = bases[s]
        residuals = candidates - obstruction @ (obstruction.conj().T @ candidates)
        for _ in range(chain_counts[s]):
            norms = np.linalg.norm(residuals, axis=0)
            best = int(np.argmax(norms))
            if norms[best] <= 1e-10:
                return chains  # numerical shortfall; caller backfills
            top = _orthogonal_residual(candidates[:, best], obstruction)
            top = top / float(np.linalg.norm(top))
            obstruction = np.column_stack([obstruction, top])
            residuals -= np.outer(top, top.conj() @ residuals)
            vectors = [top]
            for _ in range(s - 1):
                vectors.append(shifted @ vectors[-1])
            vectors.reverse()  # head (proper eigenvector) first
            chains.append(vectors)
    return chains


def _finish(
    a: np.ndarray,
    assembled: list[tuple[complex, list[np.ndarray]]],
    *,
    tol: float,
    cluster_tol: float,
    normalize: bool,
    unitary: bool,
) -> SpectralDecomposition:
    """The tail both decomposition paths share: basis convention, J, inverse.

    ``assembled`` lists (eigenvalue, chain vectors) in final column order.
    ``normalize`` applies the deterministic basis convention: each chain
    is scaled and phased through its head (:func:`_normalize_chains`), and
    when exactly one 1x1 block sits at zero (within ``tol`` relative to
    ``||A||_F``) and ``A`` annihilates the constant vector (every
    connected graph Laplacian), that column is snapped to
    ``(1/sqrt(n)) * ones`` and its eigenvalue to exactly 0. A ``unitary``
    basis is inverted by transposition, any other by :func:`invert`.

    A basis condition (:func:`_basis_condition`) above 1e12 raises
    :class:`IllConditionedBasisWarning` and sets the flag on the result;
    defective matrices legitimately live there, so it is not an error.
    """
    n = a.shape[0]
    blocks: list[JordanBlock] = []
    start = 0
    for lam, chain in assembled:
        blocks.append(JordanBlock(eigenvalue=lam, size=len(chain), start=start))
        start += len(chain)
    v = np.column_stack([vec for _, chain in assembled for vec in chain]).astype(complex)

    if normalize:
        _normalize_chains(v, blocks)
        zero_limit = tol * max(1.0, float(np.linalg.norm(a)))
        zero = [k for k, b in enumerate(blocks) if b.size == 1 and abs(b.eigenvalue) <= zero_limit]
        constant = np.full(n, 1.0 / math.sqrt(n))
        if len(zero) == 1 and float(np.linalg.norm(a @ constant)) <= zero_limit:
            (k,) = zero
            v[:, blocks[k].start] = constant
            blocks[k] = JordanBlock(eigenvalue=0j, size=1, start=blocks[k].start)

    lams = np.array([b.eigenvalue for b in blocks], dtype=complex)
    j = np.diag(np.repeat(lams, [b.size for b in blocks]))
    tail = np.ones(n, dtype=bool)
    tail[[b.start for b in blocks]] = False  # columns that continue a chain
    inner = np.flatnonzero(tail)
    j[inner - 1, inner] = 1.0

    v_inv = v.T.copy() if unitary else invert(v)
    condition = _basis_condition(v, v_inv)
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
        blocks=tuple(blocks),
        is_unitary_basis=unitary,
        basis_condition=condition,
        cluster_tol=cluster_tol,
    )


def jordan_decompose(
    a,
    tol: float = DEFAULT_RANK_TOL,
    *,
    cluster_tol: float | None = None,
    normalize: bool = True,
) -> SpectralDecomposition:
    """Numerical Jordan decomposition A = V J V^{-1}.

    Computed eigenvalues are clustered (single linkage at ``cluster_tol``,
    default :func:`default_cluster_tol`), each cluster is represented by
    its mean, and generalized-eigenvector chains are built from
    rank-revealing null spaces of powers of the shifted matrix. Blocks are
    ordered by (magnitude, real, imaginary) of their eigenvalue and
    largest chain first within a cluster.

    ``normalize`` applies the basis convention of :func:`_finish`;
    clearing it keeps the raw chain and ``eig`` columns. A basis
    condition above 1e12 raises :class:`IllConditionedBasisWarning`.
    """
    a = _as_complex_square(a, copy=False)
    real = not a.imag.any()
    w, eig_vectors = _converged(np.linalg.eig, a.real if real else a)
    scale = float(np.linalg.norm(a))
    ct = default_cluster_tol(a) if cluster_tol is None else float(cluster_tol)

    clusters = cluster_eigenvalues(w, ct)
    means = [complex(np.mean(w[c])) for c in clusters]
    perm, _ = order_with_ties(means)
    clusters = [clusters[i] for i in perm]

    # (eigenvalue, chain vectors) in final column order.
    assembled: list[tuple[complex, list[np.ndarray]]] = []
    for cluster in clusters:
        lam = complex(np.mean(w[cluster]))
        if len(cluster) == 1:
            assembled.append((lam, [np.asarray(eig_vectors[:, cluster[0]])]))
            continue
        if real and lam.imag == 0:
            chains = _jordan_chains(a.real, lam.real, len(cluster), tol, scale)
        else:
            chains = _jordan_chains(a, lam, len(cluster), tol, scale)
        covered = sum(len(c) for c in chains)
        for chain in chains:
            assembled.append((lam, chain))
        # Clustering artifact: not enough null directions found. Fall back
        # to plain eigenvectors, each as its own block at its own value.
        for idx in cluster[covered:]:
            assembled.append((complex(w[idx]), [np.asarray(eig_vectors[:, idx])]))

    return _finish(a, assembled, tol=tol, cluster_tol=ct, normalize=normalize, unitary=False)


def symmetric_eigen_decompose(
    a,
    *,
    tol: float = DEFAULT_RANK_TOL,
    normalize: bool = True,
) -> SpectralDecomposition:
    """Spectral decomposition of a real symmetric matrix.

    Eigenvalues come out exactly real and the basis orthonormal, so the
    inverse is the transpose; this is the cheap path every undirected
    graph takes. Columns are ordered by (magnitude, value) and pass
    through the same finisher as :func:`jordan_decompose` as 1x1 blocks,
    so ``normalize`` applies the one shared basis convention
    (:func:`_finish`): unit norm with the largest-magnitude entry
    positive, and a unique constant null vector snapped to
    ``(1/sqrt(n)) * ones``. Clearing it keeps the raw ``eigh`` columns.
    """
    a = _as_complex_square(a, copy=False)
    if not is_real_symmetric(a):
        raise NotSymmetricError("matrix is not real symmetric within tolerance")
    ar = np.ascontiguousarray((a.real + a.real.T) / 2.0)
    w, v = _converged(np.linalg.eigh, ar)

    order, _ = order_with_ties(w)
    assembled = [(complex(w[k]), [v[:, k]]) for k in order]
    return _finish(
        ar,
        assembled,
        tol=tol,
        cluster_tol=default_cluster_tol(ar),
        normalize=normalize,
        unitary=True,
    )


def invert(a) -> np.ndarray:
    """Inverse via partial-pivoted LU, refusing pivots below threshold.

    A matrix with an all-zero imaginary part is factored in real
    arithmetic; the inverse is returned complex either way.
    """
    # Deferred: importing scipy.linalg dominates CLI start-up, and nothing
    # else in the package needs it.
    import scipy.linalg

    a = _as_complex_square(a, copy=False)
    if not a.imag.any():
        a = a.real  # partial pivoting picks the same pivots in real arithmetic
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    with warnings.catch_warnings():
        # scipy warns on exactly-zero pivots; the threshold below handles it.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    pivots = np.abs(np.diag(lu))
    if np.any(pivots <= SINGULAR_PIVOT_TOL * scale):
        raise SingularMatrixError(
            f"pivot {float(pivots.min()):.3e} below threshold "
            f"{SINGULAR_PIVOT_TOL * scale:.3e}"
        )
    inverse = scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=a.dtype))
    return inverse.astype(complex, copy=False)


def _as_taps(taps) -> np.ndarray:
    t = np.asarray(taps, dtype=complex).ravel()
    if t.size == 0:
        raise EmptyTapsError("at least one tap is required")
    return t


def matrix_polynomial(a, taps) -> np.ndarray:
    """``taps[0]*I + taps[1]*A + ...`` as a matrix: Horner applied to I."""
    a = _as_complex_square(a, copy=False)
    return matrix_polynomial_apply(a, taps, np.eye(a.shape[0], dtype=complex))


def matrix_polynomial_apply(a, taps, vec: np.ndarray) -> np.ndarray:
    """Apply the tap polynomial in ``a`` to a vector without forming it.

    Horner: exactly ``len(taps) - 1`` products with ``a``, which only
    needs to support ``@``. ``vec`` may also be a block of columns.
    """
    t = _as_taps(taps)
    acc = t[-1] * vec
    for coeff in t[-2::-1]:
        acc = a @ acc + coeff * vec
    return acc
