"""Dense complex linear algebra: eigen and Jordan decompositions, inversion.

The eigenvalue, symmetric-eigenvalue, and LU kernels delegate to LAPACK
(via numpy/scipy), which implements the classical pipelines: Hessenberg
reduction plus implicitly shifted QR for the nonsymmetric case,
tridiagonalization for the symmetric case, partial-pivoted LU for solves.
A matrix with an all-zero imaginary part goes through the real
nonsymmetric kernel, so its conjugate eigenvalue pairs come out exactly
conjugate. What LAPACK does not provide, and what this module adds, is the
numerical Jordan machinery: eigenvalue clustering, rank-revealing
null-space chains of generalized eigenvectors, block assembly, and a
deterministic basis normalization so downstream transforms are
reproducible run to run.

``basis_condition`` is the 1-norm condition ``||V||_1 * ||V^-1||_1``,
read off the inverse the decomposition builds anyway: at least 1, and n
for a unitary basis such as the ring's DFT. scipy is imported only when a
Jordan basis is inverted, so the symmetric path never loads it.

Jordan structure is discontinuous in the matrix entries, so every
multiplicity decision here is tolerance-driven. The defaults below are
engineering choices, exposed as parameters (and CLI flags) rather than
baked in.
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
    listed first within each block), ``j`` is block diagonal with unit
    superdiagonals inside blocks, and ``eigenvalues`` is the diagonal of
    ``j``. ``is_unitary_basis`` marks the symmetric path, where ``v_inv``
    is exactly the transpose of ``v``.
    """

    v: np.ndarray
    j: np.ndarray
    v_inv: np.ndarray
    eigenvalues: np.ndarray
    blocks: tuple[JordanBlock, ...]
    is_diagonalizable: bool
    is_unitary_basis: bool
    basis_condition: float
    ill_conditioned: bool
    cluster_tol: float
    n: int = field(init=False)

    def __post_init__(self):
        n = self.v.shape[0]
        for name in ("v", "j", "v_inv"):
            m = getattr(self, name)
            if m.shape != (n, n):
                raise NonSquareError(f"{name} has shape {m.shape}, expected ({n}, {n})")
            m.flags.writeable = False
        if self.eigenvalues.shape != (n,):
            raise NonSquareError("eigenvalue vector length does not match the basis")
        self.eigenvalues.flags.writeable = False
        if sum(b.size for b in self.blocks) != n:
            raise NonSquareError("block sizes do not sum to the matrix dimension")
        object.__setattr__(self, "n", n)

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
    the work follows the number of near pairs rather than n^2.
    """
    w = np.asarray(values, dtype=complex).ravel()
    order = np.argsort(w.real, kind="stable")
    ws = w[order]
    # A pair within tol differs by at most tol in real part; doubling the
    # window keeps that true through rounding, and the distance test decides.
    ends = np.searchsorted(ws.real, ws.real + 2.0 * tol, side="right")
    parent = list(range(w.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s in np.flatnonzero(ends > np.arange(1, w.size + 1)):
        near = np.abs(ws[s + 1 : ends[s]] - ws[s]) <= tol
        for k in order[s + 1 : ends[s]][near]:
            ri, rk = find(int(order[s])), find(int(k))
            # The smaller index is the root, so each root is its cluster's minimum.
            parent[max(ri, rk)] = min(ri, rk)
    groups: dict[int, list[int]] = {}
    for i in range(w.size):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


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


def _normalize_chain(vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Scale and phase a Jordan chain via its head (the proper eigenvector).

    One scalar applies to the whole chain so the unit superdiagonal of the
    block survives: the head gets unit norm with its largest-magnitude
    entry rotated real positive (first such entry on ties), and the tail
    inherits the same factor.
    """
    head = vectors[0]
    nrm = float(np.linalg.norm(head))
    if nrm == 0.0:
        return vectors
    scaled = [v / nrm for v in vectors]
    head = scaled[0]
    pivot = head[int(np.argmax(np.abs(head)))]
    phase = pivot / abs(pivot)
    return [v * np.conj(phase) for v in scaled]


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
    """
    n = a.shape[0]
    shifted = a - lam * np.eye(n, dtype=complex)
    nullities = [0]
    bases = [np.zeros((n, 0), dtype=complex)]
    power = np.eye(n, dtype=complex)
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
        for _ in range(chain_counts[s]):
            candidates = bases[s]
            residuals = candidates - obstruction @ (obstruction.conj().T @ candidates)
            norms = np.linalg.norm(residuals, axis=0)
            best = int(np.argmax(norms))
            if norms[best] <= 1e-10:
                return chains  # numerical shortfall; caller backfills
            top = _orthogonal_residual(candidates[:, best], obstruction)
            top = top / float(np.linalg.norm(top))
            obstruction = np.column_stack([obstruction, top])
            vectors = [top]
            for _ in range(s - 1):
                vectors.append(shifted @ vectors[-1])
            vectors.reverse()  # head (proper eigenvector) first
            chains.append(vectors)
    return chains


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

    ``normalize`` applies the deterministic basis convention: each chain
    is scaled and phased through its head (:func:`_normalize_chain`), and
    when the decomposition exposes a unique simple eigenvalue at zero
    whose eigenspace contains the constant vector (the situation for
    every connected graph Laplacian), that column is snapped to
    ``(1/sqrt(n)) * ones`` exactly. Clearing it keeps the raw columns.

    A basis condition (:func:`_basis_condition`) above 1e12 raises
    :class:`IllConditionedBasisWarning` and sets the flag on the result;
    defective matrices legitimately live there, so it is not an error.
    """
    a = _as_complex_square(a, copy=False)
    n = a.shape[0]
    w, eig_vectors = _converged(np.linalg.eig, a if a.imag.any() else a.real)
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
        chains = _jordan_chains(a, lam, len(cluster), tol, scale)
        covered = sum(len(c) for c in chains)
        for chain in chains:
            assembled.append((lam, chain))
        # Clustering artifact: not enough null directions found. Fall back
        # to plain eigenvectors, each as its own block at its own value.
        for idx in cluster[covered:]:
            assembled.append((complex(w[idx]), [np.asarray(eig_vectors[:, idx])]))

    columns: list[np.ndarray] = []
    blocks: list[JordanBlock] = []
    for lam, chain in assembled:
        if normalize:
            chain = _normalize_chain(chain)
        blocks.append(JordanBlock(eigenvalue=lam, size=len(chain), start=len(columns)))
        columns.extend(chain)

    v = np.column_stack(columns).astype(complex)

    if normalize:
        zero_limit = tol * max(1.0, scale)
        zero_blocks = [b for b in blocks if b.size == 1 and abs(b.eigenvalue) <= zero_limit]
        if len(zero_blocks) == 1:
            constant = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
            if float(np.linalg.norm(a @ constant)) <= zero_limit:
                target = zero_blocks[0]
                v[:, target.start] = constant
                # The eigenvalue is exactly zero too, not just its vector.
                blocks[blocks.index(target)] = JordanBlock(
                    eigenvalue=0j, size=1, start=target.start
                )

    j = np.zeros((n, n), dtype=complex)
    for b in blocks:
        for k in range(b.size):
            j[b.start + k, b.start + k] = b.eigenvalue
            if k + 1 < b.size:
                j[b.start + k, b.start + k + 1] = 1.0

    v_inv = invert(v)
    condition = _basis_condition(v, v_inv)
    ill = condition > ILL_CONDITIONED_LIMIT
    if ill:
        warnings.warn(
            f"Jordan basis condition {condition:.3e} exceeds "
            f"{ILL_CONDITIONED_LIMIT:.0e}; transform results carry that uncertainty",
            IllConditionedBasisWarning,
            stacklevel=2,
        )

    return SpectralDecomposition(
        v=v,
        j=j,
        v_inv=v_inv,
        eigenvalues=np.diag(j).copy(),
        blocks=tuple(blocks),
        is_diagonalizable=all(b.size == 1 for b in blocks),
        is_unitary_basis=False,
        basis_condition=condition,
        ill_conditioned=ill,
        cluster_tol=ct,
    )


def symmetric_eigen_decompose(
    a,
    *,
    tol: float = DEFAULT_RANK_TOL,
    normalize: bool = True,
) -> SpectralDecomposition:
    """Spectral decomposition of a real symmetric matrix.

    Eigenvalues come out exactly real and the basis orthonormal, so the
    inverse is the transpose; this is the cheap path every undirected
    graph takes. Columns are ordered by (magnitude, value). ``normalize``
    applies the same basis convention as :func:`jordan_decompose`: each
    column is sign-fixed so its largest-magnitude entry is positive, and
    a unique constant null vector is snapped to ``(1/sqrt(n)) * ones``.
    """
    a = _as_complex_square(a, copy=False)
    if not is_real_symmetric(a):
        raise NotSymmetricError("matrix is not real symmetric within tolerance")
    ar = np.ascontiguousarray((a.real + a.real.T) / 2.0)
    n = ar.shape[0]
    w, v = _converged(np.linalg.eigh, ar)

    order, _ = order_with_ties(w)
    w = w[order]
    v = v[:, order]
    if normalize:
        for k in range(n):
            col = v[:, k]
            if col[int(np.argmax(np.abs(col)))] < 0:
                v[:, k] = -col
        zero_limit = tol * max(1.0, float(np.linalg.norm(ar)))
        zero_idx = np.flatnonzero(np.abs(w) <= zero_limit)
        if zero_idx.size == 1:
            constant = np.full(n, 1.0 / math.sqrt(n))
            if float(np.linalg.norm(ar @ constant)) <= zero_limit:
                v[:, int(zero_idx[0])] = constant
                w[int(zero_idx[0])] = 0.0

    vc = v.astype(complex)
    eigenvalues = w.astype(complex)  # imaginary parts exactly zero
    blocks = tuple(
        JordanBlock(eigenvalue=complex(w[k]), size=1, start=k) for k in range(n)
    )
    return SpectralDecomposition(
        v=vc,
        j=np.diag(eigenvalues),
        v_inv=vc.T.copy(),
        eigenvalues=eigenvalues,
        blocks=blocks,
        is_diagonalizable=True,
        is_unitary_basis=True,
        basis_condition=_basis_condition(v, v.T),
        ill_conditioned=False,
        cluster_tol=default_cluster_tol(ar),
    )


def invert(a) -> np.ndarray:
    """Inverse via partial-pivoted LU, refusing pivots below threshold."""
    # Deferred: importing scipy.linalg dominates CLI start-up, and nothing
    # else in the package needs it.
    import scipy.linalg

    a = _as_complex_square(a, copy=False)
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
    return scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=complex))


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
