import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dgft import (
    DgftError,
    EmptyTapsError,
    Graph,
    GraphSignal,
    IllConditionedBasisWarning,
    NoConvergenceError,
    NonSquareError,
    ReconstructionError,
    SingularMatrixError,
    apply_spectral_domain,
    apply_vertex_domain,
    build_graph,
    check_lsi_preconditions,
    decompose,
    demo_graph,
    directed_laplacian,
    gft,
    igft,
    materialize,
    order_frequencies,
    ring_graph,
    shift,
    shift_operator,
)
from dgft.graph import is_normal, signal_values
from dgft.linalg import (
    DEFAULT_RANK_TOL,
    DEFAULT_TIE_TOL,
    RECON_LIMIT,
    JordanBlock,
    SpectralDecomposition,
    _Bidiagonal,
    _component_minima,
    _default_cluster_tol,
    _inverse,
    _jordan_chains,
    _nullspace_basis,
    _orthogonal_residual,
    cluster_eigenvalues,
    jordan_decompose,
    matrix_polynomial_apply,
    order_with_ties,
    symmetric_eigen_decompose,
)
from conftest import defective_zoo, make_random_digraph, make_random_undirected
from oracles import exact_block_sizes, exact_defective_triangular, ring_eigenvalues


@st.composite
def _grid_values(draw):
    # Grid points make exact ties in real part and distances of exactly
    # tol common; step 0.1 adds the rounding of non-dyadic coordinates.
    step = draw(st.sampled_from([0.25, 0.1]))
    grid = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=30))
    values = [complex(re * step, im * step) for re, im in grid]
    return values, draw(st.integers(0, 5)) * step


@st.composite
def _clique_values(draw):
    # A chain union repeats one eigenvalue exactly, up to hundreds of
    # times. The third point sits exactly tol = 1e-8 from the second, and
    # the optional jitter puts copies on either side of that bound; at
    # tol = 1e-12 it breaks the exact repeats into near-touching chains.
    points = (0j, 1 + 0j, complex(1.0, 1e-8))
    size = draw(st.integers(0, 200))
    values = np.array(draw(st.lists(st.sampled_from(points), min_size=size, max_size=size)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = values + rng.uniform(-1e-12, 1e-12, (size, 2)) @ np.array([1, 1j])
    return [complex(v) for v in values], draw(st.sampled_from([1e-8, 1e-12]))


class TestClustering:
    def test_separated_values_stay_apart(self):
        groups = cluster_eigenvalues([0.0, 1.0, 2.0], tol=0.1)
        assert groups == [[0], [1], [2]]

    def test_chained_values_merge(self):
        # 0.0 and 0.2 are linked through 0.1 even though they are 0.2 apart
        groups = cluster_eigenvalues([0.0, 0.2, 0.1], tol=0.11)
        assert groups == [[0, 1, 2]]

    def test_complex_distance(self):
        groups = cluster_eigenvalues([1 + 1j, 1 - 1j], tol=0.5)
        assert groups == [[0], [1]]

    def test_labels_keep_groups_apart(self):
        # 0.1 would link 0.0 and 0.2, but it carries another label
        groups = cluster_eigenvalues([0.0, 0.1, 0.2, 0.0], tol=0.11, labels=np.array([0, 1, 0, 0]))
        assert groups == [[0, 3], [1], [2]]

    def test_default_tol_is_linear_in_the_norm(self):
        assert _default_cluster_tol(3, 0.0) == 0.0
        for norm in (2.0**-600, 1e-12, 1.0, 3.0, 1e200):
            assert _default_cluster_tol(3, norm) == 1e-6 * norm / 3

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_grid_values(), _clique_values()))
    def test_matches_brute_force_single_linkage(self, case):
        values, tol = case
        assert cluster_eigenvalues(values, tol) == _brute_force_clusters(values, tol)


def _brute_force_clusters(values: list[complex], tol: float) -> list[list[int]]:
    """Reference single linkage: flood fill over all pairs within tol."""
    unseen = set(range(len(values)))
    groups = []
    while unseen:
        frontier = [min(unseen)]
        unseen.discard(frontier[0])
        members = []
        while frontier:
            i = frontier.pop()
            members.append(i)
            near = {k for k in unseen if abs(values[i] - values[k]) <= tol}
            unseen -= near
            frontier.extend(near)
        groups.append(sorted(members))
    return sorted(groups)


def _reference_order_with_ties(values, tie_tol=DEFAULT_TIE_TOL):
    """Tie resolution as a loop over sorted indices, each compared with
    the last member of the open run: the reference the vectorized
    ``order_with_ties`` must reproduce exactly."""
    w = np.asarray(values, dtype=complex).ravel()

    def chain_split(indices, key, slack):
        out = []
        for idx in indices:
            if out and abs(key(idx) - key(out[-1][-1])) <= slack(idx):
                out[-1].append(idx)
            else:
                out.append([idx])
        return out

    def mag(r):
        return abs(w[r])

    order, groups = [], []
    by_mag = sorted(range(w.size), key=mag)
    for group in chain_split(by_mag, mag, lambda r: tie_tol * mag(r)):
        resolved = []
        slack = tie_tol * max(mag(r) for r in group)
        by_re = sorted(group, key=lambda r: w[r].real)
        for sub in chain_split(by_re, lambda r: w[r].real, lambda r: slack):
            resolved.extend(sorted(sub, key=lambda r: w[r].imag))
        order.extend(resolved)
        if len(resolved) > 1:
            groups.append(tuple(resolved))
    return order, groups


@st.composite
def _tie_values(draw):
    # Seeds on a few circles, then values derived from earlier ones: exact
    # repeats, conjugates, mirror images (same magnitude, opposite real
    # part), near ties 1e-11 apart, and offsets of 0.5 to 2 tie slacks.
    # Coarse tie tolerances widen the runs until it matters which member's
    # magnitude sets a slack.
    tie_tol = draw(st.sampled_from([DEFAULT_TIE_TOL, 1e-3, 0.25]))
    seeds = draw(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]), st.integers(-4, 4)),
            min_size=1,
            max_size=8,
        )
    )
    values = [r * complex(np.cos(k * np.pi / 4), np.sin(k * np.pi / 4)) for r, k in seeds]
    steps = st.tuples(
        st.sampled_from(["repeat", "conjugate", "mirror", "near", "slack"]),
        st.integers(0, 10**6),
        st.sampled_from([0.5, 0.99, 1.01, 2.0]),
        st.sampled_from([1, -1, 1j, -1j]),
    )
    for kind, pick, factor, direction in draw(st.lists(steps, max_size=30)):
        v = values[pick % len(values)]
        if kind == "repeat":
            values.append(v)
        elif kind == "conjugate":
            values.append(v.conjugate())
        elif kind == "mirror":
            values.append(-v.conjugate())
        elif kind == "near":
            values.append(v + 1e-11 * direction)
        else:
            values.append(v + factor * tie_tol * abs(v) * direction)
    return draw(st.permutations(values)), tie_tol


class TestOrderWithTies:
    @settings(max_examples=300, deadline=None)
    @given(_tie_values())
    def test_matches_reference_loop(self, case):
        values, tie_tol = case
        assert order_with_ties(values, tie_tol) == _reference_order_with_ties(values, tie_tol)

    def test_empty(self):
        assert order_with_ties([]) == ([], [])

    def test_plain_magnitude_order(self):
        order, groups = order_with_ties([3.0, 1.0, 2.0])
        assert order == [1, 2, 0]
        assert groups == []

    def test_conjugate_pair_negative_imaginary_first(self):
        order, groups = order_with_ties([2 + 1j, 2 - 1j])
        assert order == [1, 0]
        assert groups == [(1, 0)]

    def test_pair_with_last_digit_noise_still_resolves_by_imag(self):
        up = complex(6 - 1e-15, 1.7320508075688779)
        down = complex(6, -1.732050807568877)
        order, _ = order_with_ties([up, down])
        assert order == [1, 0]

    def test_plus_minus_real_pair_negative_first(self):
        order, _ = order_with_ties([2.0 + 1e-15, -2.0])
        assert order == [1, 0]

    def test_exact_repeats_keep_input_order(self):
        order, groups = order_with_ties([1.0, 1.0, 1.0])
        assert order == [0, 1, 2]
        assert groups == [(0, 1, 2)]


class TestEigenDecompose:
    """Defectiveness verdicts, read from ``jordan_decompose(a).is_diagonalizable``."""

    def test_diagonal_matrix(self):
        dec = jordan_decompose(np.diag([3.0, 1.0, 2.0]))
        assert dec.is_diagonalizable
        assert sorted(np.real(dec.eigenvalues)) == pytest.approx([1.0, 2.0, 3.0])

    def test_defective_matrix_is_not_diagonalizable(self):
        dec = jordan_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not dec.is_diagonalizable
        assert np.allclose(sorted(np.real(dec.eigenvalues)), [1.0, 1.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(NonSquareError):
            jordan_decompose(np.zeros((2, 3)))

    def test_identity_eigenvalues_all_one(self):
        dec = jordan_decompose(np.eye(4))
        assert dec.is_diagonalizable
        assert np.all(dec.eigenvalues == 1.0)

    def test_defective_marker_matches_exact_oracle(self):
        # triangular integer Laplacians keep their eigenvalues on the
        # diagonal, so exact rational ranks settle defectiveness
        controls = [
            ("star4", build_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])),
            ("fan3", build_graph(3, [(0, 1, 2), (0, 2, 3)])),
        ]
        for name, g in defective_zoo() + controls:
            m = directed_laplacian(g).matrix
            assert m.shape[0] <= 6
            dec = jordan_decompose(m)
            want = exact_defective_triangular(
                [[int(x.real) for x in row] for row in m]
            )
            assert (not dec.is_diagonalizable) == want, name


def _chain_union(rng, lengths, delta=0.0):
    """Disjoint directed paths of the given node counts on shuffled labels.

    Every weight is 1 + delta N(0, 1) (exactly 1 at delta 0). A path on L
    nodes has one Jordan block of size L - 1 at eigenvalue 1. Returns the
    graph and the path lengths in drawn order.
    """
    lengths = [int(x) for x in rng.permutation(lengths)]
    n = sum(lengths)
    perm = rng.permutation(n)
    edges, start = [], 0
    for length in lengths:
        for k in range(length - 1):
            w = 1.0 + delta * float(rng.standard_normal())
            edges.append((int(perm[start + k]), int(perm[start + k + 1]), w))
        start += length
    return build_graph(n, edges), lengths


def _assert_blocks_match_exact_oracle(dec, matrix, name):
    """Group the blocks by integer eigenvalue and compare each group's
    sizes against the exact rational rank oracle."""
    eigenvalues = {int(round(b.eigenvalue.real)) for b in dec.blocks}
    for lam in eigenvalues:
        got: dict[int, int] = {}
        for b in dec.blocks:
            if abs(b.eigenvalue - lam) < 1e-6:
                got[b.size] = got.get(b.size, 0) + 1
        expected = exact_block_sizes(
            [[Fraction(int(x.real)) for x in row] for row in matrix], lam
        )
        assert got == expected, f"{name} at eigenvalue {lam}"


class TestJordanDecompose:
    def test_zoo_block_structure_matches_exact_oracle(self):
        for name, g in defective_zoo():
            lap = directed_laplacian(g)
            dec = jordan_decompose(lap.matrix)
            assert not dec.is_diagonalizable, name
            _assert_blocks_match_exact_oracle(dec, lap.matrix, name)

    def test_zoo_reconstruction(self):
        for name, g in defective_zoo():
            lap = directed_laplacian(g)
            dec = jordan_decompose(lap.matrix)
            residual = np.linalg.norm(dec.reconstruct() - lap.matrix)
            assert residual <= 1e-8 * max(1.0, np.linalg.norm(lap.matrix)), name

    def test_superdiagonal_is_exactly_one(self):
        for name, g in defective_zoo():
            dec = jordan_decompose(directed_laplacian(g).matrix)
            for b in dec.blocks:
                for k in range(b.size - 1):
                    assert dec.j[b.start + k, b.start + k + 1] == 1.0, name

    def test_chain_heads_are_proper_eigenvectors(self):
        for name, g in defective_zoo():
            lap = directed_laplacian(g)
            dec = jordan_decompose(lap.matrix)
            for b in dec.blocks:
                head = dec.v[:, b.start]
                residual = np.linalg.norm(lap.matrix @ head - b.eigenvalue * head)
                assert residual <= 1e-8 * max(1.0, np.linalg.norm(lap.matrix)), name

    def test_chain_recurrence_holds(self):
        # within a block, (A - lam I) maps each later column to the previous
        g = dict(defective_zoo())["chain5"]
        lap = directed_laplacian(g)
        dec = jordan_decompose(lap.matrix)
        for b in dec.blocks:
            shifted = lap.matrix - b.eigenvalue * np.eye(dec.n)
            for k in range(1, b.size):
                lhs = shifted @ dec.v[:, b.start + k]
                rhs = dec.v[:, b.start + k - 1]
                assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_head_normalization_convention(self):
        for _, g in defective_zoo():
            dec = jordan_decompose(directed_laplacian(g).matrix)
            for b in dec.blocks:
                head = dec.v[:, b.start]
                assert np.linalg.norm(head) == pytest.approx(1.0, abs=1e-12)
                pivot = head[int(np.argmax(np.abs(head)))]
                assert pivot.imag == pytest.approx(0.0, abs=1e-12)
                assert pivot.real > 0

    def test_constant_vector_snap(self):
        dec = jordan_decompose(directed_laplacian(make_random_digraph(np.random.default_rng(3), 7)).matrix)
        zero_blocks = [b for b in dec.blocks if b.eigenvalue == 0 and b.size == 1]
        assert len(zero_blocks) == 1
        col = dec.v[:, zero_blocks[0].start]
        assert np.array_equal(col, np.full(7, 1 / np.sqrt(7), dtype=complex))

    def test_diagonalizable_case_reduces_to_eigen(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        dec = jordan_decompose(a)
        assert dec.is_diagonalizable
        assert all(b.size == 1 for b in dec.blocks)
        assert np.linalg.norm(dec.reconstruct() - a) < 1e-10 * np.linalg.norm(a)

    def test_blocks_ordered_by_magnitude(self):
        dec = jordan_decompose(directed_laplacian(dict(defective_zoo())["two_chains"]).matrix)
        mags = [abs(b.eigenvalue) for b in dec.blocks]
        assert mags == sorted(mags)

    def test_diagonal_matrix_passes_through_sorted(self):
        dec = jordan_decompose(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(dec.j, np.diag([1.0, 2.0, 3.0]).astype(complex))
        for k in range(3):
            col = dec.v[:, k]
            assert np.count_nonzero(col) == 1
            assert col[int(np.argmax(np.abs(col)))] == 1.0

    def test_ill_conditioned_basis_warns(self):
        # eigenvalues split by 1e-12 with a unit coupling entry: forcing
        # the cluster tolerance below the split keeps the matrix formally
        # diagonalizable but the eigenvectors nearly parallel
        a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]])
        with pytest.warns(IllConditionedBasisWarning):
            dec = jordan_decompose(a, cluster_tol=1e-13)
        assert dec.ill_conditioned
        assert dec.basis_condition > 1e12
        assert dec.is_diagonalizable

    def test_oversized_cluster_tol_falls_back_gracefully(self):
        # merging everything into one cluster must not crash or lose columns
        lap = directed_laplacian(make_random_digraph(np.random.default_rng(5), 6))
        dec = jordan_decompose(lap.matrix, cluster_tol=1e6)
        assert dec.v.shape == (6, 6)
        assert np.linalg.norm(dec.reconstruct() - lap.matrix) < 1e-6 * max(
            1.0, np.linalg.norm(lap.matrix)
        )

    def test_perturbed_chain_unions_fit_or_raise_typed(self):
        # Disjoint paths of 3 and 5 nodes with unit weights times
        # 1 + 1e-6 N(0, 1): the noise splits each Jordan block into a
        # cluster whose null spaces fit no Jordan structure. Such a cluster
        # is an artifact; it must never yield more columns than it holds.
        for seed in range(10):
            g, _ = _chain_union(np.random.default_rng(seed), [3, 3, 5, 5], delta=1e-6)
            lap = directed_laplacian(g).matrix
            try:
                dec = jordan_decompose(lap)
            except DgftError:
                continue
            residual = np.linalg.norm(dec.reconstruct() - lap)
            assert residual <= 1e-6 * max(1.0, np.linalg.norm(lap)), seed

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10_000))
    def test_random_laplacian_reconstruction_property(self, n, seed):
        g = make_random_digraph(np.random.default_rng(seed), n)
        lap = directed_laplacian(g)
        dec = jordan_decompose(lap.matrix)
        scale = max(1.0, np.linalg.norm(lap.matrix))
        assert np.linalg.norm(dec.reconstruct() - lap.matrix) <= 1e-8 * scale
        assert sum(b.size for b in dec.blocks) == n


@pytest.mark.parametrize(
    "kernel, decomposer, a",
    [
        ("svd", jordan_decompose, np.array([[1.0, 1.0], [0.0, 1.0]])),
    ],
)
def test_svd_failure_is_typed(monkeypatch, kernel, decomposer, a):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, kernel, fail)
    with pytest.raises(NoConvergenceError, match="SVD did not converge"):
        decomposer(a)


@pytest.mark.parametrize(
    "graph, unitary",
    [
        (make_random_digraph(np.random.default_rng(3), 12, p=0.5), False),
        (make_random_undirected(np.random.default_rng(3), 12), True),
        (ring_graph(12), True),
    ],
    ids=["digraph", "undirected", "ring"],
)
def test_no_svd_outside_chain_extraction(monkeypatch, graph, unitary):
    # Only Jordan chains need a rank decision; the basis condition comes
    # from norms of V and its inverse. Undirected graphs and the normal
    # ring take the unitary path.
    def fail(*args, **kwargs):
        raise AssertionError("SVD-based kernel called")

    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(np.linalg, "cond", fail)
    dec = decompose(directed_laplacian(graph))
    assert dec.is_diagonalizable
    assert dec.is_unitary_basis is unitary


@pytest.fixture
def svd_dtypes(monkeypatch):
    """The dtypes of the matrices handed to ``np.linalg.svd``, in call order."""
    seen = []
    svd = np.linalg.svd

    def recording(m, *args, **kwargs):
        seen.append(m.dtype)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


class TestRealArithmetic:
    """Real clusters of real matrices keep their chains real; complex
    clusters and complex weights take the same chain code in complex."""

    def test_exact_chains_of_real_laplacians_are_real(self, svd_dtypes):
        cases = [(name, directed_laplacian(g).matrix) for name, g in defective_zoo()]
        for seed in range(5):
            g, _ = _chain_union(np.random.default_rng(seed), [3, 3, 5, 5])
            cases.append((f"chain union {seed}", directed_laplacian(g).matrix))
        for name, lap in cases:
            svd_dtypes.clear()
            dec = jordan_decompose(lap)
            assert svd_dtypes and set(svd_dtypes) == {np.dtype(float)}, name
            assert np.all(dec.v.imag == 0), name
            _assert_blocks_match_exact_oracle(dec, lap, name)

    def test_real_cluster_in_a_complex_eig_stack(self, svd_dtypes):
        # A 4-ring and a 4-node path share one stacked eig, complex for the
        # ring's sake; the path's chain at 1 is still built in real arithmetic.
        lap, _ = _union([_piece("ring", 4, None)[0], _piece("path", 4, None)[0]], np.random.default_rng(0))
        dec = jordan_decompose(lap)
        assert svd_dtypes and set(svd_dtypes) == {np.dtype(float)}
        (b,) = [b for b in dec.blocks if b.size > 1]
        assert (b.size, b.eigenvalue) == (3, 1)
        assert not dec.v[:, b.start : b.start + b.size].imag.any()

    def test_complex_clusters_of_a_real_matrix(self, svd_dtypes):
        # [[C, I], [0, C]] with C a quarter turn: one 2-block at +i, one at -i.
        c = np.array([[0.0, -1.0], [1.0, 0.0]])
        a = np.block([[c, np.eye(2)], [np.zeros((2, 2)), c]])
        dec = jordan_decompose(a)
        assert svd_dtypes and set(svd_dtypes) == {np.dtype(complex)}
        assert [b.size for b in dec.blocks] == [2, 2]
        assert sorted(round(b.eigenvalue.imag) for b in dec.blocks) == [-1, 1]
        for b in dec.blocks:
            assert abs(b.eigenvalue - 1j * round(b.eigenvalue.imag)) < 1e-6
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-8 * np.linalg.norm(a)

    def test_complex_weight_defective_cluster(self, svd_dtypes):
        g, lengths = _chain_union(np.random.default_rng(3), [3, 3, 5, 5])
        phase = np.exp(1j * np.pi / 3)
        lap = directed_laplacian(Graph(n=g.n, weights=g.weights * phase)).matrix
        dec = jordan_decompose(lap)
        assert svd_dtypes and set(svd_dtypes) == {np.dtype(complex)}
        sizes = sorted(b.size for b in dec.blocks if abs(b.eigenvalue - phase) < 1e-6)
        assert sizes == sorted(length - 1 for length in lengths)
        assert np.linalg.norm(dec.reconstruct() - lap) <= 1e-8 * np.linalg.norm(lap)


def _reference_chains(a, lam, multiplicity, rank_tol):
    """Chain extraction that re-projects every candidate against the whole
    obstruction before each pick, in complex arithmetic: the reference the
    per-level projection of ``_jordan_chains`` must agree with."""
    n = a.shape[0]
    shifted = a - lam * np.eye(n, dtype=complex)
    nullities = [0]
    bases = [np.zeros((n, 0), dtype=complex)]
    power = np.eye(n, dtype=complex)
    while nullities[-1] < multiplicity and len(nullities) <= multiplicity:
        power = power @ shifted
        basis = _nullspace_basis(power, rank_tol * float(np.linalg.norm(power)))
        if basis.shape[1] <= nullities[-1]:
            break
        nullities.append(basis.shape[1])
        bases.append(basis)
    depth = len(nullities) - 1
    padded = nullities + [nullities[-1]]
    counts = {s: 2 * padded[s] - padded[s - 1] - padded[s + 1] for s in range(1, depth + 1)}
    if depth == 0 or nullities[-1] > multiplicity or min(counts.values()) < 0:
        return []
    chains = []
    for s in range(depth, 0, -1):
        obstruction = bases[s - 1]
        for chain in chains:
            r = _orthogonal_residual(chain[s - 1], obstruction)
            if np.linalg.norm(r) > 1e-12 * np.linalg.norm(chain[s - 1]):
                obstruction = np.column_stack([obstruction, r / np.linalg.norm(r)])
        for _ in range(counts[s]):
            residuals = bases[s] - obstruction @ (obstruction.conj().T @ bases[s])
            norms = np.linalg.norm(residuals, axis=0)
            best = int(np.argmax(norms))
            if norms[best] <= 1e-10:
                return chains
            top = _orthogonal_residual(bases[s][:, best], obstruction)
            top = top / np.linalg.norm(top)
            obstruction = np.column_stack([obstruction, top])
            vectors = [top]
            for _ in range(s - 1):
                vectors.append(shifted @ vectors[-1])
            chains.append(vectors[::-1])
    return chains


class TestChainPicks:
    @staticmethod
    def _clusters():
        """(name, real matrix, eigenvalue, multiplicity) for every repeated
        eigenvalue of the zoo and of 10 exact chain unions (n = 16, 40).

        All of them are DAG Laplacians, so the eigenvalues are exactly the
        diagonal entries."""
        cases = [(name, directed_laplacian(g).matrix.real) for name, g in defective_zoo()]
        for seed in range(10):
            lengths = [3, 3, 5, 5] if seed < 5 else [3] * 5 + [5] * 5
            g, _ = _chain_union(np.random.default_rng(seed), lengths)
            cases.append((f"chain union {seed}", directed_laplacian(g).matrix.real))
        for name, a in cases:
            values, counts = np.unique(np.diag(a), return_counts=True)
            for lam, count in zip(values, counts):
                if count > 1:
                    yield f"{name} at {lam}", a, float(lam), int(count)

    def test_per_level_projection_matches_full_reprojection(self):
        for name, a, lam, multiplicity in self._clusters():
            want = _reference_chains(a, lam, multiplicity, DEFAULT_RANK_TOL)
            assert sum(len(c) for c in want) == multiplicity, name
            for m, mu in ((a, lam), (a.astype(complex), complex(lam))):
                got = _jordan_chains(m, mu, multiplicity, DEFAULT_RANK_TOL)
                assert [len(c) for c in got] == [len(c) for c in want], name
                assert all(v.dtype == m.dtype for c in got for v in c), name
                shifted = m - mu * np.eye(a.shape[0])
                bound = 1e-10 * np.linalg.norm(shifted)
                for chain in got:
                    below = np.zeros(a.shape[0])
                    for v in chain:  # (A - lam I) v_k = v_{k-1}, with v_{-1} = 0
                        assert np.linalg.norm(shifted @ v - below) <= bound * np.linalg.norm(v), name
                        below = v


class TestBlockChainPick:
    def test_equal_chains_at_one_level_match_the_sympy_jordan_form(self):
        # Two 5-node paths and one 3-node path: the two length-4 chains at
        # eigenvalue 1 come out of one SVD of the deepest level.
        g, _ = _chain_union(np.random.default_rng(7), [5, 5, 3])
        lap = directed_laplacian(g).matrix
        scale = float(np.linalg.norm(lap))
        chains = _jordan_chains(lap, 1.0, 10, DEFAULT_RANK_TOL)
        assert [len(c) for c in chains] == [4, 4, 2]
        dec = jordan_decompose(lap)
        _assert_blocks_match_exact_oracle(dec, lap, "paths 5, 5, 3")
        _, jf = sympy.Matrix(lap.astype(int).tolist()).jordan_form()
        starts = [0] + [k + 1 for k in range(g.n - 1) if jf[k, k + 1] == 0] + [g.n]
        want = sorted((int(jf[a, a]), b - a) for a, b in zip(starts, starts[1:]))
        assert sorted((round(b.eigenvalue.real), b.size) for b in dec.blocks) == want
        for b in dec.blocks:
            shifted = lap - b.eigenvalue * np.eye(g.n)
            below = np.zeros(g.n)
            for v in dec.v[:, b.start : b.start + b.size].T:
                assert np.linalg.norm(shifted @ v - below) <= 1e-10 * scale
                below = v

    def test_shortfall_returns_the_chains_built_so_far(self, monkeypatch):
        # A thin SVD whose last needed singular value is at 1e-10 refuses the level.
        g, _ = _chain_union(np.random.default_rng(7), [5, 5, 3])
        lap = directed_laplacian(g).matrix
        svd = np.linalg.svd

        def short(m, *args, **kwargs):
            u, sigma, vh = svd(m, *args, **kwargs)
            if kwargs.get("full_matrices", True) is False:
                sigma = sigma.copy()
                sigma[1:] = 1e-10
            return u, sigma, vh

        monkeypatch.setattr(np.linalg, "svd", short)
        assert _jordan_chains(lap, 1.0, 10, DEFAULT_RANK_TOL) == []


class TestBasisCondition:
    def test_is_one_norm_condition_on_jordan_path(self):
        graphs = [g for _, g in defective_zoo()]
        graphs += [make_random_digraph(np.random.default_rng(seed), 20) for seed in range(10)]
        for g in graphs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedBasisWarning)
                dec = jordan_decompose(directed_laplacian(g).matrix)
            expected = np.linalg.norm(dec.v, 1) * np.linalg.norm(dec.v_inv, 1)
            assert dec.basis_condition == pytest.approx(expected, rel=1e-12, abs=0)

    def test_orthonormal_path_uses_transpose_norms(self):
        for seed in range(5):
            g = make_random_undirected(np.random.default_rng(seed), 15)
            dec = decompose(directed_laplacian(g))
            assert dec.is_unitary_basis
            expected = np.linalg.norm(dec.v, 1) * np.linalg.norm(dec.v, np.inf)
            assert dec.basis_condition == pytest.approx(expected, rel=1e-12, abs=0)
            assert 1.0 <= dec.basis_condition <= dec.n


class TestSymmetricEigenDecompose:
    def test_refuses_a_matrix_that_is_not_normal(self):
        # Its unitary basis cannot reproduce it: the certificate refuses it.
        with pytest.raises(ReconstructionError):
            symmetric_eigen_decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_hermitian_matrix_gets_real_eigenvalues_and_unitary_basis(self):
        a = np.array([[0.0, 1j], [-1j, 0.0]])
        dec = symmetric_eigen_decompose(a)
        assert dec.eigenvalues.dtype == float
        assert list(dec.eigenvalues) == pytest.approx([-1.0, 1.0], abs=1e-15)
        assert np.array_equal(dec.v_inv, dec.v.conj().T)
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-15

    def test_eigenvalues_exactly_real(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        dec = symmetric_eigen_decompose(a)
        assert np.all(dec.eigenvalues.imag == 0)

    def test_basis_is_orthonormal_and_inverse_is_transpose(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5))
        a = m + m.T
        dec = symmetric_eigen_decompose(a)
        assert dec.is_unitary_basis
        assert np.array_equal(dec.v_inv, dec.v.T)
        assert np.linalg.norm(dec.v.T @ dec.v - np.eye(5)) < 1e-10 * np.sqrt(5)

    def test_ordering_by_magnitude_negative_first(self):
        dec = symmetric_eigen_decompose(np.diag([3.0, -3.0, 1.0]))
        assert list(np.real(dec.eigenvalues)) == [1.0, -3.0, 3.0]

    def test_sign_convention(self):
        dec = symmetric_eigen_decompose(np.diag([2.0, 5.0]))
        for k in range(2):
            col = dec.v[:, k]
            assert col[int(np.argmax(np.abs(col)))].real > 0

    def test_two_path_spectrum(self):
        dec = symmetric_eigen_decompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert list(np.real(dec.eigenvalues)) == pytest.approx([0.0, 2.0], abs=1e-12)
        flat, alternating = dec.v[:, 0], dec.v[:, 1]
        root_half = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(flat), root_half, atol=1e-12)
        assert np.allclose(np.abs(alternating), root_half, atol=1e-12)
        assert flat[0] == pytest.approx(flat[1], abs=1e-12)
        assert alternating[0] == pytest.approx(-alternating[1], abs=1e-12)

    def test_zero_matrix(self):
        dec = symmetric_eigen_decompose(np.zeros((3, 3)))
        assert np.all(dec.eigenvalues == 0)
        assert np.linalg.norm(dec.v.T @ dec.v - np.eye(3)) < 1e-12


def _ring_edges(nodes, weight=1.0):
    """A directed cycle through ``nodes`` in order, every edge of ``weight``."""
    nodes = [int(k) for k in nodes]
    return [(nodes[k - 1], nodes[k], weight) for k in range(len(nodes))]


def _normal_laplacians():
    """(name, Laplacian) of normal digraphs whose Laplacian is not symmetric."""
    graphs = [(f"ring {n}", ring_graph(n)) for n in (5, 8, 200)]
    n = 12
    offsets = [(k, (k + 1) % n, 1.0) for k in range(n)] + [(k, (k + 3) % n, 0.5) for k in range(n)]
    graphs.append(("two-offset circulant", build_graph(n, offsets)))
    perm = np.random.default_rng(4).permutation(21)
    rings = [e for r in range(3) for e in _ring_edges(perm[7 * r : 7 * r + 7])]
    graphs.append(("three equal rings", build_graph(21, rings)))
    graphs.append(("complex unit weight ring", build_graph(9, _ring_edges(range(9), np.exp(0.7j)))))
    return [(name, directed_laplacian(g).matrix) for name, g in graphs]


class TestNormalPath:
    """Normal Laplacians take the unitary path: eigh of the Hermitian part,
    each of its eigenvalue clusters split by a small eig of L."""

    @pytest.mark.parametrize("lap", [pytest.param(lap, id=name) for name, lap in _normal_laplacians()])
    def test_unitary_basis_reproduces_the_jordan_spectrum(self, lap):
        assert is_normal(lap)
        dec = decompose(lap)
        norm = float(np.linalg.norm(lap))
        assert dec.is_unitary_basis
        assert np.array_equal(dec.v_inv, dec.v.conj().T)
        assert dec.residual <= RECON_LIMIT * max(1.0, norm)
        assert np.linalg.norm(dec.v_inv @ dec.v - np.eye(dec.n)) <= 1e-10 * np.sqrt(dec.n)
        want = jordan_decompose(lap).eigenvalues
        assert np.max(np.abs(dec.eigenvalues - want)) <= 1e-12 * norm

    def test_random_circulants_and_ring_unions(self):
        # Every circulant and every disjoint union of rings is normal. Random
        # offsets, sizes, weights and labels, some complex, some repeated.
        rng = np.random.default_rng(8)
        for trial in range(40):
            if trial % 2:
                n = int(rng.integers(3, 60))
                offsets = rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False)
                weights = np.round(rng.uniform(0.5, 2.0, offsets.size) * 2) / 2
                edges = [(k, (k + int(o)) % n, w) for o, w in zip(offsets, weights) for k in range(n)]
            else:
                sizes = [int(x) for x in rng.choice([3, 4, 5, 8], size=int(rng.integers(1, 5)))]
                n, nodes = sum(sizes), np.cumsum([0] + sizes)
                edges = [e for a, b in zip(nodes, nodes[1:]) for e in _ring_edges(range(a, b))]
            phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) if trial % 3 == 0 else 1.0
            perm = rng.permutation(n)
            g = build_graph(n, [(int(perm[s]), int(perm[d]), w * phase) for s, d, w in edges])
            lap = directed_laplacian(g).matrix
            dec = decompose(lap)
            assert dec.is_unitary_basis, trial
            assert dec.residual <= 1e-10 * max(1.0, np.linalg.norm(lap)), trial
            assert np.linalg.norm(dec.v_inv @ dec.v - np.eye(n)) <= 1e-10 * np.sqrt(n), trial

    def test_perturbed_ring_routes_to_jordan(self):
        for n in (5, 200):
            edges = _ring_edges(range(n))
            edges[0] = (edges[0][0], edges[0][1], 1.0 + 1e-8)
            lap = directed_laplacian(build_graph(n, edges)).matrix
            assert not is_normal(lap), n
            assert not decompose(lap).is_unitary_basis, n

    def test_ring_calls_no_full_eig_and_no_inverse(self, monkeypatch):
        shapes = []
        eig = np.linalg.eig

        def recording(m):
            shapes.append(m.shape)
            return eig(m)

        def fail(*args, **kwargs):
            raise AssertionError("inverse computed")

        monkeypatch.setattr(np.linalg, "eig", recording)
        monkeypatch.setattr(np.linalg, "inv", fail)
        for n in (5, 8, 200):
            shapes.clear()
            assert decompose(ring_graph(n)).is_unitary_basis
            # only the 1x1 and 2x2 clusters of the Hermitian part
            assert shapes and all(shape[-1] <= 2 for shape in shapes), n

    def test_symmetric_input_pays_no_normality_test(self, monkeypatch):
        import dgft.spectral

        def fail(m):
            raise AssertionError("normality tested")

        monkeypatch.setattr(dgft.spectral, "is_normal", fail)
        assert decompose(make_random_undirected(np.random.default_rng(2), 12)).is_unitary_basis

    def test_probe_rejects_a_digraph_without_an_n_by_n_product(self):
        operands = []

        class Recording(np.ndarray):
            def __matmul__(self, other):
                operands.append(np.ndim(other))
                return super().__matmul__(other)

        lap = directed_laplacian(make_random_digraph(np.random.default_rng(5), 30)).matrix
        assert not is_normal(lap.view(Recording))
        assert operands and max(operands) == 1


def _simple_undirected_laplacians(count: int = 8, n: int = 12):
    """Seeded connected undirected Laplacians whose eigenvalues are well apart."""
    out = []
    seed = 0
    while len(out) < count:
        lap = directed_laplacian(make_random_undirected(np.random.default_rng(seed), n)).matrix
        seed += 1
        w = np.sort(np.linalg.eigvalsh(lap.real))
        if w[1] > 1e-3 and np.min(np.diff(w)) > 1e-3 * w[-1]:
            out.append(lap)
    return out


class TestSharedFinisher:
    """Both decomposition paths end in the same basis convention."""

    def test_paths_agree_on_simple_undirected_spectra(self):
        for lap in _simple_undirected_laplacians():
            jd, sd = jordan_decompose(lap), symmetric_eigen_decompose(lap)
            assert [(b.start, b.size) for b in jd.blocks] == [(b.start, b.size) for b in sd.blocks]
            assert np.allclose(jd.eigenvalues, sd.eigenvalues, rtol=0, atol=1e-12)
            (zero,) = [k for k, lam in enumerate(sd.eigenvalues) if lam == 0]
            assert jd.eigenvalues[zero] == 0
            constant = np.full(lap.shape[0], 1 / np.sqrt(lap.shape[0]), dtype=complex)
            assert np.array_equal(jd.v[:, zero], constant)
            assert np.array_equal(sd.v[:, zero], constant)
            assert np.max(np.abs(jd.v - sd.v)) <= 1e-12

    def test_raw_basis_keeps_kernel_columns(self):
        # The basis is the kernel's own columns, each times its convention
        # factor: the one that gives it unit norm and its largest-magnitude
        # entry real positive (the snapped constant column is that too).
        def convention(columns):
            pivots = columns[np.argmax(np.abs(columns), axis=0), range(columns.shape[1])]
            return columns * np.conj(pivots) / (np.abs(pivots) * np.linalg.norm(columns, axis=0))

        for lap in _simple_undirected_laplacians(count=3):
            w, vectors = np.linalg.eigh(lap.real)
            order, _ = order_with_ties(w)
            dec = symmetric_eigen_decompose(lap)
            assert np.allclose(dec.v, convention(vectors[:, order]), rtol=0, atol=1e-14)
            assert np.array_equal(dec.v_inv, dec.v.T)

            w, vectors = np.linalg.eig(lap.real)
            order, _ = order_with_ties(w)
            dec = jordan_decompose(lap)
            assert np.allclose(dec.v, convention(vectors[:, order]), rtol=0, atol=1e-14)
            snapped = dec.eigenvalues == 0
            assert np.count_nonzero(snapped) == 1
            assert np.array_equal(dec.eigenvalues[~snapped], w[order][~snapped])

    def test_normalization_matches_per_chain_reference(self, monkeypatch):
        # One factor per chain, taken from its head; the loop is the
        # reference. The raw chains are the basis with the convention's
        # scaling switched off.
        graphs = [g for _, g in defective_zoo()]
        graphs += [make_random_digraph(np.random.default_rng(s), 9) for s in range(5)]
        laps = [directed_laplacian(g).matrix for g in graphs]
        decs = [jordan_decompose(lap) for lap in laps]
        monkeypatch.setattr("dgft.linalg._normalize_chains", lambda v, blocks: None)
        for lap, dec in zip(laps, decs):
            raw = jordan_decompose(lap)
            for b, done in zip(raw.blocks, dec.blocks):
                if done.eigenvalue == 0 and b.size == 1:
                    continue  # the snapped constant column
                chain = raw.v[:, b.start : b.start + b.size]
                head = chain[:, 0] / np.linalg.norm(chain[:, 0])
                pivot = head[int(np.argmax(np.abs(head)))]
                want = chain / np.linalg.norm(chain[:, 0]) * np.conj(pivot / abs(pivot))
                got = dec.v[:, b.start : b.start + b.size]
                assert np.allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_derived_facts_are_read_only(self):
        dec = symmetric_eigen_decompose(np.diag([2.0, 5.0]))
        assert np.array_equal(dec.eigenvalues, np.diag(dec.j))
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 1.0
        for name in ("eigenvalues", "is_diagonalizable", "ill_conditioned"):
            with pytest.raises(AttributeError):
                setattr(dec, name, None)


class TestDerivedBlocks:
    """``blocks`` is read off ``j`` on first access, not built by the finisher."""

    @staticmethod
    def _decompositions():
        rng = np.random.default_rng(11)
        graphs = [g for _, g in defective_zoo()]
        graphs += [_chain_union(rng, lengths)[0] for lengths in ([3, 3, 5, 5], [2, 4, 1], [6])]
        graphs += [make_random_digraph(rng, 12) for _ in range(4)]
        graphs += [make_random_undirected(rng, 12) for _ in range(2)]
        graphs += [ring_graph(8), build_graph(5, [(0, 1, 1.0)])]  # unitary; isolated nodes
        return [decompose(directed_laplacian(g)) for g in graphs]

    def test_decompose_builds_no_block_until_read(self, monkeypatch):
        built = []
        init = JordanBlock.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(JordanBlock, "__init__", counting_init)
        rng = np.random.default_rng(401)
        for g in (make_random_undirected(rng, 200, p=0.05), make_random_digraph(rng, 200, p=0.05)):
            dec = decompose(directed_laplacian(g))
            tails = _Bidiagonal(dec.j).inner.size
            assert len(dec.proper_indices) + tails == dec.eigenvalues.size == 200
            assert dec.is_diagonalizable == (tails == 0)
            assert built == []
            blocks = dec.blocks
            assert len(built) == len(blocks) and dec.blocks is blocks  # built once, then kept
            built.clear()

    def test_blocks_tile_columns_from_the_chain_heads(self):
        for dec in self._decompositions():
            heads = np.delete(np.arange(dec.n), _Bidiagonal(dec.j).inner)
            assert [b.start for b in dec.blocks] == heads.tolist() == list(dec.proper_indices)
            assert [b.start + b.size for b in dec.blocks] == heads[1:].tolist() + [dec.n]
            for b in dec.blocks:
                assert type(b.eigenvalue) is complex and b.eigenvalue == dec.j[b.start, b.start]
                block = dec.j[b.start : b.start + b.size, b.start : b.start + b.size]
                assert np.array_equal(block, b.eigenvalue * np.eye(b.size) + np.eye(b.size, k=1))
            assert dec.is_diagonalizable == all(b.size == 1 for b in dec.blocks)

    def test_block_sizes_match_exact_oracle(self):
        graphs = [(name, g) for name, g in defective_zoo()]
        rng = np.random.default_rng(5)
        for lengths in ([3, 3, 5, 5], [5, 5, 3], [2, 2, 4], [1, 3, 6]):
            graphs.append((f"paths {lengths}", _chain_union(rng, lengths)[0]))
        for name, g in graphs:
            lap = directed_laplacian(g).matrix
            _assert_blocks_match_exact_oracle(decompose(lap), lap, name)


def _perturbed_path() -> np.ndarray:
    """Laplacian of the directed 5-node path with weights 1 + 1e-4 N(0, 1)."""
    weights = 1.0 + 1e-4 * np.random.default_rng(0).standard_normal(4)
    return directed_laplacian(build_graph(5, [(k, k + 1, float(weights[k])) for k in range(4)])).matrix


class TestCertificate:
    """Every decomposition carries its residual ||V J V^-1 - L||_F and is
    refused above recon_tol * ||L||_F, through the library API."""

    def test_library_refuses_basis_that_does_not_reproduce(self):
        # The perturbed 5-block splits into five nearly parallel eigenvectors:
        # relative residual 1.3e-2 at condition 1.7e15.
        with pytest.raises(ReconstructionError):
            decompose(_perturbed_path())

    def test_residual_is_the_reconstruction_residual(self):
        laps = [directed_laplacian(g).matrix for _, g in defective_zoo()]
        for seed in range(10):
            laps.append(directed_laplacian(make_random_digraph(np.random.default_rng(seed), 20)).matrix)
        rng = np.random.default_rng(11)
        g = make_random_digraph(rng, 20)
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=g.weights.shape))
        laps.append(directed_laplacian(Graph(n=g.n, weights=g.weights * phases)).matrix)
        for seed in range(5):
            laps.append(directed_laplacian(make_random_undirected(np.random.default_rng(seed), 15)).matrix)
        for k, lap in enumerate(laps):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedBasisWarning)
                dec = decompose(lap)
            want = np.linalg.norm(dec.reconstruct() - lap)
            assert abs(dec.residual - want) <= 1e-13 * max(1.0, np.linalg.norm(lap)), k

    def test_symmetric_path_certifies_the_input(self):
        # Asymmetry at rounding level leaves the matrix normal to rounding, so it
        # routes to eigh, which reads the symmetric part; the residual still
        # measures the input itself.
        lap = directed_laplacian(make_random_undirected(np.random.default_rng(3), 6)).matrix.copy()
        lap[0, 1] += 9e-13
        dec = decompose(lap)
        assert dec.is_unitary_basis
        want = np.linalg.norm(dec.reconstruct() - lap)
        assert abs(dec.residual - want) <= 1e-14 * np.linalg.norm(lap)

    def test_recon_tol_is_honoured(self):
        digraph = directed_laplacian(make_random_digraph(np.random.default_rng(1), 20)).matrix
        undirected = directed_laplacian(make_random_undirected(np.random.default_rng(1), 20)).matrix
        for call in (
            lambda: decompose(digraph, recon_tol=1e-30),
            lambda: jordan_decompose(digraph, recon_tol=1e-30),
            lambda: decompose(undirected, recon_tol=1e-30),
        ):
            with pytest.raises(ReconstructionError):
                call()
        path = _perturbed_path()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedBasisWarning)
            dec = decompose(path, recon_tol=1.0)
        assert dec.residual == pytest.approx(np.linalg.norm(dec.reconstruct() - path), rel=1e-10)
        assert 1e-3 < dec.residual / max(1.0, np.linalg.norm(path)) <= 1.0


    @pytest.mark.parametrize("weight", [1e300, 1e154])
    def test_overflowing_bound_is_refused(self, weight):
        # ||L||_F overflows to inf, so recon_tol * ||L||_F would
        # accept any residual, the infinite one included. The refusal is
        # the only signal: no numpy overflow warning comes before it.
        g = build_graph(3, [(0, 1, weight), (1, 2, 1.0), (2, 0, 1.0)])
        lap = directed_laplacian(g).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_normal(lap)
            for call in (decompose, jordan_decompose, symmetric_eigen_decompose):
                with pytest.raises(ReconstructionError, match="overflows"):
                    call(lap)

    @pytest.mark.parametrize("weight", [5e-324, 1e-310, 1e-305, 1e-200, 1e-162])
    def test_underflowing_norm_is_refused(self, weight):
        # ||L||_F underflows to 0 on a nonzero L, so the bound
        # recon_tol * ||L||_F is 0 and the float residual of any basis
        # could meet it: the parent certified three 1x1 blocks here.
        lap = directed_laplacian(build_graph(3, [(0, 1, weight), (1, 2, weight)])).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (decompose, jordan_decompose, symmetric_eigen_decompose):
                with pytest.raises(ReconstructionError, match="underflows"):
                    call(lap)
            edgeless = decompose(np.zeros((3, 3)))  # L = 0 is no underflow
        assert edgeless.residual == 0.0

    def test_normality_verdicts_survive_power_of_two_scaling(self):
        # is_normal scales by a power of two before its products, so the
        # verdict at 2^k times a matrix is the verdict at the matrix.
        laps = [directed_laplacian(ring_graph(6)).matrix, _perturbed_path()]
        laps += [directed_laplacian(make_random_digraph(np.random.default_rng(s), 8)).matrix for s in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lap in laps:
                assert {is_normal(lap * 2.0**k) for k in (-40, 0, 1, 500, 1000)} == {is_normal(lap)}


def _union(pieces, rng):
    """Block-diagonal union of square ``pieces`` on shuffled node labels.

    Returns the matrix and, per piece, its node indices in the union."""
    n = sum(len(p) for p in pieces)
    big = np.zeros((n, n))
    start = 0
    for p in pieces:
        big[start : start + len(p), start : start + len(p)] = p
        start += len(p)
    perm = rng.permutation(n)  # union node i is node perm[i] of ``big``
    inverse = np.argsort(perm)
    offsets = np.cumsum([0] + [len(p) for p in pieces])
    return big[np.ix_(perm, perm)], [inverse[s:e] for s, e in zip(offsets, offsets[1:])]


def _piece(kind, k, rng):
    """Laplacian of one piece on k nodes and, for integer pieces, its
    exact eigenvalues (the in-degrees: each is triangular up to order)."""
    if kind == "digraph":
        return directed_laplacian(make_random_digraph(rng, k, p=0.5)).matrix.real, None
    if kind == "ring":
        return directed_laplacian(ring_graph(k)).matrix.real, None
    feeds = {"path": lambda i: i - 1, "tree": lambda i: int(rng.integers(i))}.get(kind)
    edges = [(feeds(i), i, 1.0) for i in range(1, k)] if feeds else []
    lap = directed_laplacian(build_graph(k, edges)).matrix.real
    return lap, sorted(set(np.diag(lap).tolist()))


@st.composite
def _piece_unions(draw):
    kinds = st.sampled_from(["digraph", "path", "tree", "ring", "isolated"])
    specs = draw(st.lists(st.tuples(kinds, st.integers(2, 6)), min_size=1, max_size=6))
    specs = [(kind, 1 if kind == "isolated" else k) for kind, k in specs]
    while sum(k for _, k in specs) > 24:
        specs.pop()
    return specs, draw(st.integers(0, 2**32 - 1))


def _support(column):
    return frozenset(np.flatnonzero(column).tolist())


class TestComponents:
    """Each weakly connected component is decomposed alone, with the
    tolerances of the whole matrix, and the union certified block by block."""

    @settings(max_examples=100, deadline=None)
    @given(_piece_unions())
    def test_disjoint_unions_decompose_piece_by_piece(self, case):
        specs, seed = case
        rng = np.random.default_rng(seed)
        pieces = [_piece(kind, k, rng) for kind, k in specs]
        lap, nodes = _union([p for p, _ in pieces], rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedBasisWarning)
            dec = jordan_decompose(lap)
        scale = max(1.0, np.linalg.norm(lap))
        assert np.linalg.norm(dec.reconstruct() - lap) <= RECON_LIMIT * scale
        want = np.linalg.norm(dec.reconstruct() - lap)
        assert dec.residual == pytest.approx(want, abs=1e-13 * scale)
        assert dec.cluster_tol == _default_cluster_tol(len(lap), np.linalg.norm(lap))
        assert order_frequencies(dec.eigenvalues).order == tuple(range(dec.n))

        expected = []
        for (p, exact), (kind, k) in zip(pieces, specs):
            expected += ring_eigenvalues(k) if kind == "ring" else list(np.linalg.eigvals(p))
        got = list(dec.eigenvalues)
        for value in sorted(expected, key=lambda z: (z.real, z.imag)):
            k = int(np.argmin([abs(g - value) for g in got]))
            assert abs(got.pop(k) - value) <= 1e-8, value

        heads = {b.start: _support(dec.v[:, b.start]) for b in dec.blocks}
        for (p, exact), rows in zip(pieces, nodes):
            if exact is None:
                continue
            own = [b for b in dec.blocks if heads[b.start] <= frozenset(rows.tolist())]
            for lam in exact:
                sizes: dict[int, int] = {}
                for b in own:
                    if b.eigenvalue == lam:
                        sizes[b.size] = sizes.get(b.size, 0) + 1
                assert sizes == exact_block_sizes(p.tolist(), lam), (specs, lam)

        # At the value 1 of the paths and trees: longest chain first, then
        # the component with the smallest node.
        first = {i: min(rows) for rows in nodes for i in rows}
        at_one = [(-b.size, first[min(heads[b.start])]) for b in dec.blocks if b.eigenvalue == 1]
        assert at_one == sorted(at_one)

    def test_chain_union_runs_component_sized_kernels(self, monkeypatch):
        # 25 paths of 3 nodes and 25 of 5: one stacked eig per size, and no
        # rank decision or inverse larger than one component.
        g, lengths = _chain_union(np.random.default_rng(0), [3] * 25 + [5] * 25)
        shapes: dict[str, list] = {"svd": [], "inv": [], "eig": []}
        for name in shapes:
            kernel = getattr(np.linalg, name)

            def recording(m, *args, _kernel=kernel, _name=name, **kwargs):
                shapes[_name].append(np.shape(m))
                return _kernel(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        dec = jordan_decompose(directed_laplacian(g).matrix)
        assert max(shape[-2] for shape in shapes["svd"] + shapes["inv"]) <= 5
        assert sorted(shape[-1] for shape in shapes["eig"]) == [3, 5]
        assert sorted(b.size for b in dec.blocks if b.eigenvalue == 1) == sorted(
            length - 1 for length in lengths
        )

    def test_connected_input_takes_one_eig_of_the_whole_matrix(self, monkeypatch):
        shapes = []
        eig = np.linalg.eig

        def recording(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return eig(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", recording)
        jordan_decompose(directed_laplacian(demo_graph()).matrix)
        assert [s[-2:] for s in shapes] == [(5, 5)]

    def test_each_component_snaps_its_constant_vector(self):
        rng = np.random.default_rng(2)
        pieces = [_piece("digraph", 5, rng)[0] for _ in range(2)] + [np.zeros((1, 1))]
        lap, nodes = _union(pieces, rng)
        dec = jordan_decompose(lap)
        for rows in nodes:
            own = frozenset(rows.tolist())
            (b,) = [b for b in dec.blocks if _support(dec.v[:, b.start]) <= own and b.eigenvalue == 0]
            want = np.zeros(len(lap))
            want[rows] = 1 / np.sqrt(len(rows))
            assert np.array_equal(dec.v[:, b.start], want)

    def test_zero_columns_come_in_component_order(self):
        # Each component's lone zero is snapped to exactly 0 before the
        # columns are ordered, so at 0, as at every value, the component
        # with the smallest node comes first; the computed zeros (±4e-16)
        # no longer decide it.
        for seed in range(200):
            g = make_random_digraph(np.random.default_rng(seed), 6, p=0.5)
            lap = np.zeros((7, 7))
            lap[:6, :6] = directed_laplacian(g).matrix  # node 6 is isolated
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedBasisWarning)
                dec = jordan_decompose(lap)
            home = _component_minima(7, *np.nonzero(lap))  # each node's component
            zeros = [b.start for b in dec.blocks if b.eigenvalue == 0]
            owners = [home[min(_support(dec.v[:, k]))] for k in zeros]
            assert owners[-1] == 6, seed
            assert owners == sorted(owners), seed

    def test_block_residuals_add_in_squares(self):
        g, _ = _chain_union(np.random.default_rng(3), [3, 5, 4], delta=1e-8)
        lap = directed_laplacian(g).matrix
        dec = jordan_decompose(lap)
        assert dec.residual > 0
        assert dec.residual == pytest.approx(np.linalg.norm(dec.reconstruct() - lap), rel=1e-6)
        assert np.allclose(dec.v_inv @ dec.v, np.eye(len(lap)), atol=1e-8)


def _scale_corpus():
    """(name, Laplacian) over every family whose decomposition must not
    depend on the unit of the weights: random digraphs, undirected graphs,
    rings, exact chain unions, the defective zoo and random out-trees."""
    rng = np.random.default_rng(15)
    laps = [(name, directed_laplacian(g).matrix) for name, g in defective_zoo()]
    for i in range(4):
        laps.append((f"digraph {i}", directed_laplacian(make_random_digraph(rng, 12)).matrix))
        laps.append((f"undirected {i}", directed_laplacian(make_random_undirected(rng, 10)).matrix))
        laps.append((f"ring {i + 3}", directed_laplacian(ring_graph(i + 3)).matrix))
        g, _ = _chain_union(rng, [3, 4, 5][: i % 3 + 1] * 2)
        laps.append((f"chain union {i}", directed_laplacian(g).matrix))
        edges = [(int(rng.integers(node)), node, 1.0) for node in range(1, 8)]
        laps.append((f"out-tree {i}", directed_laplacian(build_graph(8, edges)).matrix))
    return laps


def _decompose_quietly(lap):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedBasisWarning)
        return decompose(lap)


class TestScaleInvariance:
    """Every threshold is a fraction of the input's own size, so 2^k L
    decomposes as L does under the Jordan scaling rule: eigenvalues times
    2^k, column p of each chain (the head is p = 0) of V times 2^(-kp), the
    matching row of V^-1 times 2^(kp), and J's superdiagonal unchanged.
    Scaling by a power of two is exact, so the rule holds bit for bit."""

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    def test_power_of_two_scaling_follows_the_jordan_rule(self, k):
        for name, lap in _scale_corpus():
            dec, scaled = _decompose_quietly(lap), _decompose_quietly(2.0**k * lap)
            p = np.concatenate([np.arange(b.size) for b in dec.blocks])
            j = dec.j.copy()
            np.fill_diagonal(j, dec.j.diagonal() * 2.0**k)
            for got, want in (
                (scaled.v, dec.v * 2.0 ** (-k * p)),
                (scaled.j, j),
                (scaled.v_inv, dec.v_inv * 2.0 ** (k * p)[:, None]),
            ):
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, k)
            assert scaled.residual == 2.0**k * dec.residual, (name, k)

    @pytest.mark.parametrize("k", [-60, 60])
    def test_structure_survives_far_scaling(self, k):
        for name, lap in _scale_corpus():
            dec, scaled = _decompose_quietly(lap), _decompose_quietly(2.0**k * lap)
            assert [b.size for b in scaled.blocks] == [b.size for b in dec.blocks], (name, k)
            assert order_frequencies(scaled.eigenvalues).order == tuple(range(dec.n)), (name, k)
            counts = [
                [(e.algebraic, e.geometric) for e in check_lsi_preconditions(d).entries]
                for d in (dec, scaled)
            ]
            assert counts[0] == counts[1], (name, k)


class TestInvert:
    """The basis inverse: ``_inverse``, and the decomposition that holds it."""

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.linalg.norm(_inverse(a) @ a - np.eye(6)) < 1e-10

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            _inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_diagonal_inverse_exact(self):
        assert np.array_equal(_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_rejects_nonsquare(self):
        # An inverse of the wrong shape never makes it into a result.
        with pytest.raises(NonSquareError):
            SpectralDecomposition(
                v=np.eye(2, dtype=complex),
                j=np.diag([1.0, 2.0]).astype(complex),
                v_inv=np.zeros((2, 3), dtype=complex),
                is_unitary_basis=False,
                basis_condition=1.0,
                cluster_tol=1e-8,
                residual=0.0,
            )

    def test_real_matrix_is_factored_in_real_arithmetic(self, monkeypatch):
        # A real spectrum of a real Laplacian gives a real basis, inverted
        # in real arithmetic and kept real. A conjugate pair makes the
        # basis complex, but its real pair form W is still inverted in
        # real arithmetic.
        seen = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: seen.append(m.dtype) or inv(m))
        path = directed_laplacian(build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]))
        dec = jordan_decompose(path.matrix)
        assert seen == [np.dtype(float)]
        assert dec.v.dtype == dec.v_inv.dtype == dec.j.dtype == np.dtype(float)
        assert np.array_equal(dec.v_inv, inv(dec.v))
        ring = jordan_decompose(directed_laplacian(ring_graph(5)).matrix)
        assert seen[-1] == np.dtype(float)
        assert ring.v.dtype == ring.v_inv.dtype == ring.j.dtype == np.dtype(complex)
        del seen[:]
        digraph = directed_laplacian(make_random_digraph(np.random.default_rng(40), 40)).matrix
        dec = jordan_decompose(digraph)
        assert seen and set(seen) == {np.dtype(float)}
        assert dec.v.dtype == dec.v_inv.dtype == np.dtype(complex)


class TestPairForm:
    """A real digraph's conjugate pairs: ``_finish`` inverts the real pair
    form ``W = V T^-1`` and assembles ``V^-1 = T^-1 Z`` exactly."""

    @pytest.mark.parametrize("name", ["demo", "digraph"])
    def test_conjugate_pairs_are_exact(self, name):
        rng = np.random.default_rng(16)
        g = demo_graph() if name == "demo" else make_random_digraph(rng, 200)
        lap = directed_laplacian(g).matrix
        dec = decompose(lap)
        lam = dec.eigenvalues
        pairs = np.flatnonzero((lam[:-1].imag != 0) & (lam[1:] == lam[:-1].conj()))
        assert pairs.size and 2 * pairs.size == np.count_nonzero(lam.imag)
        assert np.array_equal(dec.v_inv[pairs + 1], dec.v_inv[pairs].conj())
        coeff = gft(dec, rng.standard_normal(g.n))
        assert np.all(coeff.imag[lam.imag == 0] == 0)
        assert np.array_equal(coeff[pairs + 1], coeff[pairs].conj())
        assert np.array_equal(np.abs(coeff[pairs + 1]), np.abs(coeff[pairs]))
        # The certificate (W B) Z - L is the residual of the returned v, j, v_inv.
        want = np.linalg.norm(dec.reconstruct() - lap)
        assert abs(dec.residual - want) <= 1e-13 * np.linalg.norm(lap)

    def test_unpaired_complex_columns_keep_w_complex(self, monkeypatch):
        # Two equal 3-node components list their values as (conj(l), conj(l),
        # l, l): the middle two are conjugates, but their columns are not,
        # so W stays complex, and the 4-node cycle's pair rides along in it.
        seen = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: seen.append(m.dtype) or inv(m))
        tri = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 0.5)]
        cycle = [(6, 7, 1.0), (7, 8, 2.0), (8, 9, 1.0), (9, 6, 1.0)]
        edges = tri + [(s + 3, d + 3, w) for s, d, w in tri] + cycle
        lap = directed_laplacian(build_graph(10, edges)).matrix
        dec = jordan_decompose(lap)
        assert set(seen) == {np.dtype(complex)}
        lam = dec.eigenvalues
        near = np.flatnonzero((lam[:-1].imag != 0) & (lam[1:] == lam[:-1].conj()))
        paired = [c for c in near if np.array_equal(dec.v[:, c + 1], dec.v[:, c].conj())]
        assert len(near) == 2 and len(paired) == 1  # the cycle's pair only
        c = paired[0]
        assert np.array_equal(dec.v_inv[c + 1], dec.v_inv[c].conj())
        assert np.linalg.norm(dec.v_inv @ dec.v - np.eye(10)) <= 1e-13
        want = np.linalg.norm(dec.reconstruct() - lap)
        assert abs(dec.residual - want) <= 1e-13 * np.linalg.norm(lap)


class TestDtypeRule:
    """An array is complex128 exactly when an input entry has a nonzero
    imaginary part, float64 otherwise (``dgft.graph.real_or_complex``)."""

    @staticmethod
    def _real_graphs():
        rng = np.random.default_rng(31)
        yield "undirected", make_random_undirected(rng, 12)
        yield "chain union", _chain_union(rng, [3, 3, 5])[0]

    def test_real_input_stays_real(self):
        for name, g in self._real_graphs():
            lap = directed_laplacian(g)
            dec = decompose(lap)
            f = np.random.default_rng(32).standard_normal(g.n)
            taps = [0.5, -1.0, 0.25]
            arrays = {
                "weights": g.weights,
                "laplacian": lap.matrix,
                "signal": GraphSignal(f).values,
                "signal_values": signal_values(list(f), g.n),
                "complex-typed taps": apply_vertex_domain(lap, np.array(taps, dtype=complex), f),
                "v": dec.v,
                "v_inv": dec.v_inv,
                "j": dec.j,
                "gft": gft(dec, f),
                "igft": igft(dec, f),
                "vertex": apply_vertex_domain(lap, taps, f),
                "spectral": apply_spectral_domain(dec, taps, f),
                "materialize": materialize(lap, taps),
                "shift": shift(lap, f),
                "shift_operator": shift_operator(lap),
            }
            for key, a in arrays.items():
                assert a.dtype == np.dtype(float), (name, key)

    def test_zero_imaginary_parts_are_real(self):
        g = build_graph(3, [(0, 1, 1 + 0j), (1, 2, 2 + 0j)])
        assert g.weights.dtype == np.dtype(float)
        assert GraphSignal(np.array([1, 2, 3], dtype=complex)).values.dtype == np.dtype(float)
        assert materialize(directed_laplacian(g), [1 + 0j, 2 + 0j]).dtype == np.dtype(float)

    def test_conjugate_pairs_keep_a_complex_basis(self):
        for g in (ring_graph(5), demo_graph()):
            lap = directed_laplacian(g)
            assert lap.matrix.dtype == np.dtype(float)
            dec = decompose(lap)
            assert np.any(dec.eigenvalues.imag != 0)
            for a in (dec.v, dec.v_inv, dec.j):
                assert a.dtype == np.dtype(complex)

    def test_one_imaginary_entry_makes_complex(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0 + 1e-3j)])
        assert g.weights.dtype == directed_laplacian(g).matrix.dtype == np.dtype(complex)
        lap = directed_laplacian(build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)]))
        dec = decompose(lap)
        f = np.array([1.0, 2.0, 3.0 + 1e-3j])
        assert GraphSignal(f).values.dtype == np.dtype(complex)
        assert gft(dec, f).dtype == igft(dec, f).dtype == np.dtype(complex)
        taps = [1.0, 0.5j]
        assert materialize(lap, taps).dtype == np.dtype(complex)
        out = apply_vertex_domain(lap, taps, [1.0, 2.0, 3.0])
        assert out.dtype == np.dtype(complex)
        assert np.array_equal(out, [1.0, 2.0, 3.0] + 0.5j * (lap.matrix @ [1.0, 2.0, 3.0]))

    def test_complex_signal_on_real_basis_matches_promoted_product(self):
        rng = np.random.default_rng(33)
        lap = directed_laplacian(make_random_undirected(rng, 40))
        dec = decompose(lap)
        taps = rng.standard_normal(4)
        f = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        block = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        pairs = [
            (gft(dec, f), dec.v_inv.astype(complex) @ f),
            (igft(dec, f), dec.v.astype(complex) @ f),
            (
                matrix_polynomial_apply(lap.matrix, taps, block),
                matrix_polynomial_apply(lap.matrix.astype(complex), taps, block),
            ),
        ]
        for got, want in pairs:
            assert got.dtype == np.dtype(complex) and got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


class TestMatrixPolynomial:
    """``matrix_polynomial_apply``; applied to the identity it forms h(A)."""

    def test_matches_explicit_powers(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4))
        taps = [0.5, -1.0, 2.0, 0.25]
        direct = (
            0.5 * np.eye(4) - a + 2.0 * (a @ a) + 0.25 * (a @ a @ a)
        )
        assert np.allclose(matrix_polynomial_apply(a, taps, np.eye(4)), direct, atol=1e-12)

    def test_identity_minus_matrix_is_bitwise(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        got = matrix_polynomial_apply(a, [1.0, -1.0], np.eye(5, dtype=complex))
        assert np.array_equal(got, np.eye(5) - a)

    def test_apply_agrees_with_materialized(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 5))
        vec = rng.standard_normal(5) + 0j
        taps = [1.0, 0.5, -0.25]
        assert np.allclose(
            matrix_polynomial_apply(a, taps, vec),
            matrix_polynomial_apply(a, taps, np.eye(5)) @ vec,
            atol=1e-12,
        )

    def test_constant_polynomial(self):
        a = np.ones((3, 3))
        assert np.array_equal(matrix_polynomial_apply(a, [2.0], np.eye(3)), 2.0 * np.eye(3))

    def test_empty_taps_rejected(self):
        with pytest.raises(EmptyTapsError):
            matrix_polynomial_apply(np.eye(2), [], np.eye(2))
        with pytest.raises(EmptyTapsError):
            matrix_polynomial_apply(np.eye(2), [], np.ones(2))


@lru_cache(maxsize=1)
def _invariant_corpus() -> tuple:
    """100 seeded Laplacians up to 50 nodes with their decompositions."""
    out = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        matrix = directed_laplacian(make_random_digraph(rng, n)).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedBasisWarning)
            out.append((seed, matrix, jordan_decompose(matrix)))
    return tuple(out)


class TestDecompositionInvariants:
    def test_reconstruction_residual(self):
        for seed, matrix, dec in _invariant_corpus():
            residual = np.linalg.norm(dec.reconstruct() - matrix)
            assert residual <= 1e-8 * np.linalg.norm(matrix), f"seed {seed}"

    def test_eigenvalue_sum_matches_trace(self):
        for seed, matrix, dec in _invariant_corpus():
            trace = complex(np.trace(matrix))
            total = complex(np.sum(dec.eigenvalues))
            assert abs(total - trace) <= 1e-8 * abs(trace) + 1e-10, f"seed {seed}"

    def test_real_weights_give_exact_conjugate_pairs(self):
        for seed in range(20):
            g = make_random_digraph(np.random.default_rng(seed), 60, p=0.08)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedBasisWarning)
                w = jordan_decompose(directed_laplacian(g).matrix).eigenvalues
            assert np.array_equal(np.sort(w), np.sort(w.conj())), f"seed {seed}"
            ordering = order_frequencies(w)
            group_of = {i: grp for grp in ordering.tie_groups for i in grp}
            for i in np.flatnonzero(w.imag < 0):
                partners = np.flatnonzero(w == w[i].conjugate())
                assert (int(i), int(partners[0])) == group_of.get(int(i)), f"seed {seed}"

    def test_complex_weights_reconstruct(self):
        rng = np.random.default_rng(7)
        g = make_random_digraph(rng, 60, p=0.08)
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=g.weights.shape))
        lap = directed_laplacian(Graph(n=g.n, weights=g.weights * phases)).matrix
        assert np.any(lap.imag != 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedBasisWarning)
            dec = jordan_decompose(lap)
        assert np.linalg.norm(dec.reconstruct() - lap) <= 1e-8 * np.linalg.norm(lap)

    def test_real_input_gives_conjugate_pairs(self):
        for seed, matrix, dec in _invariant_corpus():
            assert np.all(matrix.imag == 0)
            unmatched = [complex(v) for v in dec.eigenvalues if abs(v.imag) > 1e-8]
            while unmatched:
                v = unmatched.pop()
                best = min(
                    range(len(unmatched)),
                    key=lambda i: abs(unmatched[i] - v.conjugate()),
                    default=None,
                )
                assert best is not None, f"seed {seed}: {v} has no partner"
                assert abs(unmatched[best] - v.conjugate()) <= 1e-8, f"seed {seed}"
                unmatched.pop(best)

    def test_basis_inverse_product(self):
        for seed, _, dec in _invariant_corpus():
            residual = np.linalg.norm(dec.v @ dec.v_inv - np.eye(dec.n))
            assert residual <= 1e-8 * np.sqrt(dec.n), f"seed {seed}"

    def test_block_sizes_cover_dimension(self):
        for seed, _, dec in _invariant_corpus():
            assert sum(b.size for b in dec.blocks) == dec.n, f"seed {seed}"
