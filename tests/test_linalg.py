import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgft import (
    DgftError,
    EmptyTapsError,
    Graph,
    IllConditionedBasisWarning,
    NoConvergenceError,
    NonSquareError,
    NotSymmetricError,
    SingularMatrixError,
    build_graph,
    decompose,
    directed_laplacian,
    order_frequencies,
)
from dgft.linalg import (
    cluster_eigenvalues,
    default_cluster_tol,
    invert,
    jordan_decompose,
    matrix_polynomial,
    matrix_polynomial_apply,
    order_with_ties,
    symmetric_eigen_decompose,
)
from conftest import defective_zoo, make_random_digraph, make_random_undirected
from oracles import exact_block_sizes, exact_defective_triangular


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

    def test_default_tol_floors_at_1e8(self):
        assert default_cluster_tol(np.zeros((3, 3))) == 1e-8

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0.25, 0.1]),
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=30),
        st.integers(0, 5),
    )
    def test_matches_brute_force_single_linkage(self, step, grid, tol_steps):
        # Grid points make exact ties in real part and distances of exactly
        # tol common; step 0.1 adds the rounding of non-dyadic coordinates.
        values = [complex(re * step, im * step) for re, im in grid]
        tol = tol_steps * step
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


class TestOrderWithTies:
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


class TestJordanDecompose:
    def test_zoo_block_structure_matches_exact_oracle(self):
        for name, g in defective_zoo():
            lap = directed_laplacian(g)
            dec = jordan_decompose(lap.matrix)
            assert not dec.is_diagonalizable, name
            # group computed blocks by eigenvalue, compare against the
            # exact rational rank oracle at each integer eigenvalue
            eigenvalues = {int(round(b.eigenvalue.real)) for b in dec.blocks}
            for lam in eigenvalues:
                got: dict[int, int] = {}
                for b in dec.blocks:
                    if abs(b.eigenvalue - lam) < 1e-6:
                        got[b.size] = got.get(b.size, 0) + 1
                expected = exact_block_sizes(
                    [[Fraction(int(x.real)) for x in row] for row in lap.matrix],
                    lam,
                )
                assert got == expected, f"{name} at eigenvalue {lam}"

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
            rng = np.random.default_rng(seed)
            lengths = [int(x) for x in rng.permutation([3, 3, 5, 5])]
            perm = rng.permutation(16)
            edges, start = [], 0
            for length in lengths:
                for k in range(length - 1):
                    w = 1.0 + 1e-6 * float(rng.standard_normal())
                    edges.append((int(perm[start + k]), int(perm[start + k + 1]), w))
                start += length
            lap = directed_laplacian(build_graph(16, edges)).matrix
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
    "graph",
    [
        make_random_digraph(np.random.default_rng(3), 12, p=0.5),
        make_random_undirected(np.random.default_rng(3), 12),
    ],
    ids=["digraph", "undirected"],
)
def test_no_svd_outside_chain_extraction(monkeypatch, graph):
    # Only Jordan chains need a rank decision; the basis condition comes
    # from norms of V and its inverse.
    def fail(*args, **kwargs):
        raise AssertionError("SVD-based kernel called")

    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(np.linalg, "cond", fail)
    dec = decompose(directed_laplacian(graph))
    assert dec.is_diagonalizable
    assert dec.is_unitary_basis == graph.is_undirected


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
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            symmetric_eigen_decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(NotSymmetricError):
            symmetric_eigen_decompose(np.array([[0.0, 1j], [-1j, 0.0]]))

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
        for lap in _simple_undirected_laplacians(count=3):
            w, vectors = np.linalg.eigh(lap.real)
            order, _ = order_with_ties(w)
            dec = symmetric_eigen_decompose(lap, normalize=False)
            assert np.array_equal(dec.v, vectors[:, order].astype(complex))
            assert np.array_equal(dec.v_inv, dec.v.T)

            w, vectors = np.linalg.eig(lap.real)
            order, _ = order_with_ties(w)
            dec = jordan_decompose(lap, normalize=False)
            assert np.array_equal(dec.v, vectors[:, order].astype(complex))
            assert np.array_equal(dec.eigenvalues, w[order].astype(complex))

    def test_normalization_matches_per_chain_reference(self):
        # One factor per chain, taken from its head; the loop is the reference.
        graphs = [g for _, g in defective_zoo()]
        graphs += [make_random_digraph(np.random.default_rng(s), 9) for s in range(5)]
        for g in graphs:
            lap = directed_laplacian(g).matrix
            raw = jordan_decompose(lap, normalize=False)
            dec = jordan_decompose(lap)
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


class TestInvert:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.linalg.norm(invert(a) @ a - np.eye(6)) < 1e-10

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_diagonal_inverse_exact(self):
        assert np.array_equal(
            invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]).astype(complex)
        )

    def test_rejects_nonsquare(self):
        with pytest.raises(NonSquareError):
            invert(np.zeros((2, 3)))


class TestMatrixPolynomial:
    def test_matches_explicit_powers(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4))
        taps = [0.5, -1.0, 2.0, 0.25]
        direct = (
            0.5 * np.eye(4) - a + 2.0 * (a @ a) + 0.25 * (a @ a @ a)
        )
        assert np.allclose(matrix_polynomial(a, taps), direct, atol=1e-12)

    def test_identity_minus_matrix_is_bitwise(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.array_equal(matrix_polynomial(a, [1.0, -1.0]), np.eye(5) - a)

    def test_apply_agrees_with_materialized(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 5))
        vec = rng.standard_normal(5) + 0j
        taps = [1.0, 0.5, -0.25]
        assert np.allclose(
            matrix_polynomial_apply(a, taps, vec),
            matrix_polynomial(a, taps) @ vec,
            atol=1e-12,
        )

    def test_constant_polynomial(self):
        a = np.ones((3, 3))
        assert np.array_equal(matrix_polynomial(a, [2.0]), 2.0 * np.eye(3))

    def test_empty_taps_rejected(self):
        with pytest.raises(EmptyTapsError):
            matrix_polynomial(np.eye(2), [])
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
