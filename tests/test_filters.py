import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgft import (
    DimensionMismatchError,
    EmptyTapsError,
    Graph,
    InvalidValueError,
    NonSquareError,
    apply_spectral_domain,
    apply_vertex_domain,
    check_lsi_preconditions,
    cluster_eigenvalues,
    decompose,
    demo_graph,
    directed_laplacian,
    gft,
    is_shift_invariant,
    jordan_decompose,
    materialize,
    matrix_polynomial_apply,
    order_frequencies,
    ring_graph,
    shift,
    shift_operator,
)
from dgft.filters import COMMUTATOR_TOL
from conftest import defective_zoo, jordan_matrix, make_random_digraph, make_random_undirected


def _filter_calls(taps):
    """Every public way to apply taps, each on the demo graph."""
    g = demo_graph()
    dec = decompose(g)
    f = np.arange(5, dtype=float)
    return {
        "vertex": lambda: apply_vertex_domain(g, taps, f),
        "spectral": lambda: apply_spectral_domain(dec, taps, f),
        "materialize": lambda: materialize(g, taps),
    }


class TestTaps:
    def test_caller_taps_are_left_unchanged(self):
        taps = np.array([1.0, 2.0, -0.5])
        for name, call in _filter_calls(taps).items():
            call()
            assert np.array_equal(taps, [1.0, 2.0, -0.5]), name

    def test_empty_rejected(self):
        for empty in ([], (), np.zeros(0), np.zeros((0, 3))):
            for name, call in _filter_calls(empty).items():
                with pytest.raises(EmptyTapsError):
                    call()


class TestVertexDomain:
    def test_identity_filter(self):
        g = demo_graph()
        f = np.arange(5, dtype=float)
        assert np.array_equal(apply_vertex_domain(g, [1.0], f), f.astype(complex))

    def test_two_tap_filter_equals_shift_bitwise(self):
        rng = np.random.default_rng(3)
        g = make_random_digraph(rng, 8)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.array_equal(apply_vertex_domain(g, [1.0, -1.0], f), shift(g, f))

    def test_matches_materialized_operator(self):
        rng = np.random.default_rng(4)
        g = make_random_digraph(rng, 7)
        taps = [0.2, -0.4, 0.6, 1j]
        f = rng.standard_normal(7)
        direct = materialize(g, taps) @ f.astype(complex)
        assert np.allclose(apply_vertex_domain(g, taps, f), direct, atol=1e-12)

    def test_accepts_any_tap_sequence(self):
        g = demo_graph()
        f = np.ones(5)
        want = apply_vertex_domain(g, [0.5, 0.5], f)
        for taps in ((0.5, 0.5), np.array([0.5, 0.5]), np.array([[0.5], [0.5]]), [0.5 + 0j, 0.5]):
            assert np.array_equal(apply_vertex_domain(g, taps, f), want)


class TestSpectralDomain:
    def test_agrees_with_vertex_on_diagonalizable(self):
        g = demo_graph()
        dec = decompose(g)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(5)
        taps = [1.0, -0.5, 0.25]
        a = apply_vertex_domain(g, taps, f)
        b = apply_spectral_domain(dec, taps, f)
        assert np.linalg.norm(a - b) <= 1e-7 * (1 + np.linalg.norm(a))

    def test_agrees_with_vertex_on_defective(self):
        rng = np.random.default_rng(6)
        for name, g in defective_zoo():
            dec = decompose(g)
            f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            taps = [0.3, 1.1, -0.7]
            a = apply_vertex_domain(g, taps, f)
            b = apply_spectral_domain(dec, taps, f)
            assert np.linalg.norm(a - b) <= 1e-7 * (1 + np.linalg.norm(a)), name

    def test_response_is_diagonal_when_diagonalizable(self):
        # Filtering a basis vector scales its one coefficient by h(lambda_k).
        dec = decompose(demo_graph())
        assert dec.is_diagonalizable
        taps = [2.0, -1.0]
        for k, lam in enumerate(dec.eigenvalues):
            resp = gft(dec, apply_spectral_domain(dec, taps, dec.v[:, k]))
            expected = np.zeros(dec.n, dtype=complex)
            expected[k] = 2.0 - lam
            assert np.allclose(resp, expected, rtol=0, atol=1e-12), k

    def test_response_equals_polynomial_of_block_matrix(self):
        # Horner on J inside the spectral domain is V h(J) V^-1 f, with
        # h(J) the plain matrix polynomial evaluated at the block matrix.
        rng = np.random.default_rng(11)
        for name, g in defective_zoo():
            dec = decompose(g)
            taps = [0.5, -2.0, 1.5, 0.25]
            f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            h_of_j = matrix_polynomial_apply(jordan_matrix(dec), taps, np.eye(g.n))
            direct = dec.v @ h_of_j @ dec.v_inv @ f
            got = apply_spectral_domain(dec, taps, f)
            assert np.allclose(got, direct, rtol=0, atol=1e-10), name

    def test_bidiagonal_j_matches_dense_horner(self):
        # h(J) through J's bidiagonal layout against Horner on the dense J,
        # for vectors and (n, k) blocks, real and complex taps; the zoo's
        # chains put ones on the superdiagonal, and the undirected graph
        # (real J) and the ring (complex J) leave it empty. The right product
        # x @ J, which certifies every decomposition, against the dense
        # product for rows and (k, n) blocks.
        rng = np.random.default_rng(12)
        diagonal = [("undirected", make_random_undirected(rng, 12)), ("ring", ring_graph(8))]
        for name, g in defective_zoo() + diagonal:
            dec = decompose(g)
            j, dense = dec._bidiagonal, jordan_matrix(dec)
            block = rng.standard_normal((g.n, 3)) + 1j * rng.standard_normal((g.n, 3))
            for taps in ([0.5, -2.0, 1.5, 0.25], [1 + 2j, -0.5j, 0.75, 2 - 1j]):
                for x in (rng.standard_normal(g.n), block):
                    want = matrix_polynomial_apply(dense, taps, x)
                    got = matrix_polynomial_apply(j, taps, x)
                    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), name
            for x in (rng.standard_normal(g.n), block.T, dec.v):
                want = x @ dense
                assert np.linalg.norm(x @ j - want) <= 1e-14 * np.linalg.norm(want), name

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-2, max_value=2, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=0, max_value=1000),
    )
    def test_domain_agreement_property(self, taps, seed):
        rng = np.random.default_rng(seed)
        g = make_random_digraph(rng, int(rng.integers(2, 10)))
        dec = decompose(g)
        f = rng.standard_normal(g.n)
        a = apply_vertex_domain(g, taps, f)
        b = apply_spectral_domain(dec, taps, f)
        assert np.linalg.norm(a - b) <= 1e-7 * (1 + np.linalg.norm(a))


class TestShiftInvariance:
    def test_polynomial_filters_commute(self):
        g = demo_graph()
        for taps in ([1.0], [1.0, -1.0], [0.5, 0.25, -0.125, 2.0]):
            h = materialize(g, taps)
            assert is_shift_invariant(g, h)

    def test_commutes_with_shift_operator_directly(self):
        g = demo_graph()
        h = materialize(g, [0.5, 1.5, -0.5])
        s = shift_operator(g)
        assert np.linalg.norm(s @ h - h @ s) <= 1e-10 * np.linalg.norm(
            s
        ) * np.linalg.norm(h)

    def test_generic_operator_does_not_commute(self):
        g = demo_graph()
        rng = np.random.default_rng(7)
        assert not is_shift_invariant(g, rng.standard_normal((5, 5)))

    def test_identity_always_commutes(self):
        assert is_shift_invariant(demo_graph(), np.eye(5)).residual == 0.0

    def test_result_carries_residual_and_bound(self):
        g = demo_graph()
        h = materialize(g, [0.5, 1.5, -0.5])
        verdict = is_shift_invariant(g, h)
        assert bool(verdict)
        assert 0.0 <= verdict.residual <= COMMUTATOR_TOL
        lap = directed_laplacian(g).matrix
        want = np.linalg.norm(lap @ h - h @ lap) / (np.linalg.norm(lap) * np.linalg.norm(h))
        assert verdict.residual == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("weight", [1.0, 1e-170, 1e-200, 1e160, 1e300])
    def test_verdict_holds_at_any_weight_scale(self, weight):
        # Both operands are brought to unit scale first, so no product
        # underflows into "commutes" or overflows into a numpy warning.
        g = Graph(weight * ring_graph(3).weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_shift_invariant(g, np.diag([1.0, 2.0, 3.0]))
            for h in (np.eye(3), directed_laplacian(g).matrix, materialize(g, [0.5, 1.5])):
                verdict = is_shift_invariant(g, h)
                assert verdict and verdict.residual <= COMMUTATOR_TOL

    def test_laplacian_commutes_with_itself_exactly(self):
        g = demo_graph()
        verdict = is_shift_invariant(g, directed_laplacian(g).matrix)
        assert bool(verdict)
        assert verdict.residual == 0.0

    def test_operator_must_be_n_by_n(self):
        # Neither a smaller operator nor a vector gets a verdict.
        g = demo_graph()
        with pytest.raises(DimensionMismatchError):
            is_shift_invariant(g, np.eye(3))
        for vector in (np.ones(5), np.ones((5, 1))):
            with pytest.raises(NonSquareError):
                is_shift_invariant(g, vector)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_a_non_finite_operator_is_refused_typed(self, entry):
        # A NaN residual would read as a verdict, falsy, on no evidence.
        operator = np.eye(3, dtype=type(entry))
        operator[0, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValueError, match="non-finite entry"):
                is_shift_invariant(ring_graph(3), operator)
            with pytest.raises(InvalidValueError, match="non-finite entry"):
                is_shift_invariant(ring_graph(3), np.full((3, 3), entry))


class TestPreconditions:
    def test_demo_graph_satisfies(self):
        report = check_lsi_preconditions(decompose(demo_graph()))
        assert report.polynomials_span_commutant
        assert all(e.geometric == 1 for e in report.entries)
        assert sum(e.algebraic for e in report.entries) == 5

    def test_single_chain_satisfies_despite_defectiveness(self):
        g = dict(defective_zoo())["chain3"]
        report = check_lsi_preconditions(decompose(g))
        assert report.polynomials_span_commutant
        by_val = {round(e.eigenvalue.real): e for e in report.entries}
        assert by_val[1].algebraic == 2
        assert by_val[1].geometric == 1

    def test_repeated_eigenspace_fails(self):
        g = dict(defective_zoo())["two_chains"]
        report = check_lsi_preconditions(decompose(g))
        assert not report.polynomials_span_commutant
        zero = next(e for e in report.entries if abs(e.eigenvalue) < 1e-9)
        assert zero.geometric == 2

    def test_entries_sorted_by_magnitude(self):
        report = check_lsi_preconditions(decompose(demo_graph()))
        mags = [abs(e.eigenvalue) for e in report.entries]
        assert mags == sorted(mags)

    @staticmethod
    def _grouped_by_block(dec):
        """The reference: cluster the blocks' eigenvalues, then per cluster the
        mean of its blocks' values, their total size and their count."""
        blocks = dec.blocks
        return [
            (complex(np.mean([blocks[i].eigenvalue for i in c])),
             sum(blocks[i].size for i in c), len(c))
            for c in cluster_eigenvalues([b.eigenvalue for b in blocks], dec.cluster_tol)
        ]

    @pytest.mark.parametrize("name, g, cluster_tol", [
        ("defective path", dict(defective_zoo())["chain5"], None),
        ("two chains", dict(defective_zoo())["two_chains"], None),
        ("ring with ties", ring_graph(8), None),
        ("ring merged whole", ring_graph(6), 10.0),
        ("two disconnected edges", Graph(np.kron(np.eye(2), [[0, 1], [1, 0]])), None),
        ("digraph with conjugate pairs", make_random_digraph(np.random.default_rng(3), 12), None),
    ])
    def test_report_equals_the_per_block_grouping(self, name, g, cluster_tol):
        # read off the chain heads, bit for bit what grouping the blocks gives
        dec = decompose(g, cluster_tol=cluster_tol)
        got = [(e.eigenvalue, e.algebraic, e.geometric)
               for e in check_lsi_preconditions(dec).entries]
        assert got == self._grouped_by_block(dec), name
        assert all(type(value) is complex for value, _, _ in got)

    def test_reference_cases_hold_what_they_are_named_for(self):
        digraph = decompose(make_random_digraph(np.random.default_rng(3), 12))
        assert np.iscomplexobj(digraph.eigenvalues)
        pair = decompose(Graph(np.kron(np.eye(2), [[0, 1], [1, 0]])))
        assert [e.geometric for e in check_lsi_preconditions(pair).entries] == [2, 2]
        assert order_frequencies(decompose(ring_graph(8)).eigenvalues).tie_groups
        assert [b.size for b in decompose(dict(defective_zoo())["chain5"]).blocks] == [1, 4]

    def test_repeated_diagonal_raw_matrix(self):
        # diagonalizable but with a two-dimensional eigenspace: filters
        # remain LSI, yet polynomials cannot reach every commuting operator
        report = check_lsi_preconditions(jordan_decompose(np.diag([1.0, 1.0])))
        assert not report.polynomials_span_commutant
        assert len(report.entries) == 1
        assert report.entries[0].algebraic == 2
        assert report.entries[0].geometric == 2


class TestGoldenApplications:
    def test_pure_laplacian_tap_on_ring(self):
        f = np.zeros(5)
        f[0] = 1.0
        assert np.array_equal(
            apply_vertex_domain(ring_graph(5), [0.0, 1.0], f),
            np.array([1, -1, 0, 0, 0], dtype=complex),
        )

    def test_defective_chain_derivative_term(self):
        # h = identity polynomial on a chain: the spectral path must lean
        # on the superdiagonal derivative weights to reproduce plain L
        g = dict(defective_zoo())["chain3"]
        dec = decompose(g)
        f = np.zeros(3)
        f[2] = 1.0
        want = directed_laplacian(g).matrix @ f.astype(complex)
        got = apply_spectral_domain(dec, [0.0, 1.0], f)
        assert np.linalg.norm(got - want) <= 1e-8


class TestEigenfunctionProperty:
    def test_filter_scales_proper_eigenvectors(self):
        checked = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = make_random_digraph(rng, int(rng.integers(2, 12)))
            dec = decompose(g)
            if not dec.is_diagonalizable:
                continue
            taps = rng.standard_normal(4)
            for k in range(dec.n):
                v = dec.v[:, k]
                lam = complex(dec.eigenvalues[k])
                want = sum(t * lam**m for m, t in enumerate(taps)) * v
                got = apply_vertex_domain(g, taps, v)
                assert np.linalg.norm(got - want) <= 1e-8 * (1 + np.linalg.norm(want))
                checked += 1
        assert checked > 20


class TestDegreeBound:
    def test_exact_matvec_count(self):
        class CountingOperator:
            def __init__(self, m):
                self.m = m
                self.count = 0

            def __matmul__(self, vec):
                self.count += 1
                return self.m @ vec

        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        f = rng.standard_normal(6).astype(complex)
        for n_taps in range(1, 6):
            op = CountingOperator(a)
            matrix_polynomial_apply(op, np.ones(n_taps), f)
            assert op.count == n_taps - 1
