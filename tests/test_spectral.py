import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgft import (
    DimensionMismatchError,
    IllConditionedBasisWarning,
    InvalidValueError,
    Spectrum,
    apply_vertex_domain,
    build_graph,
    check_lsi_preconditions,
    decompose,
    demo_graph,
    directed_laplacian,
    gft,
    igft,
    order_frequencies,
    quadratic_form,
    ring_graph,
    shift,
    shift_operator,
    spectrum,
    total_variation,
)
from conftest import (
    defective_zoo,
    frequency_class_sequences,
    make_random_digraph,
    make_random_undirected,
)
from oracles import ring_eigenvalues, symmetrized_ring_eigenvalues


class TestShift:
    def test_ring_shift_is_exact_rotation_on_integers(self):
        g = ring_graph(7)
        f = np.array([5, -3, 2, 8, 0, -1, 4], dtype=float)
        assert np.array_equal(shift(g, f), np.roll(f, 1).astype(complex))

    def test_ring_shift_n_times_is_identity_on_integers(self):
        g = ring_graph(5)
        f = np.array([1, 2, 3, 4, 5], dtype=float)
        out = f.astype(complex)
        for _ in range(5):
            out = shift(g, out)
        assert np.array_equal(out, f.astype(complex))

    def test_shift_equals_two_tap_filter_bitwise(self):
        rng = np.random.default_rng(0)
        g = make_random_digraph(rng, 9)
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.array_equal(shift(g, f), apply_vertex_domain(g, [1.0, -1.0], f))

    def test_shift_matches_materialized_operator_on_integers(self):
        g = demo_graph()
        f = np.array([3, -2, 7, 0, 5], dtype=float)
        assert np.array_equal(shift(g, f), shift_operator(g) @ f.astype(complex))

    def test_shift_matches_materialized_operator_on_floats_closely(self):
        rng = np.random.default_rng(1)
        g = make_random_digraph(rng, 12)
        f = rng.standard_normal(12)
        a = shift(g, f)
        b = shift_operator(g) @ f.astype(complex)
        assert np.linalg.norm(a - b) <= 1e-15 * max(1.0, np.linalg.norm(b))

    def test_shift_operator_of_ring_is_permutation(self):
        s = shift_operator(ring_graph(4))
        expected = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            expected[k, (k - 1) % 4] = 1.0
        assert np.array_equal(s, expected)

    def test_ring_operator_rotates_floats_exactly(self):
        # each row of the ring shift operator holds a single 1, so the
        # mat-vec is a pure copy: exact even for irrational floats
        g = ring_graph(6)
        s = shift_operator(g)
        rng = np.random.default_rng(2)
        f = (rng.standard_normal(6) * np.pi).astype(complex)
        out = f
        for _ in range(6):
            out = s @ out
        assert np.array_equal(out, f)

    def test_demo_indicator_column_read(self):
        # shifting an indicator reads off one column of I - L
        f = np.zeros(5)
        f[0] = 1.0
        assert np.array_equal(
            shift(demo_graph(), f),
            np.array([-2, 1, 0, 2, 3], dtype=complex),
        )


class TestVariation:
    def test_constant_signal_has_zero_variation(self):
        for g in (demo_graph(), ring_graph(6)):
            assert total_variation(g, np.ones(g.n)) == 0.0

    def test_single_spike_on_ring(self):
        # spike at node 0: L f has +1 at node 0 and -1 at node 1
        g = ring_graph(4)
        f = np.array([1.0, 0.0, 0.0, 0.0])
        assert total_variation(g, f) == pytest.approx(2.0)

    def test_proper_eigenvector_variation_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            g = make_random_digraph(rng, int(rng.integers(2, 15)))
            lap = directed_laplacian(g)
            dec = decompose(g)
            for b in dec.blocks:
                if b.size != 1:
                    continue
                col = dec.v[:, b.start]
                expected = abs(b.eigenvalue) * float(np.sum(np.abs(col)))
                assert total_variation(lap, col) == pytest.approx(
                    expected, abs=1e-8 * (1 + abs(b.eigenvalue))
                )

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_block_gives_the_column_by_column_values(self, kind):
        # one product L F for the block; each value is that column's TV up
        # to the order of the sums (a real L against a complex block, too)
        rng = np.random.default_rng(21)
        g = make_random_digraph(rng, 30)
        block = rng.standard_normal((30, 7))
        if kind == "complex":
            block = block + 1j * rng.standard_normal((30, 7))
        got = total_variation(g, block)
        assert got.shape == (7,)
        want = [total_variation(g, block[:, k]) for k in range(7)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        dec = decompose(g)
        heads = list(dec.proper_indices)
        np.testing.assert_allclose(
            total_variation(directed_laplacian(g), dec.v[:, heads]),
            [total_variation(g, dec.v[:, s]) for s in heads],
            rtol=1e-12, atol=1e-12 * np.linalg.norm(directed_laplacian(g).matrix),
        )

    def test_block_of_the_wrong_height_is_refused(self):
        with pytest.raises(DimensionMismatchError):
            total_variation(ring_graph(4), np.ones((5, 2)))

    def test_quadratic_form_is_half_squared_difference_norm(self):
        g = demo_graph()
        lap = directed_laplacian(g)
        f = np.array([0.3, -1.0, 2.0, 0.0, 1.5])
        direct = 0.5 * np.linalg.norm(lap.matrix @ f) ** 2
        assert quadratic_form(g, f) == pytest.approx(direct, rel=1e-12)

    def test_quadratic_form_eigenvector_identity(self):
        dec = decompose(demo_graph())
        lap = directed_laplacian(demo_graph())
        for b in dec.blocks:
            col = dec.v[:, b.start]
            expected = 0.5 * abs(b.eigenvalue) ** 2 * float(np.linalg.norm(col)) ** 2
            assert quadratic_form(lap, col) == pytest.approx(
                expected, abs=1e-8 * (1 + abs(b.eigenvalue) ** 2)
            )

    def test_both_variations_overflow_to_inf_without_a_warning(self):
        # the undirected pair at 8e307: |lambda| = 1.6e308, and the 1- and
        # squared 2-norms of L v for the unit eigenvector are past float64
        lap = directed_laplacian(build_graph(2, [(0, 1, 8e307), (1, 0, 8e307)]))
        v = decompose(lap).v
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert total_variation(lap, v[:, 1]) == np.inf
            assert quadratic_form(lap, v[:, 1]) == np.inf
            assert total_variation(lap, v)[1] == np.inf

    def test_variation_is_nonnegative_and_scales_linearly(self):
        g = make_random_digraph(np.random.default_rng(8), 10)
        f = np.random.default_rng(9).standard_normal(10)
        tv = total_variation(g, f)
        assert tv >= 0
        assert total_variation(g, 3.0 * f) == pytest.approx(3.0 * tv, rel=1e-12)


class TestTransform:
    def test_round_trip_demo(self):
        dec = decompose(demo_graph())
        f = np.array([0.12, 0.38, 0.81, 0.24, 0.88])
        assert np.linalg.norm(igft(dec, gft(dec, f)) - f) < 1e-10

    def test_round_trip_defective(self):
        for name, g in defective_zoo():
            dec = decompose(g)
            rng = np.random.default_rng(13)
            f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            assert np.linalg.norm(igft(dec, gft(dec, f)) - f) <= 1e-8 * (
                1 + np.linalg.norm(f)
            ), name

    def test_constant_signal_concentrates_at_zero(self):
        g = demo_graph()
        dec = decompose(g)
        coeffs = gft(dec, np.ones(5))
        zero_cols = [b.start for b in dec.blocks if b.eigenvalue == 0]
        assert len(zero_cols) == 1
        assert abs(coeffs[zero_cols[0]]) == pytest.approx(np.sqrt(5), abs=1e-8)
        others = np.delete(coeffs, zero_cols[0])
        assert np.max(np.abs(others)) < 1e-8

    def test_ring_transform_matches_circulant_spectrum(self):
        n = 6
        dec = decompose(ring_graph(n))
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        got = sorted((complex(v) for v in dec.eigenvalues), key=key)
        expected = sorted(ring_eigenvalues(n), key=key)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-10)

    def test_gft_rejects_wrong_length(self):
        dec = decompose(demo_graph())
        with pytest.raises(DimensionMismatchError):
            gft(dec, np.ones(4))

    def test_spectrum_object(self):
        dec = decompose(demo_graph())
        spec = spectrum(dec, np.ones(5))
        assert spec.n == 5
        assert np.array_equal(spec.coefficients, gft(dec, np.ones(5)))
        assert spec.ordering.order[0] == 0
        assert abs(spec.coefficients[0]) == pytest.approx(np.sqrt(5))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=5000))
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        g = make_random_digraph(rng, n)
        dec = decompose(g)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(igft(dec, gft(dec, f)) - f) <= 1e-8 * (
            1 + np.linalg.norm(f)
        )


class TestOrdering:
    def test_demo_order_and_ties(self):
        dec = decompose(demo_graph())
        ordering = order_frequencies(dec.eigenvalues)
        assert ordering.order == (0, 1, 2, 3, 4)
        assert ordering.ranks == (0, 1, 2, 3, 4)
        assert ordering.tie_groups == ((2, 3),)
        # the conjugate pair lists its negative-imaginary member first
        assert dec.eigenvalues[2].imag < 0 < dec.eigenvalues[3].imag

    def test_zero_frequency_ranks_first(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            g = make_random_digraph(rng, int(rng.integers(3, 12)))
            dec = decompose(g)
            ordering = order_frequencies(dec.eigenvalues)
            lam0 = dec.eigenvalues[ordering.order[0]]
            assert abs(lam0) == min(abs(v) for v in dec.eigenvalues)

    @pytest.mark.parametrize("cluster_tol", [1e-2, 5e-2, 0.2])
    def test_spectral_index_is_the_frequency_rank(self, cluster_tol):
        # A loose tolerance merges distinct eigenvalues into clusters whose
        # chains can fall short; a column that keeps its own eigenvector
        # ranks by its own eigenvalue, so the basis stays in frequency order.
        for seed in range(150):
            rng = np.random.default_rng(seed)
            g = make_random_digraph(rng, int(rng.integers(2, 15)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedBasisWarning)
                dec = decompose(g, cluster_tol=cluster_tol)
            assert order_frequencies(dec.eigenvalues).order == tuple(range(dec.n)), seed

    def test_magnitudes_sorted_ascending(self):
        dec = decompose(demo_graph())
        ordering = order_frequencies(dec.eigenvalues)
        mags = [abs(complex(dec.eigenvalues[k])) for k in ordering.order]
        # a tie may list its members in either magnitude order, by one ulp
        assert all(a <= b * (1 + 1e-12) for a, b in zip(mags, mags[1:]))
        assert mags == pytest.approx(
            sorted(abs(complex(v)) for v in dec.eigenvalues), abs=1e-12
        )


class TestDecomposeRouting:
    def test_undirected_routes_to_unitary_basis(self):
        g = make_random_undirected(np.random.default_rng(30), 8)
        dec = decompose(g)
        assert dec.is_unitary_basis
        assert np.all(dec.eigenvalues.imag == 0)

    def test_directed_routes_to_jordan(self):
        dec = decompose(demo_graph())
        assert not dec.is_unitary_basis

    def test_accepts_laplacian_and_raw_matrix(self):
        lap = directed_laplacian(demo_graph())
        d1 = decompose(lap)
        d2 = decompose(lap.matrix)
        assert np.array_equal(d1.v, d2.v)

    def test_undirected_ring_matches_cosine_spectrum(self):
        n = 8
        edges = []
        for k in range(n):
            edges.append((k, (k + 1) % n, 1.0))
            edges.append(((k + 1) % n, k, 1.0))
        dec = decompose(build_graph(n, edges))
        got = sorted(float(v.real) for v in dec.eigenvalues)
        expected = sorted(symmetrized_ring_eigenvalues(n))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_cluster_tol_reaches_the_unitary_path(self):
        # One cluster holds all of H's eigenvalues, so the split is one eig
        # of the whole restricted matrix; the ring's spectrum comes out and
        # the multiplicity report merges at the given tolerance too.
        n = 6
        dec = decompose(ring_graph(n), cluster_tol=10.0)
        assert dec.is_unitary_basis and dec.cluster_tol == 10.0
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        got = sorted((complex(v) for v in dec.eigenvalues), key=key)
        for a, b in zip(got, sorted(ring_eigenvalues(n), key=key)):
            assert a == pytest.approx(b, abs=1e-10)
        (entry,) = check_lsi_preconditions(dec).entries
        assert (entry.algebraic, entry.geometric) == (n, n)

    def test_parseval_on_undirected(self):
        rng = np.random.default_rng(31)
        g = make_random_undirected(rng, 10)
        dec = decompose(g)
        f = rng.standard_normal(10)
        assert abs(np.linalg.norm(gft(dec, f)) - np.linalg.norm(f)) < 1e-10


def test_spectrum_of_unequal_lengths_is_refused_typed():
    with pytest.raises(InvalidValueError):
        Spectrum(eigenvalues=[0.0, 1.0], coefficients=[1.0])


def test_spectrum_ordering_is_derived_from_its_eigenvalues():
    w = [2.0, -1.0 + 1j, -1.0 - 1j, 0.0]
    spec = Spectrum(eigenvalues=w, coefficients=[1.0, 2.0, 3.0, 4.0])
    assert spec.ordering == order_frequencies(w)
    with pytest.raises(TypeError):
        Spectrum(eigenvalues=w, coefficients=[1.0] * 4, ordering=order_frequencies(w[::-1]))


class TestSpectrumLocation:
    def test_nonnegative_weights_keep_spectrum_right_of_origin(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            g = make_random_digraph(rng, int(rng.integers(2, 20)))
            assert not g.weights.imag.any() and np.all(g.weights.real >= 0)
            dec = decompose(g)
            radius = float(np.max(np.abs(dec.eigenvalues)))
            assert float(np.min(dec.eigenvalues.real)) >= -1e-8 * radius

    def test_constant_signal_concentrates_on_connected_graphs(self):
        rng = np.random.default_rng(40)
        graphs = [demo_graph(), ring_graph(4), ring_graph(9)]
        for n in (3, 6):
            edges = [
                (a, b, float(rng.uniform(0.1, 1.0)))
                for a in range(n)
                for b in range(n)
                if a != b
            ]
            graphs.append(build_graph(n, edges))
        for g in graphs:
            dec = decompose(g)
            n = dec.n
            for c in (1.0, -2.5, 0.3):
                coeffs = gft(dec, np.full(n, c))
                floor = 1e-8 * abs(c) * np.sqrt(n)
                big = np.flatnonzero(np.abs(coeffs) > floor)
                assert big.size == 1
                k = int(big[0])
                assert dec.eigenvalues[k] == 0
                assert abs(coeffs[k]) == pytest.approx(abs(c) * np.sqrt(n), rel=1e-8)


class TestOrderingConsistency:
    def test_tv_sort_agrees_with_frequency_order(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = make_random_digraph(rng, int(rng.integers(2, 16)))
            dec = decompose(g)
            reference, by_tv = frequency_class_sequences(g, dec)
            assert reference == by_tv, f"seed {seed}"

    def test_tv_sort_agrees_on_defective_graphs(self):
        for name, g in defective_zoo():
            dec = decompose(g)
            reference, by_tv = frequency_class_sequences(g, dec)
            assert reference == by_tv, name
