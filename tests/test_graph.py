import warnings

import numpy as np
import pytest

from dgft import (
    DgftError,
    DimensionMismatchError,
    DirectedLaplacian,
    DuplicateEdgeError,
    GraphSizeError,
    InvalidValueError,
    NodeIndexError,
    NonSquareError,
    SelfLoopError,
    build_graph,
    decompose,
    demo_graph,
    directed_laplacian,
    in_degree_matrix,
    out_degree_vector,
    ring_graph,
)
from dgft.graph import Graph, GraphSignal, signal_values

DEMO_W = np.array(
    [
        [0, 0, 0, 0, 3],
        [1, 0, 2, 0, 0],
        [0, 0, 0, 3, 0],
        [2, 4, 0, 0, 1],
        [3, 3, 0, 0, 0],
    ],
    dtype=float,
)

DEMO_L = np.array(
    [
        [3, 0, 0, 0, -3],
        [-1, 3, -2, 0, 0],
        [0, 0, 3, -3, 0],
        [-2, -4, 0, 7, -1],
        [-3, -3, 0, 0, 6],
    ],
    dtype=float,
)


class TestDemoGraph:
    def test_weight_matrix_is_exact(self):
        g = demo_graph()
        assert np.array_equal(g.weights, DEMO_W.astype(complex))

    def test_degree_matrices(self):
        g = demo_graph()
        assert np.array_equal(in_degree_matrix(g), np.diag([3, 3, 3, 7, 6]).astype(complex))
        assert np.array_equal(out_degree_vector(g), np.array([6, 7, 2, 3, 4], dtype=complex))

    def test_laplacian_is_exact(self):
        lap = directed_laplacian(demo_graph())
        assert np.array_equal(lap.matrix, DEMO_L.astype(complex))

    def test_laplacian_rows_sum_to_zero_exactly(self):
        lap = directed_laplacian(demo_graph())
        assert np.all(lap.matrix.sum(axis=1) == 0)

    def test_flags(self):
        g = demo_graph()
        assert not g.is_undirected


class TestBuildGraph:
    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(NodeIndexError):
            build_graph(3, [(0, 3, 1.0)])
        with pytest.raises(NodeIndexError):
            build_graph(3, [(-1, 2, 1.0)])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(1, 1, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_antiparallel_edges_are_distinct(self):
        g = build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
        assert g.weights[1, 0] == 1.0
        assert g.weights[0, 1] == 2.0

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphSizeError):
            build_graph(0, [])

    def test_single_node_graph_is_legal(self):
        g = build_graph(1, [])
        lap = directed_laplacian(g)
        assert lap.matrix.shape == (1, 1)
        assert lap.matrix[0, 0] == 0

    def test_empty_edge_list_gives_zero_weights(self):
        g = build_graph(3, [])
        assert np.array_equal(g.weights, np.zeros((3, 3), dtype=complex))

    def test_undirected_degrees_agree(self):
        g = build_graph(3, [(0, 1, 2.0), (1, 0, 2.0), (1, 2, 0.5), (2, 1, 0.5)])
        assert g.is_undirected
        assert np.array_equal(out_degree_vector(g), np.diag(in_degree_matrix(g)))
        lap = directed_laplacian(g)
        assert np.array_equal(lap.matrix, lap.matrix.T)


class TestGraphDataclass:
    def test_weight_matrix_is_read_only_and_copied(self):
        w = np.zeros((2, 2), dtype=complex)
        w[1, 0] = 1.0
        g = Graph(n=2, weights=w)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0
        w[0, 1] = 5.0  # mutating the source array must not leak in
        assert g.weights[0, 1] == 0

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(SelfLoopError):
            Graph(n=2, weights=np.eye(2))

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_weights(self, weight):
        with pytest.raises(InvalidValueError, match=r"edge \(0, 1\) has non-finite weight"):
            build_graph(3, [(0, 1, weight), (1, 2, 1.0)])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Graph(n=3, weights=np.zeros((2, 2)))
        with pytest.raises(NonSquareError):
            Graph(n=2, weights=np.zeros((2, 3)))

    def test_undirected_flag(self):
        w = np.array([[0, 2.0], [2.0, 0]])
        assert Graph(n=2, weights=w).is_undirected
        w[0, 1] = 3.0
        assert not Graph(n=2, weights=w).is_undirected


class TestDirectedLaplacian:
    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ValueError):
            DirectedLaplacian(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_raw_matrix_refusal_is_typed(self):
        # A DgftError and still a ValueError, for callers that catch that.
        with pytest.raises(InvalidValueError) as info:
            decompose(np.ones((3, 3)))
        assert isinstance(info.value, DgftError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[np.inf, -np.inf], [0.0, 0.0]],
            [[1.0, -1.0], [np.nan, 0.0]],
            [[0.0, 0.0], [0.0, complex(0, np.inf)]],
        ],
    )
    def test_non_finite_raw_matrix_is_refused_before_any_arithmetic(self, matrix):
        # Refused by entry, as Graph refuses non-finite weights: no numpy
        # warning from the row-sum check comes first, and eig never runs.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValueError, match="non-finite"):
                decompose(matrix)

    def test_accepts_tiny_residual_row_sums(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0 + 1e-14]])
        lap = DirectedLaplacian(m)
        assert lap.n == 2

    def test_matrix_is_read_only(self):
        lap = directed_laplacian(ring_graph(3))
        with pytest.raises(ValueError):
            lap.matrix[0, 0] = 9.0


class TestRingGraph:
    def test_structure(self):
        g = ring_graph(4)
        expected = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            expected[k, (k - 1) % 4] = 1.0
        assert np.array_equal(g.weights, expected)

    def test_laplacian_is_identity_minus_cycle(self):
        lap = directed_laplacian(ring_graph(5))
        assert np.array_equal(np.diag(lap.matrix), np.ones(5, dtype=complex))
        assert np.all(lap.matrix.sum(axis=1) == 0)
        assert np.array_equal(in_degree_matrix(ring_graph(5)), np.eye(5, dtype=complex))

    def test_two_cycle_weights(self):
        g = ring_graph(2)
        assert np.array_equal(g.weights, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_minimum_size(self):
        with pytest.raises(GraphSizeError):
            ring_graph(1)


class TestSignals:
    def test_signal_is_copied_read_only(self):
        raw = np.array([1.0, 2.0])
        s = GraphSignal(raw)
        raw[0] = 7.0
        assert s.values[0] == 1.0
        with pytest.raises(ValueError):
            s.values[0] = 3.0

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            GraphSignal(np.array([]))

    def test_signal_values_accepts_lists_and_signals(self):
        assert np.array_equal(signal_values([1, 2, 3], 3), np.array([1, 2, 3], dtype=complex))
        s = GraphSignal([1j, 0, 0])
        assert np.array_equal(signal_values(s, 3), s.values)

    def test_signal_values_length_check(self):
        with pytest.raises(DimensionMismatchError):
            signal_values([1, 2], 3)
