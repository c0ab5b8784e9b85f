import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

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
    is_shift_invariant,
    jordan_decompose,
    out_degree_vector,
    ring_graph,
)
from dgft.graph import Graph, GraphSignal, signal_values
from conftest import env_importing_dgft

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
        assert not directed_laplacian(g).is_undirected


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

    @pytest.mark.parametrize(
        "edges, error, match",
        [
            ([(0.5, 1, 1.0)], NodeIndexError, r"edge \(0\.5, 1\) needs integer node indices in"),
            ([(np.float64(1.0), 2, 1.0)], NodeIndexError, "needs integer node indices"),
            ([("0", 1, 1.0)], NodeIndexError, "needs integer node indices"),
            ([(True, 2, 1.0)], NodeIndexError, r"edge \(True, 2\)"),  # not a boolean index
            ([(0, 1, 1.0), (1, False, 1.0)], NodeIndexError, r"edge \(1, False\)"),
            ([(0, 1, "x")], InvalidValueError, "'x', not a number"),
            ([(0, 1, "2.5")], InvalidValueError, "'2.5', not a number"),  # no silent parse
            ([(0, 1, None)], InvalidValueError, "None, not a number"),  # not a NaN weight
            ([(0, 1)], InvalidValueError, r"\(0, 1\) is not a \(src, dst, weight\) triple"),
            ([(0, 1, 1.0), 7], InvalidValueError, "edge 7 is not a"),
            # The first offending edge in input order, whatever its fault.
            ([(0, 2, "x"), (0, 1, 1.0), (0, 1, 2.0)], InvalidValueError, r"edge \(0, 2\)"),
            # A weight column of more than one dimension: a list is no number.
            ([(0, 1, [1.0, 2.0])], InvalidValueError, r"weight \[1\.0, 2\.0\], not a number"),
        ],
    )
    def test_malformed_edges_are_refused_typed(self, edges, error, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                build_graph(3, edges)

    def test_numpy_scalars_and_other_numbers_are_accepted(self):
        g = build_graph(3, [(np.int32(0), np.uint8(1), Fraction(1, 2)), (2, 1, np.float32(2))])
        assert g.weights[1, 0] == 0.5 and g.weights[1, 2] == 2.0

    def test_antiparallel_edges_are_distinct(self):
        g = build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
        assert g.weights[1, 0] == 1.0
        assert g.weights[0, 1] == 2.0

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphSizeError):
            build_graph(0, [])
        with pytest.raises(GraphSizeError):
            Graph(np.zeros((0, 0)))

    @pytest.mark.parametrize("n", [2.5, "3", True, np.True_, None])
    def test_node_count_must_be_an_integer(self, n):
        with pytest.raises(GraphSizeError, match="must be an integer"):
            build_graph(n, [])
        with pytest.raises(GraphSizeError, match="must be an integer"):
            ring_graph(n)

    # numpy refuses an n x n matrix of these outright, so nothing is allocated
    # even where the check is missing.
    @pytest.mark.parametrize("n", [10**9, 2**40, np.int64(10**9)])
    def test_node_count_past_an_addressable_matrix_is_refused(self, n):
        with pytest.raises(GraphSizeError, match="too large"):
            build_graph(n, [(0, 1, 1.0)])
        with pytest.raises(GraphSizeError, match="too large"):
            build_graph(n, [])

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
        assert directed_laplacian(g).is_undirected
        assert np.array_equal(out_degree_vector(g), np.diag(in_degree_matrix(g)))
        lap = directed_laplacian(g)
        assert np.array_equal(lap.matrix, lap.matrix.T)


class TestGraphDataclass:
    def test_weight_matrix_is_read_only_and_copied(self):
        w = np.zeros((2, 2), dtype=complex)
        w[1, 0] = 1.0
        g = Graph(w)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0
        w[0, 1] = 5.0  # mutating the source array must not leak in
        assert g.weights[0, 1] == 0

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(SelfLoopError):
            Graph(np.eye(2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_weights(self, entry):
        # One refusal for every matrix from outside (graph._as_square), before any
        # arithmetic, so no numpy warning comes first (and a NaN operator gets no
        # falsy verdict on no evidence). It names the first non-finite entry; one
        # on the diagonal is no self-loop.
        one = np.zeros((3, 3), dtype=type(entry))
        one[1, 0] = entry  # the edge from node 0 to node 1
        full = np.full((3, 3), entry)
        calls = [(lambda: build_graph(3, [(0, 1, entry), (1, 2, 1.0)]), "at row 1, column 0")]
        for call in (Graph, DirectedLaplacian, decompose, jordan_decompose,
                     lambda m: is_shift_invariant(ring_graph(3), m)):
            calls.append((lambda call=call: call(one), "at row 1, column 0"))
            calls.append((lambda call=call: call(full), "at row 0, column 0"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, where in calls:
                with pytest.raises(InvalidValueError) as info:
                    call()
                assert str(info.value) == f"non-finite entry {one[1, 0]} {where}"

    def test_rejects_shape_mismatch(self):
        with pytest.raises(NonSquareError):
            Graph(np.zeros((2, 3)))

    def test_undirected_flag(self):
        w = np.array([[0, 2.0], [2.0, 0]])
        assert directed_laplacian(Graph(w)).is_undirected
        w[0, 1] = 3.0
        assert not directed_laplacian(Graph(w)).is_undirected


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

    def test_heaviest_weights_get_a_typed_outcome_without_a_warning(self):
        # Unscaled, the absolute row sums 2e308 overflowed in the row-sum
        # check itself; at unit scale the pair passes it, and decompose refuses
        # typed because the eigenvalue 2e308 leaves float64.
        m = np.array([[1e308, -1e308, 0], [-1e308, 1e308, 0], [0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert DirectedLaplacian(m).n == 3
            with pytest.raises(DgftError):
                decompose(m)

    @pytest.mark.parametrize(
        "matrix",
        [
            # unscaled, this row's sum overflowed to inf and so did the limit,
            # and inf > inf is false: the row was accepted
            [[1e308, 1e308, -1e308], [0, 0, 0], [0, 0, 0]],
            [[1e308, -1e308, 0], [-1e308, 1e308, 1e300], [0, 0, 0]],
            [[5e-324, 0], [0, 0]],
        ],
    )
    def test_row_that_does_not_sum_to_zero_is_refused_at_any_scale(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValueError, match="not a valid in-degree Laplacian"):
                DirectedLaplacian(np.array(matrix))

    def test_overflowing_in_degree_is_refused_typed_without_a_warning(self):
        # each weight is finite, but node 2's in-degree 2e308 is not: the
        # row sum overflowed with numpy's warnings before this was refused
        g = build_graph(3, [(0, 2, 1e308), (1, 2, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (in_degree_matrix, directed_laplacian):
                with pytest.raises(InvalidValueError, match="in-degree of node 2 overflows float64"):
                    call(g)
            assert out_degree_vector(g).tolist() == [1e308, 1e308, 0.0]

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

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm")
    def test_huge_ring_is_refused_before_its_edges_are_built(self):
        # The child may grow its address space by only 256 MiB, so a ring
        # that built its edge tuples first fails fast with MemoryError; the
        # CLI reaches ring_graph through --ring N.
        script = (
            "import resource\n"
            "import dgft, dgft.cli\n"
            "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + 2**28, size + 2**28))\n"
            "try:\n"
            "    dgft.ring_graph(2**40)\n"
            "except dgft.GraphSizeError as exc:\n"
            "    print(exc)\n"
            "print(dgft.cli.main(['laplacian', '--ring', str(10**9)]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env_importing_dgft(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "node count 1099511627776 is too large for an n x n matrix", "2"
        ]
        assert "node count 1000000000 is too large" in proc.stderr

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm")
    def test_unallocatable_node_count_is_refused_typed(self, tmp_path):
        # A node count numpy can address but memory cannot hold: the n x n
        # matrix is allocated before any edge, so both the file header and
        # --ring end in GraphSizeError (CLI exit 2), not numpy's MemoryError.
        header = tmp_path / "huge.txt"
        header.write_text("nodes 500000000\n")
        script = (
            "import resource, sys\n"
            "import dgft.cli\n"
            "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + 2**28, size + 2**28))\n"
            "print(dgft.cli.main(['laplacian', sys.argv[1]]))\n"
            "print(dgft.cli.main(['laplacian', '--ring', '500000000']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(header)], capture_output=True, text=True,
            env=env_importing_dgft(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["2", "2"]
        refusals = proc.stderr.splitlines()
        assert len(refusals) == 2
        assert all("node count 500000000 is too large" in line for line in refusals)


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
