"""The certificate against an oracle that shares no code with the library.

Every input gets one of two outcomes: ``decompose`` raises a typed
``DgftError``, or it returns a basis whose residual ``||V J V^-1 - L||_F``,
recomputed from the returned ``v``, ``j`` and ``v_inv`` in ``mpmath`` at 50
digits, is within ``recon_tol * ||L||_F``, that norm also taken at 50
digits (in floats its squares underflow at small scales). The families are
the ones where a basis is hardest to get right: defective and
near-defective graphs, disjoint unions, isolated nodes and complex weights,
all at n <= 12, each with its weights scaled by 2^k for k in ``SCALES``.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgft import (
    DgftError,
    Graph,
    IllConditionedBasisWarning,
    ReconstructionError,
    build_graph,
    decompose,
    directed_laplacian,
    order_frequencies,
    ring_graph,
)
from dgft.linalg import RECON_LIMIT
from conftest import jordan_matrix, make_random_digraph

DELTAS = (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
SCALES = (-1000, -500, -60, -30, 0, 30, 60, 500, 1000)


def _weights(rng, count, delta):
    """``count`` weights ``1 + delta * N(0, 1)``: exact ones at delta = 0."""
    return 1.0 + delta * rng.standard_normal(count)


def _path(rng, k, delta):
    w = _weights(rng, k - 1, delta)
    edges = [(i, i + 1, float(w[i])) for i in range(k - 1)]
    return directed_laplacian(build_graph(k, edges)).matrix


def _union(blocks, rng):
    """Block-diagonal union of square ``blocks`` on shuffled node labels."""
    n = sum(len(b) for b in blocks)
    big = np.zeros((n, n), dtype=complex if any(np.iscomplexobj(b) for b in blocks) else float)
    start = 0
    for b in blocks:
        big[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    perm = rng.permutation(n)
    return big[np.ix_(perm, perm)]


@st.composite
def _laplacians(draw):
    family = draw(
        st.sampled_from(
            ["digraph", "complex", "out-tree", "path", "path-union", "ring-path", "isolated"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = draw(st.sampled_from(DELTAS))
    n = draw(st.integers(1, 12))
    if family in ("digraph", "complex"):
        g = make_random_digraph(rng, n, p=draw(st.sampled_from([0.15, 0.3, 0.6])))
        if family == "complex":
            phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=g.weights.shape))
            g = Graph(g.weights * phases)
        return family, directed_laplacian(g).matrix
    if family == "out-tree":  # each node fed by one earlier node
        w = _weights(rng, n, delta)
        edges = [(int(rng.integers(i)), i, float(w[i])) for i in range(1, n)]
        return family, directed_laplacian(build_graph(n, edges)).matrix
    if family == "path":
        return family, _path(rng, n, delta)
    if family == "path-union":
        lengths = draw(st.lists(st.sampled_from([3, 4, 5]), min_size=1, max_size=3))
        return family, _union([_path(rng, k, delta) for k in lengths], rng)
    if family == "ring-path":
        ring, path = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        cycle = directed_laplacian(ring_graph(ring)).matrix
        return family, _union([cycle, _path(rng, path, delta)], rng)
    isolated = draw(st.integers(1, 4))
    rest = make_random_digraph(rng, max(1, n - isolated), p=0.4)
    return family, _union([directed_laplacian(rest).matrix] + [np.zeros((1, 1))] * isolated, rng)


def _mp(a: np.ndarray) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpmathify(complex(z)) for z in row] for row in a])


def _certified_or_refused(name, lap):
    """``decompose(lap)`` raises a ``DgftError``, or its columns come in
    frequency order and its residual at 50 digits is within the bound."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedBasisWarning)
            dec = decompose(lap)
    except DgftError:
        return
    _assert_certified(name, lap, dec)


def _assert_certified(name, lap, dec):
    """The columns of ``dec`` come in frequency order, and its residual
    against ``lap`` at 50 digits is within the bound."""
    assert order_frequencies(dec.eigenvalues).order == tuple(range(dec.n)), name
    with mpmath.workdps(50):
        a = _mp(lap)
        residual = mpmath.mnorm(_mp(dec.v) * _mp(jordan_matrix(dec)) * _mp(dec.v_inv) - a, "f")
        bound = RECON_LIMIT * mpmath.mnorm(a, "f")
    assert residual <= bound, (name, float(residual), float(bound))


@settings(max_examples=200, deadline=None)
@given(_laplacians(), st.sampled_from(SCALES))
def test_decompose_certifies_at_50_digits_or_refuses_typed(case, k):
    family, lap = case
    _certified_or_refused((family, k), 2.0**k * lap)


# The directed 3-node path certifies its blocks [1, 2] wherever its chain
# tail fits in float64; below that, and for the 4-node path's longer tail at
# these weights, the refusal is typed.
EXTREME_PATHS = [(3, w, [1, 2]) for w in (1e-305, 1e-200, 1e-162, 1e154, 1e300)]
EXTREME_PATHS += [(3, w, None) for w in (5e-324, 1e-310)]
EXTREME_PATHS += [(4, w, None) for w in (1e-305, 1e-200, 1e-160, 1e300)]


@pytest.mark.parametrize("k, weight, blocks", EXTREME_PATHS)
def test_directed_path_at_extreme_weight_certifies_or_refuses_typed(k, weight, blocks):
    # ||L||_F and every kernel run at unit scale, so no unscaled square
    # under- or overflows on the way; no numpy warning comes either way.
    lap = directed_laplacian(build_graph(k, [(i, i + 1, weight) for i in range(k - 1)])).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", IllConditionedBasisWarning)
        if blocks is None:
            with pytest.raises(ReconstructionError, match="float64's range"):
                decompose(lap)
            return
        dec = decompose(lap)
    assert [b.size for b in dec.blocks] == blocks
    _assert_certified((k, weight), lap, dec)


def test_near_defective_union_far_below_unit_scale_certifies():
    # Two 3-node paths at delta = 1e-12, each weight times 2^-500. Decomposed
    # at that scale, the chains came out with basis condition 3e162 and a
    # float residual of 3.0e-157 against an exact 5.5e-156, above the bound.
    # Run at unit scale, it is the basis of the unscaled union, scaled.
    edges = [
        (2, 0, 0.9999999999994322), (5, 1, 1.0000000000020408),
        (4, 2, 1.000000000000418), (1, 3, 0.9999999999974444),
    ]
    lap = 2.0**-500 * directed_laplacian(build_graph(6, edges)).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedBasisWarning)
        dec = decompose(lap)
    assert [b.size for b in dec.blocks] == [1, 1, 2, 2]
    _certified_or_refused("path union at 2^-500", lap)


def test_a_cluster_with_no_chain_certifies_in_frequency_order():
    # An out-tree draw at delta = 1e-4: nodes 1 and 2, both fed by node 0,
    # have eigenvalues 4.9e-7 apart, inside the default cluster tolerance.
    # The cluster yields no Jordan chain, so both columns keep their own
    # eig vectors, and each ranks by its own eigenvalue.
    edges = [(0, 1, 1.0000450421568265), (0, 2, 1.0000445546129306)]
    lap = directed_laplacian(build_graph(3, edges)).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = decompose(lap)
    assert dec.is_diagonalizable
    assert 0 < dec.eigenvalues[2] - dec.eigenvalues[1] <= dec.cluster_tol
    _assert_certified("out-tree", lap, dec)
