"""Shared fixtures: the demo digraph, a defective-graph zoo, random corpora."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import dgft
from dgft import Graph, build_graph, demo_graph, ring_graph

DATA = Path(__file__).parent / "data"


def env_importing_dgft() -> dict:
    """Environment in which a child interpreter imports this dgft."""
    src = str(Path(dgft.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def demo() -> Graph:
    return demo_graph()


def jordan_matrix(dec) -> np.ndarray:
    """The dense n x n ``J`` of a decomposition, from its public fields only:
    ``eigenvalues`` on the diagonal and a 1 above every column that is not
    in ``proper_indices`` (each continues the chain of the column before)."""
    j = np.diag(dec.eigenvalues)
    for col in set(range(dec.n)) - set(dec.proper_indices):
        j[col - 1, col] = 1
    return j


def make_random_digraph(rng: np.random.Generator, n: int, p: float = 0.25) -> Graph:
    """Random weighted digraph: each ordered pair gets an edge with prob p.

    Weights are drawn uniformly from [0, 1] so the corpus doubles as the
    nonnegative-weight population the acceptance suite sweeps.
    """
    edges = []
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < p:
                edges.append((src, dst, float(rng.uniform(0.0, 1.0))))
    return build_graph(n, edges)


def make_random_undirected(rng: np.random.Generator, n: int, p: float = 0.4) -> Graph:
    """Random symmetric graph: each unordered pair gets both arcs or none."""
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.5, 2.0))
                edges.append((a, b, w))
                edges.append((b, a, w))
    return build_graph(n, edges)


def defective_zoo() -> list[tuple[str, Graph]]:
    """Small digraphs whose Laplacians are provably defective.

    All of them are lower triangular with integer entries, so the exact
    rational oracle can pin down the true block structure independently.
    """
    return [
        ("chain3", build_graph(3, [(0, 1, 1), (1, 2, 1)])),
        ("chain4", build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])),
        ("chain5", build_graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])),
        (
            "two_chains",
            build_graph(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]),
        ),
        ("weighted_chain3", build_graph(3, [(0, 1, 2), (1, 2, 2)])),
        ("chain_with_branch", build_graph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1)])),
    ]


@pytest.fixture
def zoo() -> list[tuple[str, Graph]]:
    return defective_zoo()


def digraph_corpus(count: int = 100, max_n: int = 30) -> list[Graph]:
    """Deterministic corpus of random digraphs, sizes 2 through max_n."""
    graphs = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, max_n + 1))
        graphs.append(make_random_digraph(rng, n))
    return graphs


def frequency_class_sequences(g: Graph, dec) -> tuple[list, list]:
    """Tie-class sequences comparing a TV sort against order_frequencies.

    Only proper eigenvectors (chain heads and simple eigenvectors)
    participate; each is scaled to unit l1 norm before measuring its
    total variation. Returns (reference, by_tv): the tie-class label of
    every proper column in frequency-rank order, and the same labels
    after a stable sort by measured total variation. The two sequences
    are equal exactly when the orderings agree up to permutations inside
    tie groups.
    """
    from dgft import order_frequencies, total_variation

    ordering = order_frequencies(dec.eigenvalues)
    class_of: dict[int, tuple] = {idx: ("solo", idx) for idx in range(dec.n)}
    for gid, grp in enumerate(ordering.tie_groups):
        for idx in grp:
            class_of[idx] = ("tie", gid)
    proper = sorted(dec.proper_indices, key=lambda i: ordering.ranks[i])
    tvs = {}
    for i in proper:
        col = dec.v[:, i]
        tvs[i] = float(total_variation(g, col / np.sum(np.abs(col))))
    reference = [class_of[i] for i in proper]
    by_tv = [class_of[i] for i in sorted(proper, key=lambda i: tvs[i])]
    return reference, by_tv


def mixed_roundtrip_corpus() -> list[Graph]:
    """100 graphs spanning random digraphs, rings, undirected, defective."""
    graphs: list[Graph] = [g for _, g in defective_zoo()]
    graphs += [ring_graph(n) for n in (2, 3, 5, 8, 12)]
    seed = 1000
    while len(graphs) < 90:
        rng = np.random.default_rng(seed)
        graphs.append(make_random_digraph(rng, int(rng.integers(2, 16))))
        seed += 1
    while len(graphs) < 100:
        rng = np.random.default_rng(seed)
        graphs.append(make_random_undirected(rng, int(rng.integers(2, 16))))
        seed += 1
    return graphs
