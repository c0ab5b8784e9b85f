"""Seeded input generators for the benchmark.

Everything dgft receives comes from here: edge lists as ``(src, dst,
weight)`` triples with 0-based nodes, signals as float vectors, and the
edge-list / signal files the CLI workload reads. The same
``numpy.random.Generator`` state always yields the same inputs.
"""

from __future__ import annotations

import json

import numpy as np


def random_digraph(rng, n, p=0.05):
    """Each ordered pair gets an edge with probability p, weight U[0, 1]."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    weights = rng.uniform(0.0, 1.0, src.size)
    return [(int(s), int(d), float(w)) for s, d, w in zip(src, dst, weights)]


def random_undirected(rng, n, p=0.05):
    """Each unordered pair gets an edge with probability p, weight U[0.5, 2]."""
    mask = np.triu(rng.random((n, n)) < p, k=1)
    src, dst = np.nonzero(mask)
    weights = rng.uniform(0.5, 2.0, src.size)
    edges = []
    for s, d, w in zip(src, dst, weights):
        edges.append((int(s), int(d), float(w)))
        edges.append((int(d), int(s), float(w)))
    return edges


def ring(rng, n):
    """Directed cycle with unit weights on a seeded relabelling of the nodes."""
    perm = rng.permutation(n)
    return [(int(perm[k - 1]), int(perm[k]), 1.0) for k in range(n)]


def chain_lengths(n):
    """Path lengths 3 and 5 covering n nodes, as evenly split as possible."""
    best = None
    for fives in range(n // 5 + 1):
        rest = n - 5 * fives
        if rest % 3 == 0 and (best is None or abs(rest // 3 - fives) < abs(best[0] - best[1])):
            best = (rest // 3, fives)
    if best is None:
        raise ValueError(f"{n} nodes cannot be split into paths of 3 and 5")
    return [3] * best[0] + [5] * best[1]


def chain_union(rng, n, delta=0.0):
    """Disjoint directed paths of 3 and 5 nodes on seeded node labels.

    A path on L nodes has one Jordan block of size L - 1 at eigenvalue 1.
    With ``delta`` > 0 every unit weight gets relative noise
    ``1 + delta * N(0, 1)``, which splits those blocks numerically.
    Returns the edges and the path lengths.
    """
    lengths = [int(x) for x in rng.permutation(chain_lengths(n))]
    perm = rng.permutation(n)
    edges = []
    start = 0
    for length in lengths:
        for k in range(length - 1):
            w = 1.0 + delta * float(rng.standard_normal()) if delta else 1.0
            edges.append((int(perm[start + k]), int(perm[start + k + 1]), w))
        start += length
    return edges, lengths


def signal(rng, n):
    return rng.standard_normal(n)


def write_edge_list(path, n, edges):
    """Edge-list file in the dgft format (1-based nodes, exact doubles)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {n}\n")
        for s, d, w in edges:
            fh.write(f"{s + 1} {d + 1} {w!r}\n")


def write_signal(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": len(values), "values": [float(v) for v in values]}, fh)
