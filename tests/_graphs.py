"""Seeded random connected networks for tests."""

import numpy as np

from rkhskit import Network


def random_connected_network(rng, n, extra_edges=None, conductance_range=(0.5, 2.0)):
    """Random spanning tree on vertices 0..n-1 (base 0) plus random chords."""
    lo, hi = conductance_range
    edges = []
    seen = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(lo, hi))))
        seen.add(frozenset((u, v)))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    for _ in range(extra_edges):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v or frozenset((u, v)) in seen:
            continue
        seen.add(frozenset((u, v)))
        edges.append((u, v, float(rng.uniform(lo, hi))))
    return Network(list(range(n)), 0, edges)


def random_tree_network(rng, n, conductance_range=(0.5, 2.0)):
    return random_connected_network(rng, n, extra_edges=0, conductance_range=conductance_range)


def random_grid_network(rng, side):
    edges = []
    for i in range(side):
        for j in range(side):
            v = side * i + j
            if j < side - 1:
                edges.append((v, v + 1, float(rng.uniform(0.25, 4.0))))
            if i < side - 1:
                edges.append((v, v + side, float(rng.uniform(0.25, 4.0))))
    return Network(list(range(side * side)), 0, edges)


def resistance_matrix(net):
    """Full resistance matrix in vertex order, from the Green matrix."""
    g = net.green_matrix()
    grounded = net.grounded_vertices()
    n = len(net.vertices)
    full = np.zeros((n, n))
    idx = {}
    for v in net.vertices:
        idx[v] = grounded.index(v) if v != net.base else None
    labels = list(net.vertices.labels)
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            gxx = g[idx[x], idx[x]] if idx[x] is not None else 0.0
            gyy = g[idx[y], idx[y]] if idx[y] is not None else 0.0
            gxy = (
                g[idx[x], idx[y]]
                if idx[x] is not None and idx[y] is not None
                else 0.0
            )
            full[i, j] = gxx + gyy - 2.0 * gxy
    return full
