"""Finite weighted graphs as resistor networks.

A network is a connected graph with positive edge conductances and a
distinguished base vertex.  The energy form (half the conductance-weighted
sum of squared differences) makes the functions vanishing at the base a
Hilbert space; dipoles reproduce point evaluations, their inner products form
the Green's kernel, and squared dipole differences give the effective
resistance metric.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .core import Kernel, PointSet
from .errors import Disconnected

# Residual contract for dipole solves, relative to the pole's conductance.
DIPOLE_RTOL = 1e-9


class Network:
    """Connected weighted graph (V, E, c) with base vertex ``base``.

    Edges are undirected, stored once, with strictly positive conductances;
    self-loops and duplicates are rejected.  Instances are immutable after
    construction and safe to share across threads; the sparse LU factor of the
    grounded Laplacian and the Green matrix are each computed once under a
    lock.
    """

    def __init__(self, vertices, base, edges):
        pts = PointSet.of(vertices)
        if base not in pts:
            raise ValueError(f"base vertex {base!r} is not a vertex")
        seen = set()
        adjacency = {v: [] for v in pts}
        norm_edges = []
        for u, v, c in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r} is not allowed")
            if u not in pts or v not in pts:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            c = float(c)
            if not c > 0:
                raise ValueError(f"conductance on edge ({u!r}, {v!r}) must be positive, got {c}")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            seen.add(key)
            norm_edges.append((u, v, c))
            adjacency[u].append((v, c))
            adjacency[v].append((u, c))
        self.vertices = pts
        self.base = base
        self.edges = tuple(norm_edges)
        # endpoint indices (one row per edge) and conductances, in edge order
        self._ends = np.array(
            [(pts.index(u), pts.index(v)) for u, v, _ in norm_edges], dtype=np.intp
        ).reshape(-1, 2)
        self._cond = np.array([c for _, _, c in norm_edges], dtype=float)
        self._adjacency = {v: tuple(nbrs) for v, nbrs in adjacency.items()}
        self._check_connected()
        # reentrant: building the Green matrix solves through the same guard
        self._lock = threading.RLock()
        self._grounded = None       # cached sparse LU of the grounded Laplacian
        self._green = None          # cached Green matrix over V \ {base}

    def _check_connected(self):
        seen = {self.base}
        stack = [self.base]
        while stack:
            x = stack.pop()
            for y, _ in self._adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        missing = [v for v in self.vertices if v not in seen]
        if missing:
            raise Disconnected(f"vertices unreachable from base {self.base!r}: {missing!r}")

    # -- structure ---------------------------------------------------------

    def __len__(self):
        return len(self.vertices)

    def index(self, x) -> int:
        return self.vertices.index(x)

    def neighbors(self, x):
        return self._adjacency[x]

    def conductance(self, x, y) -> float:
        for z, c in self._adjacency[x]:
            if z == y:
                return c
        return 0.0

    def total_conductance(self, x) -> float:
        """c(x): the sum of conductances of all edges at x."""
        return float(sum(c for _, c in self._adjacency[x]))

    def grounded_vertices(self) -> PointSet:
        return PointSet(tuple(v for v in self.vertices if v != self.base))

    def _grounded_indices(self) -> np.ndarray:
        """Vertex indices of V \\ {base}, in grounded-vertex order."""
        return np.delete(np.arange(len(self.vertices)), self.index(self.base))

    def _grounded_system(self):
        ground = self._grounded
        if ground is None:
            with self._lock:
                ground = self._grounded
                if ground is None:
                    n = len(self.vertices)
                    u, v = self._ends.T
                    c = self._cond
                    lap = scipy.sparse.csc_matrix(
                        (np.concatenate([c, c, -c, -c]),
                         (np.concatenate([u, v, u, v]), np.concatenate([u, v, v, u]))),
                        shape=(n, n),
                    )
                    keep = self._grounded_indices()
                    try:
                        ground = scipy.sparse.linalg.splu(lap[keep][:, keep].tocsc())
                    except RuntimeError as err:  # pragma: no cover
                        raise Disconnected(f"grounded system is singular: {err}") from err
                    self._grounded = ground
        return ground

    def grounded_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the base-deleted Laplacian system for one or more columns."""
        return self._grounded_system().solve(rhs)

    def green_matrix(self) -> np.ndarray:
        """Inverse of the grounded Laplacian: entries k(x, y) over V \\ {base}.

        Symmetrized once at cache time; the energy inner product it
        represents is symmetric, so the averaging only removes solver
        rounding.
        """
        green = self._green
        if green is None:
            with self._lock:
                green = self._green
                if green is None:
                    m = len(self.vertices) - 1
                    green = self.grounded_solve(np.eye(m))
                    green = 0.5 * (green + green.T)
                    green.setflags(write=False)
                    self._green = green
        return green

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices.labels),
            "base": self.base,
            "edges": [[u, v, c] for u, v, c in self.edges],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Network":
        def freeze(label):
            return tuple(freeze(x) for x in label) if isinstance(label, list) else label

        try:
            vertices = [freeze(v) for v in doc["vertices"]]
            base = freeze(doc["base"])
            edges = [(freeze(u), freeze(v), c) for u, v, c in doc["edges"]]
        except KeyError as err:
            raise ValueError(f"network document is missing field {err}") from None
        return cls(vertices, base, edges)

    @classmethod
    def coordinate_path(cls, points, base=0.0) -> "Network":
        """Path network on increasing coordinates with conductance 1/gap and a
        base vertex at the origin; its Green's kernel is min(s, t)."""
        coords = [float(x) for x in points]
        if any(b <= a for a, b in zip(coords, coords[1:])):
            raise ValueError("coordinates must be strictly increasing")
        if coords and coords[0] <= base:
            raise ValueError("all coordinates must lie beyond the base")
        vertices = [base] + coords
        edges = [
            (a, b, 1.0 / (b - a))
            for a, b in zip(vertices, vertices[1:])
        ]
        return cls(vertices, base, edges)

    def __repr__(self):
        return f"Network(n={len(self.vertices)}, edges={len(self.edges)}, base={self.base!r})"


def laplacian_apply(net: Network, values) -> np.ndarray:
    """(Delta f)(x) = sum_y c_xy (f(x) - f(y)), for f given in vertex order."""
    f = np.asarray(values, dtype=float)
    if f.shape != (len(net.vertices),):
        raise ValueError("function values must align with the vertex order")
    u, v = net._ends.T
    d = net._cond * (f[u] - f[v])
    out = np.zeros_like(f)
    np.add.at(out, u, d)
    np.subtract.at(out, v, d)
    return out


def energy_inner(net: Network, f, g) -> float:
    """Conductance-weighted Dirichlet inner product over the edges."""
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    u, v = net._ends.T
    return float(np.sum(net._cond * (fv[u] - fv[v]) * (gv[u] - gv[v])))


@dataclass(frozen=True)
class Dipole:
    """Potential with a unit current source at ``pole`` and sink at the base,
    normalized to vanish at the base."""

    pole: object
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def dipole(net: Network, x) -> Dipole:
    """Solve the grounded Laplacian system for the pole x."""
    if x == net.base:
        raise ValueError("the base vertex has the zero dipole by convention")
    grounded = net.grounded_vertices()
    gi = grounded.index(x)
    rhs = np.zeros(len(grounded))
    rhs[gi] = 1.0
    keep = net._grounded_indices()
    values = np.zeros(len(net.vertices))
    values[keep] = net.grounded_solve(rhs)
    # contract: applying the Laplacian returns the dipole source pattern
    resid = laplacian_apply(net, values)
    resid[net.index(x)] -= 1.0
    resid[net.index(net.base)] += 1.0
    if float(np.abs(resid).max()) > DIPOLE_RTOL * net.total_conductance(x):
        values[keep] += net.grounded_solve(-resid[keep])
    return Dipole(pole=x, values=values)


class GreenKernel(Kernel):
    """Green's kernel of the network Laplacian on the non-base vertices:
    k(x, y) is the inner product of the dipoles at x and y."""

    name = "network-green"
    domain = "network vertices (base excluded)"

    def __init__(self, net: Network):
        self.network = net
        self.points = net.grounded_vertices()

    def contains(self, label) -> bool:
        return label in self.points

    def __call__(self, x, y) -> float:
        g = self.network.green_matrix()
        return float(g[self.points.index(x), self.points.index(y)])

    def gram(self, labels) -> np.ndarray:
        g = self.network.green_matrix()
        idx = [self.points.index(x) for x in labels]
        return g[np.ix_(idx, idx)].copy()


def green_kernel(net: Network) -> GreenKernel:
    return GreenKernel(net)


def delta_norm_sq(net: Network, x) -> float:
    """Squared energy norm of the point mass at x: the total conductance c(x).

    Reported for every vertex including the base, although the Green's kernel
    itself lives on V \\ {base}; whether the base's point mass belongs to the
    quotient space is a modeling convention, not something this number
    settles.
    """
    if x not in net.vertices:
        raise ValueError(f"{x!r} is not a vertex")
    return net.total_conductance(x)


def delta_expand(net: Network, x) -> dict:
    """Coefficients of the point mass at x over the dipole system:
    c(x) on the pole itself and -c_xy on each neighbor.  The base dipole is
    identically zero, so a base neighbor contributes nothing and is omitted."""
    if x == net.base:
        raise ValueError("the base point mass has no dipole expansion")
    coeffs = {x: net.total_conductance(x)}
    for y, c in net.neighbors(x):
        if y != net.base:
            coeffs[y] = coeffs.get(y, 0.0) - c
    return coeffs


def resistance(net: Network, x, y) -> float:
    """Effective resistance: the squared energy distance between dipoles.

    Equals the voltage drop when a unit current enters at x and leaves at y.
    """
    if x not in net.vertices or y not in net.vertices:
        raise ValueError("both endpoints must be vertices")
    if x == y:
        return 0.0
    grounded = net.grounded_vertices()
    rhs = np.zeros(len(grounded))
    if x != net.base:
        rhs[grounded.index(x)] = 1.0
    if y != net.base:
        rhs[grounded.index(y)] -= 1.0
    sol = net.grounded_solve(rhs)
    vx = sol[grounded.index(x)] if x != net.base else 0.0
    vy = sol[grounded.index(y)] if y != net.base else 0.0
    return float(vx - vy)


def kernel_from_resistance(net: Network, x, y) -> float:
    """Recover the Green's kernel from resistances:
    (R(o,x) + R(o,y) - R(x,y)) / 2."""
    o = net.base
    return 0.5 * (resistance(net, o, x) + resistance(net, o, y) - resistance(net, x, y))


def is_interior(net: Network, subset, x) -> bool:
    """Whether every neighbor of x needed by the inverse-Gram identity lies in
    the subset.  The base vertex participates through the grounding and never
    blocks interiority."""
    pts = PointSet.of(subset)
    return all(y == net.base or y in pts for y, _ in net.neighbors(x))
