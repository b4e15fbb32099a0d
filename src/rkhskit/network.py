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

from .core import Kernel, PointSet, _canon_label
from .errors import Disconnected

# Residual contract for dipole solves, relative to the pole's conductance.
DIPOLE_RTOL = 1e-9


class Network:
    """Connected weighted graph (V, E, c) with base vertex ``base``.

    Edges are undirected, stored once, with finite, strictly positive
    conductances.  The constructor, the one entry for outside input (library
    calls and :meth:`from_json`), checks each edge once, in input order, as it
    reads it: a self-loop, an unknown endpoint, a conductance that is not
    finite and positive, or a repeat raises for the first offending edge, and
    one connected-components pass follows.  Trees the package builds are
    valid and connected by construction and skip both.  A network
    holds its edge arrays ``_ends`` (E x 2 vertex indices) and ``_cond`` in
    input order, the per-vertex totals ``_total`` (each c(x) summed as the
    Laplacian's diagonal entry) and, built once under a lock, one sparse
    factor of the Laplacian over all of V with the base's row and column
    replaced by the identity's, so solves run in vertex coordinates with the
    base's potential pinned to 0.  Green values (one solve per requested
    column, nothing dense cached) are read from that factor, and neighbours
    from an index of the edge arrays built on first use.
    Instances are immutable after construction and safe to share across
    threads.  The pinned Laplacian is symmetric positive definite, so
    SuperLU factors it in symmetric mode: a minimum-degree ordering of
    A + Aᵀ and diagonal pivots, one permutation P with Pᵀ A P = L U.
    """

    def __init__(self, vertices, base, edges):
        pts = PointSet.of(vertices)
        base = _canon_label(base)
        if base not in pts:
            raise ValueError(f"base vertex {base!r} is not a vertex")
        triples = []
        for u, v, c in edges:  # every edge unpacks before any is checked
            u, v = _canon_label(u), _canon_label(v)
            try:
                c = float(c)
            except (TypeError, ValueError, OverflowError):
                pass  # raised again below, when this edge is checked
            triples.append((u, v, c))
        find, seen, ends, cond = pts._index.get, set(), [], []
        for u, v, c in triples:
            if u == v:
                raise ValueError(f"self-loop at {u!r} is not allowed")
            i = find(u)
            j = None if i is None else find(v)  # an unknown u is reported before an unhashable v
            if j is None:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            c = float(c)
            if not c > 0:
                raise ValueError(f"conductance on edge ({u!r}, {v!r}) must be positive, got {c}")
            if c == np.inf:
                raise ValueError(f"conductance on edge ({u!r}, {v!r}) must be finite, got {c}")
            if i == j:  # unequal labels naming one vertex, such as one NaN object
                raise ValueError(f"self-loop at {u!r} is not allowed")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            seen.add(key)
            ends += (i, j)
            cond.append(c)
        self._setup(pts, base, np.array(ends, dtype=np.intp).reshape(-1, 2),
                    np.array(cond, dtype=float), tuple(triples))
        self._check_connected()

    @classmethod
    def _from_arrays(cls, vertices: PointSet, base_index: int, ends, cond) -> "Network":
        """Network over canonical labels with edges given as endpoint index
        pairs and conductances; ``edges`` is spelled from the labels.  The
        arrays are trusted: the package builds them valid and connected, so
        neither the edge checks nor the connectivity pass runs."""
        net = object.__new__(cls)
        net._setup(vertices, vertices.labels[base_index], ends, cond, None)
        return net

    def _setup(self, pts, base, ends, cond, edges):
        self.vertices = pts
        self.base = base
        self._base_index = pts.index(base)
        self._ends = ends           # endpoint indices, one row per edge
        self._cond = cond           # conductances in edge order
        self._edges = edges
        # c(x), the Laplacian's diagonal: each vertex's edges as first
        # endpoint, then as second, in edge order
        self._total = np.bincount(ends.T.ravel(), np.tile(cond, 2), len(pts))
        if not np.isfinite(self._total).all():  # finite edges can still sum past the float range
            x = pts.labels[int(np.argmin(np.isfinite(self._total)))]
            raise ValueError(f"total conductance at {x!r} is beyond the float range")
        self._grounded_points = None  # V \ {base} as a PointSet, built on first use
        self._adjacency = None      # (ptr, neighbour, conductance) by vertex, built on first use
        self._lock = threading.Lock()
        self._grounded = None       # cached symmetric-mode SuperLU factor of the base-pinned Laplacian

    def _check_connected(self):
        import scipy.sparse
        from scipy.sparse.csgraph import connected_components

        n = len(self.vertices)
        u, v = self._ends.T
        graph = scipy.sparse.csr_matrix((self._cond, (u, v)), shape=(n, n))
        _, component = connected_components(graph, directed=False)
        unreached = np.flatnonzero(component != component[self._base_index])
        if unreached.size:
            labels = self.vertices.labels
            missing = [labels[i] for i in unreached.tolist()]
            raise Disconnected(f"vertices unreachable from base {self.base!r}: {missing!r}")

    # -- structure ---------------------------------------------------------

    @property
    def edges(self) -> tuple:
        """(u, v, conductance) per edge, in input order."""
        edges = self._edges
        if edges is None:  # spelled from the labels; racing threads build equal tuples
            labels = self.vertices.labels
            edges = tuple(
                (labels[i], labels[j], c) for (i, j), c in zip(self._ends.tolist(), self._cond.tolist())
            )
            self._edges = edges
        return edges

    def __len__(self):
        return len(self.vertices)

    def index(self, x) -> int:
        return self.vertices.index(x)

    def _incident(self, x):
        """Neighbour indices and conductances of x, in edge order, read from
        an index of all edge endpoints sorted by vertex, built on first use."""
        i = self.index(x)
        adjacency = self._adjacency
        if adjacency is None:  # racing threads build equal arrays
            ends = self._ends.ravel()  # entry 2e + s: endpoint s of edge e
            order = np.argsort(ends, kind="stable")  # by vertex, then edge
            ptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=len(self.vertices)))])
            adjacency = self._adjacency = (ptr, ends[order ^ 1], self._cond[order // 2])
        ptr, nbr, cond = adjacency
        return nbr[ptr[i]:ptr[i + 1]], cond[ptr[i]:ptr[i + 1]]

    def neighbors(self, x):
        idx, cond = self._incident(x)
        labels = self.vertices.labels
        return tuple(zip([labels[j] for j in idx.tolist()], cond.tolist()))

    def conductance(self, x, y) -> float:
        idx, cond = self._incident(x)
        if y not in self.vertices:
            return 0.0
        hit = np.flatnonzero(idx == self.index(y))
        return float(cond[hit[0]]) if hit.size else 0.0

    def total_conductance(self, x) -> float:
        """c(x): the sum of conductances of all edges at x, the Laplacian's
        diagonal entry at x bit for bit."""
        return float(self._total[self.index(x)])

    def grounded_vertices(self) -> PointSet:
        # built at most once per thread that races here; every build is equal
        pts = self._grounded_points
        if pts is None:
            labels, b = self.vertices.labels, self._base_index
            pts = self._grounded_points = PointSet.canonical(labels[:b] + labels[b + 1:])
        return pts

    def _grounded_system(self):
        ground = self._grounded
        if ground is None:
            with self._lock:
                ground = self._grounded
                if ground is None:
                    import scipy.sparse.linalg

                    n, b = len(self.vertices), self._base_index
                    u, v = self._ends.T
                    # the Laplacian with the base's row and column replaced by
                    # the identity; the diagonal is the per-vertex totals, so
                    # the sparse conversion has no duplicates to sum in an
                    # order of its own
                    diag = self._total.copy()
                    diag[b] = 1.0
                    off = (u != b) & (v != b)
                    u, v, c = u[off], v[off], self._cond[off]
                    rows, cols = np.concatenate([np.arange(n), u, v]), np.concatenate([np.arange(n), v, u])
                    lap = scipy.sparse.csc_matrix((np.concatenate([diag, -c, -c]), (rows, cols)), shape=(n, n))
                    # SPD: minimum degree on A + Aᵀ and diagonal pivots give Pᵀ A P = L U
                    try:
                        ground = scipy.sparse.linalg.splu(lap, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                                          options={"SymmetricMode": True})
                    except RuntimeError as err:  # pragma: no cover
                        raise Disconnected(f"grounded system is singular: {err}") from err
                    self._grounded = ground
        return ground

    def grounded_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Potentials, 0 at the base, of vertex-indexed currents of shape (n,)
        or (n, k): the base's own current goes to ground."""
        volts = self._grounded_system().solve(rhs)
        volts[self._base_index] = 0.0
        return volts

    def green_matrix(self) -> np.ndarray:
        """Inverse of the grounded Laplacian: entries k(x, y) over V \\ {base},
        one solve per column; nothing is cached."""
        return GreenKernel(self).gram(self.grounded_vertices().labels)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices.labels),
            "base": self.base,
            "edges": [[u, v, c] for u, v, c in self.edges],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Network":
        try:
            vertices, base, edges = doc["vertices"], doc["base"], doc["edges"]
        except KeyError as err:
            raise ValueError(f"network document is missing field {err}") from None
        for name, value in (("vertices", vertices), ("edges", edges)):
            if not isinstance(value, (list, tuple)):  # a string would spell one vertex per character
                raise ValueError(f"network document needs a '{name}' list")
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
        return f"Network(n={len(self.vertices)}, edges={len(self._cond)}, base={self.base!r})"


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
    i = net.index(x)
    source = np.zeros(len(net.vertices))
    source[i] = 1.0
    values = net.grounded_solve(source)
    # contract: applying the Laplacian returns the dipole source pattern
    resid = laplacian_apply(net, values)
    resid[i] -= 1.0
    resid[net._base_index] += 1.0
    if float(np.abs(resid).max()) > DIPOLE_RTOL * net.total_conductance(x):
        values += net.grounded_solve(-resid)
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
        return float(self.gram([x, y])[0, 1])

    def gram(self, labels) -> np.ndarray:
        """k over the labels: one grounded solve per label, symmetrized; the
        energy inner product is symmetric, so the averaging only removes
        solver rounding.  The base and unknown labels raise ``ValueError``."""
        b = self.network._base_index
        # V \ {base} keeps the vertex order: past the base, vertex index = index + 1
        idx = [i + (i >= b) for i in map(self.points.index, labels)]
        return _green_block(self.network, idx)


def _green_block(net: Network, idx) -> np.ndarray:
    """k over vertex indices, 0 on the base's rows and columns: one grounded
    solve per index, symmetrized."""
    rhs = np.zeros((len(net.vertices), len(idx)))
    rhs[idx, np.arange(len(idx))] = 1.0
    g = net.grounded_solve(rhs)[idx]
    return 0.5 * (g + g.T)


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
    i, j = net.index(x), net.index(y)
    if i == j:
        return 0.0
    source = np.zeros(len(net.vertices))
    source[i], source[j] = 1.0, -1.0
    volts = net.grounded_solve(source)
    return float(volts[i] - volts[j])


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
