"""Functions on metric graphs: DOF storage, per-edge sample views, norms.

A GraphFunction is a read-only value: its DOF vector (vertex values, then
each edge's interior samples at arclength k * l_e / (n - 1), so continuity at
vertices is structural) cannot be written, and a caller's writeable array is
copied, so no alias can change it.  Its ``norms`` cache keeps the ratio
terms that do not depend on p (mass, gradient norms, the constant test, the
peak), measured once per function as Python scalars; int |u|^p is computed on
every call.  ``values`` is a read-only per-edge view; from_edge_samples is
the one checked way back.  Functions on the same (graph, n) share one
Discretization, which the solver uses too; its lumped (trapezoid) mass vector
is the quadrature, and forward differences on the sample intervals pair with
it exactly, keeping norms orientation independent.

One evaluator per energy term: Discretization.potential (mass and int |v|^p)
for the descent, the ratios and energy(); Discretization.kinetic, the cell
differences without K (exactly 0 on a constant), for energy() and
gradient_norms.  v.(K v) stays where a gradient needs K v anyway.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graph_core import MetricGraph


class GraphFunction:
    """A function on a metric graph, stored as its read-only DOF vector.

    A read-only array that owns its memory is kept as is; any other array is
    copied first.  norms maps the p-independent ratio terms measured so far
    (filled by inequality_ratio) to Python scalars.
    """

    __slots__ = ("graph", "dofs", "layout", "norms")

    def __init__(self, graph: MetricGraph, dofs: np.ndarray):
        dofs = np.asarray(dofs, dtype=float)
        interior, rest = divmod(dofs.size - graph.num_vertices, max(graph.num_edges, 1))
        if dofs.ndim != 1 or rest or interior < 0:
            raise ValueError(f"{dofs.shape} DOFs fit no sample count on this graph")
        if dofs.flags.writeable or dofs.base is not None:
            dofs = _frozen(dofs.copy())
        self.graph = graph
        self.dofs = dofs
        self.layout = _layout(graph, interior + 2)
        self.norms = {}

    @property
    def samples_per_edge(self) -> int:
        return self.layout.n

    @property
    def values(self) -> np.ndarray:
        """Read-only (num_edges, samples_per_edge) per-edge samples."""
        vals = self.dofs[self.layout.dof_of]
        vals.flags.writeable = False
        return vals

    def scaled(self, c: float) -> "GraphFunction":
        return GraphFunction(self.graph, _frozen(c * self.dofs))

    def vertex_values(self) -> np.ndarray:
        """Read-only view of the vertex values."""
        return self.dofs[:self.graph.num_vertices]


def _frozen(dofs: np.ndarray) -> np.ndarray:
    """dofs made read-only: a new array no one else holds becomes a
    GraphFunction's own without a copy."""
    dofs.flags.writeable = False
    return dofs


def _layout(graph: MetricGraph, samples_per_edge: int) -> "Discretization":
    """The Discretization shared by all functions with this sampling on graph."""
    if samples_per_edge not in graph._layouts:
        graph._layouts[samples_per_edge] = Discretization(graph, samples_per_edge)
    return graph._layouts[samples_per_edge]


def from_edge_samples(graph: MetricGraph, values: np.ndarray) -> GraphFunction:
    """The function with these (num_edges, n) per-edge samples; the end samples
    of the edges at a vertex are its value and must agree exactly."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != graph.num_edges or values.shape[1] < 2:
        raise ValueError(f"values shape {values.shape} does not match graph")
    lay = _layout(graph, values.shape[1])
    dofs = np.empty(lay.n_dofs)
    dofs[lay.dof_of] = values
    ends = lay.dof_of[:, [0, -1]]
    bad = ends[~np.isclose(dofs[ends], values[:, [0, -1]], rtol=0, atol=0, equal_nan=True)]
    if bad.size:
        raise ValueError(f"vertex {bad[0]}: endpoint samples of its edges disagree")
    return GraphFunction(graph, _frozen(dofs))


def _abs_power(v: np.ndarray, e: float, sq: np.ndarray | None = None) -> np.ndarray:
    """|v|^e.  A whole e from 1 to 8 is formed by products, |v| (odd e) or
    v*v (even e) times v*v until the power is reached, all in one new array
    (sq, when given, is v*v; at e = 2 it is returned itself); any other e
    by the general pow.  For a whole e from 3 to 8, |v|^(e-2) * (v*v) is
    |v|^e bit for bit, which the ratios' lp term relies on."""
    if not (1 <= e <= 8 and e == int(e)):
        return np.abs(v) ** e
    if sq is None:
        sq = v * v
    k = int(e)
    if k == 2:
        return sq
    if k % 2:
        w = np.abs(v)
        products = k // 2
    else:
        w = sq * sq
        products = k // 2 - 2
    for _ in range(products):
        w *= sq
    return w


def constant_function(graph: MetricGraph, value: float, samples_per_edge: int = 33) -> GraphFunction:
    return GraphFunction(graph, _frozen(np.full(_layout(graph, samples_per_edge).n_dofs,
                                                float(value))))


def from_vertex_values(graph: MetricGraph, vertex_vals: np.ndarray,
                       samples_per_edge: int = 33) -> GraphFunction:
    """Piecewise-linear function interpolating the given vertex values."""
    vertex_vals = np.asarray(vertex_vals, dtype=float)
    if vertex_vals.shape != (graph.num_vertices,):
        raise ValueError(f"need one value per vertex, got shape {vertex_vals.shape}")
    return GraphFunction(graph, _frozen(_layout(graph, samples_per_edge).interpolate(vertex_vals)))


def integrate_power(u: GraphFunction, p: float) -> float:
    """Composite-trapezoid approximation of the integral of |u|^p."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    return u.layout.lp(u.dofs, p)


def gradient_norms(u: GraphFunction) -> tuple[float, float]:
    """(L1 norm, squared L2 norm) of the edgewise derivative."""
    return float(np.abs(np.diff(u.values, axis=1)).sum()), u.layout.kinetic(u.dofs)


def rescale_mass(u: GraphFunction, mu: float) -> GraphFunction:
    if not 0 < mu < np.inf:
        raise ValueError(f"target mass must be positive and finite, got {mu}")
    m = integrate_power(u, 2)
    if m <= 0:
        raise ValueError("cannot rescale a function with zero mass")
    return u.scaled(np.sqrt(mu / m))


class Discretization:
    """DOF numbering and quadrature for n samples per edge on a fixed graph.

    Vertex samples shared between edges collapse to one DOF; interior samples
    are their own DOFs.  The lumped (trapezoid) mass vector and the chain
    stiffness matrix give integrate_power(u, 2) and the squared L2 gradient
    norm.  The cells and the stiffness are built on first use.
    preconditioners maps each shift sigma that the solver has met on this
    layout to its ready (sigma*M + K)^{-1} (filled by _Descent.shift_to).  A
    layout keeps the graph's vertex and edge counts, not the graph, which
    caches it.
    """

    def __init__(self, graph: MetricGraph, samples_per_edge: int = 33):
        if samples_per_edge < 2:
            raise ValueError(f"need at least 2 samples per edge, got {samples_per_edge}")
        self.n = samples_per_edge
        E, n, V = graph.num_edges, samples_per_edge, graph.num_vertices
        self.num_vertices, self.num_edges = V, E
        dof_of = np.empty((E, n), dtype=np.int64)
        interior = V + (n - 2) * np.arange(E)[:, None] + np.arange(n - 2)[None, :]
        dof_of[:, 1:-1] = interior
        dof_of[:, 0] = graph.tails
        dof_of[:, -1] = graph.heads
        self.dof_of = dof_of
        self.n_dofs = V + E * (n - 2)
        self.h = graph.lengths / (n - 1)
        self.mass_vec = self._lumped_mass(np.ones(E, dtype=bool))
        self.preconditioners = {}

    @cached_property
    def hat_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(1 - t, t) at the interior samples t = k / (n - 1): the weights of
        an edge's tail and head values in its linear interpolant."""
        t = np.linspace(0.0, 1.0, self.n)[1:-1]
        return 1.0 - t, t

    def interpolate(self, vertex_vals: np.ndarray) -> np.ndarray:
        """A new DOF vector, linear on every edge between these vertex
        values, written in place: tail value * (1 - t) + head value * t."""
        V = self.num_vertices
        dofs = np.empty(self.n_dofs)
        dofs[:V] = vertex_vals
        interior = dofs[V:].reshape(self.num_edges, self.n - 2)
        down, up = self.hat_weights
        np.multiply(vertex_vals[self.dof_of[:, 0]][:, None], down, out=interior)
        interior += vertex_vals[self.dof_of[:, -1]][:, None] * up
        return dofs

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The (left, right) DOF of every sample cell, edge by edge."""
        return self.dof_of[:, :-1].ravel(), self.dof_of[:, 1:].ravel()

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        d0, d1 = self.cells
        w = np.repeat(1.0 / self.h, self.n - 1)
        rows = np.concatenate([d0, d1, d0, d1])
        cols = np.concatenate([d0, d1, d1, d0])
        vals = np.concatenate([w, w, -w, -w])
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.n_dofs, self.n_dofs)).tocsr()

    def _lumped_mass(self, edges: np.ndarray) -> np.ndarray:
        """Trapezoid weights of the sample cells on the masked edges, per DOF."""
        hw = np.repeat(self.h[edges] / 2.0, self.n - 1)
        vec = np.zeros(self.n_dofs)
        np.add.at(vec, self.dof_of[edges, :-1].ravel(), hw)
        np.add.at(vec, self.dof_of[edges, 1:].ravel(), hw)
        return vec

    def boundary_weights(self, boundary_vertices: np.ndarray) -> np.ndarray:
        """Lumped mass of the edges within two steps of the boundary vertices
        (zero without any): the edges with an end in the ring of vertices at
        most one step from the boundary, found in one pass each way."""
        tails, heads = self.dof_of[:, 0], self.dof_of[:, -1]
        on = np.zeros(self.num_vertices, dtype=bool)
        on[boundary_vertices] = True
        ring = on.copy()
        ring[heads[on[tails]]] = True
        ring[tails[on[heads]]] = True
        return self._lumped_mass(ring[tails] | ring[heads])

    def to_dofs(self, u: GraphFunction) -> np.ndarray:
        """u's (read-only) DOF vector, once u's layout is known to number the
        same DOFs: the same edges between the same vertices, lengths and
        sampling."""
        lay = u.layout
        if lay is not self and not (np.array_equal(lay.dof_of, self.dof_of)
                                    and np.array_equal(lay.h, self.h)):
            raise ValueError("function is not on this discretization's graph and sampling")
        return u.dofs

    def cells_constant(self, dofs: np.ndarray) -> bool:
        """Whether every cell difference is exactly zero: each edge's interior
        samples and head equal its tail, compared on the DOF vector's
        contiguous (edge, interior sample) block without gathering the cells."""
        tails = dofs[self.dof_of[:, 0]]
        return bool(np.array_equal(dofs[self.dof_of[:, -1]], tails) and
                    (dofs[self.num_vertices:].reshape(self.num_edges, self.n - 2)
                     == tails[:, None]).all())

    def mass(self, dofs: np.ndarray) -> float:
        return float(self.mass_vec @ dofs ** 2)

    def lp(self, dofs: np.ndarray, p: float) -> float:
        """int |v|^p: potential's, bit for bit, for p > 2; the power itself
        for 1 <= p <= 2, where potential's |v|^(p-2) is not defined at 0."""
        if p > 2:
            return self.potential(dofs, p)[2]
        return float(self.mass_vec @ _abs_power(dofs, p))

    def potential(self, dofs: np.ndarray, p: float) -> tuple[np.ndarray, float, float]:
        """(|v|^(p-2), mass, int |v|^p = M . (|v|^(p-2) v*v)) from one square v*v."""
        sq = dofs * dofs
        w, mass = _abs_power(dofs, p - 2, sq), float(self.mass_vec @ sq)
        # w * sq in sq's memory, one array fewer at the peak, unless w is sq (p = 4).
        return w, mass, float(self.mass_vec @ (w * sq if w is sq else np.multiply(w, sq, out=sq)))

    def kinetic(self, dofs: np.ndarray) -> float:
        """v.(K v) without K, sum_e h_e^-1 sum (cell difference)^2: 0 on a constant."""
        dv = np.diff(dofs[self.dof_of], axis=1)
        return float((dv ** 2).sum(axis=1) @ (1.0 / self.h))

    def boundary_mass_fraction(self, dofs: np.ndarray, weights: np.ndarray) -> float:
        """Share of the mass that boundary_weights puts near the boundary."""
        sq = dofs ** 2
        total = float(self.mass_vec @ sq)
        if total <= 0:
            return 0.0
        return float(weights @ sq) / total
