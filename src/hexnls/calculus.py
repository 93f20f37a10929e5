"""Functions on metric graphs: per-edge uniform samples, norms, quadrature.

A GraphFunction stores n samples per edge at uniform arclength coordinates
k * l_e / (n - 1).  Samples 0 and n-1 are the tail/head vertex values, so
continuity at vertices means all incident edges agree there.  Quadrature is
composite trapezoid and derivatives are forward differences on the sample
intervals; the two pair up exactly, which keeps every norm orientation
independent.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .graph_core import MetricGraph


@dataclass(slots=True)
class GraphFunction:
    graph: MetricGraph
    values: np.ndarray  # shape (num_edges, samples_per_edge)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.graph.num_edges or self.values.ndim != 2:
            raise ValueError(f"values shape {self.values.shape} does not match graph")
        if self.values.shape[1] < 2:
            raise ValueError("need at least 2 samples per edge")

    @property
    def samples_per_edge(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "GraphFunction":
        return GraphFunction(self.graph, self.values.copy())

    def scaled(self, c: float) -> "GraphFunction":
        return GraphFunction(self.graph, c * self.values)

    def continuity_violations(self, tol: float = 0.0) -> list[str]:
        out = []
        for v, incident in enumerate(self.graph.adjacency):
            vals = [self.values[eid, 0 if orient == +1 else -1] for eid, orient in incident]
            if vals and (max(vals) - min(vals)) > tol:
                out.append(f"vertex {v}: endpoint samples disagree ({vals})")
        return out

    def vertex_values(self) -> np.ndarray:
        vals = np.empty(self.graph.num_vertices)
        for v, incident in enumerate(self.graph.adjacency):
            eid, orient = incident[0]
            vals[v] = self.values[eid, 0 if orient == +1 else -1]
        return vals


def edge_lengths(graph: MetricGraph) -> np.ndarray:
    return np.array([e.length for e in graph.edges])


def constant_function(graph: MetricGraph, value: float, samples_per_edge: int = 33) -> GraphFunction:
    return GraphFunction(graph, np.full((graph.num_edges, samples_per_edge), float(value)))


def from_vertex_values(graph: MetricGraph, vertex_vals: np.ndarray,
                       samples_per_edge: int = 33) -> GraphFunction:
    """Piecewise-linear function interpolating the given vertex values."""
    vertex_vals = np.asarray(vertex_vals, dtype=float)
    t = np.linspace(0.0, 1.0, samples_per_edge)
    tails = np.array([e.tail for e in graph.edges])
    heads = np.array([e.head for e in graph.edges])
    vals = np.outer(1.0 - t, vertex_vals[tails]).T + np.outer(t, vertex_vals[heads]).T
    return GraphFunction(graph, vals)


def integrate_power(u: GraphFunction, p: float) -> float:
    """Composite-trapezoid approximation of the integral of |u|^p."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    h = edge_lengths(u.graph) / (u.samples_per_edge - 1)
    a = np.abs(u.values) ** p
    per_edge = a.sum(axis=1) - 0.5 * (a[:, 0] + a[:, -1])
    return float(h @ per_edge)


def gradient_norms(u: GraphFunction) -> tuple[float, float]:
    """(L1 norm, squared L2 norm) of the edgewise derivative."""
    h = edge_lengths(u.graph) / (u.samples_per_edge - 1)
    dv = np.diff(u.values, axis=1)
    grad_l1 = float(np.abs(dv).sum())
    grad_l2sq = float((dv ** 2).sum(axis=1) @ (1.0 / h))
    return grad_l1, grad_l2sq


@dataclass(slots=True)
class NormReport:
    mass: float
    lp: dict[float, float]
    linf: float
    grad_l1: float
    grad_l2sq: float


def norm_report(u: GraphFunction, p_list: list[float] = ()) -> NormReport:
    grad_l1, grad_l2sq = gradient_norms(u)
    return NormReport(
        mass=integrate_power(u, 2),
        lp={p: integrate_power(u, p) for p in p_list},
        linf=float(np.abs(u.values).max()),
        grad_l1=grad_l1,
        grad_l2sq=grad_l2sq,
    )


def rescale_mass(u: GraphFunction, mu: float) -> GraphFunction:
    if mu <= 0:
        raise ValueError(f"target mass must be positive, got {mu}")
    m = integrate_power(u, 2)
    if m <= 0:
        raise ValueError("cannot rescale a function with zero mass")
    return u.scaled(np.sqrt(mu / m))


def to_csv(u: GraphFunction) -> str:
    buf = io.StringIO()
    buf.write("edge_id,sample_index,arclength_coordinate,value\n")
    n = u.samples_per_edge
    for e in u.graph.edges:
        for k in range(n):
            s = e.length * k / (n - 1)
            buf.write(f"{e.id},{k},{s!r},{float(u.values[e.id, k])!r}\n")
    return buf.getvalue()


class Discretization:
    """Degree-of-freedom view of sampled functions on a fixed graph.

    Vertex samples shared between edges collapse to one DOF; interior samples
    are their own DOFs.  The lumped (trapezoid) mass vector and the chain
    stiffness matrix reproduce integrate_power(u, 2) and the squared L2
    gradient norm exactly.
    """

    def __init__(self, graph: MetricGraph, samples_per_edge: int = 33,
                 boundary_vertices: list[int] | None = None):
        self.graph = graph
        self.n = samples_per_edge
        E, n, V = graph.num_edges, samples_per_edge, graph.num_vertices
        dof_of = np.empty((E, n), dtype=np.int64)
        interior = V + (n - 2) * np.arange(E)[:, None] + np.arange(n - 2)[None, :]
        dof_of[:, 1:-1] = interior
        dof_of[:, 0] = [e.tail for e in graph.edges]
        dof_of[:, -1] = [e.head for e in graph.edges]
        self.dof_of = dof_of
        self.n_dofs = V + E * (n - 2)

        h = edge_lengths(graph) / (n - 1)
        self.h = h
        d0 = dof_of[:, :-1].ravel()
        d1 = dof_of[:, 1:].ravel()
        w = np.repeat(1.0 / h, n - 1)
        rows = np.concatenate([d0, d1, d0, d1])
        cols = np.concatenate([d0, d1, d1, d0])
        vals = np.concatenate([w, w, -w, -w])
        self.stiffness = sp.coo_matrix((vals, (rows, cols)),
                                       shape=(self.n_dofs, self.n_dofs)).tocsr()

        if boundary_vertices is None:
            boundary_vertices = graph.leaves()
        self.boundary_vertices = list(boundary_vertices)
        self.mass_vec = self._lumped_mass(np.ones(E, dtype=bool))
        self.boundary_mass_vec = self._lumped_mass(self._edges_near_boundary(depth=2))

    def _lumped_mass(self, edges: np.ndarray) -> np.ndarray:
        """Trapezoid weights of the sample cells on the masked edges, per DOF."""
        hw = np.repeat(self.h[edges] / 2.0, self.n - 1)
        vec = np.zeros(self.n_dofs)
        np.add.at(vec, self.dof_of[edges, :-1].ravel(), hw)
        np.add.at(vec, self.dof_of[edges, 1:].ravel(), hw)
        return vec

    def _edges_near_boundary(self, depth: int) -> np.ndarray:
        if not self.boundary_vertices:
            return np.zeros(self.graph.num_edges, dtype=bool)
        V = self.graph.num_vertices
        tails = np.array([e.tail for e in self.graph.edges])
        heads = np.array([e.head for e in self.graph.edges])
        adj = sp.coo_matrix((np.ones(len(tails)), (tails, heads)), shape=(V, V))
        adj = adj + adj.T
        dist = dijkstra(adj.tocsr(), indices=self.boundary_vertices, unweighted=True,
                        min_only=True)
        return np.minimum(dist[tails], dist[heads]) <= depth - 1

    def to_dofs(self, u: GraphFunction) -> np.ndarray:
        dofs = np.empty(self.n_dofs)
        dofs[self.dof_of] = u.values
        return dofs

    def to_function(self, dofs: np.ndarray) -> GraphFunction:
        return GraphFunction(self.graph, dofs[self.dof_of])

    def mass(self, dofs: np.ndarray) -> float:
        return float(self.mass_vec @ dofs ** 2)

    def lp(self, dofs: np.ndarray, p: float) -> float:
        return float(self.mass_vec @ np.abs(dofs) ** p)

    def kinetic(self, dofs: np.ndarray) -> float:
        return float(dofs @ (self.stiffness @ dofs))

    def boundary_mass_fraction(self, dofs: np.ndarray) -> float:
        """Share of the mass on edges within two steps of the boundary."""
        sq = dofs ** 2
        total = float(self.mass_vec @ sq)
        if total <= 0:
            return 0.0
        return float(self.boundary_mass_vec @ sq) / total

    def boundary_dof_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_dofs, dtype=bool)
        mask[self.boundary_vertices] = True
        return mask
