"""Finite metric graphs as arrays: edge ends, edge lengths, vertex positions.

A graph is its arrays.  Builders write them whole; validate checks them
vectorized.  Vertex and edge ids are array positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """Undirected metric graph: edge e joins tails[e] to heads[e] and has
    length lengths[e]; vertex v sits at xy[v] in the plane.

    Edges carry an orientation (tail -> head) fixing the sign of the per-edge
    arclength coordinate; all functionals built on top are orientation
    independent.  The arrays are copied and made read-only, since
    ``_layouts`` caches the graph's layouts.  The constructor checks only the
    array shapes; validate checks the contents.
    """

    tails: np.ndarray
    heads: np.ndarray
    lengths: np.ndarray
    xy: np.ndarray
    _layouts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name, dtype in (("tails", np.int64), ("heads", np.int64),
                            ("lengths", float), ("xy", float)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        E = self.tails.shape
        if len(E) != 1 or self.heads.shape != E or self.lengths.shape != E:
            raise ValueError(f"tails, heads and lengths must be one (E,) shape, got "
                             f"{self.tails.shape}, {self.heads.shape} and {self.lengths.shape}")
        if self.xy.ndim != 2 or self.xy.shape[1] != 2:
            raise ValueError(f"xy must have shape (V, 2), got {self.xy.shape}")

    @property
    def num_vertices(self) -> int:
        return len(self.xy)

    @property
    def num_edges(self) -> int:
        return len(self.tails)

    def total_length(self) -> float:
        """The lengths summed left to right, as a running sum adds them."""
        return float(np.cumsum(self.lengths)[-1]) if self.num_edges else 0.0

    def degrees(self) -> np.ndarray:
        """The number of edge ends at each vertex."""
        return np.bincount(np.concatenate([self.tails, self.heads]), minlength=self.num_vertices)

    def leaves(self) -> np.ndarray:
        return np.flatnonzero(self.degrees() == 1)

    def boundary_vertices(self) -> np.ndarray:
        """The truncation boundary: the leaves, unless a subclass says otherwise."""
        return self.leaves()


class GraphBuilder:
    """Vertex-by-vertex, edge-by-edge construction of a hand-built graph."""

    def __init__(self):
        self.xy: list[tuple[float, float]] = []
        self.ends: list[tuple[int, int]] = []
        self.lengths: list[float] = []

    def add_vertex(self, x: float = 0.0, y: float = 0.0) -> int:
        self.xy.append((x, y))
        return len(self.xy) - 1

    def add_edge(self, tail: int, head: int, length: float) -> int:
        if length <= 0:
            raise ValueError(f"edge length must be positive, got {length}")
        if tail == head:
            raise ValueError(f"self-loop at vertex {tail}")
        for end in (tail, head):
            if not 0 <= end < len(self.xy):
                raise ValueError(f"endpoint {end} is not an added vertex")
        self.ends.append((tail, head))
        self.lengths.append(length)
        return len(self.ends) - 1

    def build(self) -> MetricGraph:
        ends = np.array(self.ends, dtype=np.int64).reshape(-1, 2)
        return build_graph(ends[:, 0], ends[:, 1], self.lengths,
                           np.array(self.xy, dtype=float).reshape(-1, 2))


def build_graph(tails, heads, lengths, xy) -> MetricGraph:
    """The graph with these arrays, refused with every problem validate finds."""
    return checked(MetricGraph(tails, heads, lengths, xy))


def checked(g: MetricGraph) -> MetricGraph:
    """g itself, refused with every problem validate finds."""
    problems = validate(g)
    if problems:
        raise ValueError("builder produced invalid graph: " + "; ".join(problems))
    return g


def build_line(half_length: float) -> MetricGraph:
    """Path graph on [-half_length, half_length] as a chain of unit edges.

    Interior vertices sit at integer coordinates; the outermost edges are
    shorter when half_length is not an integer.
    """
    if half_length <= 0:
        raise ValueError(f"half_length must be positive, got {half_length}")
    m = math.floor(half_length)
    x = np.unique(np.concatenate([np.arange(-m, m + 1, dtype=float),
                                  [-float(half_length), float(half_length)]]))
    ids = np.arange(len(x))
    return build_graph(ids[:-1], ids[1:], np.diff(x), np.column_stack([x, np.zeros_like(x)]))


def build_star(num_halflines: int, arm_length: float) -> MetricGraph:
    """num_halflines truncated half-lines joined at a single center vertex.

    Vertex 0 is the center; arm a holds vertices 1 + a*K .. a*K + K outward,
    with the arm's edges in the same order."""
    if num_halflines < 2:
        raise ValueError(f"need at least 2 half-lines, got {num_halflines}")
    if arm_length <= 0:
        raise ValueError(f"arm_length must be positive, got {arm_length}")
    r = np.arange(1.0, math.floor(arm_length) + 1)
    if not r.size or r[-1] < arm_length:
        r = np.append(r, float(arm_length))
    K = len(r)
    ids = 1 + np.arange(num_halflines * K).reshape(num_halflines, K)
    tails = np.column_stack([np.zeros(num_halflines, dtype=np.int64), ids[:, :-1]])
    # math.cos/sin per arm, so the positions do not depend on numpy's vector kernels.
    thetas = [2 * math.pi * arm / num_halflines for arm in range(num_halflines)]
    directions = np.array([(math.cos(t), math.sin(t)) for t in thetas])
    xy = np.concatenate([[(0.0, 0.0)], (r[None, :, None] * directions[:, None, :]).reshape(-1, 2)])
    return build_graph(tails.ravel(), ids.ravel(), np.tile(np.diff(r, prepend=0.0), num_halflines),
                       xy)


def validate(g: MetricGraph) -> list[str]:
    """Return one description per violated MetricGraph invariant (empty if valid)."""
    V = g.num_vertices
    ends = np.column_stack([g.tails, g.heads])
    problems = [f"edge {e}: endpoint {ends[e, k]} undefined"
                for e, k in zip(*np.nonzero((ends < 0) | (ends >= V)))]
    problems += [f"edge {e}: self-loop at vertex {g.tails[e]}"
                 for e in np.flatnonzero(g.tails == g.heads)]
    problems += [f"edge {e}: non-positive length {g.lengths[e]}"
                 for e in np.flatnonzero(~(g.lengths > 0))]
    if V and not problems:
        adj = sp.coo_matrix((np.ones(g.num_edges), (g.tails, g.heads)), shape=(V, V))
        _, labels = connected_components(adj, directed=False)
        reached = int(np.count_nonzero(labels == labels[0]))
        if reached != V:
            problems.append(f"not connected: reached {reached} of {V} vertices")
    return problems
