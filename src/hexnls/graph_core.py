"""Finite metric graphs: vertices, edges with lengths, builders and validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Vertex:
    id: int
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    tail: int
    head: int
    length: float


@dataclass(slots=True)
class MetricGraph:
    """Undirected metric graph: its vertex list and its edge list.

    Edges carry an orientation (tail -> head) fixing the sign of the per-edge
    arclength coordinate; all functionals built on top are orientation
    independent.  Graphs are not mutated after build: ``_layouts`` caches
    their layouts.
    """

    vertices: list[Vertex] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def total_length(self) -> float:
        return sum(e.length for e in self.edges)

    def degrees(self) -> list[int]:
        """The number of edge ends at each vertex."""
        deg = [0] * len(self.vertices)
        for e in self.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        return deg

    def leaves(self) -> list[int]:
        return [v for v, d in enumerate(self.degrees()) if d == 1]


class GraphBuilder:
    """Incremental construction helper used by all graph builders."""

    def __init__(self):
        self.vertices: list[Vertex] = []
        self.edges: list[Edge] = []

    def add_vertex(self, x: float = 0.0, y: float = 0.0) -> int:
        vid = len(self.vertices)
        self.vertices.append(Vertex(vid, x, y))
        return vid

    def add_edge(self, tail: int, head: int, length: float) -> int:
        if length <= 0:
            raise ValueError(f"edge length must be positive, got {length}")
        if tail == head:
            raise ValueError(f"self-loop at vertex {tail}")
        for end in (tail, head):
            if not 0 <= end < len(self.vertices):
                raise ValueError(f"endpoint {end} is not an added vertex")
        eid = len(self.edges)
        self.edges.append(Edge(eid, tail, head, length))
        return eid

    def build(self) -> MetricGraph:
        g = MetricGraph(self.vertices, self.edges)
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
    coords = sorted({float(k) for k in range(-math.floor(half_length), math.floor(half_length) + 1)}
                    | {-float(half_length), float(half_length)})
    b = GraphBuilder()
    ids = [b.add_vertex(x, 0.0) for x in coords]
    for a, c in zip(coords, coords[1:]):
        b.add_edge(ids[coords.index(a)], ids[coords.index(c)], c - a)
    return b.build()


def build_star(num_halflines: int, arm_length: float) -> MetricGraph:
    """num_halflines truncated half-lines joined at a single center vertex."""
    if num_halflines < 2:
        raise ValueError(f"need at least 2 half-lines, got {num_halflines}")
    if arm_length <= 0:
        raise ValueError(f"arm_length must be positive, got {arm_length}")
    b = GraphBuilder()
    center = b.add_vertex(0.0, 0.0)
    n_full = math.floor(arm_length)
    coords = [float(k) for k in range(1, n_full + 1)]
    if not coords or coords[-1] < arm_length:
        coords.append(float(arm_length))
    for arm in range(num_halflines):
        theta = 2 * math.pi * arm / num_halflines
        prev, prev_r = center, 0.0
        for r in coords:
            v = b.add_vertex(r * math.cos(theta), r * math.sin(theta))
            b.add_edge(prev, v, r - prev_r)
            prev, prev_r = v, r
    return b.build()


def validate(g: MetricGraph) -> list[str]:
    """Return one description per violated MetricGraph invariant (empty if valid)."""
    problems = []
    for i, v in enumerate(g.vertices):
        if v.id != i:
            problems.append(f"vertex at position {i} has id {v.id} (ids must be 0..n-1)")
    nv = len(g.vertices)
    for i, e in enumerate(g.edges):
        if e.id != i:
            problems.append(f"edge at position {i} has id {e.id}")
        for endpoint in (e.tail, e.head):
            if not (0 <= endpoint < nv):
                problems.append(f"edge {e.id}: endpoint {endpoint} undefined")
        if e.tail == e.head:
            problems.append(f"edge {e.id}: self-loop at vertex {e.tail}")
        if not (e.length > 0):
            problems.append(f"edge {e.id}: non-positive length {e.length}")
    if nv and not problems:
        # Connectivity by depth-first search over the edge list's neighbours.
        neighbours: list[list[int]] = [[] for _ in range(nv)]
        for e in g.edges:
            neighbours[e.tail].append(e.head)
            neighbours[e.head].append(e.tail)
        visited = [False] * nv
        stack = [0]
        visited[0] = True
        count = 1
        while stack:
            for w in neighbours[stack.pop()]:
                if not visited[w]:
                    visited[w] = True
                    count += 1
                    stack.append(w)
        if count != nv:
            problems.append(f"not connected: reached {count} of {nv} vertices")
    return problems
