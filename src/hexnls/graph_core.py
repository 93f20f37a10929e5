"""Finite metric graphs: vertices, edges with lengths, builders and validation."""

from __future__ import annotations

import json
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
    kind: str = "edge"  # horizontal | up | down | halfline-stub | edge


@dataclass(slots=True)
class MetricGraph:
    """Undirected metric graph.

    Edges carry an orientation (tail -> head) fixing the sign of the per-edge
    arclength coordinate; all functionals built on top are orientation
    independent.  ``adjacency[v]`` lists ``(edge_id, orientation)`` pairs,
    with orientation +1 when v is the tail and -1 when v is the head.
    Graphs are not mutated after build: ``_layouts`` caches their layouts.
    """

    vertices: list[Vertex] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    adjacency: list[list[tuple[int, int]]] = field(default_factory=list)
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def total_length(self) -> float:
        return sum(e.length for e in self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def leaves(self) -> list[int]:
        return [v.id for v in self.vertices if self.degree(v.id) == 1]


class GraphBuilder:
    """Incremental construction helper used by all graph builders."""

    def __init__(self):
        self.vertices: list[Vertex] = []
        self.edges: list[Edge] = []

    def add_vertex(self, x: float = 0.0, y: float = 0.0) -> int:
        vid = len(self.vertices)
        self.vertices.append(Vertex(vid, x, y))
        return vid

    def add_edge(self, tail: int, head: int, length: float, kind: str = "edge") -> int:
        if length <= 0:
            raise ValueError(f"edge length must be positive, got {length}")
        if tail == head:
            raise ValueError(f"self-loop at vertex {tail}")
        eid = len(self.edges)
        self.edges.append(Edge(eid, tail, head, length, kind))
        return eid

    def build(self) -> MetricGraph:
        adjacency: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for e in self.edges:
            adjacency[e.tail].append((e.id, +1))
            adjacency[e.head].append((e.id, -1))
        g = MetricGraph(self.vertices, self.edges, adjacency)
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
        b.add_edge(ids[coords.index(a)], ids[coords.index(c)], c - a, "halfline-stub")
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
            b.add_edge(prev, v, r - prev_r, "halfline-stub")
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
    if len(g.adjacency) != nv:
        problems.append(f"adjacency has {len(g.adjacency)} entries for {nv} vertices")
        return problems
    # Each edge must appear exactly twice, once per endpoint.
    seen: dict[int, list[int]] = {}
    for v, incident in enumerate(g.adjacency):
        for eid, orient in incident:
            if not (0 <= eid < len(g.edges)):
                problems.append(f"vertex {v}: adjacency references undefined edge {eid}")
                continue
            seen.setdefault(eid, []).append(v)
            e = g.edges[eid]
            expect = e.tail if orient == +1 else e.head
            if expect != v:
                problems.append(f"vertex {v}: edge {eid} listed with wrong orientation")
    for e in g.edges:
        ends = sorted(seen.get(e.id, []))
        if ends != sorted((e.tail, e.head)):
            problems.append(f"edge {e.id}: adjacency endpoints {ends} != ({e.tail},{e.head})")
    if nv and not problems:
        # Connectivity by BFS over adjacency.
        visited = [False] * nv
        stack = [0]
        visited[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for eid, orient in g.adjacency[v]:
                e = g.edges[eid]
                w = e.head if orient == +1 else e.tail
                if not visited[w]:
                    visited[w] = True
                    count += 1
                    stack.append(w)
        if count != nv:
            problems.append(f"not connected: reached {count} of {nv} vertices")
    return problems


def to_json(g: MetricGraph) -> str:
    """Serialize with stable field order for golden-file comparisons."""
    doc = {
        "vertices": [{"id": v.id, "x": v.x, "y": v.y} for v in g.vertices],
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "length": e.length, "kind": e.kind}
            for e in g.edges
        ],
    }
    return json.dumps(doc, indent=1)


def from_json(text: str) -> MetricGraph:
    doc = json.loads(text)
    b = GraphBuilder()
    for v in doc["vertices"]:
        b.add_vertex(v["x"], v["y"])
    for e in doc["edges"]:
        b.add_edge(e["tail"], e["head"], e["length"], e["kind"])
    return b.build()
