"""Truncated hexagonal grid and its decomposition into parallel path families.

The infinite hexagonal grid is covered by two families of parallel zigzag
paths: the L family (horizontal plus positive-slope edges, drifting up-right)
and the R family (horizontal plus negative-slope edges, drifting down-right).
L_i and R_j share exactly one horizontal edge, which gives a bijection
(i, j) <-> horizontal edges.  We build the truncation directly from that
bijection: keep the horizontal edges with (i, j) in the [-R, R]^2 window plus
the slanted edges between them, so every stored path is complete across the
window.  Stub edges (to degree-1 vertices) are kept where a path segment
exits the window.

Integer layout units: x in halves of the edge length, y in sqrt(3)/2 times
the edge length.  The left endpoint of the horizontal edge shared by L_i and
R_j sits at (3(j - i), i + j); the origin vertex o is the (0, 0) one.
Combinatorial path coordinates: that left endpoint has coordinate 2j - i
along L_i, and each edge advances the coordinate by 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph_core import GraphBuilder, MetricGraph

SQRT3_2 = math.sqrt(3.0) / 2.0


@dataclass(slots=True)
class HoneycombLattice:
    graph: MetricGraph
    edge_length: float
    origin_vertex: int
    truncation_radius: int
    # (i, j) -> vertex id of the left / right endpoint of horizontal (i, j)
    a_id: dict[tuple[int, int], int] = field(default_factory=dict)
    b_id: dict[tuple[int, int], int] = field(default_factory=dict)
    horiz_id: dict[tuple[int, int], int] = field(default_factory=dict)
    up_id: dict[tuple[int, int], int] = field(default_factory=dict)
    down_id: dict[tuple[int, int], int] = field(default_factory=dict)
    # edge id -> ("horizontal"|"up"|"down", i, j); for "down" the first index
    # is the lower of the two L paths the edge joins
    edge_roles: list[tuple[str, int, int]] = field(default_factory=list)

    def interior_vertices(self) -> list[int]:
        return [v for v, d in enumerate(self.graph.degrees()) if d == 3]

    def boundary_vertices(self) -> list[int]:
        return [v for v, d in enumerate(self.graph.degrees()) if d < 3]


@dataclass(slots=True)
class PathFamily:
    """The two path families with all index structures.

    I_segments[(i, j)] is the pair (horizontal edge shared by L_i and R_j,
    up edge on its right); J_segments[(j, i)] the pair (same horizontal,
    down edge on its up-left along R_j).  v_vertices / w_vertices hold the
    distinguished junction vertices of those segments.
    """

    L_paths: dict[int, list[int]]
    R_paths: dict[int, list[int]]
    I_segments: dict[tuple[int, int], tuple[int, int]]
    J_segments: dict[tuple[int, int], tuple[int, int]]
    v_vertices: dict[tuple[int, int], int]
    w_vertices: dict[tuple[int, int], int]


@dataclass(slots=True)
class BridgeFamily:
    """Bridging (negative-slope) edges grouped by transversal line.

    lines[k] lists (m, edge_id) pairs sorted by m, where the bridge joins
    L_m to L_{m+1}; line k contains the bridges with 2j - m = k, so m has
    the parity of k.  The edge orientation realizes the coordinate
    convention: arclength 0 at the L_m endpoint when m >= 0, at the
    L_{m+1} endpoint when m < 0.
    """

    lines: dict[int, list[tuple[int, int]]]


def build_honeycomb(truncation_radius: int, edge_length: float) -> HoneycombLattice:
    if truncation_radius < 1:
        raise ValueError(f"truncation_radius must be >= 1, got {truncation_radius}")
    if edge_length <= 0:
        raise ValueError(f"edge_length must be positive, got {edge_length}")
    R = truncation_radius
    l = edge_length
    b = GraphBuilder()
    lat = HoneycombLattice(
        graph=None, edge_length=l, origin_vertex=-1, truncation_radius=R  # type: ignore[arg-type]
    )

    def pos(ix: int, iy: int) -> tuple[float, float]:
        return 0.5 * l * ix, SQRT3_2 * l * iy

    rng = range(-R, R + 1)
    for i in rng:
        for j in rng:
            ax, ay = pos(3 * (j - i), i + j)
            lat.a_id[(i, j)] = b.add_vertex(ax, ay)
            lat.b_id[(i, j)] = b.add_vertex(ax + l, ay)
    # Stub vertices: A(i, R+1) closing the last I segment of L_i, and
    # B(R+1, j) closing the last J segment of R_j.
    for i in rng:
        ax, ay = pos(3 * (R + 1 - i), i + R + 1)
        lat.a_id[(i, R + 1)] = b.add_vertex(ax, ay)
    for j in rng:
        ax, ay = pos(3 * (j - R - 1), R + j + 1)
        lat.b_id[(R + 1, j)] = b.add_vertex(ax + l, ay)

    roles = lat.edge_roles
    for i in rng:
        for j in rng:
            eid = b.add_edge(lat.a_id[(i, j)], lat.b_id[(i, j)], l, "horizontal")
            lat.horiz_id[(i, j)] = eid
            roles.append(("horizontal", i, j))
    for i in rng:
        for j in rng:
            eid = b.add_edge(lat.b_id[(i, j)], lat.a_id[(i, j + 1)], l, "up")
            lat.up_id[(i, j)] = eid
            roles.append(("up", i, j))
    for m in rng:
        for j in rng:
            lo, hi = lat.a_id[(m, j)], lat.b_id[(m + 1, j)]
            tail, head = (lo, hi) if m >= 0 else (hi, lo)
            eid = b.add_edge(tail, head, l, "down")
            lat.down_id[(m, j)] = eid
            roles.append(("down", m, j))

    lat.graph = b.build()
    lat.origin_vertex = lat.a_id[(0, 0)]
    return lat


def path_coordinate(lat: HoneycombLattice, edge_id: int, t: float) -> tuple[int, float]:
    """Path index i and combinatorial L_i coordinate of the point at arclength
    fraction t (tail -> head) along an L-family edge."""
    kind, i, j = lat.edge_roles[edge_id]
    if kind == "horizontal":
        return i, (2 * j - i) + t
    if kind == "up":
        return i, (2 * j - i + 1) + t
    raise ValueError(f"edge {edge_id} is a bridging edge, not on an L path")


def bridge_line_index(lat: HoneycombLattice, edge_id: int) -> int:
    """Index k of the transversal line containing a bridging edge."""
    kind, m, j = lat.edge_roles[edge_id]
    if kind != "down":
        raise ValueError(f"edge {edge_id} is not a bridging edge")
    return 2 * j - m


def decompose_paths(lat: HoneycombLattice) -> PathFamily:
    R = lat.truncation_radius
    rng = range(-R, R + 1)
    L_paths: dict[int, list[int]] = {}
    R_paths: dict[int, list[int]] = {}
    I_segments: dict[tuple[int, int], tuple[int, int]] = {}
    J_segments: dict[tuple[int, int], tuple[int, int]] = {}
    v_vertices: dict[tuple[int, int], int] = {}
    w_vertices: dict[tuple[int, int], int] = {}
    for i in rng:
        path = []
        for j in rng:
            h, up = lat.horiz_id[(i, j)], lat.up_id[(i, j)]
            path += [h, up]
            I_segments[(i, j)] = (h, up)
            v_vertices[(i, j)] = lat.a_id[(i, j)]
        L_paths[i] = path
    for j in rng:
        # R_j traversed from its up-left end: down edge into A(i, j), then the
        # horizontal to B(i, j), with i decreasing.
        path = []
        for i in reversed(rng):
            h, dn = lat.horiz_id[(i, j)], lat.down_id[(i, j)]
            path += [dn, h]
            J_segments[(j, i)] = (h, dn)
            w_vertices[(j, i)] = lat.a_id[(i, j)]
        R_paths[j] = path
    return PathFamily(L_paths, R_paths, I_segments, J_segments, v_vertices, w_vertices)


def decompose_bridges(lat: HoneycombLattice) -> BridgeFamily:
    lines: dict[int, list[tuple[int, int]]] = {}
    for (m, j), eid in lat.down_id.items():
        k = 2 * j - m
        lines.setdefault(k, []).append((m, eid))
    for k in lines:
        lines[k].sort()
    return BridgeFamily(dict(sorted(lines.items())))


def build_square_grid(truncation_radius: int, edge_length: float) -> MetricGraph:
    """(2R+1) x (2R+1) square grid with 4-regular interior (comparison graph)."""
    if truncation_radius < 1:
        raise ValueError(f"truncation_radius must be >= 1, got {truncation_radius}")
    if edge_length <= 0:
        raise ValueError(f"edge_length must be positive, got {edge_length}")
    R = truncation_radius
    l = edge_length
    n = 2 * R + 1
    b = GraphBuilder()
    ids = {}
    for ix in range(n):
        for iy in range(n):
            ids[(ix, iy)] = b.add_vertex(l * (ix - R), l * (iy - R))
    for ix in range(n):
        for iy in range(n):
            if ix + 1 < n:
                b.add_edge(ids[(ix, iy)], ids[(ix + 1, iy)], l, "horizontal")
            if iy + 1 < n:
                b.add_edge(ids[(ix, iy)], ids[(ix, iy + 1)], l, "up")
    return b.build()
