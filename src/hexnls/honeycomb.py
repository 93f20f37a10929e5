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

Every edge has a role (kind, i, j), and ``HoneycombLattice.edge_roles`` is
the one table of them; paths, bridge lines and coordinates are read from it:

- ("horizontal", i, j) is the edge shared by L_i and R_j, from its left end
  A(i, j) to its right end B(i, j);
- ("up", i, j) follows it on L_i, from B(i, j) to A(i, j + 1);
- ("down", m, j) is the bridge joining A(m, j) on L_m to B(m + 1, j) on
  L_{m+1}, on R_j, with its tail on L_m iff m >= 0.

Integer layout units: x in halves of the edge length, y in sqrt(3)/2 times
the edge length.  A(i, j) sits at (3(j - i), i + j) and B(i, j) = A(i, j) +
(2, 0); the origin vertex o is A(0, 0).  Combinatorial path coordinates:
A(i, j) has coordinate 2j - i along L_i, and each edge advances the
coordinate by 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph_core import GraphBuilder, MetricGraph

SQRT3_2 = math.sqrt(3.0) / 2.0


@dataclass(slots=True)
class HoneycombLattice:
    graph: MetricGraph
    edge_length: float
    origin_vertex: int
    truncation_radius: int
    # edge id -> ("horizontal"|"up"|"down", i, j); for "down" the first index
    # is the lower of the two L paths the edge joins
    edge_roles: list[tuple[str, int, int]]
    # role -> edge id, the inverse of edge_roles
    edge_id: dict[tuple[str, int, int], int]

    def boundary_vertices(self) -> list[int]:
        return [v for v, d in enumerate(self.graph.degrees()) if d < 3]


@dataclass(slots=True)
class PathFamily:
    """The two path families as edge-id lists.

    L_paths[i] runs along L_i from its lower-left end: horizontal (i, j),
    then up (i, j), for increasing j.  Its segment I_i^j (the paper's
    notation) is L_paths[i][2k:2k+2] with k = j + R.  R_paths[j] runs along
    R_j from its upper-left end: down (i, j) into A(i, j), then horizontal
    (i, j), for decreasing i, so its segment J_j^i is R_paths[j][2k:2k+2]
    with k = R - i.  The junction vertex v_ij = w_ji = A(i, j) is the tail
    of horizontal (i, j).
    """

    L_paths: dict[int, list[int]]
    R_paths: dict[int, list[int]]


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

    def pos(i: int, j: int) -> tuple[float, float]:
        """Coordinates of A(i, j)."""
        return 0.5 * l * (3 * (j - i)), SQRT3_2 * l * (i + j)

    rng = range(-R, R + 1)
    a_id: dict[tuple[int, int], int] = {}
    b_id: dict[tuple[int, int], int] = {}
    for i in rng:
        for j in rng:
            ax, ay = pos(i, j)
            a_id[i, j] = b.add_vertex(ax, ay)
            b_id[i, j] = b.add_vertex(ax + l, ay)
    # Stub vertices: A(i, R+1) closing the last up edge of L_i, and
    # B(R+1, j) closing the last down edge of R_j.
    for i in rng:
        a_id[i, R + 1] = b.add_vertex(*pos(i, R + 1))
    for j in rng:
        ax, ay = pos(R + 1, j)
        b_id[R + 1, j] = b.add_vertex(ax + l, ay)

    roles = [(kind, i, j) for kind in ("horizontal", "up", "down") for i in rng for j in rng]
    for kind, i, j in roles:
        if kind == "horizontal":
            tail, head = a_id[i, j], b_id[i, j]
        elif kind == "up":
            tail, head = b_id[i, j], a_id[i, j + 1]
        elif i >= 0:
            tail, head = a_id[i, j], b_id[i + 1, j]
        else:
            tail, head = b_id[i + 1, j], a_id[i, j]
        b.add_edge(tail, head, l)
    return HoneycombLattice(graph=b.build(), edge_length=l, origin_vertex=a_id[0, 0],
                            truncation_radius=R, edge_roles=roles,
                            edge_id={role: eid for eid, role in enumerate(roles)})


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
    rng = range(-lat.truncation_radius, lat.truncation_radius + 1)
    ids = lat.edge_id
    return PathFamily(
        L_paths={i: [ids[kind, i, j] for j in rng for kind in ("horizontal", "up")]
                 for i in rng},
        R_paths={j: [ids[kind, i, j] for i in reversed(rng) for kind in ("down", "horizontal")]
                 for j in rng})


def decompose_bridges(lat: HoneycombLattice) -> BridgeFamily:
    lines: dict[int, list[tuple[int, int]]] = {}
    for eid, (kind, m, _) in enumerate(lat.edge_roles):
        if kind == "down":
            lines.setdefault(bridge_line_index(lat, eid), []).append((m, eid))
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
                b.add_edge(ids[(ix, iy)], ids[(ix + 1, iy)], l)
            if iy + 1 < n:
                b.add_edge(ids[(ix, iy)], ids[(ix, iy + 1)], l)
    return b.build()
