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

A ``HoneycombLattice`` is the truncation's MetricGraph itself, with the
edge length, the origin vertex, the radius and the edge roles added; its
truncation boundary is every vertex of degree below 3.  Every edge has a
role (kind, i, j), and ``HoneycombLattice.roles`` is the one table of them,
as arrays (``edge_roles`` lists it, ``edge_id`` inverts it); paths, bridge
lines and coordinates are read from it:

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
from functools import cached_property

import numpy as np

from .graph_core import MetricGraph, build_graph, checked

SQRT3_2 = math.sqrt(3.0) / 2.0


EDGE_KINDS = ("horizontal", "up", "down")


@dataclass(frozen=True, eq=False)
class HoneycombLattice(MetricGraph):
    edge_length: float
    origin_vertex: int
    truncation_radius: int
    # The role table as read-only (kind, i, j) arrays: edge e has role
    # (EDGE_KINDS[kind[e]], i[e], j[e]); for "down" the first index is the
    # lower of the two L paths the edge joins.
    roles: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def graph(self) -> "HoneycombLattice":
        """The lattice itself: it is its graph."""
        return self

    def boundary_vertices(self) -> np.ndarray:
        """The truncation boundary: the vertices of degree below 3."""
        return np.flatnonzero(self.degrees() < 3)

    @cached_property
    def edge_roles(self) -> list[tuple[str, int, int]]:
        """Edge id -> ("horizontal"|"up"|"down", i, j), built on first use."""
        kind, i, j = self.roles
        return list(zip(np.array(EDGE_KINDS)[kind].tolist(), i.tolist(), j.tolist()))

    @cached_property
    def edge_id(self) -> dict[tuple[str, int, int], int]:
        """Role -> edge id, the inverse of edge_roles, built on first use."""
        return {role: eid for eid, role in enumerate(self.edge_roles)}

    @cached_property
    def edge_coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The roles as path coordinates, for builders that work on all edges
        at once: (on_path, index, coordinate).  An edge of L_i has on_path
        True, index i and its tail's combinatorial L_i coordinate, 2j - i for
        ("horizontal", i, j) and 2j - i + 1 for ("up", i, j); a bridge
        ("down", m, j) has on_path False, index m and its transversal line
        k = 2j - m.  The one statement of both conventions: path_coordinate
        and bridge_line_index read it.  Built on first use and kept,
        read-only."""
        kind, index, j = self.roles
        arrays = (kind != EDGE_KINDS.index("down"), index,
                  2 * j - index + (kind == EDGE_KINDS.index("up")))
        for a in arrays:
            a.flags.writeable = False
        return arrays


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
    """The truncation of radius R, numbered as follows (N = 2R + 1, and
    a = i + R, b = j + R the window offsets).  Vertices: A(i, j) is 2(aN + b)
    and B(i, j) is 2(aN + b) + 1; then the stubs, A(i, R + 1) closing the
    last up edge of L_i at 2N^2 + a, and B(R + 1, j) closing the last down
    edge of R_j at 2N^2 + N + b.  Edges: every horizontal, then every up,
    then every down role, each over (i, j) with j varying fastest."""
    if truncation_radius < 1:
        raise ValueError(f"truncation_radius must be >= 1, got {truncation_radius}")
    if edge_length <= 0:
        raise ValueError(f"edge_length must be positive, got {edge_length}")
    R = truncation_radius
    l = edge_length
    N = 2 * R + 1
    cell = np.arange(N * N)
    a, b = np.divmod(cell, N)
    A, B = 2 * cell, 2 * cell + 1
    A_up = np.where(b < N - 1, A + 2, 2 * N * N + a)          # A(i, j + 1)
    B_down = np.where(a < N - 1, B + 2 * N, 2 * N * N + N + b)  # B(i + 1, j)
    upper = a >= R                    # i >= 0: the bridge starts on L_i
    tails = np.concatenate([A, B, np.where(upper, A, B_down)])
    heads = np.concatenate([B, A_up, np.where(upper, B_down, A)])

    # A(i, j) at (3(j - i), i + j) layout units, B(i, j) one edge length right.
    def pos(i, j):
        return 0.5 * l * (3 * (j - i)), SQRT3_2 * l * (i + j)

    i, j = a - R, b - R
    ax, ay = pos(i, j)
    stub_ax, stub_ay = pos(i[::N], R + 1)          # A(i, R + 1)
    stub_bx, stub_by = pos(R + 1, j[:N])           # A(R + 1, j), l left of B(R + 1, j)
    x = np.concatenate([np.column_stack([ax, ax + l]).ravel(), stub_ax, stub_bx + l])
    y = np.concatenate([np.repeat(ay, 2), stub_ay, stub_by])
    roles = np.repeat(np.arange(len(EDGE_KINDS)), N * N), np.tile(i, 3), np.tile(j, 3)
    for r in roles:
        r.flags.writeable = False
    return checked(HoneycombLattice(tails, heads, np.full(3 * N * N, float(l)),
                                    np.column_stack([x, y]), edge_length=l,
                                    origin_vertex=int(A[(N * N) // 2]), truncation_radius=R,
                                    roles=roles))


def path_coordinate(lat: HoneycombLattice, edge_id: int, t: float) -> tuple[int, float]:
    """Path index i and combinatorial L_i coordinate of the point at arclength
    fraction t (tail -> head) along an L-family edge."""
    on_path, index, coord = lat.edge_coordinates
    if not on_path[edge_id]:
        raise ValueError(f"edge {edge_id} is a bridging edge, not on an L path")
    return int(index[edge_id]), int(coord[edge_id]) + t


def bridge_line_index(lat: HoneycombLattice, edge_id: int) -> int:
    """Index k of the transversal line containing a bridging edge."""
    on_path, _, coord = lat.edge_coordinates
    if on_path[edge_id]:
        raise ValueError(f"edge {edge_id} is not a bridging edge")
    return int(coord[edge_id])


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
    """(2R+1) x (2R+1) square grid with 4-regular interior (comparison graph).

    Vertex (ix, iy) is ix * n + iy; each vertex in turn adds its edge to
    (ix + 1, iy), then its edge to (ix, iy + 1), where those exist."""
    if truncation_radius < 1:
        raise ValueError(f"truncation_radius must be >= 1, got {truncation_radius}")
    if edge_length <= 0:
        raise ValueError(f"edge_length must be positive, got {edge_length}")
    R = truncation_radius
    l = edge_length
    n = 2 * R + 1
    v = np.arange(n * n)
    ix, iy = np.divmod(v, n)
    keep = np.column_stack([ix + 1 < n, iy + 1 < n]).ravel()
    tails = np.repeat(v, 2)[keep]
    heads = np.column_stack([v + n, v + 1]).ravel()[keep]
    return build_graph(tails, heads, np.full(len(tails), float(l)),
                       np.column_stack([l * (ix - R), l * (iy - R)]))
