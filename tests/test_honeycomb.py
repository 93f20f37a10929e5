"""Hexagonal-grid truncations and their path/bridge decompositions."""

import math

import numpy as np
import pytest

from hexnls.analytic import build_trial_function
from hexnls.graph_core import GraphBuilder, validate
from hexnls.honeycomb import (SQRT3_2, bridge_line_index, build_honeycomb, build_square_grid,
                              decompose_bridges, decompose_paths, path_coordinate)
from hexnls.solver import SolverConfig, minimize


def cell_counting_oracle(R: int) -> tuple[int, int]:
    """Vertex/edge counts from first principles, bypassing the builder.

    Each (i, j) cell in the window contributes one horizontal edge (two
    endpoints), one positive-slope edge, and one negative-slope edge; stub
    closures add one vertex per exiting path.  Distinctness of the endpoint
    positions is checked with a set, so no sharing is assumed.
    """
    positions = set()
    edges = set()
    rng = range(-R, R + 1)
    for i in rng:
        for j in rng:
            ax, ay = 3 * (j - i), i + j
            positions.add((ax, ay))          # left endpoint of horizontal
            positions.add((ax + 2, ay))      # right endpoint
            edges.add(("h", i, j))
            edges.add(("u", i, j))
            edges.add(("d", i, j))
    for i in rng:
        positions.add((3 * (R + 1 - i), i + R + 1))       # up-edge stub of L_i
    for j in rng:
        positions.add((3 * (j - R - 1) + 2, R + j + 1))   # down-edge stub of R_j
    return len(positions), len(edges)


def per_role_builder(R: int, l: float):
    """The lattice as first built, vertex by vertex and role by role through
    GraphBuilder: (graph, origin vertex, edge_roles, edge_id), the reference
    for the array builder's numbering."""
    b = GraphBuilder()

    def pos(i, j):
        return 0.5 * l * (3 * (j - i)), SQRT3_2 * l * (i + j)

    rng = range(-R, R + 1)
    a_id, b_id = {}, {}
    for i in rng:
        for j in rng:
            ax, ay = pos(i, j)
            a_id[i, j] = b.add_vertex(ax, ay)
            b_id[i, j] = b.add_vertex(ax + l, ay)
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
    return b.build(), a_id[0, 0], roles, {role: eid for eid, role in enumerate(roles)}


class TestBuildHoneycomb:
    @pytest.mark.parametrize("R", [1, 2, 5])
    @pytest.mark.parametrize("l", [1.0, 0.3])
    def test_arrays_equal_per_role_builder(self, R, l):
        lat = build_honeycomb(R, l)
        g, origin, roles, ids = per_role_builder(R, l)
        for name in ("tails", "heads", "lengths", "xy"):
            a, b = getattr(lat.graph, name), getattr(g, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert lat.origin_vertex == origin
        assert lat.edge_roles == roles
        assert lat.edge_id == ids

    def test_role_tables_built_on_first_use(self):
        # The solver and the trial functions read the role arrays only, so
        # the Python list and dict stay out of their set-up.
        lat = build_honeycomb(2, 1.0)
        minimize(lat, 3.0, 1.0, SolverConfig(samples_per_edge=3))
        build_trial_function(lat, 0.3, 5)
        assert "edge_roles" not in vars(lat) and "edge_id" not in vars(lat)
        assert lat.edge_id is lat.edge_id and lat.edge_roles is lat.edge_roles
        for a in lat.roles:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_counts_match_closed_formula(self, R):
        lat = build_honeycomb(R, 1.0)
        assert lat.graph.num_vertices == 2 * (2 * R + 1) * (2 * R + 2)
        assert lat.graph.num_edges == 3 * (2 * R + 1) ** 2

    def test_counts_match_cell_counting_oracle(self):
        lat = build_honeycomb(3, 1.0)
        nv, ne = cell_counting_oracle(3)
        assert lat.graph.num_vertices == nv
        assert lat.graph.num_edges == ne

    def test_valid_and_unit_lengths(self):
        lat = build_honeycomb(1, 1.0)
        assert validate(lat.graph) == []
        assert (lat.graph.lengths == 1.0).all()

    def test_interior_degree_three(self):
        lat = build_honeycomb(2, 1.0)
        degs = lat.graph.degrees().tolist()
        boundary = set(lat.boundary_vertices().tolist())
        assert {d for v, d in enumerate(degs) if v not in boundary} == {3}
        assert all(degs[v] in (1, 2) for v in boundary)

    def test_origin_at_coordinate_origin(self):
        lat = build_honeycomb(2, 1.0)
        assert lat.graph.xy[lat.origin_vertex].tolist() == [0.0, 0.0]

    def test_edge_length_scales_metric_only(self):
        lat1 = build_honeycomb(2, 1.0)
        lat2 = build_honeycomb(2, 0.5)
        assert lat2.graph.num_edges == lat1.graph.num_edges
        assert lat2.graph.total_length() == pytest.approx(0.5 * lat1.graph.total_length())

    @pytest.mark.parametrize("R", [1, 2, 3])
    @pytest.mark.parametrize("l", [1.0, 0.7])
    def test_edges_at_closed_form_positions(self, R, l):
        # In layout units (x in l/2, y in sqrt(3) l/2): A(i, j) = (3(j - i), i + j),
        # B(i, j) = A(i, j) + (2, 0).
        def A(i, j):
            return 3 * (j - i), i + j

        def B(i, j):
            return 3 * (j - i) + 2, i + j

        lat = build_honeycomb(R, l)
        assert lat.edge_id == {role: eid for eid, role in enumerate(lat.edge_roles)}
        assert len(lat.edge_id) == len(lat.edge_roles) == lat.graph.num_edges
        rng = range(-R, R + 1)
        assert sorted(lat.edge_roles) == sorted(
            (kind, i, j) for kind in ("horizontal", "up", "down") for i in rng for j in rng)
        g = lat.graph
        for eid, (kind, i, j) in enumerate(lat.edge_roles):
            if kind == "horizontal":
                ends = A(i, j), B(i, j)
            elif kind == "up":
                ends = B(i, j), A(i, j + 1)
            else:  # the bridge from L_i to L_{i+1} starts on L_i iff i >= 0
                ends = (A(i, j), B(i + 1, j)) if i >= 0 else (B(i + 1, j), A(i, j))
            for vid, (ix, iy) in zip((g.tails[eid], g.heads[eid]), ends):
                x, y = g.xy[vid]
                assert (x, y) == (pytest.approx(0.5 * l * ix, abs=1e-12),
                                  pytest.approx(math.sqrt(3) / 2 * l * iy, abs=1e-12))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_honeycomb(0, 1.0)
        with pytest.raises(ValueError):
            build_honeycomb(2, -1.0)


@pytest.fixture(scope="module")
def lat():
    return build_honeycomb(2, 1.0)


def ends(lat, eid):
    """The set of an edge's two end vertices."""
    return {int(lat.graph.tails[eid]), int(lat.graph.heads[eid])}


@pytest.fixture(scope="module")
def pfam(lat):
    return decompose_paths(lat)


@pytest.fixture(scope="module")
def bfam(lat):
    return decompose_bridges(lat)


class TestPathFamily:
    def test_paths_are_simple_paths(self, lat, pfam):
        for paths in (pfam.L_paths, pfam.R_paths):
            for edge_ids in paths.values():
                for a, b in zip(edge_ids, edge_ids[1:]):
                    assert ends(lat, a) & ends(lat, b)
                assert len(set(edge_ids)) == len(edge_ids)

    def test_intersection_is_single_horizontal(self, lat, pfam):
        for i, Li in pfam.L_paths.items():
            for j, Rj in pfam.R_paths.items():
                common = set(Li) & set(Rj)
                assert len(common) == 1
                (eid,) = common
                assert lat.edge_roles[eid][0] == "horizontal"
                assert eid == lat.edge_id["horizontal", i, j]

    def test_paths_union_of_segments(self, lat, pfam):
        # L_i is its segments (horizontal (i, j), up (i, j)) for increasing j;
        # R_j is its segments (down (i, j), horizontal (i, j)) for decreasing i.
        rng = range(-lat.truncation_radius, lat.truncation_radius + 1)
        eid = lat.edge_id
        for i, Li in pfam.L_paths.items():
            assert Li == [e for j in rng for e in (eid["horizontal", i, j], eid["up", i, j])]
        for j, Rj in pfam.R_paths.items():
            assert Rj == [e for i in reversed(rng)
                          for e in (eid["down", i, j], eid["horizontal", i, j])]

    def test_covering_with_horizontals_twice(self, lat, pfam):
        counts = [0] * lat.graph.num_edges
        for edge_ids in list(pfam.L_paths.values()) + list(pfam.R_paths.values()):
            for eid in edge_ids:
                counts[eid] += 1
        for eid, (kind, _, _) in enumerate(lat.edge_roles):
            assert counts[eid] == (2 if kind == "horizontal" else 1), \
                f"edge {eid} ({kind}) covered {counts[eid]} times"

    def test_l0_alternates_kinds(self, lat, pfam):
        kinds = [lat.edge_roles[eid][0] for eid in pfam.L_paths[0]]
        assert all(k == "horizontal" for k in kinds[::2])
        assert all(k == "up" for k in kinds[1::2])

    def test_consecutive_segments_disjoint_adjacent(self, lat, pfam):
        for Li in pfam.L_paths.values():
            segments = [Li[k:k + 2] for k in range(0, len(Li), 2)]
            for a, b in zip(segments, segments[1:]):
                assert not (set(a) & set(b))
                assert ends(lat, a[1]) & ends(lat, b[0])

    def test_deterministic(self, lat):
        f1, f2 = decompose_paths(lat), decompose_paths(lat)
        assert f1.L_paths == f2.L_paths
        assert f1.R_paths == f2.R_paths
        assert f1 == f2


class TestBridgeFamily:
    def test_parity_rule(self, lat, bfam):
        for k, entries in bfam.lines.items():
            for m, eid in entries:
                assert (m - k) % 2 == 0
                assert bridge_line_index(lat, eid) == k

    def test_line_zero_even_indices(self, bfam):
        assert all(m % 2 == 0 for m, _ in bfam.lines[0])

    def test_every_bridge_in_exactly_one_line(self, lat, bfam):
        seen = [eid for entries in bfam.lines.values() for _, eid in entries]
        bridges = [eid for eid, (kind, _, _) in enumerate(lat.edge_roles) if kind == "down"]
        assert sorted(seen) == sorted(bridges)

    def test_lines_pairwise_disjoint_edges(self, lat, bfam):
        for entries in bfam.lines.values():
            eids = [eid for _, eid in entries]
            verts = [v for eid in eids for v in ends(lat, eid)]
            assert len(set(verts)) == 2 * len(eids)

    def test_coordinate_zero_convention(self, lat, bfam):
        # Arclength 0 (the tail) lies on L_m for m >= 0, on L_{m+1} for m < 0.
        for k, entries in bfam.lines.items():
            for m, eid in entries:
                tails, heads = lat.graph.tails, lat.graph.heads
                j = (k + m) // 2
                if m >= 0:
                    assert tails[eid] == tails[lat.edge_id["horizontal", m, j]]
                else:
                    assert tails[eid] == heads[lat.edge_id["horizontal", m + 1, j]]

    def test_bridges_join_consecutive_paths(self, lat, bfam):
        paths = decompose_paths(lat)
        R = lat.truncation_radius
        on_path = {}
        for i, Li in paths.L_paths.items():
            for eid in Li:
                for v in ends(lat, eid):
                    on_path.setdefault(v, set()).add(i)
        for k, entries in bfam.lines.items():
            for m, eid in entries:
                touched = set().union(*(on_path.get(v, set()) for v in ends(lat, eid)))
                expect = {i for i in (m, m + 1) if -R <= i <= R}
                assert expect <= touched


class TestPathCoordinate:
    def test_horizontal_and_up_coordinates(self):
        lat = build_honeycomb(2, 1.0)
        i, x = path_coordinate(lat, lat.edge_id["horizontal", 0, 0], 0.0)
        assert (i, x) == (0, 0.0)
        i, x = path_coordinate(lat, lat.edge_id["up", 0, 0], 1.0)
        assert (i, x) == (0, 2.0)
        i, x = path_coordinate(lat, lat.edge_id["horizontal", 1, -1], 0.5)
        assert i == 1 and x == pytest.approx(-3 + 0.5)

    def test_edge_coordinates_match_per_edge_lookups(self):
        lat = build_honeycomb(3, 1.0)
        on_path, index, coord = lat.edge_coordinates
        for eid, (kind, i, j) in enumerate(lat.edge_roles):
            assert on_path[eid] == (kind != "down") and index[eid] == i
            assert coord[eid] == {"horizontal": 2 * j - i, "up": 2 * j - i + 1,
                                  "down": 2 * j - i}[kind]
            assert coord[eid] == (path_coordinate(lat, eid, 0.0)[1] if on_path[eid]
                                  else bridge_line_index(lat, eid))
        assert lat.edge_coordinates is lat.edge_coordinates
        with pytest.raises(ValueError):
            coord[0] = 0      # shared by every caller, so read-only

    def test_bridge_rejected(self):
        lat = build_honeycomb(1, 1.0)
        with pytest.raises(ValueError):
            path_coordinate(lat, lat.edge_id["down", 0, 0], 0.0)
        with pytest.raises(ValueError):
            bridge_line_index(lat, lat.edge_id["horizontal", 0, 0])


class TestSquareGrid:
    def test_small_counts(self):
        g1 = build_square_grid(1, 1.0)
        assert (g1.num_vertices, g1.num_edges) == (9, 12)
        g2 = build_square_grid(2, 1.0)
        assert (g2.num_vertices, g2.num_edges) == (25, 40)

    def test_interior_degree_four(self):
        g = build_square_grid(2, 1.0)
        interior = (np.abs(g.xy) < 2).all(axis=1)
        assert interior.sum() == 9 and (g.degrees()[interior] == 4).all()

    def test_valid(self):
        assert validate(build_square_grid(3, 0.5)) == []
