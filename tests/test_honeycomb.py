"""Hexagonal-grid truncations and their path/bridge decompositions."""

import math

import pytest

from hexnls.graph_core import validate
from hexnls.honeycomb import (bridge_line_index, build_honeycomb, build_square_grid,
                              decompose_bridges, decompose_paths, path_coordinate)


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


class TestBuildHoneycomb:
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
        assert all(e.length == 1.0 for e in lat.graph.edges)

    def test_interior_degree_three(self):
        lat = build_honeycomb(2, 1.0)
        degs = lat.graph.degrees()
        boundary = set(lat.boundary_vertices())
        assert {d for v, d in enumerate(degs) if v not in boundary} == {3}
        assert all(degs[v] in (1, 2) for v in boundary)

    def test_origin_at_coordinate_origin(self):
        lat = build_honeycomb(2, 1.0)
        o = lat.graph.vertices[lat.origin_vertex]
        assert (o.x, o.y) == (0.0, 0.0)

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
        for e in lat.graph.edges:
            kind, i, j = lat.edge_roles[e.id]
            if kind == "horizontal":
                ends = A(i, j), B(i, j)
            elif kind == "up":
                ends = B(i, j), A(i, j + 1)
            else:  # the bridge from L_i to L_{i+1} starts on L_i iff i >= 0
                ends = (A(i, j), B(i + 1, j)) if i >= 0 else (B(i + 1, j), A(i, j))
            for vid, (ix, iy) in zip((e.tail, e.head), ends):
                v = lat.graph.vertices[vid]
                assert (v.x, v.y) == (pytest.approx(0.5 * l * ix, abs=1e-12),
                                      pytest.approx(math.sqrt(3) / 2 * l * iy, abs=1e-12))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_honeycomb(0, 1.0)
        with pytest.raises(ValueError):
            build_honeycomb(2, -1.0)


@pytest.fixture(scope="module")
def lat():
    return build_honeycomb(2, 1.0)


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
                    ea, eb = lat.graph.edges[a], lat.graph.edges[b]
                    assert {ea.tail, ea.head} & {eb.tail, eb.head}
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
        counts = {e.id: 0 for e in lat.graph.edges}
        for edge_ids in list(pfam.L_paths.values()) + list(pfam.R_paths.values()):
            for eid in edge_ids:
                counts[eid] += 1
        for e in lat.graph.edges:
            kind = lat.edge_roles[e.id][0]
            assert counts[e.id] == (2 if kind == "horizontal" else 1), \
                f"edge {e.id} ({kind}) covered {counts[e.id]} times"

    def test_l0_alternates_kinds(self, lat, pfam):
        kinds = [lat.edge_roles[eid][0] for eid in pfam.L_paths[0]]
        assert all(k == "horizontal" for k in kinds[::2])
        assert all(k == "up" for k in kinds[1::2])

    def test_consecutive_segments_disjoint_adjacent(self, lat, pfam):
        for Li in pfam.L_paths.values():
            segments = [Li[k:k + 2] for k in range(0, len(Li), 2)]
            for a, b in zip(segments, segments[1:]):
                assert not (set(a) & set(b))
                ea, eb = lat.graph.edges[a[1]], lat.graph.edges[b[0]]
                assert {ea.tail, ea.head} & {eb.tail, eb.head}

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
        bridges = [e.id for e in lat.graph.edges if lat.edge_roles[e.id][0] == "down"]
        assert sorted(seen) == sorted(bridges)

    def test_lines_pairwise_disjoint_edges(self, lat, bfam):
        for entries in bfam.lines.values():
            eids = [eid for _, eid in entries]
            verts = [v for eid in eids
                     for v in (lat.graph.edges[eid].tail, lat.graph.edges[eid].head)]
            assert len(set(verts)) == 2 * len(eids)

    def test_coordinate_zero_convention(self, lat, bfam):
        # Arclength 0 (the tail) lies on L_m for m >= 0, on L_{m+1} for m < 0.
        for k, entries in bfam.lines.items():
            for m, eid in entries:
                e = lat.graph.edges[eid]
                j = (k + m) // 2
                if m >= 0:
                    assert e.tail == lat.graph.edges[lat.edge_id["horizontal", m, j]].tail
                else:
                    assert e.tail == lat.graph.edges[lat.edge_id["horizontal", m + 1, j]].head

    def test_bridges_join_consecutive_paths(self, lat, bfam):
        paths = decompose_paths(lat)
        R = lat.truncation_radius
        on_path = {}
        for i, Li in paths.L_paths.items():
            for eid in Li:
                e = lat.graph.edges[eid]
                on_path.setdefault(e.tail, set()).add(i)
                on_path.setdefault(e.head, set()).add(i)
        for k, entries in bfam.lines.items():
            for m, eid in entries:
                e = lat.graph.edges[eid]
                touched = on_path.get(e.tail, set()) | on_path.get(e.head, set())
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
        degs = g.degrees()
        interior = [v.id for v in g.vertices if abs(v.x) < 2 and abs(v.y) < 2]
        assert all(degs[v] == 4 for v in interior)

    def test_valid(self):
        assert validate(build_square_grid(3, 0.5)) == []
