"""Metric-graph construction and validation."""

import numpy as np
import pytest

from hexnls.graph_core import (GraphBuilder, MetricGraph, build_graph, build_line, build_star,
                               validate)
from hexnls.honeycomb import build_square_grid


class TestBuildLine:
    def test_integer_half_length_counts(self):
        g = build_line(3)
        assert g.num_vertices == 7
        assert g.num_edges == 6
        assert (g.lengths == 1.0).all()

    def test_leaves_and_total_length(self):
        g = build_line(10)
        assert len(g.leaves()) == 2
        assert g.total_length() == pytest.approx(20.0)

    def test_fractional_half_length_spans_interval(self):
        # Chain over [-0.5, 0.5]: center vertex plus the two endpoints.
        g = build_line(0.5)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.total_length() == pytest.approx(1.0)
        xs = sorted(g.xy[:, 0].tolist())
        assert xs == [-0.5, 0.0, 0.5]

    def test_fractional_outer_edges_shorter(self):
        g = build_line(2.5)
        lengths = sorted(g.lengths.tolist())
        assert lengths == pytest.approx([0.5, 0.5, 1.0, 1.0, 1.0, 1.0])

    def test_fractional_numbering_and_running_sum(self):
        # Vertices left to right, edge k from vertex k to k + 1; the total is
        # the left-to-right running sum, which the uniform start divides by.
        g = build_line(3.7)
        x = [-3.7, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 3.7]
        assert g.xy.tolist() == [[v, 0.0] for v in x]
        assert g.tails.tolist() == list(range(8)) and g.heads.tolist() == list(range(1, 9))
        assert g.lengths.tolist() == [b - a for a, b in zip(x, x[1:])]
        assert g.total_length() == sum(g.lengths.tolist())
        # Where the order shows: 1 + 2^-53 rounds back to 1 at every step of
        # the running sum, while a pairwise sum adds the small lengths first.
        lengths = [1.0] + [2.0 ** -53] * 16
        g = MetricGraph(range(17), range(1, 18), lengths, np.zeros((18, 2)))
        assert g.total_length() == sum(lengths) == 1.0 != np.sum(lengths)

    def test_invalid_half_length(self):
        with pytest.raises(ValueError):
            build_line(0)
        with pytest.raises(ValueError):
            build_line(-1.0)


class TestBuildStar:
    def test_center_degree_and_total_length(self):
        g = build_star(3, 5.0)
        assert g.degrees()[0] == 3
        assert g.total_length() == pytest.approx(15.0)

    def test_two_arms_isometric_to_line(self):
        star = build_star(2, 4.0)
        line = build_line(4.0)
        assert star.num_vertices == line.num_vertices
        assert star.num_edges == line.num_edges
        assert sorted(star.lengths.tolist()) == sorted(line.lengths.tolist())

    def test_minimal_star(self):
        g = build_star(3, 1.0)
        assert g.num_vertices == 4
        assert g.num_edges == 3

    def test_fractional_arm(self):
        g = build_star(4, 2.5)
        assert g.total_length() == pytest.approx(10.0)
        assert g.degrees()[0] == 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_star(1, 3.0)
        with pytest.raises(ValueError):
            build_star(3, 0.0)


class TestValidate:
    def test_builders_produce_valid_graphs(self):
        for g in (build_line(3), build_star(5, 2.0)):
            assert validate(g) == []

    def test_dangling_endpoint_reported(self):
        g = build_line(3)
        heads = g.heads.copy()
        heads[5] = 99
        problems = validate(MetricGraph(g.tails, heads, g.lengths, g.xy))
        assert problems == ["edge 5: endpoint 99 undefined"]

    def test_each_bad_edge_named(self):
        # Edge 0 is fine; 1 has a negative endpoint, 2 a self-loop, 3 and 4
        # zero and nan lengths.  Connectivity is checked only once the edges
        # are sound.
        g = MetricGraph([0, 1, 2, 1, 2], [1, -1, 2, 2, 3], [1.0, 1.0, 1.0, 0.0, np.nan],
                        np.zeros((4, 2)))
        assert sorted(validate(g)) == sorted([
            "edge 1: endpoint -1 undefined", "edge 2: self-loop at vertex 2",
            "edge 3: non-positive length 0.0", "edge 4: non-positive length nan"])
        with pytest.raises(ValueError, match="edge 4: non-positive length nan"):
            build_graph(g.tails, g.heads, g.lengths, g.xy)

    def test_disconnected_reported(self):
        b = GraphBuilder()
        v0, v1 = b.add_vertex(0, 0), b.add_vertex(1, 0)
        v2, v3 = b.add_vertex(5, 0), b.add_vertex(6, 0)
        b.add_edge(v0, v1, 1.0)
        b.add_edge(v2, v3, 1.0)
        g = MetricGraph([0, 2], [1, 3], [1.0, 1.0], [(0, 0), (1, 0), (5, 0), (6, 0)])
        assert validate(g) == ["not connected: reached 2 of 4 vertices"]
        with pytest.raises(ValueError, match="not connected"):
            b.build()
        # An isolated vertex is a component of its own.
        g = MetricGraph([0], [1], [1.0], np.zeros((3, 2)))
        assert validate(g) == ["not connected: reached 2 of 3 vertices"]

    def test_builder_rejects_degenerate_edges(self):
        b = GraphBuilder()
        v = b.add_vertex()
        with pytest.raises(ValueError):
            b.add_edge(v, v, 1.0)
        w = b.add_vertex()
        with pytest.raises(ValueError):
            b.add_edge(v, w, 0.0)

    def test_builder_rejects_undefined_endpoint(self):
        b = GraphBuilder()
        v, w = b.add_vertex(), b.add_vertex()
        for tail, head in ((v, 5), (5, w), (-1, w)):
            with pytest.raises(ValueError, match="not an added vertex"):
                b.add_edge(tail, head, 1.0)
        assert b.ends == [] and b.lengths == []

    def test_degree_matches_adjacency(self):
        g = build_star(6, 3.0)
        ends = g.tails.tolist() + g.heads.tolist()
        assert g.degrees().tolist() == [ends.count(v) for v in range(g.num_vertices)]

    def test_builder_writes_its_arrays(self):
        b = GraphBuilder()
        v = [b.add_vertex(x, -x) for x in (0.0, 1.0, 2.5)]
        b.add_edge(v[0], v[1], 1.0)
        b.add_edge(v[2], v[1], 1.5)
        g = b.build()
        assert g.tails.tolist() == [0, 2] and g.heads.tolist() == [1, 1]
        assert g.lengths.tolist() == [1.0, 1.5]
        assert g.xy.tolist() == [[0.0, -0.0], [1.0, -1.0], [2.5, -2.5]]


class TestArrays:
    def test_arrays_read_only(self):
        # The graph caches its layouts, so its arrays cannot change under them.
        g = build_line(2)
        for a in (g.tails, g.heads, g.lengths, g.xy):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]

    def test_constructor_copies(self):
        tails = np.array([0, 1])
        g = MetricGraph(tails, [1, 2], [1.0, 1.0], np.zeros((3, 2)))
        tails[0] = 2
        assert g.tails.tolist() == [0, 1] and tails.flags.writeable

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="one"):
            MetricGraph([0, 1], [1], [1.0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"\(V, 2\)"):
            MetricGraph([0], [1], [1.0], np.zeros((2, 3)))


class TestCenterVertex:
    @pytest.mark.parametrize("graph", [build_line(4.5), build_line(3), build_star(5, 2.5),
                                       build_square_grid(3, 0.7)],
                             ids=["line", "integer-line", "star", "square-grid"])
    def test_vertex_at_coordinate_origin(self, graph):
        assert graph.xy[graph.center_vertex()].tolist() == [0.0, 0.0]

    def test_lowest_id_on_a_tie(self):
        b = GraphBuilder()
        v = [b.add_vertex(x, 0.0) for x in (2.0, 1.0, -1.0, 0.5, -0.5)]
        for tail, head in zip(v, v[1:]):
            b.add_edge(tail, head, 1.0)
        assert b.build().center_vertex() == 3
