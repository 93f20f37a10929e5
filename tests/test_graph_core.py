"""Metric-graph construction and validation."""

import pytest

from hexnls.graph_core import GraphBuilder, build_line, build_star, validate


class TestBuildLine:
    def test_integer_half_length_counts(self):
        g = build_line(3)
        assert g.num_vertices == 7
        assert g.num_edges == 6
        assert all(e.length == 1.0 for e in g.edges)

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
        xs = sorted(v.x for v in g.vertices)
        assert xs == [-0.5, 0.0, 0.5]

    def test_fractional_outer_edges_shorter(self):
        g = build_line(2.5)
        lengths = sorted(e.length for e in g.edges)
        assert lengths == pytest.approx([0.5, 0.5, 1.0, 1.0, 1.0, 1.0])

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
        assert sorted(e.length for e in star.edges) == \
            sorted(e.length for e in line.edges)

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
        from hexnls.graph_core import Edge
        g = build_line(3)
        g.edges[5] = Edge(5, g.edges[5].tail, 99, 1.0)
        problems = validate(g)
        assert any("edge 5" in s and "99" in s for s in problems)

    def test_disconnected_reported(self):
        b = GraphBuilder()
        v0, v1 = b.add_vertex(0, 0), b.add_vertex(1, 0)
        v2, v3 = b.add_vertex(5, 0), b.add_vertex(6, 0)
        b.add_edge(v0, v1, 1.0)
        b.add_edge(v2, v3, 1.0)
        from hexnls.graph_core import MetricGraph
        g = MetricGraph(b.vertices, b.edges)
        problems = validate(g)
        assert sum("not connected" in s for s in problems) == 1

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
        assert b.edges == []

    def test_degree_matches_adjacency(self):
        g = build_star(6, 3.0)
        ends = [end for e in g.edges for end in (e.tail, e.head)]
        assert g.degrees() == [ends.count(v.id) for v in g.vertices]
