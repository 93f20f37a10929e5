"""Sampled functions on metric graphs: quadrature, norms, DOF mapping."""

import numpy as np
import pytest

from hexnls.analytic import build_trial_function, trial_kinetic_integral, trial_lp_integral
from hexnls.calculus import (Discretization, GraphFunction, constant_function,
                             from_vertex_values, gradient_norms, integrate_power,
                             norm_report, rescale_mass, to_csv)
from hexnls.graph_core import Edge, GraphBuilder, build_line, build_star
from hexnls.honeycomb import build_honeycomb


def hat_on_unit_edge(peak: float, n: int = 65) -> GraphFunction:
    b = GraphBuilder()
    v0, v1 = b.add_vertex(0, 0), b.add_vertex(1, 0)
    v2 = b.add_vertex(2, 0)
    b.add_edge(v0, v1, 1.0)
    b.add_edge(v1, v2, 1.0)
    g = b.build()
    t = np.linspace(0, 1, n)
    vals = np.vstack([peak * t, peak * (1 - t)])
    return GraphFunction(g, vals)


class TestIntegratePower:
    def test_constant_exact(self):
        g = build_star(3, 4.0)
        u = constant_function(g, 2.5, 9)
        assert integrate_power(u, 2) == pytest.approx(2.5 ** 2 * g.total_length())

    def test_hat_function_oracle(self):
        # Linear hat of height A over two unit edges: integral of u^2 is
        # 2 * A^2/3 (hand integral), and trapezoid is O(h^2) accurate.
        u = hat_on_unit_edge(3.0, 129)
        assert integrate_power(u, 2) == pytest.approx(2 * 9.0 / 3, rel=1e-4)

    def test_quadrature_second_order(self):
        lat = build_honeycomb(3, 1.0)
        exact = trial_lp_integral(0.5, 3)  # closed form on the infinite grid

        def err(n):
            u = build_trial_function(lat, 0.5, n)
            # Compare against a very fine reference on the same truncation so
            # only the quadrature error varies.
            ref = integrate_power(build_trial_function(lat, 0.5, 513), 3)
            return abs(integrate_power(u, 3) - ref)

        e1, e2 = err(9), err(17)
        assert e2 < e1 / 3.0  # ~4x per halving of h

    def test_invalid_power(self):
        u = constant_function(build_line(2), 1.0)
        with pytest.raises(ValueError):
            integrate_power(u, 0.5)


class TestGradientNorms:
    def test_constant_zero(self):
        u = constant_function(build_line(3), 7.0)
        assert gradient_norms(u) == (0.0, 0.0)

    def test_unit_ramp(self):
        b = GraphBuilder()
        b.add_edge(b.add_vertex(), b.add_vertex(1, 0), 1.0)
        g = b.build()
        u = GraphFunction(g, np.linspace(0, 1, 33)[None, :])
        l1, l2sq = gradient_norms(u)
        assert l1 == pytest.approx(1.0)
        assert l2sq == pytest.approx(1.0)

    def test_orientation_independence(self):
        lat = build_honeycomb(2, 1.0)
        u = build_trial_function(lat, 0.4, 17)
        before = (integrate_power(u, 2), integrate_power(u, 3), *gradient_norms(u))
        # Flip every third edge and reverse its samples.
        g = u.graph
        for eid in range(0, g.num_edges, 3):
            e = g.edges[eid]
            g.edges[eid] = Edge(e.id, e.head, e.tail, e.length, e.kind)
            u.values[eid] = u.values[eid, ::-1]
        g.adjacency = [[] for _ in g.vertices]
        for e in g.edges:
            g.adjacency[e.tail].append((e.id, +1))
            g.adjacency[e.head].append((e.id, -1))
        after = (integrate_power(u, 2), integrate_power(u, 3), *gradient_norms(u))
        assert after == before

    def test_trial_pointwise_identity(self):
        # |u_eps'| = eps * u_eps on every edge, so the closed forms satisfy
        # grad_l2sq = eps^2 * mass.
        lat = build_honeycomb(5, 1.0)
        u = build_trial_function(lat, 0.5, 129)
        _, l2sq = gradient_norms(u)
        assert l2sq == pytest.approx(0.25 * integrate_power(u, 2), rel=1e-4)


class TestNormReport:
    def test_aggregates(self):
        g = build_line(4)
        u = constant_function(g, 1.0, 5)
        rep = norm_report(u, [3.0])
        assert rep.mass == pytest.approx(8.0)
        assert rep.linf == 1.0
        assert rep.lp[3.0] == pytest.approx(8.0)
        assert rep.grad_l1 == rep.grad_l2sq == 0.0

    def test_scaling_homogeneity(self):
        lat = build_honeycomb(2, 1.0)
        u = build_trial_function(lat, 0.3, 17)
        r1, r2 = norm_report(u, [4.0]), norm_report(u.scaled(3.0), [4.0])
        assert r2.mass == pytest.approx(9.0 * r1.mass, rel=1e-14)
        assert r2.lp[4.0] == pytest.approx(81.0 * r1.lp[4.0], rel=1e-14)
        assert r2.linf == pytest.approx(3.0 * r1.linf)
        assert r2.grad_l1 == pytest.approx(3.0 * r1.grad_l1, rel=1e-14)
        assert r2.grad_l2sq == pytest.approx(9.0 * r1.grad_l2sq, rel=1e-14)


class TestRescaleMass:
    def test_scale_factor(self):
        g = build_line(2)
        u = constant_function(g, 1.0, 5)  # mass 4
        v = rescale_mass(u, 1.0)
        assert np.allclose(v.values, 0.5)

    def test_identity(self):
        lat = build_honeycomb(1, 1.0)
        u = build_trial_function(lat, 0.7, 9)
        v = rescale_mass(u, integrate_power(u, 2))
        assert np.allclose(v.values, u.values)

    def test_zero_mass_rejected(self):
        u = constant_function(build_line(1), 0.0)
        with pytest.raises(ValueError):
            rescale_mass(u, 1.0)
        with pytest.raises(ValueError):
            rescale_mass(constant_function(build_line(1), 1.0), -2.0)


class TestContinuity:
    def test_from_vertex_values_continuous(self):
        lat = build_honeycomb(2, 1.0)
        rng = np.random.default_rng(0)
        u = from_vertex_values(lat.graph, rng.normal(size=lat.graph.num_vertices), 9)
        assert u.continuity_violations() == []

    def test_operations_preserve_continuity(self):
        lat = build_honeycomb(2, 1.0)
        u = build_trial_function(lat, 0.5, 17)
        assert u.continuity_violations() == []
        assert rescale_mass(u, 2.0).continuity_violations() == []
        assert u.scaled(-1.5).continuity_violations() == []

    def test_violation_detected(self):
        g = build_line(2)
        u = constant_function(g, 1.0, 5)
        u.values[0, -1] = 2.0
        assert u.continuity_violations()


class TestDiscretization:
    def test_dof_roundtrip(self):
        lat = build_honeycomb(2, 1.0)
        dz = Discretization(lat.graph, 9)
        u = build_trial_function(lat, 0.5, 9)
        v = dz.to_dofs(u)
        assert np.array_equal(dz.to_function(v).values, u.values)

    def test_quadratic_forms_match_function_norms(self):
        lat = build_honeycomb(2, 1.0)
        dz = Discretization(lat.graph, 9)
        u = build_trial_function(lat, 0.5, 9)
        v = dz.to_dofs(u)
        assert dz.mass(v) == pytest.approx(integrate_power(u, 2), rel=1e-13)
        assert dz.lp(v, 4.0) == pytest.approx(integrate_power(u, 4), rel=1e-13)
        assert dz.kinetic(v) == pytest.approx(gradient_norms(u)[1], rel=1e-13)

    def test_dof_count(self):
        g = build_star(4, 2.0)
        dz = Discretization(g, 7)
        assert dz.n_dofs == g.num_vertices + g.num_edges * 5

    def test_boundary_mass_fraction_matches_edge_quadrature(self):
        lat = build_honeycomb(4, 1.0)
        g = lat.graph
        dz = Discretization(g, 9, boundary_vertices=lat.boundary_vertices())
        u = build_trial_function(lat, 0.3, 9)
        # Edges with an end at most one step from the boundary.
        ring = set(lat.boundary_vertices())
        ring |= {w for v in list(ring) for eid, _ in g.adjacency[v]
                 for w in (g.edges[eid].tail, g.edges[eid].head)}
        near = np.array([e.tail in ring or e.head in ring for e in g.edges])
        part = GraphFunction(g, np.where(near[:, None], u.values, 0.0))
        expected = integrate_power(part, 2) / integrate_power(u, 2)
        assert 0 < expected < 1
        assert dz.boundary_mass_fraction(dz.to_dofs(u)) == pytest.approx(expected, rel=1e-13)
        assert dz.boundary_mass_fraction(np.zeros(dz.n_dofs)) == 0.0


class TestCsvExport:
    def test_header_and_shape(self):
        u = constant_function(build_line(1), 1.5, 3)
        lines = to_csv(u).strip().split("\n")
        assert lines[0] == "edge_id,sample_index,arclength_coordinate,value"
        assert len(lines) == 1 + u.graph.num_edges * 3
        assert lines[1].split(",")[3] == "1.5"
