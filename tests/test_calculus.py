"""Functions on metric graphs: DOF storage, quadrature, norms, DOF mapping."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

import hexnls.solver
from hexnls.analytic import build_trial_function, trial_kinetic_integral, trial_lp_integral
from hexnls.calculus import (Discretization, GraphFunction, _abs_power, constant_function,
                             from_edge_samples, from_vertex_values, gradient_norms,
                             integrate_power, rescale_mass)
from hexnls.functionals import inequality_ratio, make_discretization, random_corpus
from hexnls.graph_core import GraphBuilder, MetricGraph, build_graph, build_line, build_star
from hexnls.honeycomb import build_honeycomb, build_square_grid
from hexnls.solver import minimize

# Unequal edge lengths: the outer edges are 0.5 long, the others 1.
UNEQUAL_GRAPHS = {"line": build_line(2.5), "star": build_star(3, 2.5)}


def hat_on_unit_edge(peak: float, n: int = 65) -> GraphFunction:
    b = GraphBuilder()
    v0, v1 = b.add_vertex(0, 0), b.add_vertex(1, 0)
    v2 = b.add_vertex(2, 0)
    b.add_edge(v0, v1, 1.0)
    b.add_edge(v1, v2, 1.0)
    g = b.build()
    t = np.linspace(0, 1, n)
    vals = np.vstack([peak * t, peak * (1 - t)])
    return from_edge_samples(g, vals)


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
        for bad in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                integrate_power(u, bad)


class TestAbsPower:
    """The whole-power helper against the general pow."""

    @pytest.fixture(scope="class")
    def v(self):
        v = np.random.default_rng(3).standard_normal(5000) * 10.0 ** np.linspace(-3, 3, 5000)
        v[::97] = 0.0
        return v

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6])
    def test_whole_powers_within_ulps(self, v, e):
        got, ref = _abs_power(v, float(e)), np.abs(v) ** e
        # e - 1 rounded products, each off by at most half an ulp.
        assert np.all(np.abs(got - ref) <= e * np.spacing(ref))
        assert np.array_equal(got == 0, v == 0)

    def test_other_powers_are_pow_bit_for_bit(self, v):
        for e in (2.5, 0.5, 9.0):
            assert np.array_equal(_abs_power(v, e), np.abs(v) ** e)

    @pytest.mark.parametrize("e", [3, 4, 5, 6, 7, 8])
    def test_power_times_square_is_next_power(self, v, e):
        # What lets the ratios share one square between mass and int |u|^p.
        sq = v * v
        assert np.array_equal(_abs_power(v, e - 2.0, sq) * sq, _abs_power(v, float(e)))

    def test_leaves_its_inputs(self, v):
        before, sq = v.copy(), v * v
        sq_before = sq.copy()
        for e in range(1, 9):
            _abs_power(v, float(e), sq)
        assert np.array_equal(v, before) and np.array_equal(sq, sq_before)


def _edge_trapezoid(u: GraphFunction, p: float) -> float:
    """Per-edge composite trapezoid of |u|^p, straight from the sample view."""
    h = u.graph.lengths / (u.samples_per_edge - 1)
    a = np.abs(u.values) ** p
    return float(h @ (a.sum(axis=1) - 0.5 * (a[:, 0] + a[:, -1])))


class TestQuadratureOracle:
    """integrate_power and gradient_norms against per-edge formulas written
    out here; n = 2 has no interior DOFs.  The graphs are shared across n,
    so a layout cached for one sampling must not serve another."""

    @pytest.mark.parametrize("n", [2, 3, 9])
    @pytest.mark.parametrize("name", sorted(UNEQUAL_GRAPHS))
    def test_matches_per_edge_trapezoid(self, name, n):
        g = UNEQUAL_GRAPHS[name]
        rng = np.random.default_rng(n)
        u = GraphFunction(g, rng.uniform(-1.0, 1.0, g.num_vertices + g.num_edges * (n - 2)))
        assert u.samples_per_edge == n
        for p in (2.0, 3.0, 5.0):
            assert integrate_power(u, p) == pytest.approx(_edge_trapezoid(u, p), rel=1e-13)
        h = g.lengths / (n - 1)
        dv = np.diff(u.values, axis=1)
        l1, l2sq = gradient_norms(u)
        assert l1 == pytest.approx(np.abs(dv).sum(), rel=1e-13)
        assert l2sq == pytest.approx(((dv / h[:, None]) ** 2 * h[:, None]).sum(), rel=1e-13)


class TestGradientNorms:
    def test_constant_zero(self):
        u = constant_function(build_line(3), 7.0)
        assert gradient_norms(u) == (0.0, 0.0)

    def test_unit_ramp(self):
        b = GraphBuilder()
        b.add_edge(b.add_vertex(), b.add_vertex(1, 0), 1.0)
        g = b.build()
        u = from_edge_samples(g, np.linspace(0, 1, 33)[None, :])
        l1, l2sq = gradient_norms(u)
        assert l1 == pytest.approx(1.0)
        assert l2sq == pytest.approx(1.0)

    def test_orientation_independence(self):
        lat = build_honeycomb(2, 1.0)
        g = lat.graph
        u = build_trial_function(lat, 0.4, 17)
        # The same graph with every third edge flipped, carrying u's samples.
        flip = np.arange(g.num_edges) % 3 == 0
        vals = u.values.copy()
        vals[flip] = vals[flip, ::-1]
        w = from_edge_samples(build_graph(np.where(flip, g.heads, g.tails),
                                          np.where(flip, g.tails, g.heads), g.lengths, g.xy), vals)
        assert not np.array_equal(w.values, u.values)

        def norms(f):
            return (integrate_power(f, 2), integrate_power(f, 3), *gradient_norms(f))

        assert norms(w) == norms(u)

    def test_trial_pointwise_identity(self):
        # |u_eps'| = eps * u_eps on every edge, so the closed forms satisfy
        # grad_l2sq = eps^2 * mass.
        lat = build_honeycomb(5, 1.0)
        u = build_trial_function(lat, 0.5, 129)
        _, l2sq = gradient_norms(u)
        assert l2sq == pytest.approx(0.25 * integrate_power(u, 2), rel=1e-4)


class TestNormAggregates:
    def test_aggregates(self):
        g = build_line(4)
        u = constant_function(g, 1.0, 5)
        assert integrate_power(u, 2) == pytest.approx(8.0)
        assert integrate_power(u, 3.0) == pytest.approx(8.0)
        assert gradient_norms(u) == (0.0, 0.0)

    def test_scaling_homogeneity(self):
        lat = build_honeycomb(2, 1.0)
        u = build_trial_function(lat, 0.3, 17)
        v = u.scaled(3.0)
        assert integrate_power(v, 2) == pytest.approx(9.0 * integrate_power(u, 2), rel=1e-14)
        assert integrate_power(v, 4.0) == pytest.approx(81.0 * integrate_power(u, 4.0),
                                                        rel=1e-14)
        (l1_u, l2sq_u), (l1_v, l2sq_v) = gradient_norms(u), gradient_norms(v)
        assert l1_v == pytest.approx(3.0 * l1_u, rel=1e-14)
        assert l2sq_v == pytest.approx(9.0 * l2sq_u, rel=1e-14)


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
        g = lat.graph
        vv = np.random.default_rng(0).normal(size=g.num_vertices)
        u = from_vertex_values(g, vv, 9)
        ends = np.column_stack([g.tails, g.heads])
        assert np.array_equal(u.values[:, [0, -1]], vv[ends])
        assert np.array_equal(u.vertex_values(), vv)

    def test_operations_preserve_continuity(self):
        lat = build_honeycomb(2, 1.0)
        u = build_trial_function(lat, 0.5, 17)
        for w in (u, rescale_mass(u, 2.0), u.scaled(-1.5)):
            assert np.array_equal(from_edge_samples(lat.graph, w.values).dofs, w.dofs)

    def test_violation_detected(self):
        g = build_line(2)
        vals = constant_function(g, 1.0, 5).values.copy()
        vals[0, -1] = 2.0
        with pytest.raises(ValueError, match="vertex 1"):
            from_edge_samples(g, vals)

    def test_malformed_samples_rejected(self):
        g = build_line(2)
        for bad in (np.ones(5), np.ones((g.num_edges + 1, 5)), np.ones((g.num_edges, 1)),
                    np.ones((g.num_edges, 5, 1))):
            with pytest.raises(ValueError, match="shape"):
                from_edge_samples(g, bad)

    def test_dof_length_must_fit_a_sampling(self):
        g = build_line(2)  # 5 vertices, 4 edges
        for size in (4, 6, 7, 5 + 4 * 3 + 1):
            with pytest.raises(ValueError):
                GraphFunction(g, np.zeros(size))
        assert GraphFunction(g, np.zeros(5 + 4 * 3)).samples_per_edge == 5

    def test_values_view_is_read_only(self):
        u = constant_function(build_line(2), 1.0, 5)
        with pytest.raises(ValueError):
            u.values[0, 2] = 3.0
        with pytest.raises(ValueError):
            u.vertex_values()[1] /= 2.0
        assert np.all(u.dofs == 1.0)

    def test_matching_nan_endpoints_accepted(self):
        g = build_line(2)
        vals = constant_function(g, 1.0, 5).values.copy()
        vals[0, -1] = vals[1, 0] = np.nan
        u = from_edge_samples(g, vals)
        assert np.isnan(u.vertex_values()[1]) and np.isnan(u.values[1, 0])
        vals[1, 0] = 1.0
        with pytest.raises(ValueError, match="vertex 1"):
            from_edge_samples(g, vals)


class TestReadOnlyValue:
    """A GraphFunction's DOF vector cannot change once it is built."""

    @staticmethod
    def _functions():
        lat = build_honeycomb(2, 1.0)
        g = lat.graph
        vv = np.random.default_rng(1).normal(size=g.num_vertices)
        u = from_vertex_values(g, vv, 9)
        return [u, u.scaled(2.0), GraphFunction(g, u.dofs.copy()),
                constant_function(g, 1.0, 5), from_edge_samples(g, u.values),
                rescale_mass(u, 2.0), build_trial_function(lat, 0.5, 9),
                random_corpus(lat, 1, seed=0)[0]]

    def test_dofs_cannot_be_written(self):
        for u in self._functions():
            before = u.dofs.copy()
            with pytest.raises(ValueError):
                u.dofs[0] = 1.0
            with pytest.raises(ValueError):
                u.dofs *= 2.0
            assert np.array_equal(u.dofs, before)

    def test_caller_array_is_copied(self):
        g = build_line(2)  # 5 vertices, 4 edges
        dofs = np.linspace(0.0, 1.0, 5 + 4 * 3)
        u = GraphFunction(g, dofs)
        dofs[0] = 7.0
        assert u.dofs[0] == 0.0 and dofs.flags.writeable
        # A read-only view of a writeable array could still change: copied too.
        view = dofs[:]
        view.flags.writeable = False
        w = GraphFunction(g, view)
        dofs[1] = 7.0
        assert w.dofs[1] == u.dofs[1] != 7.0
        # So are the vertex values and per-edge samples a function is built from.
        vv = np.arange(5.0)
        v = from_vertex_values(g, vv, 5)
        vv[2] = -1.0
        assert v.vertex_values()[2] == 2.0
        vals = v.values.copy()
        e = from_edge_samples(g, vals)
        vals[:] = 0.0
        assert np.array_equal(e.dofs, v.dofs)

    def test_read_only_value_is_shared_not_copied(self):
        u = from_vertex_values(build_line(2), np.arange(5.0), 5)
        assert GraphFunction(u.graph, u.dofs).dofs is u.dofs

    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    def test_interpolation_matches_outer_products(self, n):
        # Built in place from the layout's hat weights, bit for bit the
        # tail * (1 - t) + head * t of the two outer products.
        g = build_star(3, 2.5)
        vv = np.random.default_rng(n).normal(size=g.num_vertices)
        t = np.linspace(0.0, 1.0, n)[1:-1]
        interior = np.outer(vv[g.tails], 1.0 - t) + np.outer(vv[g.heads], t)
        want = np.concatenate([vv, interior.ravel()])
        assert np.array_equal(from_vertex_values(g, vv, n).dofs, want)


class TestFromVertexValues:
    def test_vertex_array_length_checked(self):
        g = build_line(2)
        for bad in (np.arange(8.0), np.arange(4.0), np.zeros((5, 1))):
            with pytest.raises(ValueError):
                from_vertex_values(g, bad, 5)


class TestSharedLayout:
    def test_random_corpus_shares_one_layout(self):
        lat = build_honeycomb(2, 1.0)
        corpus = random_corpus(lat, 6, seed=0)
        assert all(u.layout is corpus[0].layout for u in corpus)
        assert constant_function(lat.graph, 1.0, 9).layout is corpus[0].layout
        assert constant_function(lat.graph, 1.0, 17).layout is not corpus[0].layout

    def test_layout_freed_without_the_cycle_collector(self, monkeypatch):
        # A layout holds no reference back to its graph, so dropping the
        # graph and its functions frees the layout by reference counting.
        monkeypatch.setattr(hexnls.solver, "MAX_ITERS", 5)
        gc.disable()
        try:
            lat = build_honeycomb(5, 1.0)
            out = minimize(lat, 3.0, 1.0)
            u = build_trial_function(lat, 0.5, 9)
            layout = weakref.ref(u.layout)
            del lat, out, u
            assert layout() is None
        finally:
            gc.enable()

    def test_solver_uses_the_shared_layout(self, monkeypatch):
        # minimize builds no DOF map of its own.  The shared layout keeps one
        # preconditioner per shift, but not the _Descent: it is freed once
        # minimize returns.
        made = []

        class Spy(hexnls.solver._Descent):
            def __init__(self, *args):
                super().__init__(*args)
                made.append((weakref.ref(self), self.dz))

        monkeypatch.setattr(hexnls.solver, "_Descent", Spy)
        lat = build_honeycomb(2, 1.0)
        out = minimize(lat, 3.0, 10.0, init="trial-eps")
        assert out.classification == "GroundState" and len(made) == 1
        assert made[0][1] is out.minimizer.layout is make_discretization(lat, 9)
        gc.collect()
        assert made[0][0]() is None
        assert integrate_power(out.minimizer, 2) == pytest.approx(10.0, rel=1e-12)


class TestReadOnlyLayout:
    """A layout is a value that every function and solve on its (graph, n)
    shares, so no holder can write into it; its caches are its modules'."""

    @staticmethod
    def _arrays(dz: Discretization) -> dict[str, np.ndarray]:
        """Every array the layout holds once each lazy one is built, the
        stiffness's three among them."""
        for name in ("hat_weights", "inv_h", "cells", "stiffness"):
            getattr(dz, name)
        arrays = {}
        for name, value in vars(dz).items():
            if isinstance(value, sp.csr_matrix):
                value = {"data": value.data, "indices": value.indices, "indptr": value.indptr}
            elif isinstance(value, tuple):
                value = dict(enumerate(value))
            else:
                value = {"": value}
            arrays.update({f"{name}.{key}": a for key, a in value.items()
                           if isinstance(a, np.ndarray)})
        return arrays

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_every_layout_array_is_read_only(self, n):
        dz = make_discretization(build_honeycomb(2, 1.0), n)
        arrays = self._arrays(dz)
        assert {name.split(".")[0] for name in arrays} == {
            "tails", "heads", "dof_of", "h", "mass_vec", "hat_weights", "inv_h", "cells",
            "stiffness"}
        assert {"stiffness.data", "stiffness.indices", "stiffness.indptr"} <= set(arrays)
        for name, a in arrays.items():
            before = a.copy()
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[...] = 0
            with pytest.raises(ValueError):
                a *= 2
            assert np.array_equal(a, before), name

    def test_edge_ends_are_the_graphs(self):
        g = build_star(3, 2.5)
        dz = make_discretization(g, 5)
        assert dz.tails is g.tails and dz.heads is g.heads
        assert np.array_equal(dz.dof_of[:, 0], g.tails)
        assert np.array_equal(dz.dof_of[:, -1], g.heads)

    def test_a_ratio_cannot_be_moved_through_the_layout(self):
        u = random_corpus(build_honeycomb(3, 1.0), 1, seed=0)[0]
        before = inequality_ratio(u, "gn1d", 4.0).value
        with pytest.raises(ValueError):
            u.layout.mass_vec[:] *= 2
        fresh = GraphFunction(u.graph, u.dofs)
        assert inequality_ratio(fresh, "gn1d", 4.0).value == before

    def test_graph_holds_no_cache(self):
        assert [f.name for f in dataclasses.fields(MetricGraph)] == [
            "tails", "heads", "lengths", "xy"]
        for g in (build_line(2.5), build_honeycomb(2, 1.0), build_square_grid(2, 1.0)):
            before = dict(vars(g))
            for n in (2, 9, 9):     # two layouts built, then one read back
                make_discretization(g, n)
            assert vars(g).keys() == before.keys()
            assert all(vars(g)[k] is v for k, v in before.items())

    def test_layouts_die_with_their_graph(self):
        gc.disable()
        try:
            g = build_honeycomb(2, 1.0)
            layouts = [weakref.ref(make_discretization(g, n)) for n in (2, 5, 9)]
            assert make_discretization(g, 5) is layouts[1]()
            del g
            assert all(ref() is None for ref in layouts)
        finally:
            gc.enable()


class TestDiscretization:
    def test_dof_roundtrip(self):
        lat = build_honeycomb(2, 1.0)
        dz = Discretization(lat.graph, 9)
        u = build_trial_function(lat, 0.5, 9)
        v = dz.to_dofs(u)
        assert np.array_equal(GraphFunction(lat.graph, v).values, u.values)
        # to_dofs refuses a function on another sampling or another graph.
        with pytest.raises(ValueError):
            dz.to_dofs(build_trial_function(lat, 0.5, 17))
        with pytest.raises(ValueError):
            dz.to_dofs(build_trial_function(build_honeycomb(3, 1.0), 0.5, 9))

    def test_quadratic_forms_match_function_norms(self):
        lat = build_honeycomb(2, 1.0)
        dz = Discretization(lat.graph, 9)
        u = build_trial_function(lat, 0.5, 9)
        v = dz.to_dofs(u)
        assert dz.mass(v) == pytest.approx(integrate_power(u, 2), rel=1e-13)
        assert dz.lp(v, 4.0) == pytest.approx(integrate_power(u, 4), rel=1e-13)
        # kinetic forms v.(K v) from the cell differences, without K.
        assert dz.kinetic(v) == pytest.approx(v @ (dz.stiffness @ v), rel=1e-13)

    def test_kinetic_vanishes_on_a_constant(self):
        u = constant_function(build_honeycomb(2, 1.0).graph, 0.3, 9)
        assert u.layout.kinetic(u.dofs) == 0.0

    def test_dof_count(self):
        g = build_star(4, 2.0)
        dz = Discretization(g, 7)
        assert dz.n_dofs == g.num_vertices + g.num_edges * 5

    def test_boundary_mass_fraction_matches_edge_quadrature(self):
        lat = build_honeycomb(4, 1.0)
        g = lat.graph
        dz = Discretization(g, 9)
        weights = dz.boundary_weights(lat.boundary_vertices())
        u = build_trial_function(lat, 0.3, 9)
        # Edges with an end at most one step from the boundary.
        ends = list(zip(g.tails.tolist(), g.heads.tolist()))
        ring = set(lat.boundary_vertices().tolist())
        ring |= {w for t, h in ends if t in ring or h in ring for w in (t, h)}
        near = np.array([t in ring or h in ring for t, h in ends])
        a = u.values ** 2
        per_edge = (a.sum(axis=1) - 0.5 * (a[:, 0] + a[:, -1])) / 8  # unit edges, h = 1/8
        expected = per_edge[near].sum() / per_edge.sum()
        assert 0 < expected < 1
        frac = dz.boundary_mass_fraction(dz.to_dofs(u), weights)
        assert frac == pytest.approx(expected, rel=1e-13)
        assert dz.boundary_mass_fraction(np.zeros(dz.n_dofs), weights) == 0.0
        assert dz.boundary_mass_fraction(dz.to_dofs(u), dz.boundary_weights([])) == 0.0

    @staticmethod
    def _dijkstra_boundary_weights(dz, boundary):
        """The reference: lumped mass of the edges with an end at most one
        unweighted step from the boundary, by shortest paths."""
        tails, heads = dz.dof_of[:, 0], dz.dof_of[:, -1]
        V = dz.num_vertices
        adj = sp.coo_matrix((np.ones(len(tails)), (tails, heads)), shape=(V, V))
        dist = dijkstra((adj + adj.T).tocsr(), indices=boundary, unweighted=True, min_only=True)
        return dz._lumped_mass(np.minimum(dist[tails], dist[heads]) <= 1)

    @pytest.mark.parametrize("name", ["honeycomb3", "honeycomb6", "star", "line", "square"])
    def test_boundary_weights_equal_dijkstra(self, name):
        if name.startswith("honeycomb"):
            g = build_honeycomb(int(name[-1]), 1.0)
        elif name == "square":
            g = build_square_grid(3, 0.5)
        else:
            g = build_star(5, 3.5) if name == "star" else build_line(4.5)
        boundary = g.boundary_vertices()
        dz = Discretization(g, 5)
        weights = dz.boundary_weights(boundary)
        assert 0 < weights.sum() < dz.mass_vec.sum()
        assert np.array_equal(weights, self._dijkstra_boundary_weights(dz, boundary))
        assert np.array_equal(dz.boundary_weights(np.array([], dtype=int)), np.zeros(dz.n_dofs))
