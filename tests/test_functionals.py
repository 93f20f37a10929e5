"""Energy functional and functional-inequality ratios."""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

import hexnls.functionals
from hexnls.analytic import build_trial_function, trial_energy, trial_truncation_radius
from hexnls.calculus import (Discretization, GraphFunction, constant_function, from_edge_samples,
                             from_vertex_values, gradient_norms, integrate_power,
                             rescale_mass)
from hexnls.functionals import (_NORMS, RATIO_NAMES, _ascent_starts, _RatioObjective, energy,
                                estimate_sharp_constant, inequality_ratio, make_discretization,
                                random_corpus, vertex_distances)
from hexnls.graph_core import GraphBuilder, MetricGraph, build_line, build_star
from hexnls.honeycomb import build_honeycomb, build_square_grid
from hexnls.solver import _Descent

SOBOLEV2D_BOUND = 2.0 * math.sqrt(2.0)


@pytest.fixture(scope="module")
def lat():
    return build_honeycomb(3, 1.0)


@pytest.fixture(scope="module")
def corpus(lat):
    return random_corpus(lat, 60, seed=7)


class TestEnergy:
    def test_matches_direct_reimplementation(self, lat, corpus):
        p = 3.5
        for u in corpus[:20]:
            rep = energy(u, p)
            # Independent re-computation straight from the sample arrays.
            h = u.graph.lengths / (u.samples_per_edge - 1)
            dv = np.diff(u.values, axis=1)
            kin = 0.5 * float((dv ** 2).sum(axis=1) @ (1.0 / h))
            a = np.abs(u.values) ** p
            pot = float(h @ (a.sum(axis=1) - 0.5 * (a[:, 0] + a[:, -1]))) / p
            assert rep.kinetic == pytest.approx(kin, rel=1e-12)
            assert rep.potential == pytest.approx(pot, rel=1e-12)
            assert rep.total == pytest.approx(kin - pot, rel=1e-10, abs=1e-14)

    def test_trial_function_energy_matches_closed_form(self):
        eps, p, mu = 0.3, 3.0, 1.0
        lat = build_honeycomb(trial_truncation_radius(eps), 1.0)
        v = rescale_mass(build_trial_function(lat, eps, 33), mu)
        rep = energy(v, p)
        assert rep.mass == pytest.approx(mu, rel=1e-12)
        assert rep.total == pytest.approx(trial_energy(eps, p, mu), rel=1e-3)

    def test_invalid_power(self, lat, corpus):
        for bad in (2.0, 6.5, 1.0):
            with pytest.raises(ValueError):
                energy(corpus[0], bad)

    @pytest.mark.parametrize("p", [3.0, 4.0, 4.5, 5.5])
    def test_one_evaluator_with_the_ratios_and_the_descent(self, corpus, p):
        # energy(), the ratios' terms, integrate_power and the descent's
        # energy read the same evaluators, so they agree bit for bit, also at
        # a non-whole p, where |v|^p and |v|^(p-2) v^2 differ in the last bits.  At p = 4 the
        # power |v|^2 is the square itself.
        for u in corpus[:30]:
            rep = energy(u, p)
            w = inequality_ratio(u, "gn1d", p).witness
            assert rep.potential == w["lp"] / p == integrate_power(u, p) / p
            assert rep.mass == w["mass"]
            assert 2 * rep.kinetic == gradient_norms(u)[1]
            d = _Descent(u.layout, p, rep.mass)
            assert d.evaluate(u.dofs).E == 0.5 * w["grad_l2sq"] - w["lp"] / p


class TestInequalityRatio:
    @pytest.mark.parametrize("name", RATIO_NAMES)
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, lat, corpus, name, c):
        u = corpus[0]
        r1 = inequality_ratio(u, name, p=3.0)
        r2 = inequality_ratio(u.scaled(c), name, p=3.0)
        assert r2.value == pytest.approx(r1.value, rel=1e-10)

    def test_gn_ratio_algebraic_relations(self, corpus):
        # With q^2 = |u'|_2^2 / |u|_2^2:  gn1d^2 = gn2d * gn_interp * q^2 and
        # gn_interp / gn2d = q^(p-4), i.e. theta = (p-4)/2 powers of q^2.
        p = 5.0
        for u in corpus[:10]:
            g1 = inequality_ratio(u, "gn1d", p).value
            g2 = inequality_ratio(u, "gn2d", p).value
            gi = inequality_ratio(u, "gn_interp", p).value
            qsq = gradient_norms(u)[1] / integrate_power(u, 2)
            assert g1 ** 2 == pytest.approx(g2 * gi * qsq, rel=1e-9)
            assert gi / g2 == pytest.approx(qsq ** ((p - 4.0) / 2.0), rel=1e-9)

    def test_constant_function_rejected(self, lat):
        # A constant's v.Kv need not round to zero; the ratio is still undefined.
        for graph in (build_line(2), build_line(2.5), build_star(3, 2.5), lat.graph):
            for c, n in ((1.0, 33), (7.123456789, 2), (7.123456789, 9)):
                u = constant_function(graph, c, n)
                for name in RATIO_NAMES:
                    with pytest.raises(ZeroDivisionError):
                        inequality_ratio(u, name, 3.0)

    def test_constant_per_component_rejected(self):
        # Two components, each constant at its own value: every cell
        # difference is zero, though the function is not one constant.  The
        # builder refuses a disconnected graph, so it is put together directly.
        a0, a1, c0, c1 = range(4)
        g = MetricGraph([a0, c0], [a1, c1], [1.0, 2.0], [(float(x), 0.0) for x in range(4)])
        dz = make_discretization(g, 9)
        dofs = np.full(dz.n_dofs, 1.5)
        dofs[[c0, c1]] = -0.25
        dofs[dz.dof_of[1, 1:-1]] = -0.25
        u = GraphFunction(g, dofs)
        for name in RATIO_NAMES:
            with pytest.raises(ZeroDivisionError):
                inequality_ratio(u, name, 3.0)
        dofs = dofs.copy()
        dofs[dz.dof_of[1, 4]] = 0.0
        assert inequality_ratio(GraphFunction(g, dofs), "gn1d", 3.0).value > 0

    def test_invalid_name_and_power(self, corpus):
        with pytest.raises(ValueError):
            inequality_ratio(corpus[0], "nosuch")
        with pytest.raises(ValueError):
            inequality_ratio(corpus[0], "gn1d", p=2.0)
        for name in ("gn1d", "sobolev2d"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    inequality_ratio(corpus[0], name, bad)

    def test_witness_summary_fields(self, corpus):
        # The witness is the ratio's own norm terms plus the peak and its place.
        u = corpus[0]
        w = inequality_ratio(u, "sobolev2d").witness
        assert set(w) == {"mass", "grad_l1", "linf", "argmax_edge", "argmax_sample"}
        assert w["mass"] == integrate_power(u, 2)
        assert w["grad_l1"] == pytest.approx(gradient_norms(u)[0], rel=1e-12)
        w = inequality_ratio(u, "gn1d", 4.0).witness
        assert set(w) == {"lp", "mass", "grad_l2sq", "linf", "argmax_edge", "argmax_sample"}
        assert w["lp"] == integrate_power(u, 4.0)
        assert w["grad_l2sq"] == pytest.approx(gradient_norms(u)[1], rel=1e-12)
        assert w["linf"] == abs(u.values[w["argmax_edge"], w["argmax_sample"]]) > 0

    def test_argmax_is_first_in_view(self, lat, corpus):
        # The witness places the peak where argmax over the per-edge view does:
        # the first (edge, sample) in row-major order among all that tie.
        g = lat.graph
        dz = make_discretization(lat, 9)
        # A +-peak pair: the vertex DOF (smaller index) sits later in the view
        # than the interior sample of edge 0, which must win.
        v = corpus[0].dofs.copy()
        P = 2.0 * np.abs(v).max()
        v[dz.dof_of[-1, 0]], v[dz.dof_of[0, 1]] = P, -P
        pm = GraphFunction(g, v)
        # The peak at a vertex where several edges meet.
        hub = from_vertex_values(g, np.exp(-vertex_distances(g, lat.center_vertex())), 9)
        assert np.count_nonzero(np.abs(hub.values) == 1.0) >= 3
        # nan samples: the first nan in the view, as argmax has it.
        v = corpus[1].dofs.copy()
        v[[dz.dof_of[-1, 0], dz.dof_of[2, 4]]] = np.nan
        for u in corpus + [pm, pm.scaled(-1.0), hub, GraphFunction(g, v)]:
            a = np.abs(u.values)
            want = np.unravel_index(int(a.argmax()), a.shape)
            for name, p in (("sobolev2d", 2.0), ("gn1d", 4.0)):
                w = inequality_ratio(u, name, p).witness
                assert (w["argmax_edge"], w["argmax_sample"]) == want
        w = inequality_ratio(pm, "sobolev2d").witness
        assert (w["argmax_edge"], w["argmax_sample"]) == (0, 1)


# p = 4.5 takes the general power, the whole powers the products.
RATIO_CASES = [("sobolev2d", 2.0), ("sobolev1d", 2.0)] + [
    (name, p) for name in ("gn1d", "gn2d", "gn_interp") for p in (3.0, 5.0)] + [
    ("gn_interp", 4.5)]

# Each ratio written out from its inequality, in the norms (mass, int |u|^p,
# |u|_inf, |u'|_1, |u'|_2^2), apart from the objective's exponent table.
RATIO_ORACLE = {
    "sobolev2d": lambda m, lp, linf, g1, g2, p: math.sqrt(m) / g1,
    "sobolev1d": lambda m, lp, linf, g1, g2, p: linf / g1,
    "gn1d": lambda m, lp, linf, g1, g2, p: lp / (m ** (p / 4 + 0.5) * g2 ** (p / 4 - 0.5)),
    "gn2d": lambda m, lp, linf, g1, g2, p: lp / (m * g2 ** (p / 2 - 1)),
    "gn_interp": lambda m, lp, linf, g1, g2, p: lp / (g2 * m ** (p / 2 - 1)),
}


class TestRatioObjective:
    """The objective's DOF-space log-ratio against the sampled function's norms."""

    @pytest.fixture(scope="class")
    def dz(self, lat):
        return make_discretization(lat, 9)

    @pytest.mark.parametrize("name,p", RATIO_CASES)
    def test_value_is_log_of_inequality_ratio(self, dz, corpus, name, p):
        obj = _RatioObjective(dz, name, p)
        for u in corpus[:3]:
            v = dz.to_dofs(u)
            norms = (integrate_power(u, 2), integrate_power(u, p), np.abs(u.dofs).max(),
                     *gradient_norms(u))
            expected = math.log(RATIO_ORACLE[name](*norms, p))
            assert obj.evaluate(v)[0] == pytest.approx(expected, rel=0, abs=1e-12)

    @staticmethod
    def _check_grad(obj, v, rng):
        g = obj.grad(v, obj.evaluate(v)[1])
        h = 1e-6
        for _ in range(3):
            d = rng.standard_normal(v.size)
            d /= np.linalg.norm(d)
            fd = (obj.evaluate(v + h * d)[0] - obj.evaluate(v - h * d)[0]) / (2 * h)
            # Relative to |g|: a unit direction can be nearly orthogonal to g.
            assert abs(g @ d - fd) <= 1e-6 * np.linalg.norm(g)

    @pytest.mark.parametrize("name,p", RATIO_CASES)
    def test_grad_matches_central_differences(self, dz, corpus, name, p):
        self._check_grad(_RatioObjective(dz, name, p), dz.to_dofs(corpus[0]),
                         np.random.default_rng(0))

    @pytest.mark.parametrize("p", [3.0, 4.5, 5.0])
    @pytest.mark.parametrize("name", RATIO_NAMES)
    def test_grad_matches_central_differences_on_ascent_point(self, lat, dz, name, p):
        # A point like the ascent's: random, zero on the truncation boundary.
        # p = 4.5 takes the general power, the others the products.
        rng = np.random.default_rng(11)
        v = rng.standard_normal(dz.n_dofs)
        v[lat.boundary_vertices()] = 0.0
        self._check_grad(_RatioObjective(dz, name, p), v, rng)


class TestCorpusBounds:
    def test_sobolev2d_bound_on_random_corpus(self, corpus):
        for u in corpus:
            r = inequality_ratio(u, "sobolev2d")
            assert r.value <= SOBOLEV2D_BOUND * 1.01

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
    def test_gn1d_bound_on_random_corpus(self, corpus, p):
        for u in corpus:
            r = inequality_ratio(u, "gn1d", p)
            assert r.value <= 1.01

    def test_trial_function_sobolev2d(self, lat):
        u = build_trial_function(lat, 0.5, 17)
        assert inequality_ratio(u, "sobolev2d").value <= SOBOLEV2D_BOUND

    @pytest.mark.parametrize("p", [3.0, 4.5])
    def test_energy_lower_bound_from_gn1d(self, corpus, p):
        # E(u) >= K/2 - (C/p) mu^(p/4+1/2) (2K)^(p/4-1/2) with C <= 1.01.
        for u in corpus[:20]:
            rep = energy(u, p)
            K = 2.0 * rep.kinetic
            bound = 0.5 * K - (1.01 / p) * rep.mass ** (p / 4 + 0.5) * K ** (p / 4 - 0.5)
            assert rep.total >= bound - 1e-12


# Every ratio at every valid power of {2.5, 3, 4, 4.5, 6}: the sobolev ratios
# take p = 2 whatever p is passed, the GN ratios need p > 2.
ALL_RATIO_CASES = [(name, p) for p in (2.5, 3.0, 4.0, 4.5, 6.0) for name in RATIO_NAMES]

# The p-independent terms a function's entry in the norms cache may hold.
P_FREE_NORMS = {"mass", "grad_l1", "grad_l2sq", "constant", "linf", "argmax_edge",
                "argmax_sample"}


def _cache_functions():
    """Corpus functions at R = 3 and R = 6, and functions on a line, a star
    and a square grid."""
    out = random_corpus(build_honeycomb(3, 1.0), 3, seed=5)
    out += random_corpus(build_honeycomb(6, 1.0), 3, seed=6)
    rng = np.random.default_rng(8)
    for g in (build_line(4.5), build_star(5, 2.0), build_square_grid(3, 1.0)):
        out.append(from_vertex_values(g, rng.uniform(-1.0, 1.0, g.num_vertices), 9))
    return out


def _fresh(u: GraphFunction) -> GraphFunction:
    """The same value with nothing measured yet."""
    fresh = GraphFunction(u.graph, u.dofs)
    assert fresh not in _NORMS
    return fresh


def _same(a, b) -> bool:
    """Two ratios equal bit for bit, value and witness."""
    return (a.value.hex() == b.value.hex() and a.witness.keys() == b.witness.keys() and
            all(repr(a.witness[k]) == repr(b.witness[k]) for k in a.witness))


class TestNormsCache:
    """Repeat ratios on one function read its p-independent norms, which
    functionals keeps in _NORMS."""

    @pytest.mark.parametrize("u", _cache_functions(),
                             ids=["R3-0", "R3-1", "R3-2", "R6-0", "R6-1", "R6-2",
                                  "line", "star", "square-grid"])
    def test_repeat_calls_match_cold_calls(self, u):
        cold = {case: inequality_ratio(_fresh(u), *case) for case in ALL_RATIO_CASES}
        for order in (ALL_RATIO_CASES, ALL_RATIO_CASES[::-1]):
            warm = _fresh(u)
            for case in order + order:
                assert _same(inequality_ratio(warm, *case), cold[case]), case
            assert set(_NORMS[warm]) == P_FREE_NORMS

    def test_norms_hold_only_p_free_scalars(self):
        u = _fresh(random_corpus(build_honeycomb(3, 1.0), 1, seed=2)[0])
        inequality_ratio(u, "gn1d", 3.0)
        after_one_power = dict(_NORMS[u])
        for case in ALL_RATIO_CASES:
            inequality_ratio(u, *case)
        assert set(_NORMS[u]) == P_FREE_NORMS
        assert all(type(v) in (float, int, bool) for v in _NORMS[u].values())
        # Calls at other powers and ratios change nothing already measured.
        assert {k: _NORMS[u][k] for k in after_one_power} == after_one_power
        # Every rescaled copy measures its own.
        assert u.scaled(2.0) not in _NORMS

    def test_entry_goes_with_its_function(self, monkeypatch):
        cache = weakref.WeakKeyDictionary()
        monkeypatch.setattr(hexnls.functionals, "_NORMS", cache)
        u = _fresh(random_corpus(build_honeycomb(3, 1.0), 1, seed=2)[0])
        inequality_ratio(u, "gn1d", 3.0)
        assert list(cache.keys()) == [u]
        del u
        gc.collect()
        assert len(cache) == 0

    @pytest.mark.parametrize("u", _cache_functions()[::3],
                             ids=["R3", "R6", "line"])
    def test_writing_into_a_function_cannot_change_a_later_ratio(self, u):
        # Every public attribute is read-only, an object the function does not
        # own (its graph and layout), or not there to be written.
        u = _fresh(u)
        before = {case: inequality_ratio(u, *case) for case in ALL_RATIO_CASES}
        for name in dir(u):
            attr = getattr(u, name)
            if name.startswith("_") or callable(attr):
                continue
            if isinstance(attr, dict):
                attr.update(grad_l1=1e-3, grad_l2sq=1e-3, mass=1e3, linf=1e3)
            elif isinstance(attr, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    attr[0] = 1e3
        with pytest.raises(AttributeError):
            u.norms = {"grad_l1": 1e-3}
        for case, ratio in before.items():
            assert _same(inequality_ratio(u, *case), ratio), case

    @pytest.mark.parametrize("p", [3.0, 4.5])
    def test_one_stiffness_product_per_function(self, monkeypatch, lat, p):
        # The three GN ratios at one p: v.Kv once per function, int |u|^p
        # (Discretization.potential) on every call.
        dz = make_discretization(lat, 9)
        counting = _CountingK(dz.stiffness)
        monkeypatch.setitem(vars(dz), "stiffness", counting)
        potentials = []
        potential = Discretization.potential

        def counting_potential(self, v, q):
            potentials.append(q)
            return potential(self, v, q)

        monkeypatch.setattr(Discretization, "potential", counting_potential)
        functions = random_corpus(lat, 4, seed=9)
        for u in functions:
            for name in ("gn1d", "gn2d", "gn_interp"):
                inequality_ratio(u, name, p)
        assert counting.products == len(functions)
        assert potentials == [p] * (3 * len(functions))


class TestRandomCorpus:
    def test_deterministic_given_seed(self, lat):
        c1 = random_corpus(lat, 5, seed=3)
        c2 = random_corpus(lat, 5, seed=3)
        for u, v in zip(c1, c2):
            assert np.array_equal(u.values, v.values)
        c3 = random_corpus(lat, 5, seed=4)
        assert not np.array_equal(c1[0].values, c3[0].values)

    def test_continuity_and_count(self, lat):
        c = random_corpus(lat, 6, seed=0)
        assert len(c) == 6
        assert all(np.array_equal(from_edge_samples(lat.graph, u.values).dofs, u.dofs)
                   for u in c)

    def test_negative_count_refused(self, lat):
        assert random_corpus(lat, 0, seed=0) == []
        with pytest.raises(ValueError, match="corpus size"):
            random_corpus(lat, -1, seed=0)

    def test_envelope_localizes(self, lat):
        # The gamma = 1 members decay away from the origin.
        dist = vertex_distances(lat.graph, lat.center_vertex())
        far = dist >= dist.max() - 1e-9
        for u in random_corpus(lat, 9, seed=1)[2::3]:
            vv = np.abs(u.vertex_values())
            assert vv[far].max() < 0.05 * max(vv.max(), 1e-300)


class TestVertexDistances:
    @staticmethod
    def _graph(ends_and_lengths, num_vertices):
        b = GraphBuilder()
        for x in range(num_vertices):
            b.add_vertex(float(x), 0.0)
        for tail, head, length in ends_and_lengths:
            b.add_edge(tail, head, length)
        return b.build()

    def test_parallel_edges_take_the_shortest(self):
        # Summed as sparse-matrix duplicates, these read [0, 3, 4] and [0, 4].
        g = self._graph([(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)], 3)
        assert vertex_distances(g, 0).tolist() == [0.0, 1.0, 2.0]
        g = self._graph([(0, 1, 1.0), (0, 1, 3.0)], 2)
        assert vertex_distances(g, 0).tolist() == [0.0, 1.0]
        assert vertex_distances(g, 1).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("graph", [build_honeycomb(6, 1.0), build_line(7.5),
                                       build_star(5, 3.5), build_square_grid(6, 1.0)],
                             ids=["honeycomb", "line", "star", "square"])
    def test_simple_graphs_bit_identical_to_the_summed_matrix(self, graph):
        # Without parallel edges the summed symmetric matrix is exact.
        adj = sp.coo_matrix((graph.lengths, (graph.tails, graph.heads)),
                            shape=(graph.num_vertices,) * 2)
        for source in (0, graph.center_vertex(), graph.num_vertices - 1):
            want = dijkstra((adj + adj.T).tocsr(), indices=source)
            assert np.array_equal(vertex_distances(graph, source), want)


class _CountingK:
    """Stand-in for the stiffness matrix that counts products with it."""

    def __init__(self, K):
        self.K, self.products = K, 0

    def __matmul__(self, x):
        self.products += 1
        return self.K @ x


class TestSharpConstantAscent:
    def test_sobolev2d_respects_theoretical_bound(self, lat):
        c_hat, witness = estimate_sharp_constant("sobolev2d", 2.0, lat,
                                                 budget=40, seed=0, num_starts=9)
        assert 0 < c_hat <= SOBOLEV2D_BOUND * 1.01
        assert inequality_ratio(witness, "sobolev2d").value == c_hat

    @pytest.mark.parametrize("name,p", RATIO_CASES)
    def test_constant_is_its_witness_ratio(self, lat, name, p):
        c_hat, witness = estimate_sharp_constant(name, p, lat, budget=20, seed=0,
                                                 num_starts=6)
        assert inequality_ratio(witness, name, p).value == c_hat

    def test_monotone_in_budget(self, lat):
        lo, _ = estimate_sharp_constant("gn_interp", 5.0, lat, budget=10, seed=1,
                                        num_starts=6)
        hi, _ = estimate_sharp_constant("gn_interp", 5.0, lat, budget=40, seed=1,
                                        num_starts=6)
        assert hi >= lo - 1e-12

    def test_witness_vanishes_on_boundary(self, lat):
        _, witness = estimate_sharp_constant("gn_interp", 5.0, lat, budget=20, seed=1,
                                             num_starts=6)
        vv = witness.vertex_values()
        assert np.abs(vv[lat.boundary_vertices()]).max() == 0.0

    def test_graph_of_a_lattice_is_ascended_as_the_lattice(self):
        lat = build_honeycomb(4, 1.0)
        c_hat, witness = estimate_sharp_constant("gn_interp", 5.0, lat.graph, budget=20,
                                                 seed=1, num_starts=6)
        assert witness.graph is lat
        assert np.abs(witness.vertex_values()[lat.degrees() < 3]).max() == 0.0
        same, twin = estimate_sharp_constant("gn_interp", 5.0, lat, budget=20, seed=1,
                                             num_starts=6)
        assert c_hat == same and np.array_equal(witness.dofs, twin.dofs)

    def test_deterministic_given_seed(self, lat):
        a, wa = estimate_sharp_constant("gn1d", 4.0, lat, budget=15, seed=5, num_starts=6)
        b, wb = estimate_sharp_constant("gn1d", 4.0, lat, budget=15, seed=5, num_starts=6)
        assert a == b
        assert np.array_equal(wa.values, wb.values)

    def test_square_grid_witness_vanishes_on_its_rim(self):
        g = build_square_grid(3, 1.0)
        c_hat, witness = estimate_sharp_constant("gn1d", 4.0, g, budget=20, seed=0,
                                                 num_starts=5)
        rim = g.degrees() < 4
        assert rim.sum() == 24
        assert np.abs(witness.vertex_values()[rim]).max() == 0.0
        assert inequality_ratio(witness, "gn1d", 4.0).value == c_hat

    def test_works_on_bare_graph(self):
        g = build_star(3, 5.0)
        c_hat, witness = estimate_sharp_constant("gn1d", 4.0, g, budget=20, seed=2,
                                                 num_starts=6)
        assert 0 < c_hat <= 1.01
        assert witness.graph is g

    @pytest.mark.parametrize("graph", [build_line(5.0), build_square_grid(3, 1.0)],
                             ids=["line", "square-grid"])
    def test_bare_graph_starts_centered_at_origin(self, graph):
        # The centered bump (every third start) peaks at the vertex at (0, 0),
        # not at vertex 0: the line's leaf or the grid's corner, both on the
        # truncation boundary that the ascent zeroes.
        dz = make_discretization(graph, 9)
        bump = _ascent_starts(graph, dz, 3, seed=0)[2]
        peak = graph.xy[int(np.argmax(bump[:graph.num_vertices]))]
        assert peak.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("name,p", [("gn_interp", 5.0), ("gn1d", 4.5)])
    def test_one_stiffness_product_per_candidate(self, monkeypatch, lat, name, p):
        dz = make_discretization(lat, 9)
        counting = _CountingK(dz.stiffness)
        monkeypatch.setitem(vars(dz), "stiffness", counting)
        evaluated, in_grad = [], []
        evaluate, grad = _RatioObjective.evaluate, _RatioObjective.grad

        def counting_evaluate(self, v):
            evaluated.append(1)
            return evaluate(self, v)

        def counting_grad(self, v, terms):
            before = counting.products
            out = grad(self, v, terms)
            in_grad.append(counting.products - before)
            return out

        monkeypatch.setattr(_RatioObjective, "evaluate", counting_evaluate)
        monkeypatch.setattr(_RatioObjective, "grad", counting_grad)
        estimate_sharp_constant(name, p, lat, budget=20, seed=0, num_starts=6)
        # Every start and every trial candidate is evaluated once.
        assert counting.products == len(evaluated) > len(in_grad) > 6
        assert not any(in_grad)

    def test_invalid_budget(self, lat):
        with pytest.raises(ValueError):
            estimate_sharp_constant("gn1d", 4.0, lat, budget=0, seed=0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_power_refused(self, lat, p):
        with pytest.raises(ValueError, match="finite"):
            estimate_sharp_constant("gn_interp", p, lat, budget=5, seed=0)

    def test_no_starts_refused(self, lat):
        with pytest.raises(ValueError, match="num_starts"):
            estimate_sharp_constant("gn1d", 4.0, lat, budget=5, seed=0, num_starts=0)

    def test_no_start_with_mass_refused(self):
        # One edge sampled only at its ends: both DOFs are leaves, so the
        # zero boundary leaves every start without mass.
        b = GraphBuilder()
        b.add_edge(b.add_vertex(0.0), b.add_vertex(1.0), 1.0)
        with pytest.raises(ValueError, match="every ascent start vanishes"):
            estimate_sharp_constant("gn1d", 4.0, b.build(), budget=5, seed=0,
                                    samples_per_edge=2, num_starts=3)
