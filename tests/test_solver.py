"""Mass-constrained minimization: descent invariants, classification, probes."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

import hexnls.solver
from hexnls.analytic import soliton_params, soliton_profile
from hexnls.calculus import (GraphFunction, constant_function, from_edge_samples,
                             integrate_power, rescale_mass)
from hexnls.functionals import truncation_boundary
from hexnls.solver import (INITIALIZERS, BracketError, ResolutionError, SolverConfig,
                           _beats, _descend, _Descent, bisect_critical_mass,
                           demonstrate_unbounded, euler_lagrange_residual,
                           initial_function, make_discretization, minimize, soliton_bump,
                           squeezed_profile)
from hexnls.graph_core import build_line
from hexnls.honeycomb import build_honeycomb, path_coordinate


@pytest.fixture(scope="module")
def lat():
    return build_honeycomb(4, 1.0)


@pytest.fixture(scope="module")
def line_outcome():
    return minimize(build_line(30.0), 4.0, 2.0, init="soliton-bump")


class TestConfigAndInputs:
    def test_invalid_config(self):
        # max_iters = 0 would return the start's label unsolved.
        for bad in ({"max_iters": 0}, {"samples_per_edge": 1}):
            with pytest.raises(ValueError):
                SolverConfig(**bad)
        # The step and the tolerances are constants, not settings.
        for fixed in ("step", "energy_tol", "residual_tol", "spread_threshold",
                      "divergence_floor"):
            with pytest.raises(TypeError):
                SolverConfig(**{fixed: getattr(SolverConfig, fixed)})

    def test_settings_and_constants(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == \
            ["samples_per_edge", "max_iters"]
        cfg = SolverConfig(samples_per_edge=17)
        assert (cfg.step, cfg.energy_tol, cfg.residual_tol, cfg.spread_threshold,
                cfg.divergence_floor) == (1.0, 1e-8, 1e-6, 0.05, -1e12)

    def test_invalid_problem_parameters(self, lat):
        with pytest.raises(ValueError):
            minimize(lat, 2.0, 1.0)
        with pytest.raises(ValueError):
            minimize(lat, 7.0, 1.0)
        with pytest.raises(ValueError):
            minimize(lat, 3.0, -1.0)
        with pytest.raises(ValueError):
            minimize(lat, 3.0, 1.0, init="nosuch")

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_mass_refused(self, lat, mu):
        with pytest.raises(ValueError, match="finite"):
            minimize(lat, 3.0, mu)
        with pytest.raises(ValueError, match="finite"):
            demonstrate_unbounded(lat, mu, [1.0, 0.5])

    @pytest.mark.parametrize("tag", INITIALIZERS)
    def test_initializers_have_exact_mass(self, lat, tag):
        u = initial_function(lat, tag, 3.0, 2.5, 9)
        assert integrate_power(u, 2) == pytest.approx(2.5, rel=1e-10)
        assert np.array_equal(from_edge_samples(u.graph, u.values).dofs, u.dofs)


class TestDescentInvariants:
    def test_energy_monotone_and_converged(self, lat):
        out = minimize(lat, 3.0, 10.0, init="trial-eps")
        energies = [row["energy"] for row in out.trace]
        assert len(energies) > 1
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12 * np.maximum(np.abs(energies[:-1]), 1.0))
        assert out.classification == "GroundState"
        assert out.final_energy < 0
        assert out.residual <= 1e-6

    def test_mass_conserved_by_minimizer(self, lat):
        out = minimize(lat, 3.0, 2.0, init="soliton-bump")
        assert out.minimizer is not None
        assert integrate_power(out.minimizer, 2) == pytest.approx(2.0, rel=1e-10)

    def test_deterministic(self, lat):
        o1 = minimize(lat, 3.0, 1.0, init="soliton-bump")
        o2 = minimize(lat, 3.0, 1.0, init="soliton-bump")
        assert o1.final_energy == o2.final_energy
        assert o1.iterations == o2.iterations

    def test_multi_start_not_worse_than_each_single(self, lat):
        multi = minimize(lat, 3.0, 1.0, init="multi")
        singles = [minimize(lat, 3.0, 1.0, init=tag).final_energy
                   for tag in INITIALIZERS]
        assert multi.final_energy <= min(singles) + 1e-9 * max(abs(min(singles)), 1.0)
        assert multi.init_used in INITIALIZERS

    def test_custom_initial_function(self, lat):
        u0 = initial_function(lat, "trial-eps", 3.0, 10.0, 9)
        out = minimize(lat, 3.0, 10.0, init=u0)
        assert out.init_used == "custom"
        assert out.classification == "GroundState"


def _minimize_logging_steps(R, p, mu, init):
    """minimize with a log of its descent: ("polish",) per Newton polish and,
    per line search, ("step", direction == z, r.direction, accepted, any
    trial rejected, lam, preconditioner rebuilt, sigma), where
    z = precondition(r) and lam is the multiplier shift_to saw before the
    step.  Returns (outcome, log)."""
    log, last = [], {}
    inverse, shift, search, polish = (hexnls.solver._condensed_inverse, _Descent.shift_to,
                                      _Descent.line_search, _Descent.newton_polish)

    def logging_inverse(dz, sigma):
        solve = inverse(dz, sigma)

        def logged(r):
            last["r"], last["z"] = r, solve(r)
            return last["z"]
        return logged

    def logging_shift(self, lam):
        last["lam"], last["rebuilt"] = lam, shift(self, lam)
        return last["rebuilt"]

    def logging_search(self, pt, direction, tau):
        new, tau, rejected = search(self, pt, direction, tau)
        log.append(("step", np.array_equal(direction, last["z"]),
                    float(last["r"] @ direction), new is not None, rejected,
                    last["lam"], last["rebuilt"], self.sigma))
        return new, tau, rejected

    def logging_polish(self, *args, **kwargs):
        log.append(("polish",))
        return polish(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hexnls.solver, "_condensed_inverse", logging_inverse)
        mp.setattr(_Descent, "shift_to", logging_shift)
        mp.setattr(_Descent, "line_search", logging_search)
        mp.setattr(_Descent, "newton_polish", logging_polish)
        out = minimize(build_honeycomb(R, 1.0), p, mu, init=init)
    return out, log


def _polishes(log):
    return sum(entry[0] == "polish" for entry in log)


@pytest.fixture(scope="module")
def polished():
    """A start that sits near E = -0.0562 for hundreds of steps and leaves
    only through repeated Newton polish and descent between polishes;
    returns (outcome, log)."""
    return _minimize_logging_steps(8, 3.0, 2.0, "soliton-bump")


class TestDescentLoop:
    def test_every_iteration_traced_across_polishes(self, polished):
        out, log = polished
        assert _polishes(log) >= 2
        assert [r["iteration"] for r in out.trace] == list(range(1, out.iterations + 1))

    def test_newton_fallback_converges(self, polished):
        # Stretches after a polish start with |E| << mu, where a 25-step stall
        # exit scaled by max(|E|, mu) would end them while E still falls: this
        # start would stop Inconclusive at E = -0.0562 after 8 polishes.
        out, _ = polished
        assert out.classification == "GroundState"
        assert out.residual <= SolverConfig().residual_tol
        assert out.final_energy == pytest.approx(-0.15102897916442432, rel=1e-9)

    def test_stretches_after_polish_reach_tolerance(self):
        # Under a stall exit after each polish this start stops at residual
        # 6.7e-6, Inconclusive at E = -0.1074.
        out, log = _minimize_logging_steps(7, 2.5, 1.0, "soliton-bump")
        assert _polishes(log) >= 2
        assert out.residual <= SolverConfig().residual_tol
        assert out.final_energy == pytest.approx(-0.15018236306091887, rel=1e-9)

    def test_residual_describes_returned_iterate_at_max_iters(self, lat):
        cfg = SolverConfig(max_iters=5)
        d = _Descent(make_discretization(lat, 9), 3.0, 10.0, cfg)
        v0 = d.dz.to_dofs(initial_function(lat, "trial-eps", 3.0, 10.0, 9))
        v, E, lam, res, it = _descend(d, v0)
        assert it == cfg.max_iters and res > cfg.residual_tol
        assert (lam, res) == d.multiplier_residual(v)
        out = minimize(lat, 3.0, 10.0, cfg, init="trial-eps")
        assert (out.lagrange_multiplier, out.residual) == (lam, res)


def _two_pass_path_profile(lat, f, n, mu):
    """The L_0 builder as first written (profile per path edge, then a linear
    fill of the other edges): the bit-level reference for both builders."""
    bare = lat.graph
    t = np.linspace(0.0, 1.0, n)
    vals = np.zeros((bare.num_edges, n))
    vertex_val = np.zeros(bare.num_vertices)
    for eid, (kind, i, _) in enumerate(lat.edge_roles):
        if kind != "down" and i == 0:
            vals[eid] = f(lat.edge_length * (path_coordinate(lat, eid, 0.0)[1] + t))
            e = bare.edges[eid]
            vertex_val[e.tail], vertex_val[e.head] = vals[eid, 0], vals[eid, -1]
    for eid, (kind, i, _) in enumerate(lat.edge_roles):
        if kind == "down" or i != 0:
            e = bare.edges[eid]
            vals[eid] = (1 - t) * vertex_val[e.tail] + t * vertex_val[e.head]
    return rescale_mass(from_edge_samples(bare, vals), mu).values


class TestPathProfiles:
    @pytest.mark.parametrize("n", [9, 17, 33])
    @pytest.mark.parametrize("R", [3, 10])
    def test_bit_identical_to_two_pass_builder(self, R, n):
        lat = build_honeycomb(R, 1.0)
        for p in (3.0, 6.0):
            params = soliton_params(min(p, 5.9), 1.5)
            ref = _two_pass_path_profile(lat, lambda x: soliton_profile(params, x), n, 1.5)
            assert np.array_equal(soliton_bump(lat, p, 1.5, n).values, ref)
        ref = _two_pass_path_profile(lat, lambda x: 1.0 / np.cosh(x / 0.5), n, 2.0)
        assert np.array_equal(squeezed_profile(lat, 2.0, 0.5, n).values, ref)


class TestCondensedPreconditioner:
    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    @pytest.mark.parametrize("graph", [build_honeycomb(3, 1.0), build_line(2.5)],
                             ids=["honeycomb", "unequal-line"])
    def test_matches_direct_solve(self, monkeypatch, graph, n):
        factored = []

        def spy(A):
            factored.append(A.shape)
            return hexnls.solver.splu(A).solve

        monkeypatch.setattr(hexnls.solver, "factorized", spy)
        dz = make_discretization(graph, n)
        V = dz.num_vertices
        for sigma in (1.0, 2.0, 2.0 ** 14):
            factored.clear()
            d = _Descent(dz, 3.0, 1.0, SolverConfig())
            # A power-of-two -lam >= 1 is its own shift.
            assert d.shift_to(-sigma) and d.sigma == sigma
            A = (sp.diags(sigma * dz.mass_vec) + dz.stiffness).tocsc()
            rng = np.random.default_rng(n)
            for r in (rng.standard_normal(dz.n_dofs),
                      dz.mass_vec * rng.uniform(0, 1, dz.n_dofs)):
                assert not d.shift_to(-sigma)
                x = d.precondition(r)
                ref = spsolve(A, r)
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            assert factored == [(V, V)]


class TestShiftedPreconditioner:
    def test_small_multiplier_keeps_unit_shift(self):
        # -lam rises to 1.63, past sqrt(2), where the nearest power of two is
        # 2; the band [1/2, 2] keeps the first factor, so the run applies
        # (M + K)^{-1} throughout.
        out, log = _minimize_logging_steps(3, 4.0, 2.5, "soliton-bump")
        steps = [entry for entry in log if entry[0] == "step"]
        assert out.classification == "GroundState"
        assert max(-entry[5] for entry in steps) > np.sqrt(2.0)
        assert [entry[6] for entry in steps] == [True] + [False] * (len(steps) - 1)
        assert all(entry[7] == 1.0 for entry in steps)

    def test_large_mass_rebuilds_on_band_exits(self):
        # -lam grows from 2.6 to 12,188; with the unit shift this start
        # takes 198 iterations.
        out, log = _minimize_logging_steps(7, 5.0, 100.0, "trial-eps")
        assert out.classification == "GroundState"
        assert out.residual <= SolverConfig().residual_tol
        assert out.iterations <= 60
        sigma, sigmas = None, []
        for entry in (entry for entry in log if entry[0] == "step"):
            restarted, lam, rebuilt, new_sigma = entry[1], entry[5], entry[6], entry[7]
            target = max(1.0, -lam)
            assert rebuilt == (sigma is None or not sigma / 2 <= target <= 2 * sigma)
            if rebuilt:
                # The power of two nearest the target, and a restart at z.
                assert new_sigma == 2.0 ** round(np.log2(target)) and restarted
                sigmas.append(new_sigma)
            assert new_sigma == sigmas[-1]
            sigma = new_sigma
        assert len(sigmas) >= 3 and sigmas[-1] >= 2.0 ** 13


class TestCondensedNewton:
    @pytest.mark.parametrize("p", [2.5, 5.0])
    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    @pytest.mark.parametrize("graph", [build_honeycomb(3, 1.0), build_line(2.5)],
                             ids=["honeycomb", "unequal-line"])
    def test_matches_direct_solve(self, monkeypatch, graph, n, p):
        factored = []

        def spy(A, *args, **kwargs):
            factored.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(hexnls.solver, "splu", spy)
        dz = make_discretization(graph, n)
        rng = np.random.default_rng(n)
        v = 3.0 * rng.standard_normal(dz.n_dofs)
        v[::7] = 0.0          # zeros of v: p = 2.5 needs the floor there
        d = _Descent(dz, p, dz.mass(v), SolverConfig())
        r, lam, _ = d.tangent_gradient(d.evaluate(v))
        delta = d.newton_direction(v, lam, r)
        # Reference: the full bordered system, regularized with the same floor.
        floor = 1e-8 * np.abs(v).max()
        c = (p - 1.0) * dz.mass_vec * (v * v + floor * floor) ** (p / 2.0 - 1.0) \
            + lam * dz.mass_vec
        mv = dz.mass_vec * v
        A = sp.bmat([[dz.stiffness - sp.diags(c), sp.csc_matrix(mv[:, None])],
                     [sp.csc_matrix(mv[None, :]), sp.csc_matrix((1, 1))]], format="csc")
        ref = spsolve(A, np.append(r, 0.0))[:-1]
        assert np.linalg.norm(delta - ref) <= 1e-10 * np.linalg.norm(ref)
        V = dz.num_vertices
        assert factored == [(V + 1, V + 1)]

    def test_zero_chain_pivot_raises(self):
        # n = 3: each chain is the single sample with diagonal 2/h - c.
        dz = make_discretization(build_line(2.5), 3)
        v = np.ones(dz.n_dofs)
        d = _Descent(dz, 3.0, dz.mass(v), SolverConfig())
        r, _, _ = d.tangent_gradient(d.evaluate(v))
        V = dz.num_vertices
        # c = (p - 1) M |v| + lam M = 2/h on the first chain's sample.
        lam = 2.0 / (dz.h[0] * dz.mass_vec[V]) - 2.0
        with pytest.raises(RuntimeError, match="pivot"):
            d.newton_direction(v, lam, r)


class TestConjugateDirections:
    def test_iteration_count(self, polished):
        # Steepest descent stopped Inconclusive after 3,263 iterations here.
        out, _ = polished
        assert out.iterations <= 1000

    def test_restart_after_rejected_trial(self, polished):
        _, log = polished
        steps = [entry for entry in log if entry[0] == "step"]
        after_rejection = [b for a, b in zip(steps, steps[1:]) if a[4]]
        assert after_rejection and all(b[1] for b in after_rejection)
        # Clean steps are followed by conjugate directions, not only restarts.
        assert not all(b[1] for a, b in zip(steps, steps[1:]) if not a[4])

    def test_restart_after_polish_and_at_start(self, polished):
        _, log = polished
        # The first step, and the step after each polish that left the
        # residual above tolerance.
        first = [b for a, b in zip([("polish",)] + log, log) if a[0] == "polish"]
        assert len(first) >= 2 and all(b[0] == "step" and b[1] for b in first)

    def test_every_accepted_direction_descends(self, polished):
        _, log = polished
        accepted = [entry[2] for entry in log if entry[0] == "step" and entry[3]]
        assert accepted and all(rd > 0 for rd in accepted)


class _CountingK:
    """Stand-in for the stiffness matrix that counts products with it."""

    def __init__(self, K):
        self.K, self.products = K, 0

    def __matmul__(self, x):
        self.products += 1
        return self.K @ x


class TestWorkPerIteration:
    def test_one_stiffness_product_per_candidate(self, monkeypatch):
        lat = build_honeycomb(3, 1.0)
        d = _Descent(make_discretization(lat, 9), 3.0, 0.1, SolverConfig())
        d.K = counting = _CountingK(d.K)
        evaluated, polishes, in_gradient, points = [], [], [], []
        evaluate, gradient, polish = (_Descent.evaluate, _Descent.tangent_gradient,
                                      _Descent.newton_polish)

        def counting_evaluate(self, v):
            evaluated.append(1)
            return evaluate(self, v)

        def counting_gradient(self, pt):
            before = counting.products
            out = gradient(self, pt)
            in_gradient.append(counting.products - before)
            points.append(pt)
            return out

        def counting_polish(self, *args, **kwargs):
            polishes.append(1)
            return polish(self, *args, **kwargs)

        monkeypatch.setattr(_Descent, "evaluate", counting_evaluate)
        monkeypatch.setattr(_Descent, "tangent_gradient", counting_gradient)
        monkeypatch.setattr(_Descent, "newton_polish", counting_polish)
        v0 = initial_function(lat, "soliton-bump", 3.0, 0.1, 9).dofs
        v, E, lam, res, it = _descend(d, v0)
        assert polishes             # the Newton line search is counted too
        assert counting.products == len(evaluated) > it
        assert len(in_gradient) > it and not any(in_gradient)
        # The last gradient is the returned iterate's, with the K v it carried.
        last = points[-1]
        assert last.v is v and last.E == E
        assert np.array_equal(last.Kv, d.K.K @ v)
        assert res <= SolverConfig().residual_tol


class TestMultiStartRanking:
    def test_lower_energy_wins(self):
        assert _beats(-2.0, 1e-3, -1.0, 1e-9, 1.0, 1e-6)
        assert not _beats(-1.0, 1e-12, -2.0, 1e-3, 1.0, 1e-6)

    def test_converged_tie_keeps_earlier_start(self):
        assert not _beats(-1.0 - 1e-12, 1e-9, -1.0, 5e-7, 1.0, 1e-6)

    def test_unconverged_tie_ranked_by_residual(self):
        assert _beats(-1.0, 1e-7, -1.0 - 1e-12, 1e-5, 1.0, 1e-6)
        assert _beats(-1.0, 2e-5, -1.0, 3e-5, 1.0, 1e-6)
        assert not _beats(-1.0, 2e-5, -1.0, 1e-5, 1.0, 1e-6)
        assert not _beats(-1.0, 2e-5, -1.0, 1e-7, 1.0, 1e-6)


class TestEulerLagrangeResidual:
    def test_does_not_factorize(self, monkeypatch, lat):
        def refuse(A):
            raise AssertionError("residual evaluation factorized a matrix")

        monkeypatch.setattr(hexnls.solver, "factorized", refuse)
        u = initial_function(lat, "trial-eps", 3.0, 1.0, 9)
        lam, res = euler_lagrange_residual(u, 3.0)
        assert np.isfinite(lam) and res > 0

    def test_converged_minimizer_stationary(self, line_outcome):
        lam, res = euler_lagrange_residual(line_outcome.minimizer, 4.0)
        assert res < 1e-6
        assert lam == pytest.approx(line_outcome.lagrange_multiplier, rel=1e-12)

    def test_random_function_nonstationary(self, lat):
        rng = np.random.default_rng(3)
        g = lat.graph
        u = GraphFunction(g, rng.uniform(0.1, 1.0, g.num_vertices + 7 * g.num_edges))
        _, res = euler_lagrange_residual(u, 3.0)
        assert res > 0.1

    def test_zero_mass_rejected(self, lat):
        u = constant_function(lat.graph, 0.0, 9)
        with pytest.raises(ValueError):
            euler_lagrange_residual(u, 3.0)


class TestLineSolitonOracle:
    def test_ground_state_matches_sech_profile(self, line_outcome):
        out = line_outcome
        assert out.classification == "GroundState"
        assert out.final_energy < 0
        u = out.minimizer
        params = soliton_params(4.0, 2.0)
        t = np.linspace(0.0, 1.0, u.samples_per_edge)
        ref = np.empty_like(u.values)
        for e in u.graph.edges:
            x0, x1 = u.graph.vertices[e.tail].x, u.graph.vertices[e.head].x
            ref[e.id] = soliton_profile(params, x0 + (x1 - x0) * t)
        diff = from_edge_samples(u.graph, np.abs(u.values) - ref)
        rel_l2 = np.sqrt(integrate_power(diff, 2) / 2.0)
        assert rel_l2 < 1e-2
        # The soliton's frequency: omega = (2 c mu^beta / (p - 2))^2.
        omega = (2.0 * params.c_width * params.mu ** params.beta / (params.p - 2.0)) ** 2
        assert out.lagrange_multiplier == pytest.approx(-omega, rel=1e-3)


class TestClassification:
    def test_subcritical_ground_state(self, lat):
        # mu large enough that the localized state beats the near-flat one on
        # this small truncation.
        out = minimize(lat, 3.0, 10.0)
        assert out.classification == "GroundState"
        assert out.minimizer is not None

    def test_supercritical_small_mass_spreads(self, lat):
        out = minimize(lat, 5.0, 0.01)
        assert out.classification == "SpreadToZero"
        assert out.minimizer is None
        assert out.final_energy >= -1e-6

    def test_uniform_start_is_discrete_critical_point(self, lat):
        out = minimize(lat, 3.5, 0.01, init="uniform")
        assert out.classification == "SpreadToZero"
        assert out.residual < 1e-10

    @pytest.mark.parametrize("mu", [0.1, 10.0])
    def test_p6_never_ground_state(self, lat, mu):
        out = minimize(lat, 6.0, mu)
        assert out.classification != "GroundState"


@pytest.fixture(scope="module")
def bracket(lat):
    return bisect_critical_mass(lat, 5.0, 1e-3, 100.0, tol=0.10)


class TestBisectCriticalMass:
    def test_bracket_properties(self, lat, bracket):
        mu_star, (lo, hi) = bracket
        assert 1e-3 < lo < mu_star < hi < 100.0
        assert (hi - lo) <= 0.10 * 0.5 * (hi + lo) + 1e-12
        assert minimize(lat, 5.0, lo).classification == "SpreadToZero"
        assert minimize(lat, 5.0, hi).classification == "GroundState"

    def test_invalid_bracket_raises(self, lat):
        with pytest.raises(BracketError):
            bisect_critical_mass(lat, 5.0, 50.0, 100.0, tol=0.2)

    def test_invalid_power(self, lat):
        with pytest.raises(ValueError):
            bisect_critical_mass(lat, 3.0, 0.01, 10.0)

    @pytest.mark.parametrize("mu_lo, mu_hi, tol", [
        (1e-3, 100.0, 0.0), (1e-3, 100.0, -0.1), (1e-3, 100.0, float("nan")),
        (0.0, 100.0, 0.05), (100.0, 1e-3, 0.05), (5.0, 5.0, 0.05)])
    def test_invalid_bracket_or_width_refused_before_solving(self, lat, monkeypatch,
                                                             mu_lo, mu_hi, tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("minimize called")

        monkeypatch.setattr(hexnls.solver, "minimize", no_solve)
        with pytest.raises(ValueError):
            bisect_critical_mass(lat, 5.0, mu_lo, mu_hi, tol=tol)


class TestCriticalPowerProbes:
    def test_large_mass_unbounded_below(self, lat):
        energies = demonstrate_unbounded(lat, 10.0, [1.0, 0.5, 0.25, 0.125])
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert energies[-1] < -10.0

    def test_small_mass_bounded(self, lat):
        energies = demonstrate_unbounded(lat, 0.01, [1.0, 0.5, 0.25, 0.125])
        assert all(e >= -1e-6 for e in energies)

    def test_sample_refinement_gate(self, lat):
        w = 0.5
        e1 = demonstrate_unbounded(lat, 10.0, [w], samples_per_edge=33)[0]
        e2 = demonstrate_unbounded(lat, 10.0, [w], samples_per_edge=65)[0]
        assert abs(e2 - e1) < 1e-3 * abs(e1)

    def test_under_resolved_width_refused(self, lat):
        with pytest.raises(ResolutionError):
            squeezed_profile(lat, 1.0, 0.05, samples_per_edge=9)

    def test_invalid_width_sequences(self, lat):
        with pytest.raises(ValueError):
            demonstrate_unbounded(lat, 1.0, [0.5, 1.0])
        with pytest.raises(ValueError):
            demonstrate_unbounded(lat, 1.0, [1.0, -0.5])

    def test_squeezed_profile_mass(self, lat):
        u = squeezed_profile(lat, 3.0, 0.5)
        assert integrate_power(u, 2) == pytest.approx(3.0, rel=1e-10)


class TestArtifacts:
    def test_discretization_helper_uses_free_boundary(self, lat):
        assert sorted(truncation_boundary(lat)) == sorted(lat.boundary_vertices())
        assert truncation_boundary(build_line(2)) == [0, 4]
