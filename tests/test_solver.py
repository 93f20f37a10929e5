"""Mass-constrained minimization: descent invariants, classification, probes."""

import gc
import math
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.linalg import splu, spsolve

import hexnls.solver
from hexnls.analytic import build_trial_function, soliton_params, soliton_profile
from hexnls.calculus import (Discretization, GraphFunction, constant_function,
                             from_edge_samples, integrate_power, rescale_mass)
from hexnls.solver import (_PRECONDITIONERS, INITIALIZERS, BracketError, ResolutionError,
                           SolverConfig, _beats, _descend, _Descent, bisect_critical_mass,
                           demonstrate_unbounded, euler_lagrange_residual,
                           initial_function, make_discretization, minimize,
                           squeezed_profile)
from hexnls.graph_core import build_line
from hexnls.honeycomb import bridge_line_index, build_honeycomb, path_coordinate


@pytest.fixture(scope="module")
def lat():
    return build_honeycomb(4, 1.0)


@pytest.fixture(scope="module")
def line_outcome():
    return minimize(build_line(30.0), 4.0, 2.0, init="soliton-bump")


class TestConfigAndInputs:
    def test_invalid_config(self, lat, monkeypatch):
        # Too coarse a sampling is refused before any solve starts.
        def refuse(*args):
            raise AssertionError("a descent started")

        monkeypatch.setattr(hexnls.solver, "_descend", refuse)
        with pytest.raises(ValueError, match="at least 2 samples per edge"):
            minimize(lat, 3.0, 1.0, samples_per_edge=1)
        # The step and the tolerances are constants, not settings.
        for fixed in ("step", "energy_tol", "residual_tol", "spread_threshold",
                      "divergence_floor", "shift_floor"):
            with pytest.raises(TypeError):
                SolverConfig(**{fixed: getattr(SolverConfig, fixed)})
        # The sampling is passed by name, so a leftover config object is refused.
        with pytest.raises(TypeError):
            minimize(lat, 3.0, 1.0, SolverConfig())

    def test_settings_and_constants(self):
        cfg = SolverConfig()
        for name in ("samples_per_edge", "max_iters", "residual_tol"):
            with pytest.raises(AttributeError):
                setattr(cfg, name, 1)
        assert not hasattr(cfg, "__dict__")
        assert (cfg.step, cfg.energy_tol, cfg.residual_tol, cfg.spread_threshold,
                cfg.divergence_floor, cfg.shift_floor) == (1.0, 1e-8, 1e-6, 0.05, -1e12,
                                                           2.0 ** -10)
        assert hexnls.solver.MAX_ITERS == 4000

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

    @pytest.mark.parametrize("p,mu", [(2.0, 1.0), (1.5, 1.0), (7.0, 1.0), (float("nan"), 1.0),
                                      (3.0, -1.0), (3.0, 0.0), (3.0, float("nan")),
                                      (3.0, float("inf"))])
    @pytest.mark.parametrize("tag", INITIALIZERS)
    def test_initializers_refuse_what_minimize_refuses(self, lat, tag, p, mu):
        for call in (lambda: initial_function(lat, tag, p, mu, 9),
                     lambda: minimize(lat, p, mu, init=tag)):
            with pytest.raises(ValueError, match=r"\(2, 6\]|positive and finite"):
                call()

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
    """minimize with a log of its descent: ("polish", accepted Newton steps,
    residual returned) per Newton polish and, per line search, ("step",
    direction == z, r.direction, accepted, any trial rejected, lam,
    preconditioner rebuilt, sigma, E lowered), where z = precondition(r) and
    lam is the multiplier shift_to saw before the step.  Returns (outcome,
    log)."""
    log, last = [], {}
    shift, search, polish = _Descent.shift_to, _Descent.line_search, _Descent.newton_polish

    def logging_shift(self, lam):
        last["lam"], last["rebuilt"] = lam, shift(self, lam)
        if last["rebuilt"]:
            solve = self.precondition

            def logged(r):
                last["r"], last["z"] = r, solve(r)
                return last["z"]
            self.precondition = logged
        return last["rebuilt"]

    def logging_search(self, pt, direction, tau):
        new, tau, rejected = search(self, pt, direction, tau)
        log.append(("step", np.array_equal(direction, last["z"]),
                    float(last["r"] @ direction), new is not None, rejected,
                    last["lam"], last["rebuilt"], self.sigma,
                    new is not None and new.E < pt.E))
        return new, tau, rejected

    def logging_polish(self, *args, **kwargs):
        pt, res, done = polish(self, *args, **kwargs)
        log.append(("polish", done, res))
        return pt, res, done

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Descent, "shift_to", logging_shift)
        mp.setattr(_Descent, "line_search", logging_search)
        mp.setattr(_Descent, "newton_polish", logging_polish)
        out = minimize(build_honeycomb(R, 1.0), p, mu, init=init)
    return out, log


def _polishes(log):
    return sum(entry[0] == "polish" for entry in log)


@pytest.fixture(scope="module")
def polished():
    """A start whose first stretch of descent ends after 60 steps at
    E = -0.01401, residual 3.3e-4.  The Newton polish there accepts no step;
    descent restarts with a fresh step and takes 397 more to E = -0.03866.
    Returns (outcome, log)."""
    return _minimize_logging_steps(12, 3.0, 1.0, "trial-eps")


class TestDescentLoop:
    def test_every_iteration_traced_across_polishes(self, polished):
        out, log = polished
        assert _polishes(log) >= 1
        assert [r["iteration"] for r in out.trace] == list(range(1, out.iterations + 1))

    def test_descent_restart_after_stepless_polish_converges(self, polished):
        # The polish accepts no Newton step; stopping after it would leave
        # this start Inconclusive at E = -0.01401, residual 3.3e-4.
        out, log = polished
        assert [entry[1] for entry in log if entry[0] == "polish"] == [0]
        assert out.classification == "GroundState"
        assert out.residual <= SolverConfig().residual_tol
        assert out.final_energy == pytest.approx(-0.03865829083534402, rel=1e-9)

    def test_stretches_after_polish_reach_tolerance(self, polished):
        # The stretch after the polish ends on its own, at residual_tol, after
        # hundreds of steps that each lower E: no step count cuts it short.
        out, log = polished
        after = log[[entry[0] for entry in log].index("polish") + 1:]
        assert len(after) >= 300 and all(entry[0] == "step" for entry in after)
        assert all(entry[8] for entry in after)
        assert out.residual <= SolverConfig().residual_tol

    def test_stretch_ends_at_first_step_not_lowering_energy(self):
        # E reaches its rounding floor at step 13; a rule that waits for more
        # steps there before polishing takes 34 iterations.
        out, log = _minimize_logging_steps(4, 5.0, 20.0, "soliton-bump")
        assert out.classification == "GroundState" and out.iterations <= 20
        assert out.final_energy == pytest.approx(-3201.088375932758, rel=1e-9)
        first = log[:[entry[0] for entry in log].index("polish")]
        assert [entry[8] for entry in first] == [True] * (len(first) - 1) + [False]
        energies = [row["energy"] for row in out.trace[:len(first)]]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_newton_polish_accepts_steps_to_tolerance(self):
        # The polish after the first stretch takes the residual from the
        # descent's rounding floor to residual_tol by Newton steps alone.
        _, log = _minimize_logging_steps(4, 5.0, 20.0, "soliton-bump")
        polishes = [entry for entry in log if entry[0] == "polish"]
        assert polishes[0][1] >= 1
        assert polishes[0][2] <= SolverConfig().residual_tol

    def test_residual_describes_returned_iterate_at_max_iters(self, lat, monkeypatch):
        monkeypatch.setattr(hexnls.solver, "MAX_ITERS", 5)
        d = _Descent(make_discretization(lat, 9), 3.0, 10.0)
        v0 = d.dz.to_dofs(initial_function(lat, "trial-eps", 3.0, 10.0, 9))
        v, E, lam, res, it = _descend(d, v0)
        assert it == 5 and res > SolverConfig.residual_tol
        assert (lam, res) == d.tangent_gradient(d.evaluate(v))[1:]
        out = minimize(lat, 3.0, 10.0, init="trial-eps")
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
            vertex_val[bare.tails[eid]], vertex_val[bare.heads[eid]] = vals[eid, 0], vals[eid, -1]
    for eid, (kind, i, _) in enumerate(lat.edge_roles):
        if kind == "down" or i != 0:
            vals[eid] = (1 - t) * vertex_val[bare.tails[eid]] + t * vertex_val[bare.heads[eid]]
    return rescale_mass(from_edge_samples(bare, vals), mu).values


class TestPathProfiles:
    @pytest.mark.parametrize("n", [9, 17, 33])
    @pytest.mark.parametrize("R", [3, 10])
    def test_bit_identical_to_two_pass_builder(self, R, n):
        lat = build_honeycomb(R, 1.0)
        for p in (3.0, 6.0):
            params = soliton_params(min(p, 5.9), 1.5)
            ref = _two_pass_path_profile(lat, lambda x: soliton_profile(params, x), n, 1.5)
            assert np.array_equal(initial_function(lat, "soliton-bump", p, 1.5, n).values, ref)
        ref = _two_pass_path_profile(lat, lambda x: 1.0 / np.cosh(x / 0.5), n, 2.0)
        assert np.array_equal(squeezed_profile(lat, 2.0, 0.5, n).values, ref)


def _per_edge_trial_function(lat, eps, n):
    """build_trial_function as first written, one edge at a time: the
    bit-level reference for the vectorized builder."""
    E = lat.graph.num_edges
    t = np.linspace(0.0, 1.0, n)
    offsets = np.empty(E)
    x0 = np.zeros(E)
    is_path = np.zeros(E, dtype=bool)
    for eid, (kind, a, _) in enumerate(lat.edge_roles):
        if kind == "down":
            offsets[eid] = abs(bridge_line_index(lat, eid)) + (a if a >= 0 else -a - 1)
        else:
            is_path[eid] = True
            x0[eid] = path_coordinate(lat, eid, 0.0)[1]
            offsets[eid] = abs(a)
    arg = np.empty((E, n))
    arg[is_path] = np.abs(x0[is_path, None] + t[None, :]) + offsets[is_path, None]
    arg[~is_path] = t[None, :] + offsets[~is_path, None]
    return from_edge_samples(lat.graph, np.exp(-eps * lat.edge_length * arg)).values


class TestTrialFunction:
    @pytest.mark.parametrize("R", [3, 7, 20])
    def test_bit_identical_to_per_edge_builder(self, R):
        lat = build_honeycomb(R, 1.0)
        for n in (2, 9, 33):
            for eps in (0.05, 0.3):
                assert np.array_equal(build_trial_function(lat, eps, n).values,
                                      _per_edge_trial_function(lat, eps, n))


class TestCondensedPreconditioner:
    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    @pytest.mark.parametrize("build", [lambda: build_honeycomb(3, 1.0), lambda: build_line(2.5)],
                             ids=["honeycomb", "unequal-line"])
    def test_matches_direct_solve(self, monkeypatch, build, n):
        factored = []

        def spy(A):
            factored.append(A.shape)
            return hexnls.solver.splu(A).solve

        monkeypatch.setattr(hexnls.solver, "factorized", spy)
        # A graph of its own: preconditioners on the spy's factors stay kept on it.
        dz = make_discretization(build(), n)
        V = dz.num_vertices
        for sigma in (1.0, 2.0, 2.0 ** 14):
            factored.clear()
            d = _Descent(dz, 3.0, 1.0)
            # A power-of-two -lam >= 1 is its own shift.
            assert d.shift_to(-sigma) and d.sigma == sigma
            A = (sp.diags(sigma * dz.mass_vec) + dz.stiffness).tocsc()
            rng = np.random.default_rng(n)
            rs = [rng.standard_normal(dz.n_dofs), dz.mass_vec * rng.uniform(0, 1, dz.n_dofs)]
            # Each right-hand side alone, then both as one 2-column block.
            for r in rs + [np.stack(rs, axis=-1)]:
                assert not d.shift_to(-sigma)
                x = d.precondition(r)
                assert x.shape == r.shape
                for x_col, r_col in zip(x.reshape(dz.n_dofs, -1).T, r.reshape(dz.n_dofs, -1).T):
                    ref = spsolve(A, r_col)
                    assert np.linalg.norm(x_col - ref) <= 1e-12 * np.linalg.norm(ref)
            assert factored == [(V, V)]


def _sparse_product_condensation(dz, s):
    """The condensation of K + diag(s) written out on its own: Thomas
    elimination of the chains, X assembled from COO, S = K_VV + diag(s_V) -
    A_VI @ X by sparse product and sum, and S factorized by splu in
    MMD_AT_PLUS_A order.  Returns S (CSC) and the solve function, the
    bit-level reference of the solver's S and of both its solves."""
    V, E, m = dz.num_vertices, dz.num_edges, dz.n - 2
    K = dz.stiffness
    off = -1.0 / dz.h
    piv = (K.diagonal() + s)[V:].reshape(E, m).T.copy()
    ratio = np.empty_like(piv)
    for i in range(1, m):
        ratio[i] = off / piv[i - 1]
        piv[i] -= ratio[i] * off

    def chain_solve(rhs):
        x = rhs.reshape(E, m, math.prod(rhs.shape[1:])).transpose(1, 0, 2).copy()
        for i in range(1, m):
            x[i] -= ratio[i, :, None] * x[i - 1]
        for i in reversed(range(m)):
            if i < m - 1:
                x[i] -= off[:, None] * x[i + 1]
            x[i] /= piv[i, :, None]
        return x.transpose(1, 0, 2).reshape(rhs.shape)

    sample = np.arange(m)
    y = chain_solve(np.stack([off[:, None] * (sample == 0), off[:, None] * (sample == m - 1)],
                             axis=-1).reshape(E * m, 2))
    X = sp.csr_matrix((y.ravel(),
                       (np.repeat(np.arange(E * m), 2),
                        np.broadcast_to(dz.dof_of[:, None, [0, -1]], (E, m, 2)).ravel())),
                      shape=(E * m, V))
    A_VI = K[:V, V:]
    S = (K[:V, :V] + sp.diags(s[:V]) - A_VI @ X).tocsc()
    solve_vertices = splu(S, permc_spec="MMD_AT_PLUS_A").solve

    def solve(r):
        y = chain_solve(r[V:])
        x = solve_vertices(r[:V] - A_VI @ y)
        return np.concatenate([x, y - X @ x])

    return S, solve


def _newton_point(dz, p):
    """A Newton linearization point (d, v, lam, r) and the shift -c that
    newton_direction factorizes there, regularized with the same floor."""
    rng = np.random.default_rng(dz.n)
    v = 3.0 * rng.standard_normal(dz.n_dofs)
    v[::7] = 0.0          # zeros of v: p = 2.5 needs the floor there
    d = _Descent(dz, p, dz.mass(v))
    r, lam, _ = d.tangent_gradient(d.evaluate(v))
    floor = 1e-8 * np.abs(v).max()
    c = (p - 1.0) * dz.mass_vec * (v * v + floor * floor) ** (p / 2.0 - 1.0) + lam * dz.mass_vec
    return d, v, lam, r, -c


def _kept_arrays(solve):
    """The arrays a solve function references, each by the array that owns
    its memory: through the closures of the functions it calls and the
    arrays of its sparse matrices (a SuperLU factor is not followed)."""
    owners, seen, todo = {}, set(), [solve]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, types.FunctionType):
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif sp.issparse(obj):
            todo += [obj.data, obj.indices, obj.indptr]
    return list(owners.values())


CONDENSED_GRAPHS = pytest.mark.parametrize("graph", [build_honeycomb(3, 1.0), build_line(2.5)],
                                       ids=["honeycomb", "unequal-line"])
SHIFTS = (2.0 ** -10, 1.0, 2.0 ** 14)


class TestCondensation:
    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    @CONDENSED_GRAPHS
    def test_schur_complement_equals_reference(self, graph, n):
        dz = make_discretization(graph, n)
        shifts = [sigma * dz.mass_vec for sigma in SHIFTS] + [_newton_point(dz, 2.5)[4]]
        for s in shifts:
            formed = []
            hexnls.solver._condensed_solver(dz, s, lambda S: formed.append(S))
            ref, _ = _sparse_product_condensation(dz, s)
            assert formed[0].format == "csc"
            assert np.array_equal(formed[0].indptr, ref.indptr)
            assert np.array_equal(formed[0].indices, ref.indices)
            assert np.array_equal(formed[0].data, ref.data)

    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    @CONDENSED_GRAPHS
    def test_solves_equal_mmd_reference(self, monkeypatch, graph, n):
        dz = make_discretization(graph, n)
        rng = np.random.default_rng(n)
        rs = [rng.standard_normal(dz.n_dofs), dz.mass_vec * rng.uniform(0, 1, dz.n_dofs)]
        for sigma in SHIFTS:
            d = _Descent(dz, 3.0, 1.0)
            assert d.shift_to(-sigma) and d.sigma == sigma
            _, ref = _sparse_product_condensation(dz, sigma * dz.mass_vec)
            for r in rs + [np.stack(rs, axis=-1)]:
                assert np.array_equal(d.precondition(r), ref(r))
        for p in (2.5, 5.0):
            d, v, lam, r, _ = _newton_point(dz, p)
            with monkeypatch.context() as m:
                m.setattr(hexnls.solver, "_condensed_solver",
                          lambda dz, s, factor: _sparse_product_condensation(dz, s)[1])
                ref = d.newton_direction(v, lam, r)
            assert np.array_equal(d.newton_direction(v, lam, r), ref)

    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    @CONDENSED_GRAPHS
    def test_any_block_width_equals_its_columns(self, graph, n):
        # k = 3, a width no caller uses: the block solved at once equals each
        # of its columns solved alone, bit for bit.
        dz = make_discretization(graph, n)
        shifts = [sigma * dz.mass_vec for sigma in SHIFTS] + [_newton_point(dz, 2.5)[4]]
        block = np.random.default_rng(n).standard_normal((dz.n_dofs, 3))
        for s in shifts:
            solve = hexnls.solver._condensed_solver(
                dz, s, lambda S: splu(S, permc_spec="MMD_AT_PLUS_A").solve)
            x = solve(block)
            assert x.shape == block.shape
            for j in range(3):
                assert np.array_equal(x[:, j], solve(block[:, j].copy()))

    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    @CONDENSED_GRAPHS
    def test_kept_solve_holds_no_per_shift_copies(self, graph, n):
        # What a kept preconditioner references beyond its layout's own arrays
        # and its vertex factor: the chain pivots, X's two values per interior
        # sample and the 2E-entry coupling A_VI, nothing more.
        dz = make_discretization(graph, n)
        d = _Descent(dz, 3.0, 1.0)
        assert d.shift_to(-1.0)
        V, E, m = dz.num_vertices, dz.num_edges, n - 2
        layout = {id(a) for value in vars(dz).values()
                  for a in (value if isinstance(value, tuple) else (value,))
                  if isinstance(a, np.ndarray)}
        kept = [a for a in _kept_arrays(d.precondition) if id(a) not in layout]
        entries = 2 * E if m else 0
        index = dz.stiffness.indices.itemsize
        coupling = entries * (8 + index) + (V + 1) * index
        assert sum(a.nbytes for a in kept) <= 8 * m * E + 16 * m * E + coupling

    def test_newton_pivot_tie_on_unit_edges(self, monkeypatch):
        # On unit edges at n = 2 every off-diagonal of K - diag(c) is exactly
        # -1, and at this point two of them tie for the largest pivot of one
        # column.  SuperLU's MMD factorization takes the first it meets; a
        # natural-order factorization of S with its columns put in that
        # order beforehand takes the entry in row j, as column j's diagonal,
        # so the two pick different rows.  Ordered by SuperLU itself, the
        # step equals the reference bit for bit at the tie too.
        dz = make_discretization(build_honeycomb(3, 1.0), 2)
        d, v, lam, r, minus_c = _newton_point(dz, 2.5)
        S, _ = _sparse_product_condensation(dz, minus_c)
        mmd = splu(S, permc_spec="MMD_AT_PLUS_A")
        ordered = splu(S[:, np.argsort(mmd.perm_c)].tocsc(), permc_spec="NATURAL")
        assert not np.array_equal(mmd.perm_r, ordered.perm_r)
        with monkeypatch.context() as m:
            m.setattr(hexnls.solver, "_condensed_solver",
                      lambda dz, s, factor: _sparse_product_condensation(dz, s)[1])
            expected = d.newton_direction(v, lam, r)
        assert np.array_equal(d.newton_direction(v, lam, r), expected)

    def test_each_shift_factorized_once_in_mmd_order(self, monkeypatch):
        calls = []

        def spy(A, permc_spec=None, **kwargs):
            calls.append((permc_spec, A.shape))
            return splu(A, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        monkeypatch.setattr(hexnls.solver, "splu", spy)
        graph = build_honeycomb(3, 1.0)
        for n in (5, 9):
            calls.clear()
            dz = make_discretization(graph, n)
            V = dz.num_vertices
            d, v, lam, r, _ = _newton_point(dz, 3.0)
            for sigma in (1.0, 8.0, 2.0 ** -10):
                assert d.shift_to(-sigma)
            # Back to sigma = 1, and a second descent on the same
            # Discretization: rebuilds, on the preconditioners already made.
            assert d.shift_to(-1.0) and d.sigma == 1.0
            other = _Descent(dz, 3.0, 1.0)
            for sigma in (8.0, 1.0):
                assert other.shift_to(-sigma)
            for _ in range(2):
                d.newton_direction(v, lam, r)
            # One factorization of the (V, V) vertex system per distinct
            # shift and per Newton step, each in SuperLU's MMD order.
            assert calls == [("MMD_AT_PLUS_A", (V, V))] * 5


class TestShiftFactors:
    def test_each_shift_factorized_once(self, monkeypatch):
        factored = []
        factorized = hexnls.solver.factorized
        monkeypatch.setattr(hexnls.solver, "factorized",
                            lambda A: factored.append(1) or factorized(A))
        dz = make_discretization(build_honeycomb(3, 1.0), 9)
        rng = np.random.default_rng(0)
        rs = [rng.standard_normal(dz.n_dofs), rng.standard_normal((dz.n_dofs, 2))]
        sigmas = (1.0, 8.0, 2.0 ** -10, 1.0, 8.0)
        for d in (_Descent(dz, 3.0, 1.0) for _ in range(2)):
            for sigma in sigmas:
                # Every change of sigma is a rebuild, kept preconditioner or not.
                assert d.shift_to(-sigma) and d.sigma == sigma
                fresh = hexnls.solver._condensed_solver(dz, sigma * dz.mass_vec, factorized)
                for r in rs:
                    assert np.array_equal(d.precondition(r), fresh(r))
        assert len(factored) == len(set(sigmas)) == 3
        assert sorted(_PRECONDITIONERS[dz]) == sorted(set(sigmas))

    def test_second_descent_takes_the_kept_preconditioner(self, monkeypatch):
        dz = make_discretization(build_honeycomb(3, 1.0), 9)
        first = _Descent(dz, 3.0, 1.0)
        built = {}
        for sigma in (1.0, 8.0):
            assert first.shift_to(-sigma)
            built[sigma] = first.precondition

        def refuse(*args):
            raise AssertionError("a kept shift was built again")

        monkeypatch.setattr(hexnls.solver, "factorized", refuse)
        monkeypatch.setattr(hexnls.solver, "_condensed_solver", refuse)
        second = _Descent(dz, 5.0, 2.0)
        for sigma in (8.0, 1.0):
            # Still a rebuild, so CG restarts, but on the very same object.
            assert second.shift_to(-sigma) and second.precondition is built[sigma]
        assert _PRECONDITIONERS[dz] == built

    def test_mass_sweep_equals_fresh_lattices(self, monkeypatch):
        factored = []
        factorized = hexnls.solver.factorized
        monkeypatch.setattr(hexnls.solver, "factorized",
                            lambda A: factored.append(1) or factorized(A))
        masses = (0.5, 2.0, 5.0, 20.0, 100.0)
        shared = build_honeycomb(4, 1.0)
        swept = [minimize(shared, 5.0, mu) for mu in masses]
        reused = len(factored)
        factored.clear()
        fresh = [minimize(build_honeycomb(4, 1.0), 5.0, mu) for mu in masses]
        assert reused == len(_PRECONDITIONERS[make_discretization(shared, 9)])
        assert reused < len(factored)
        assert {out.classification for out in swept} == {"SpreadToZero", "GroundState"}
        for a, b in zip(swept, fresh):
            assert (a.classification, a.final_energy, a.iterations, a.residual,
                    a.lagrange_multiplier, a.init_used, a.trace) == \
                (b.classification, b.final_energy, b.iterations, b.residual,
                 b.lagrange_multiplier, b.init_used, b.trace)
            assert (a.minimizer is None) == (b.minimizer is None)
            if a.minimizer is not None:
                assert np.array_equal(a.minimizer.dofs, b.minimizer.dofs)

    def test_factors_die_with_their_graph(self):
        # A kept preconditioner holds no reference back to its Discretization,
        # so reference counting alone frees it, and the layout, with the graph.
        gc.disable()
        try:
            graph = build_honeycomb(2, 1.0)
            d = _Descent(make_discretization(graph, 5), 3.0, 1.0)
            for sigma in (1.0, 8.0):
                d.shift_to(-sigma)
            kept = [weakref.ref(d.dz)] + [weakref.ref(solve) for solve in
                                          _PRECONDITIONERS[d.dz].values()]
            assert len(kept) == 3
            del d
            # calculus keeps the layout while its graph lives, and the solver its solves.
            assert all(ref() is not None for ref in kept)
            del graph
            assert all(ref() is None for ref in kept)
        finally:
            gc.enable()

    def test_a_minimizer_keeps_the_factors(self):
        # A returned minimizer keeps its graph, so the graph's layout and its
        # preconditioners live until the last function on the graph is dropped.
        gc.disable()
        try:
            lat = build_honeycomb(2, 1.0)
            out = minimize(lat, 3.0, 10.0, init="trial-eps")
            assert out.classification == "GroundState"
            kept = [weakref.ref(solve)
                    for solve in _PRECONDITIONERS[out.minimizer.layout].values()]
            assert kept
            del lat
            assert all(ref() is not None for ref in kept)
            del out
            assert all(ref() is None for ref in kept)
        finally:
            gc.enable()


def _band_rebuilds(log):
    """Check every step of a logged run against the shift rule: sigma is
    rebuilt exactly when max(shift_floor, -lam) leaves [sigma/2, 2*sigma], to
    the power of two nearest that target, with a restart at z.  Returns the
    sigmas built, in order."""
    sigma, sigmas = None, []
    for entry in (entry for entry in log if entry[0] == "step"):
        restarted, lam, rebuilt, new_sigma = entry[1], entry[5], entry[6], entry[7]
        target = max(SolverConfig.shift_floor, -lam)
        assert rebuilt == (sigma is None or not sigma / 2 <= target <= 2 * sigma)
        if rebuilt:
            assert new_sigma == 2.0 ** round(np.log2(target)) and restarted
            sigmas.append(new_sigma)
        assert new_sigma == sigmas[-1]
        sigma = new_sigma
    return sigmas


class TestShiftedPreconditioner:
    def test_small_multiplier_shifts_below_one(self):
        # lam starts positive, so the first factor sits on the floor; -lam
        # then rises to 1.72 and sigma follows it up through the band exits.
        # With sigma held at 1 this start takes 62 iterations.
        out, log = _minimize_logging_steps(3, 4.0, 2.5, "soliton-bump")
        assert out.classification == "GroundState"
        assert out.iterations <= 45
        sigmas = _band_rebuilds(log)
        assert sigmas[0] == SolverConfig.shift_floor
        assert sum(s < 1.0 for s in sigmas) >= 3 and sigmas[-1] == 1.0
        assert sigmas == sorted(sigmas)

    def test_large_mass_rebuilds_on_band_exits(self):
        # -lam grows from 2.6 to 12,188; with the unit shift this start
        # takes 198 iterations.
        out, log = _minimize_logging_steps(7, 5.0, 100.0, "trial-eps")
        assert out.classification == "GroundState"
        assert out.residual <= SolverConfig().residual_tol
        assert out.iterations <= 60
        sigmas = _band_rebuilds(log)
        assert len(sigmas) >= 3 and sigmas[-1] >= 2.0 ** 13

    def test_spreading_start_iteration_count(self):
        # -lam falls to ~4e-5, so sigma sits on the floor: 10 iterations.
        # With sigma held at 1 this start took 87 and a Newton polish.
        out, log = _minimize_logging_steps(8, 5.0, 1.0, "soliton-bump")
        assert out.classification == "SpreadToZero"
        assert out.residual <= SolverConfig().residual_tol
        assert out.iterations <= 20
        assert _band_rebuilds(log) == [SolverConfig.shift_floor]


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
        d, v, lam, r, minus_c = _newton_point(dz, p)
        delta = d.newton_direction(v, lam, r)
        # Reference: the full bordered system, regularized with the same floor.
        mv = dz.mass_vec * v
        A = sp.bmat([[dz.stiffness + sp.diags(minus_c), sp.csc_matrix(mv[:, None])],
                     [sp.csc_matrix(mv[None, :]), sp.csc_matrix((1, 1))]], format="csc")
        ref = spsolve(A, np.append(r, 0.0))[:-1]
        assert np.linalg.norm(delta - ref) <= 1e-10 * np.linalg.norm(ref)
        # The mass border is eliminated, so only the vertex system is factorized.
        V = dz.num_vertices
        assert factored == [(V, V)]

    def test_zero_chain_pivot_raises(self):
        # n = 3: each chain is the single sample with diagonal 2/h - c.
        dz = make_discretization(build_line(2.5), 3)
        v = np.ones(dz.n_dofs)
        d = _Descent(dz, 3.0, dz.mass(v))
        r, _, _ = d.tangent_gradient(d.evaluate(v))
        V = dz.num_vertices
        # c = (p - 1) M |v| + lam M = 2/h on the first chain's sample.
        lam = 2.0 / (dz.h[0] * dz.mass_vec[V]) - 2.0
        with pytest.raises(RuntimeError, match="pivot"):
            d.newton_direction(v, lam, r)

    @pytest.mark.parametrize("graph, n, v0, lam, message", [
        # n = 2 leaves no chains, so the vertex system is K - diag(c) itself;
        # v = 1 and lam = -(p - 1) make c = 0 and that system K, singular on
        # the free boundary (exactly so in SuperLU's elimination on the line).
        (build_line(2.5), 2, 1.0, -2.0, "singular"),
        # v = 0 and lam = -1: A = K + M is SPD, but b = M v = 0 makes b.y_b
        # zero, and the bordered system singular.
        (build_honeycomb(2, 1.0), 5, 0.0, -1.0, "border"),
    ], ids=["singular-vertex-factor", "zero-border-pivot"])
    def test_degenerate_system_raises(self, graph, n, v0, lam, message):
        dz = make_discretization(graph, n)
        d = _Descent(dz, 3.0, 1.0)
        r = np.random.default_rng(0).standard_normal(dz.n_dofs)
        with pytest.raises(RuntimeError, match=message):
            d.newton_direction(np.full(dz.n_dofs, v0), lam, r)


class TestConjugateDirections:
    def test_iteration_count(self, polished):
        # CG with one polish takes 458 iterations here.
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
        lat = build_honeycomb(4, 1.0)
        d = _Descent(make_discretization(lat, 9), 5.0, 20.0)
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
        v0 = initial_function(lat, "trial-eps", 5.0, 20.0, 9).dofs
        v, E, lam, res, it = _descend(d, v0)
        assert polishes             # the Newton line search is counted too
        assert counting.products == len(evaluated) > it
        assert len(in_gradient) > it and not any(in_gradient)
        # The last gradient is the returned iterate's, with the K v it carried.
        last = points[-1]
        assert last.v is v and last.E == E
        assert np.array_equal(last.Kv, d.K.K @ v) and last.vKv == float(v @ last.Kv)
        assert res <= SolverConfig().residual_tol


class TestMultiStartRanking:
    def test_lower_energy_wins(self):
        assert _beats(-2.0, 1e-3, -1.0, 1e-9, 1.0)
        assert not _beats(-1.0, 1e-12, -2.0, 1e-3, 1.0)

    def test_converged_tie_keeps_earlier_start(self):
        assert not _beats(-1.0 - 1e-12, 1e-9, -1.0, 5e-7, 1.0)

    def test_unconverged_tie_ranked_by_residual(self):
        assert _beats(-1.0, 1e-7, -1.0 - 1e-12, 1e-5, 1.0)
        assert _beats(-1.0, 2e-5, -1.0, 3e-5, 1.0)
        assert not _beats(-1.0, 2e-5, -1.0, 1e-5, 1.0)
        assert not _beats(-1.0, 2e-5, -1.0, 1e-7, 1.0)


class TestEulerLagrangeResidual:
    def test_does_not_factorize(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("residual evaluation built a preconditioner")

        monkeypatch.setattr(hexnls.solver, "factorized", refuse)
        monkeypatch.setattr(hexnls.solver, "_condensed_solver", refuse)
        # A lattice of its own, with no preconditioner kept by another test
        # that a descent here could take without calling factorized.
        lat = build_honeycomb(4, 1.0)
        u = initial_function(lat, "trial-eps", 3.0, 1.0, 9)
        lam, res = euler_lagrange_residual(u, 3.0)
        assert np.isfinite(lam) and res > 0
        assert _PRECONDITIONERS.get(u.layout, {}) == {}

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

    @pytest.mark.parametrize("p", [1.5, 2.0, 7.0, float("nan"), float("inf")])
    def test_power_outside_range_rejected(self, lat, p):
        u = initial_function(lat, "trial-eps", 3.0, 1.0, 9)
        with pytest.raises(ValueError, match=r"\(2, 6\]"):
            euler_lagrange_residual(u, p)

    def test_zero_mass_rejected(self, lat):
        u = constant_function(lat.graph, 0.0, 9)
        with pytest.raises(ValueError):
            euler_lagrange_residual(u, 3.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_mass_rejected(self, lat, bad):
        dofs = constant_function(lat.graph, 1.0, 9).dofs.copy()
        dofs[5] = bad
        u = GraphFunction(lat.graph, dofs)
        with pytest.raises(ValueError, match="finite"):
            euler_lagrange_residual(u, 3.0)


class TestLineSolitonOracle:
    def test_ground_state_matches_sech_profile(self, line_outcome):
        out = line_outcome
        assert out.classification == "GroundState"
        assert out.final_energy < 0
        u = out.minimizer
        params = soliton_params(4.0, 2.0)
        t = np.linspace(0.0, 1.0, u.samples_per_edge)
        x = u.graph.xy[:, 0]
        x0, x1 = x[u.graph.tails, None], x[u.graph.heads, None]
        ref = soliton_profile(params, x0 + (x1 - x0) * t)
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

    def test_spreading_point_reports_the_constant(self, lat):
        # The uniform start runs first and stops at once; the other starts
        # reach the same energy within the tie, so the constant stays.
        out = minimize(lat, 5.0, 1.0, init="multi")
        assert out.classification == "SpreadToZero"
        assert out.init_used == "uniform" == INITIALIZERS[0]
        assert out.iterations == 1 and out.residual <= 1e-12
        d = _Descent(make_discretization(lat, 9), 5.0, 1.0)
        v0 = initial_function(lat, "uniform", 5.0, 1.0, 9).dofs
        assert out.final_energy == d.evaluate(d.project(v0)).E

    def test_boundary_weights_only_for_flat_like_runs(self, monkeypatch, lat):
        weighed = []
        real = Discretization.boundary_weights
        monkeypatch.setattr(Discretization, "boundary_weights",
                            lambda dz, boundary: weighed.append(1) or real(dz, boundary))
        # Far below the flat state: the boundary share decides nothing.
        assert minimize(lat, 3.0, 10.0).classification == "GroundState" and not weighed
        # The constant winner at (5, 1) is the flat state itself: being
        # constant decides, before any weight is built.
        out = minimize(lat, 5.0, 1.0)
        assert out.classification == "SpreadToZero" and out.init_used == "uniform"
        assert not weighed
        # Flat-like, below the near-zero threshold and not constant: the
        # boundary share decides.
        graph = build_honeycomb(8, 1.0)
        out = minimize(graph, 5.0, 1.0, init="soliton-bump")
        assert out.classification == "SpreadToZero" and out.final_energy < -1e-7
        assert weighed == [1]

    def test_constant_on_a_large_window_spreads(self):
        # On R = 40 the constant's boundary share is under spread_threshold,
        # so only its being constant shows that it is the flat state.
        graph = build_honeycomb(40, 1.0)
        out = minimize(graph, 3.5, 0.1, samples_per_edge=3, init="uniform")
        assert out.classification == "SpreadToZero" and out.minimizer is None
        assert out.iterations == 1
        dz = make_discretization(graph, 3)
        v = initial_function(graph, "uniform", 3.5, 0.1, 3).dofs
        weights = dz.boundary_weights(graph.boundary_vertices())
        assert dz.boundary_mass_fraction(v, weights) < SolverConfig.spread_threshold

    def test_graph_of_a_lattice_is_solved_as_the_lattice(self):
        # Its truncation boundary and its L_0 starts are the lattice's.
        lat = build_honeycomb(7, 1.0)
        a, b = minimize(lat.graph, 2.5, 1.0), minimize(lat, 2.5, 1.0)
        assert ((a.classification, a.final_energy, a.lagrange_multiplier, a.iterations,
                 a.residual, a.init_used, a.trace)
                == (b.classification, b.final_energy, b.lagrange_multiplier, b.iterations,
                    b.residual, b.init_used, b.trace))
        assert a.minimizer is b.minimizer is None

    def test_lattice_minimizer_lives_on_the_lattice(self, lat):
        out = minimize(lat, 3.0, 10.0, init="trial-eps")
        assert out.classification == "GroundState" and out.minimizer.graph is lat

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
        (1e-3, 100.0, 1e-20), (0.0, 100.0, 0.05), (100.0, 1e-3, 0.05), (5.0, 5.0, 0.05)])
    def test_invalid_bracket_or_width_refused_before_solving(self, lat, monkeypatch,
                                                             mu_lo, mu_hi, tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("minimize called")

        monkeypatch.setattr(hexnls.solver, "minimize", no_solve)
        with pytest.raises(ValueError):
            bisect_critical_mass(lat, 5.0, mu_lo, mu_hi, tol=tol)


    def test_finest_width_ends(self, lat, monkeypatch):
        # A stub that flips at mu = 1.3: at tol = 2 eps the bracket closes to
        # a few ulps of 1.3, one bisection step per bit, and stops.
        solves = []

        def stub(graph, p, mu):
            solves.append(mu)
            return types.SimpleNamespace(
                classification="GroundState" if mu > 1.3 else "SpreadToZero")

        monkeypatch.setattr(hexnls.solver, "minimize", stub)
        tol = 2 * np.finfo(float).eps
        _, (lo, hi) = bisect_critical_mass(lat, 5.0, 1e-3, 100.0, tol=tol)
        assert lo <= 1.3 < hi and hi - lo <= tol * 0.5 * (hi + lo)
        assert len(solves) < 70


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

    @pytest.mark.parametrize("width", [float("nan"), float("inf")])
    @pytest.mark.parametrize("samples_per_edge", [None, 33])
    def test_non_finite_width_refused(self, lat, width, samples_per_edge):
        with pytest.raises(ValueError, match="finite"):
            squeezed_profile(lat, 1.0, width, samples_per_edge)
        with pytest.raises(ValueError, match="finite"):
            demonstrate_unbounded(lat, 1.0, [width], samples_per_edge)

    @pytest.mark.parametrize("entry", [
        lambda lat: squeezed_profile(lat, 1.0, 0.5, samples_per_edge=1),
        lambda lat: demonstrate_unbounded(lat, 1.0, [0.5], samples_per_edge=1),
        lambda lat: make_discretization(lat, 1)], ids=["squeezed", "unbounded", "layout"])
    def test_one_sample_per_edge_refused(self, lat, entry):
        # As minimize refuses it (TestConfigAndInputs), not by dividing by n - 1 = 0.
        with pytest.raises(ValueError, match="at least 2 samples per edge"):
            entry(lat)

    def test_squeezed_profile_mass(self, lat):
        u = squeezed_profile(lat, 3.0, 0.5)
        assert integrate_power(u, 2) == pytest.approx(3.0, rel=1e-10)


class TestArtifacts:
    def test_discretization_helper_uses_free_boundary(self, lat):
        assert lat.boundary_vertices().tolist() == np.flatnonzero(lat.degrees() < 3).tolist()
        assert build_line(2).boundary_vertices().tolist() == [0, 4]
