"""End-to-end acceptance checks: closed forms, inequality bounds, phase
structure, probes, and reproducibility, each reported as one pass/fail line.

These tests are heavier than the unit suites (truncation radii up to 30,
thousand-function corpora, full sweeps); together they take several minutes.
"""

import json
import math
import time

import numpy as np
import pytest

from hexnls.analytic import (build_trial_function, critical_mass_from_constant,
                             soliton_params, soliton_profile, trial_energy_terms,
                             trial_kinetic_integral, trial_lp_integral,
                             trial_normalization, trial_truncation_radius)
from hexnls.calculus import from_edge_samples, gradient_norms, integrate_power
from hexnls.cli import main as cli_main
from hexnls.functionals import (energy, estimate_sharp_constant, inequality_ratio,
                                random_corpus, truncation_boundary)
from hexnls.graph_core import build_line
from hexnls.honeycomb import build_honeycomb, decompose_bridges, decompose_paths
from hexnls.solver import bisect_critical_mass, demonstrate_unbounded, minimize

SOBOLEV2D_BOUND = 2.0 * math.sqrt(2.0)


@pytest.fixture(scope="module")
def lat20():
    return build_honeycomb(20, 1.0)


def run_check(report, name, ok, detail):
    report(name, ok, detail)
    assert ok, f"{name}: {detail}"


class TestClosedForms:
    def test_criterion_01_trial_integral_reproduction(self, acceptance):
        t0 = time.perf_counter()
        worst = 0.0
        for eps in (0.1, 0.2, 0.5):
            lat = build_honeycomb(math.ceil(10.0 / eps), 1.0)
            u = build_trial_function(lat, eps, 65)
            rels = [abs(gradient_norms(u)[1] - trial_kinetic_integral(eps))
                    / trial_kinetic_integral(eps)]
            for p in (2.0, 3.0, 4.0):
                exact = trial_lp_integral(eps, p)
                rels.append(abs(integrate_power(u, p) - exact) / exact)
            worst = max(worst, *rels)
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-3 and elapsed < 30.0
        run_check(acceptance, "criterion 1 (closed-form integrals)", ok,
                  f"max rel error {worst:.2e} (tol 1e-3), runtime {elapsed:.1f}s (cap 30s)")

    def test_criterion_02_normalization_identity(self, acceptance):
        worst_alg, worst_quad = 0.0, 0.0
        for eps in (0.2, 0.3, 0.5):
            lat = build_honeycomb(trial_truncation_radius(eps), 1.0)
            q = integrate_power(build_trial_function(lat, eps, 513), 2)
            for mu in (0.5, 1.0, 2.0):
                k = trial_normalization(eps, mu)
                worst_alg = max(worst_alg,
                                abs(k * k * trial_lp_integral(eps, 2) - mu) / mu)
                worst_quad = max(worst_quad, abs(k * k * q - mu) / mu)
        ok = worst_alg < 1e-12 and worst_quad < 1e-6
        run_check(acceptance, "criterion 2 (normalization identity)", ok,
                  f"algebraic {worst_alg:.2e} (tol 1e-12), "
                  f"quadrature {worst_quad:.2e} (tol 1e-6), 9 combinations")

    def test_criterion_03_energy_asymptotic_exponents(self, acceptance):
        eps = np.logspace(-3, -1, 40)
        kin = [trial_energy_terms(e, 3.0, 1.0)[0] for e in eps]
        slope_kin = float(np.polyfit(np.log(eps), np.log(kin), 1)[0])
        pot_slopes = {}
        for p in (3.0, 5.0):
            pot = [trial_energy_terms(e, p, 1.0)[1] for e in eps]
            pot_slopes[p] = float(np.polyfit(np.log(eps), np.log(pot), 1)[0])
        ok = abs(slope_kin - 2.0) <= 0.02 and all(
            abs(pot_slopes[p] - (p - 2.0)) <= 0.05 for p in pot_slopes)
        run_check(acceptance, "criterion 3 (energy asymptotic exponents)", ok,
                  f"kinetic slope {slope_kin:.4f} (2±0.02), potential slopes "
                  + ", ".join(f"p={p:g}: {s:.4f} ({p - 2:g}±0.05)"
                              for p, s in pot_slopes.items()))


@pytest.fixture(scope="module")
def corpus_1000():
    out = []
    for R, seed in ((3, 11), (6, 12)):
        out.append((build_honeycomb(R, 1.0), random_corpus(build_honeycomb(R, 1.0),
                                                           500, seed)))
    return out


class TestInequalities:
    def test_criterion_04_sobolev_bound(self, acceptance, corpus_1000):
        t0 = time.perf_counter()
        worst, count = 0.0, 0
        for lat, corpus in corpus_1000:
            for u in corpus:
                worst = max(worst, inequality_ratio(u, "sobolev2d").value)
                count += 1
        c_hat, _ = estimate_sharp_constant("sobolev2d", 2.0,
                                           build_honeycomb(6, 1.0),
                                           budget=60, seed=0, num_starts=50)
        worst = max(worst, c_hat)
        elapsed = time.perf_counter() - t0
        ok = count >= 1000 and worst <= SOBOLEV2D_BOUND * 1.01 and elapsed < 120.0
        run_check(acceptance, "criterion 4 (Sobolev L2-vs-gradient-L1 bound)", ok,
                  f"max ratio {worst:.4f} <= {SOBOLEV2D_BOUND * 1.01:.4f} over "
                  f"{count} corpus functions + 50 ascent witnesses, "
                  f"runtime {elapsed:.1f}s (cap 120s)")

    def test_criterion_05_gn1d_bound(self, acceptance, corpus_1000):
        worst, count = 0.0, 0
        for lat, corpus in corpus_1000:
            for u in corpus:
                for p in (3.0, 4.0, 5.0, 6.0):
                    worst = max(worst, inequality_ratio(u, "gn1d", p).value)
                count += 1
        ok = count >= 1000 and worst <= 1.01
        run_check(acceptance, "criterion 5 (1D Gagliardo-Nirenberg bound)", ok,
                  f"max gn1d ratio {worst:.4f} <= 1.01 over {count} functions, "
                  f"p in {{3,4,5,6}}")


@pytest.fixture(scope="module")
def solves_r20(lat20):
    return {mu: minimize(lat20, 3.0, mu) for mu in (0.1, 1.0, 10.0)}


class TestSubcriticalWitness:
    def test_criterion_06_ground_states_and_stability(self, acceptance, lat20,
                                                      solves_r20):
        details = []
        ok = True
        for mu, out in solves_r20.items():
            good = (out.classification == "GroundState" and out.final_energy < 0
                    and out.residual < 1e-6)
            ok = ok and good
            details.append(f"mu={mu:g}: {out.classification} "
                           f"E={out.final_energy:.4e} res={out.residual:.1e}")
        lat30 = build_honeycomb(30, 1.0)
        for mu in (1.0, 10.0):
            e30 = minimize(lat30, 3.0, mu).final_energy
            rel = abs(e30 - solves_r20[mu].final_energy) / abs(e30)
            ok = ok and rel < 1e-3
            details.append(f"R-stability mu={mu:g}: rel {rel:.1e}")
        run_check(acceptance, "criterion 6 (subcritical ground states, R=20)", ok,
                  "; ".join(details) + "; mu=0.1 R-stability tracked separately")

    def test_criterion_06_small_mass_truncation_stability(self, acceptance, lat20,
                                                          solves_r20):
        e20 = solves_r20[0.1].final_energy
        e30 = minimize(build_honeycomb(30, 1.0), 3.0, 0.1).final_energy
        rel = abs(e30 - e20) / abs(e30) if e30 != 0 else math.inf
        run_check(acceptance, "criterion 6 (mu=0.1 R-stability subcheck)", rel < 1e-3,
                  f"E20={e20:.6e}, E30={e30:.6e}, rel {rel:.1e} (tol 1e-3)")

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="At mass 0.1 the R=20 minimizer (and the R=30 one, equal in "
               "energy to 2e-8) peaks mid-edge on a corner edge of the "
               "truncation boundary, between two degree-2 boundary vertices "
               "41 edge lengths from the center (60 at R=30): the free "
               "truncation boundary pulls the small-mass state onto it.  A "
               "zero truncation boundary (ROADMAP item 1) removes it.")
    def test_criterion_06_small_mass_state_is_interior(self, acceptance, lat20, solves_r20):
        u = solves_r20[0.1].minimizer
        eid = int(np.argmax(np.abs(u.values)) // u.samples_per_edge)
        tail, head = int(lat20.graph.tails[eid]), int(lat20.graph.heads[eid])
        interior = not {tail, head} & set(truncation_boundary(lat20).tolist())
        acceptance("criterion 6 (mu=0.1 peak away from the truncation boundary)", interior,
                   f"expected failure: peak on edge {tail}-{head}, "
                   f"{'interior' if interior else 'touching the truncation boundary'}")
        assert interior


class TestSupercriticalStructure:
    def test_criterion_07_transition_and_critical_mass(self, acceptance, lat20):
        mus = np.logspace(-3, 2, 13)
        tags = [minimize(lat20, 5.0, float(mu)).classification for mu in mus]
        flips = sum(a != b for a, b in zip(tags, tags[1:]))
        one_transition = (flips == 1 and tags[0] == "SpreadToZero"
                          and tags[-1] == "GroundState")
        mid, (lo, hi) = bisect_critical_mass(lat20, 5.0, 1e-3, 100.0, tol=0.05)
        width_rel = (hi - lo) / (0.5 * (hi + lo))
        c_hat, _ = estimate_sharp_constant("gn_interp", 5.0, lat20, budget=60,
                                           seed=0, num_starts=12)
        analytic_lo = critical_mass_from_constant(5.0, c_hat)
        ok = one_transition and width_rel < 0.05 and lo >= 0.95 * analytic_lo
        pattern = "".join(t[0] for t in tags)
        run_check(acceptance, "criterion 7 (supercritical transition, p=5)", ok,
                  f"sweep {pattern} ({flips} flip), bracket [{lo:.3f}, {hi:.3f}] "
                  f"({width_rel:.1%} rel), analytic lower bound {analytic_lo:.3f} "
                  f"(C_hat={c_hat:.4f})")

    def test_criterion_08_critical_power_probes(self, acceptance):
        lat = build_honeycomb(10, 1.0)
        widths = [1.0, 0.5, 0.25, 0.125]
        small = demonstrate_unbounded(lat, 0.01, widths)
        large = demonstrate_unbounded(lat, 10.0, widths)
        gates_ok = True
        for w in widths:
            # Resolution proportional to the squeeze, then halve the spacing.
            n = max(65, int(np.ceil(32.0 / w)) + 1)
            e1 = demonstrate_unbounded(lat, 10.0, [w], samples_per_edge=n)[0]
            e2 = demonstrate_unbounded(lat, 10.0, [w], samples_per_edge=2 * n - 1)[0]
            gates_ok = gates_ok and abs(e2 - e1) < 1e-3 * abs(e1)
        ok = (all(e >= -1e-6 for e in small)
              and all(a > b for a, b in zip(large, large[1:]))
              and large[-1] < -10.0 and gates_ok)
        run_check(acceptance, "criterion 8 (critical-power blow-down, p=6)", ok,
                  f"mu=0.01 min energy {min(small):.2e} >= -1e-6; mu=10 energies "
                  f"decrease to {large[-1]:.1f} < -10; quadrature gates "
                  f"{'pass' if gates_ok else 'fail'}")


class TestPhaseGridInvariant:
    """Desk-scale phase-diagram consistency beyond the numbered criteria:
    the full subcritical sample grid yields ground states, and each
    supercritical power flips SpreadToZero -> GroundState exactly once."""

    def test_subcritical_grid_all_ground_states(self, acceptance, lat20):
        details, ok = [], True
        for p in (2.5, 3.5):
            for mu in (0.1, 1.0, 10.0):
                if (p, mu) == (3.5, 0.1):
                    continue  # tracked separately below
                out = minimize(lat20, p, mu)
                good = out.classification == "GroundState" and out.final_energy < 0
                ok = ok and good
                details.append(f"p={p:g},mu={mu:g}: {out.classification}")
        run_check(acceptance, "invariant (subcritical grid)", ok, "; ".join(details))

    @pytest.mark.xfail(
        strict=True,
        reason="At p=3.5, mass 0.1 the ground-state width (~30 edge lengths in "
               "the locally-2D regime) exceeds the R=20 window and the flat "
               "state is locally stable on the truncation, so every "
               "initializer relaxes to the flat state (SpreadToZero).  A "
               "larger window is needed to localize; see the decisions ledger.")
    def test_subcritical_grid_wide_state_point(self, acceptance, lat20):
        out = minimize(lat20, 3.5, 0.1)
        acceptance("invariant (p=3.5, mu=0.1 point)",
                   out.classification == "GroundState",
                   f"expected failure: window narrower than the ground state, "
                   f"got {out.classification}")
        assert out.classification == "GroundState"

    @pytest.mark.parametrize("p", [4.5, 5.5])
    def test_supercritical_single_flip(self, acceptance, lat20, p):
        mus = np.logspace(-3, 2, 13)
        tags = [minimize(lat20, p, float(mu)).classification for mu in mus]
        flips = sum(a != b for a, b in zip(tags, tags[1:]))
        ok = (flips == 1 and tags[0] == "SpreadToZero" and tags[-1] == "GroundState")
        run_check(acceptance, f"invariant (single flip, p={p:g})", ok,
                  "".join(t[0] for t in tags))


class TestLineOracle:
    def test_criterion_09_line_soliton(self, acceptance):
        graph = build_line(30.0)
        out = minimize(graph, 4.0, 2.0, init="soliton-bump")
        params = soliton_params(4.0, 2.0)
        u = out.minimizer
        t = np.linspace(0.0, 1.0, u.samples_per_edge)
        x = graph.xy[:, 0]
        x0, x1 = x[graph.tails, None], x[graph.heads, None]
        ref = soliton_profile(params, x0 + (x1 - x0) * t)
        diff = from_edge_samples(graph, np.abs(u.values) - ref)
        rel_l2 = math.sqrt(integrate_power(diff, 2) / 2.0)
        oracle = energy(u, 4.0).total
        energy_rel = abs(out.final_energy - oracle) / abs(oracle)
        ok = (out.classification == "GroundState" and out.final_energy < 0
              and rel_l2 < 1e-2 and energy_rel < 1e-3)
        run_check(acceptance, "criterion 9 (line-soliton oracle)", ok,
                  f"{out.classification}, E={out.final_energy:.6f} "
                  f"(quadrature oracle rel {energy_rel:.1e}), "
                  f"profile L2 discrepancy {rel_l2:.2e} < 1e-2")


class TestCombinatorics:
    def test_criterion_10_exact_decomposition_r2(self, acceptance):
        lat = build_honeycomb(2, 1.0)
        fam = decompose_paths(lat)
        bridges = decompose_bridges(lat)
        exceptions = []
        counts = [0] * lat.graph.num_edges
        for edge_ids in list(fam.L_paths.values()) + list(fam.R_paths.values()):
            for eid in edge_ids:
                counts[eid] += 1
        for eid, count in enumerate(counts):
            want = 2 if lat.edge_roles[eid][0] == "horizontal" else 1
            if count != want:
                exceptions.append(f"edge {eid} covered {count}x")
        for i, Li in fam.L_paths.items():
            for j, Rj in fam.R_paths.items():
                common = set(Li) & set(Rj)
                if len(common) != 1 or \
                        lat.edge_roles[next(iter(common))][0] != "horizontal":
                    exceptions.append(f"L_{i} ∩ R_{j} = {sorted(common)}")
        for k, entries in bridges.lines.items():
            for m, eid in entries:
                if (m - k) % 2 != 0:
                    exceptions.append(f"bridge {eid}: parity m={m}, k={k}")
        ok = not exceptions
        run_check(acceptance, "criterion 10 (exact path/bridge combinatorics)", ok,
                  "zero exceptions at R=2" if ok else "; ".join(exceptions[:5]))


class TestReproducibility:
    def test_criterion_11_byte_identical_reruns(self, acceptance, tmp_path):
        ineq_cfg = tmp_path / "ineq.json"
        ineq_cfg.write_text(json.dumps({"radius": 3, "corpus_size": 40,
                                        "p_list": [3.0, 5.0],
                                        "ascent_starts": 3, "ascent_budget": 15}))
        trial_cfg = tmp_path / "trial.json"
        trial_cfg.write_text(json.dumps({"eps_list": [0.5], "p_list": [2.0, 3.0],
                                         "mu_list": [1.0], "samples_per_edge": 33}))
        runs = [("inequalities", ineq_cfg, ("inequality_ratios.csv",
                                            "sharp_constants.json")),
                ("trial-forms", trial_cfg, ("trial_forms.csv",)),
                ("soliton-check", None, ("soliton_check.json",))]
        ok, details = True, []
        for kind, cfg, artifacts in runs:
            d1, d2 = tmp_path / f"{kind}-1", tmp_path / f"{kind}-2"
            extra = ["--config", str(cfg)] if cfg else []
            assert cli_main([kind, *extra, "--out", str(d1)]) == 0
            assert cli_main([kind, *extra, "--out", str(d2)]) == 0
            same = all((d1 / a).read_bytes() == (d2 / a).read_bytes()
                       for a in artifacts)
            ok = ok and same
            details.append(f"{kind}: {'identical' if same else 'DIFFERS'}")
        run_check(acceptance, "criterion 11 (byte-identical reruns)", ok,
                  "; ".join(details))
