"""Closed-form soliton, trial-family, and critical-mass references."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hexnls.analytic import (build_trial_function, critical_mass_from_constant,
                             soliton_params, soliton_profile, trial_energy,
                             trial_energy_terms, trial_kinetic_integral,
                             trial_lp_integral, trial_normalization,
                             trial_truncation_radius)
from hexnls.calculus import from_edge_samples, gradient_norms, integrate_power
from hexnls.honeycomb import build_honeycomb


class TestSoliton:
    def test_exact_constants_at_p4(self):
        # The quartic case is exactly solvable: width 1/4, amplitude 1/sqrt(8).
        params = soliton_params(4.0, 1.0)
        assert params.c_width == pytest.approx(0.25, rel=1e-14)
        assert params.C_amp ** 2 == pytest.approx(0.125, rel=1e-14)

    @pytest.mark.parametrize("p,mu", [(3.0, 1.0), (4.0, 2.0), (5.0, 0.3)])
    def test_mass_is_mu(self, p, mu):
        params = soliton_params(p, mu)
        total, _ = quad(lambda x: soliton_profile(params, x) ** 2, -np.inf, np.inf)
        assert total == pytest.approx(mu, rel=1e-6)

    def test_peak_and_evenness(self):
        params = soliton_params(3.5, 2.0)
        assert soliton_profile(params, 0.0) == pytest.approx(
            2.0 ** params.alpha * params.C_amp)
        x = np.linspace(0.1, 5, 17)
        assert np.allclose(soliton_profile(params, x), soliton_profile(params, -x))
        assert np.all(soliton_profile(params, x) < soliton_profile(params, 0.0))

    def test_energy_stationarity(self):
        # The closed form is a critical point of the energy at fixed mass: it
        # solves -phi'' - phi^{p-1} = -omega phi, checked by central differences.
        mu, h = 1.5, 1e-3
        for p in (3.0, 4.0, 5.0):
            params = soliton_params(p, mu)
            width = params.c_width * mu ** params.beta
            omega = (2.0 * width / (p - 2.0)) ** 2
            x = np.linspace(-4.0, 4.0, 81) / width
            phi = soliton_profile(params, x)
            d2 = (soliton_profile(params, x + h) - 2.0 * phi
                  + soliton_profile(params, x - h)) / h ** 2
            residual = -d2 - phi ** (p - 1) + omega * phi
            assert np.abs(residual).max() < 1e-5 * omega * phi.max()

    def test_constants_finite_near_both_ends(self):
        # Near p = 2 the amplitude factor (2p/(p-2)^2)^{2/(p-2)} alone overflows.
        for p in (2.05, 5.9):
            params = soliton_params(p, 1.0)
            for value in (params.C_amp, params.c_width):
                assert math.isfinite(value) and value > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            soliton_params(6.0, 1.0)
        with pytest.raises(ValueError):
            soliton_params(2.0, 1.0)
        with pytest.raises(ValueError):
            soliton_params(4.0, -1.0)

    def test_far_tail_is_zero_without_overflow(self):
        params = soliton_params(4.0, 1.0)
        vals = soliton_profile(params, np.array([1e4, 1e6]))
        assert np.all(vals == 0.0)


class TestTrialClosedForms:
    def test_reference_values(self):
        assert trial_lp_integral(0.1, 2) == pytest.approx(150.4996, rel=1e-5)
        assert trial_lp_integral(1.0, 2) == pytest.approx(
            3 * (math.e ** 2 + 1) / (2 * (math.e ** 2 - 1)), rel=1e-12)
        assert trial_kinetic_integral(0.1) == pytest.approx(1.504996, rel=1e-5)
        assert trial_normalization(0.1, 1.0) == pytest.approx(0.0815140, rel=1e-4)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 1.0])
    def test_kinetic_lp_identity(self, eps):
        assert trial_kinetic_integral(eps) == pytest.approx(
            eps ** 2 * trial_lp_integral(eps, 2), rel=1e-12)

    def test_small_eps_limits(self):
        # integral of u_eps^p ~ 6/(p^2 eps^2); kinetic -> 3/2.
        for eps in (1e-4, 1e-6):
            assert trial_lp_integral(eps, 3) * (9 * eps ** 2) / 6 == \
                pytest.approx(1.0, abs=1e-3)
            assert trial_kinetic_integral(eps) == pytest.approx(1.5, abs=1e-3)

    @pytest.mark.parametrize("eps", [0.2, 0.7])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_normalization_algebraic_inverse(self, eps, mu):
        k = trial_normalization(eps, mu)
        assert k * k * trial_lp_integral(eps, 2) == pytest.approx(mu, rel=1e-12)

    def test_normalization_monotone_in_mu(self):
        ks = [trial_normalization(0.3, mu) for mu in (0.1, 1.0, 10.0)]
        assert ks == sorted(ks)

    def test_invalid_parameters(self):
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError):
                trial_lp_integral(bad, 2)
            with pytest.raises(ValueError):
                trial_kinetic_integral(bad)
        with pytest.raises(ValueError):
            trial_lp_integral(0.1, 1.5)
        with pytest.raises(ValueError):
            trial_normalization(0.1, 0.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
    def test_truncation_radius_refuses_non_positive_or_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            trial_truncation_radius(eps)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rate_refused(self, bad):
        for closed_form in (lambda: trial_lp_integral(bad, 3.0),
                            lambda: trial_kinetic_integral(bad),
                            lambda: trial_normalization(bad, 1.0),
                            lambda: trial_energy_terms(bad, 3.0, 1.0),
                            lambda: trial_energy(bad, 3.0, 1.0),
                            lambda: build_trial_function(build_honeycomb(2, 1.0), bad, 5)):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                closed_form()

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_power_or_mass_refused(self, bad):
        for closed_form in (lambda: trial_lp_integral(0.1, bad),
                            lambda: trial_energy_terms(0.1, bad, 1.0),
                            lambda: trial_energy(0.1, bad, 1.0)):
            with pytest.raises(ValueError, match="p must be"):
                closed_form()
        for closed_form in (lambda: trial_normalization(0.1, bad),
                            lambda: trial_energy_terms(0.1, 3.0, bad),
                            lambda: trial_energy(0.1, 3.0, bad)):
            with pytest.raises(ValueError, match="mu must be positive and finite"):
                closed_form()


class TestTrialEnergy:
    def test_kinetic_term_is_exact_half_mu_eps_sq(self):
        # k_eps^2 * kinetic integral collapses algebraically to mu * eps^2.
        for eps in (0.01, 0.3, 1.0):
            kinetic, _ = trial_energy_terms(eps, 3.0, 2.0)
            assert kinetic == pytest.approx(0.5 * 2.0 * eps ** 2, rel=1e-12)

    def test_sign_crossover_at_small_eps(self):
        assert trial_energy(0.01, 3.0, 1.0) < 0  # p-2 = 1 beats eps^2
        assert trial_energy(0.01, 5.0, 1.0) > 0  # eps^3 loses to eps^2

    def test_energy_vanishes_as_eps_to_zero(self):
        # Kinetic term is O(eps^2), potential O(eps^(p-2)).
        for p in (2.5, 3.0, 4.0, 5.5):
            eps = 1e-5
            assert abs(trial_energy(eps, p, 1.0)) < 10.0 * eps ** min(2.0, p - 2.0)

    def test_asymptotic_exponents(self):
        eps = np.logspace(-3, -1, 25)
        kin = [trial_energy_terms(e, 3.0, 1.0)[0] for e in eps]
        slope_kin = np.polyfit(np.log(eps), np.log(kin), 1)[0]
        assert slope_kin == pytest.approx(2.0, abs=0.02)
        for p in (3.0, 5.0):
            pot = [trial_energy_terms(e, p, 1.0)[1] for e in eps]
            slope = np.polyfit(np.log(eps), np.log(pot), 1)[0]
            assert slope == pytest.approx(p - 2.0, abs=0.05)


class TestTrialQuadratureAgreement:
    @pytest.mark.parametrize("eps", [0.2, 0.5])
    def test_closed_forms_vs_lattice_quadrature(self, eps):
        lat = build_honeycomb(trial_truncation_radius(eps), 1.0)
        u = build_trial_function(lat, eps, 65)
        assert integrate_power(u, 2) == pytest.approx(
            trial_lp_integral(eps, 2), rel=1e-3)
        assert integrate_power(u, 4) == pytest.approx(
            trial_lp_integral(eps, 4), rel=1e-3)
        assert gradient_norms(u)[1] == pytest.approx(
            trial_kinetic_integral(eps), rel=1e-3)

    def test_trial_function_continuous(self):
        # build_trial_function goes through the exact endpoint check of
        # from_edge_samples, at the closed forms' edge length and off it.
        for length in (1.0, 0.7):
            lat = build_honeycomb(3, length)
            u = build_trial_function(lat, 0.4, 9)
            assert np.array_equal(from_edge_samples(lat.graph, u.values).dofs, u.dofs)


class TestCriticalMassFormula:
    def test_reference_points(self):
        assert critical_mass_from_constant(4.0, 2.0) == pytest.approx(1.0)
        assert critical_mass_from_constant(4.0, 1.0) == pytest.approx(2.0)
        assert critical_mass_from_constant(5.0, 2.5) == pytest.approx(1.0)

    def test_monotone_decreasing_in_constant(self):
        vals = [critical_mass_from_constant(5.0, c) for c in (0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals, reverse=True)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            critical_mass_from_constant(3.0, 1.0)
        with pytest.raises(ValueError):
            critical_mass_from_constant(5.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_input_refused(self, bad):
        # (5, inf) was a critical mass of 0.0, and a nan constant a nan mass.
        with pytest.raises(ValueError, match="constant must be positive and finite"):
            critical_mass_from_constant(5.0, bad)
        with pytest.raises(ValueError, match="formula applies"):
            critical_mass_from_constant(bad, 1.0)
