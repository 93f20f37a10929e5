"""Closed-form reference quantities: the NLS ground state on the line (the
sech^{2/(p-2)} soliton) with its mass scaling, the exponential trial family on
the hexagonal grid, and the critical-mass formula."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import GraphFunction, from_edge_samples
from .honeycomb import HoneycombLattice


# --- line soliton -----------------------------------------------------------

@dataclass(slots=True)
class SolitonParams:
    p: float
    mu: float
    alpha: float
    beta: float
    C_amp: float
    c_width: float


def _prototype_constants(p: float) -> tuple[float, float]:
    """Amplitude C and width c of the unit-mass line soliton C sech^{2/(p-2)}(c x).

    It solves -phi'' - phi^{p-1} = -omega phi with omega = (2c/(p-2))^2, which
    fixes C^{p-2} = p omega / 2; unit mass C^2 I / c = 1, with I the integral of
    sech^{4/(p-2)}, then fixes c.  Evaluated in log space, since the amplitude
    factor k = (2p/(p-2)^2)^{2/(p-2)} overflows as p -> 2.  At p = 4 this is
    c = 1/4, C^2 = 1/8.
    """
    s = 4.0 / (p - 2.0)
    log_I = 0.5 * math.log(math.pi) + math.lgamma(s / 2.0) - math.lgamma((s + 1.0) / 2.0)
    log_k = (2.0 / (p - 2.0)) * math.log(2.0 * p / (p - 2.0) ** 2)
    log_c = -((p - 2.0) / (6.0 - p)) * (log_I + log_k)
    return math.exp(0.5 * (log_c - log_I)), math.exp(log_c)


def soliton_params(p: float, mu: float) -> SolitonParams:
    if not (2 < p < 6):
        raise ValueError(f"soliton scaling needs 2 < p < 6, got {p}")
    if not 0 < mu < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mu}")
    C, c = _prototype_constants(p)
    # Mass-preserving two-parameter scaling: with a unit-mass prototype,
    # alpha = 2/(6-p) and beta = (p-2)/(6-p) give mass exactly mu.
    return SolitonParams(p=p, mu=mu, alpha=2.0 / (6.0 - p), beta=(p - 2.0) / (6.0 - p),
                         C_amp=C, c_width=c)


def soliton_profile(params: SolitonParams, x):
    x = np.asarray(x, dtype=float)
    scale = params.mu ** params.alpha
    arg = params.c_width * (params.mu ** params.beta) * x
    # 1/cosh via exp keeps the far tail at exactly 0 instead of overflowing.
    a = np.abs(arg)
    sech = np.where(a < 350.0, 2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a)), 0.0)
    return scale * params.C_amp * sech ** (2.0 / (params.p - 2.0))


# --- exponential trial family on the hexagonal grid (unit edge length) ------

def _check_rate(eps: float) -> None:
    """Refuse a trial rate that is not positive and finite."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


def trial_lp_integral(eps: float, p: float) -> float:
    """Integral of |u_eps|^p over the grid: 3(e^{p eps}+1) / (p eps (e^{p eps}-1))."""
    _check_rate(eps)
    if not 2 <= p < math.inf:
        raise ValueError(f"p must be >= 2 and finite, got {p}")
    # (e^x+1)/(e^x-1) = 1/tanh(x/2); stable as eps -> 0.
    return 3.0 / (p * eps * math.tanh(p * eps / 2.0))


def trial_kinetic_integral(eps: float) -> float:
    """Integral of |u_eps'|^2: 3 eps (e^{2 eps}+1) / (2 (e^{2 eps}-1))."""
    _check_rate(eps)
    return 3.0 * eps / (2.0 * math.tanh(eps))


def trial_normalization(eps: float, mu: float) -> float:
    """Factor k_eps with k_eps^2 * integral(u_eps^2) = mu, algebraically."""
    _check_rate(eps)
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    return math.sqrt(2.0 * eps * math.tanh(eps) / 3.0 * mu)


def trial_energy_terms(eps: float, p: float, mu: float) -> tuple[float, float]:
    """(kinetic, potential) terms of the energy of the mass-mu trial function.

    The kinetic term collapses algebraically to mu * eps^2 / 2; the potential
    term scales like eps^{p-2} as eps -> 0.
    """
    if not (2 < p < 6):
        raise ValueError(f"p must be in (2, 6), got {p}")
    k = trial_normalization(eps, mu)
    kinetic = 0.5 * k ** 2 * trial_kinetic_integral(eps)
    potential = (k ** p) * trial_lp_integral(eps, p) / p
    return kinetic, potential


def trial_energy(eps: float, p: float, mu: float) -> float:
    kinetic, potential = trial_energy_terms(eps, p, mu)
    return kinetic - potential


def critical_mass_from_constant(p: float, C_interp: float) -> float:
    """Mass below which the interpolated GN bound forces nonnegative energy."""
    if not (4 <= p <= 6):
        raise ValueError(f"formula applies for p in [4, 6], got {p}")
    if not 0 < C_interp < math.inf:
        raise ValueError(f"constant must be positive and finite, got {C_interp}")
    return (p / (2.0 * C_interp)) ** (2.0 / (p - 2.0))


# --- discretized trial function --------------------------------------------

def build_trial_function(lat: HoneycombLattice, eps: float,
                         samples_per_edge: int = 33) -> GraphFunction:
    """Sample u_eps on a truncated lattice.

    On an L-path edge the value is exp(-eps*l*(|x| + |i|)) with x the path
    coordinate; on a bridging edge between L_m and L_{m+1} on transversal
    line k it is exp(-eps*l*(t + |k| + m)) for m >= 0 (t = 0 at the L_m end)
    and exp(-eps*l*(t + |k| + |m+1|)) for m < 0 (t = 0 at the L_{m+1} end).
    The edge orientations chosen by build_honeycomb realize exactly these
    coordinates, so t is the arclength fraction tail -> head.  Closed forms
    match the infinite grid verbatim only for edge_length 1.
    """
    _check_rate(eps)
    on_path, a, coord = lat.edge_coordinates
    t = np.linspace(0.0, 1.0, samples_per_edge)
    # Constant part of the exponent: |a| on L_a; on a bridge a = m joining
    # L_m and L_{m+1} on line k = coord, |k| + m for m >= 0, else |k| + |m+1|.
    offsets = np.where(on_path, np.abs(a), np.abs(coord) + np.where(a >= 0, a, -a - 1))
    arg = np.where(on_path[:, None], np.abs(coord[:, None] + t) + offsets[:, None],
                   t + offsets[:, None])
    return from_edge_samples(lat, np.exp(-eps * lat.edge_length * arg))


def trial_truncation_radius(eps: float) -> int:
    """Radius making the neglected exponential tail negligible at 1e-3 scale."""
    _check_rate(eps)
    return max(2, math.ceil(10.0 / eps))
