"""NLS energy and the functional inequalities as computable ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .analytic import build_trial_function
from .calculus import (Discretization, GraphFunction, _abs_power, _layout, edge_lengths,
                       from_vertex_values, gradient_norms, integrate_power)
from .graph_core import MetricGraph
from .honeycomb import HoneycombLattice

# Each ratio, LHS / (RHS without its constant), is a product of norm terms
# raised to these exponents: mass = |u|_2^2, lp = int |u|^p, linf = |u|_inf,
# grad_l1 = |u'|_1, grad_l2sq = |u'|_2^2.  The sobolev ratios take p = 2; the
# Gagliardo-Nirenberg ratios need p > 2.
_EXPONENTS = {
    "sobolev2d": lambda p: {"mass": 0.5, "grad_l1": -1.0},
    "sobolev1d": lambda p: {"linf": 1.0, "grad_l1": -1.0},
    "gn1d": lambda p: {"lp": 1.0, "mass": -(p / 4 + 0.5), "grad_l2sq": -(p / 4 - 0.5)},
    "gn2d": lambda p: {"lp": 1.0, "mass": -1.0, "grad_l2sq": -(p / 2 - 1)},
    "gn_interp": lambda p: {"lp": 1.0, "grad_l2sq": -1.0, "mass": -(p / 2 - 1)},
}
RATIO_NAMES = tuple(_EXPONENTS)
_ENVELOPE_GAMMAS = (0.05, 0.2, 1.0)


def _bare_graph(graph) -> tuple[MetricGraph, HoneycombLattice | None]:
    if isinstance(graph, HoneycombLattice):
        return graph.graph, graph
    return graph, None


def make_discretization(graph, samples_per_edge: int) -> Discretization:
    """The layout shared by a lattice's or bare graph's functions at this sampling."""
    return _layout(_bare_graph(graph)[0], samples_per_edge)


def truncation_boundary(graph) -> list[int]:
    """The truncation boundary of a lattice, the leaves of a bare graph."""
    bare, lat = _bare_graph(graph)
    return lat.boundary_vertices() if lat is not None else bare.leaves()


@dataclass(slots=True)
class EnergyReport:
    kinetic: float
    potential: float
    total: float
    mass: float
    p: float


def energy(u: GraphFunction, p: float) -> EnergyReport:
    if not (2 < p <= 6):
        raise ValueError(f"nonlinearity power must be in (2, 6], got {p}")
    kinetic = 0.5 * gradient_norms(u)[1]
    potential = integrate_power(u, p) / p
    return EnergyReport(kinetic=kinetic, potential=potential, total=kinetic - potential,
                        mass=integrate_power(u, 2), p=p)


@dataclass(slots=True)
class InequalityRatio:
    name: str
    value: float
    witness: dict


def _ratio_exponents(name: str, p: float) -> dict[str, float]:
    if name not in _EXPONENTS:
        raise ValueError(f"unknown inequality {name!r}")
    exponents = _EXPONENTS[name](p)
    if "lp" in exponents and p <= 2:
        raise ValueError(f"Gagliardo-Nirenberg ratios need p > 2, got {p}")
    return exponents


def inequality_ratio(u: GraphFunction, name: str, p: float = 2.0) -> InequalityRatio:
    """Ratio LHS / (RHS without its constant) for one of the inequalities: the
    exponential of the ascent's log-ratio.  The witness holds the ratio's norm
    terms, the peak |u| and its first (edge, sample) in the per-edge view."""
    obj = _RatioObjective(u.layout, name, p)
    t = obj.terms(u.dofs)
    # Every ratio divides by a gradient norm.  The cell differences of a
    # constant are exactly zero; its v.Kv is rounding noise, not always zero.
    if u.layout.cells_constant(u.dofs) or \
            any(t[term] <= 0 for term, e in obj.exponents.items() if e < 0):
        raise ZeroDivisionError(f"{name} ratio undefined (zero denominator)")
    # The peak's first place in the view is the least first position of the
    # DOFs that tie for it; a nan peak (peak != peak) is the nan DOFs, as
    # argmax has it.
    a = np.abs(u.dofs)
    peak = a.max()
    ties = a == peak if peak == peak else np.isnan(a)
    eid, k = divmod(int(u.layout.first_position[ties].min()), u.layout.n)
    witness = {term: float(t[term]) for term in obj.exponents}
    witness.update(linf=float(peak), argmax_edge=eid, argmax_sample=k)
    return InequalityRatio(name=name, value=float(np.exp(obj.log_ratio(t))), witness=witness)


# --- randomized corpus ------------------------------------------------------

def vertex_distances(graph: MetricGraph, source: int) -> np.ndarray:
    """Arclength graph distance from source to every vertex."""
    tails = np.array([e.tail for e in graph.edges])
    heads = np.array([e.head for e in graph.edges])
    w = edge_lengths(graph)
    adj = sp.coo_matrix((w, (tails, heads)), shape=(graph.num_vertices,) * 2)
    return dijkstra((adj + adj.T).tocsr(), indices=source)


def _center_vertex(bare: MetricGraph) -> int:
    # Builders place the natural center at the coordinate origin.
    return int(np.argmin([v.x ** 2 + v.y ** 2 for v in bare.vertices]))


def _random_envelope(graph: MetricGraph, dist: np.ndarray, rng: np.random.Generator,
                     gamma: float, samples_per_edge: int) -> GraphFunction:
    """I.i.d. uniform vertex values times exp(-gamma * dist), linear on edges."""
    vv = rng.uniform(-1.0, 1.0, graph.num_vertices) * np.exp(-gamma * dist)
    return from_vertex_values(graph, vv, samples_per_edge)


def random_corpus(lat: HoneycombLattice, count: int, seed: int) -> list[GraphFunction]:
    """Randomized test functions: i.i.d. uniform vertex values modulated by an
    exponential envelope around the origin, piecewise linear on edges with 9
    samples each.  The envelope rates cycle through _ENVELOPE_GAMMAS."""
    dist = vertex_distances(lat.graph, lat.origin_vertex)
    streams = np.random.SeedSequence(seed).spawn(count)
    return [_random_envelope(lat.graph, dist, np.random.default_rng(stream),
                             _ENVELOPE_GAMMAS[idx % len(_ENVELOPE_GAMMAS)], 9)
            for idx, stream in enumerate(streams)]


# --- empirical sharp constants by ratio ascent ------------------------------

class _RatioObjective:
    """Log of an inequality ratio and its DOF-space (sub)gradient, summed over
    the ratio's exponent table: the one evaluator of the table, for
    inequality_ratio and for the sharp-constant ascent."""

    def __init__(self, dz: Discretization, name: str, p: float):
        self.dz = dz
        self.p = p
        self.exponents = _ratio_exponents(name, p)

    def terms(self, v: np.ndarray) -> dict:
        """The table's norm terms at v, plus what grad reuses: |v|^(p-2) ("w"),
        K v, the cell differences and the peak's index.  One square v*v gives
        both the mass and int |v|^p = M . (|v|^(p-2) v*v)."""
        dz, ex = self.dz, self.exponents
        t = {}
        if "mass" in ex or "lp" in ex:
            sq = v * v
            t["mass"] = float(dz.mass_vec @ sq)
            if "lp" in ex:
                t["w"] = _abs_power(v, self.p - 2, sq)
                t["lp"] = float(dz.mass_vec @ (t["w"] * sq))
        if "linf" in ex:
            a = np.abs(v)
            t["argmax"] = int(a.argmax())
            t["linf"] = a[t["argmax"]]
        if "grad_l1" in ex:
            d0, d1 = dz.cells
            t["diffs"] = v[d1] - v[d0]
            t["grad_l1"] = np.abs(t["diffs"]).sum()
        if "grad_l2sq" in ex:
            t["Kv"] = dz.stiffness @ v
            t["grad_l2sq"] = float(v @ t["Kv"])
        return t

    def log_ratio(self, terms: dict) -> float:
        return sum(e * np.log(terms[term]) for term, e in self.exponents.items())

    def evaluate(self, v: np.ndarray) -> tuple[float, dict]:
        """Log-ratio at v and its norm terms, plus what grad reuses."""
        t = self.terms(v)
        return self.log_ratio(t), t

    def grad(self, v: np.ndarray, terms: dict) -> np.ndarray:
        """The log-ratio's gradient in one expression, M v (a + b |v|^(p-2))
        + c K v, with a, b and c each smooth term's exponent over its value
        (times 2, p and 2), plus the l1 and l-infinity subgradient terms.
        It forms no K v and no power: terms carries them."""
        ex, t = self.exponents, terms
        a = 2.0 * ex["mass"] / t["mass"] if "mass" in ex else 0.0
        g = self.dz.mass_vec * v
        g *= (a + self.p * ex["lp"] / t["lp"] * t["w"]) if "lp" in ex else a
        if "grad_l2sq" in ex:
            g += 2.0 * ex["grad_l2sq"] / t["grad_l2sq"] * t["Kv"]
        if "grad_l1" in ex:
            d0, d1 = self.dz.cells
            s = np.sign(t["diffs"])
            s *= ex["grad_l1"] / max(t["grad_l1"], 1e-300)
            g += np.bincount(d1, s, v.size)
            g -= np.bincount(d0, s, v.size)
        if "linf" in ex:
            i = t["argmax"]
            g[i] += ex["linf"] / v[i]       # d|v_i|/dv_i / |v_i| = 1 / v_i
        return g


def _ascent_starts(graph, dz: Discretization, num_starts: int, seed: int):
    """Mixed start vectors: random envelopes, exponential trial profiles,
    centered bumps.  All normalized later; boundary DOFs zeroed by caller."""
    bare, lat = _bare_graph(graph)
    dist = vertex_distances(bare, _center_vertex(bare))
    streams = np.random.SeedSequence(seed).spawn(num_starts)
    starts = []
    for idx in range(num_starts):
        rng = np.random.default_rng(streams[idx])
        mode = idx % 3
        if mode == 0:
            gamma = _ENVELOPE_GAMMAS[(idx // 3) % 3]
            u = _random_envelope(bare, dist, rng, gamma, dz.n)
        elif mode == 1 and lat is not None:
            u = build_trial_function(lat, float(rng.uniform(0.1, 0.8)), dz.n)
        else:
            width = float(rng.uniform(0.5, 4.0))
            u = from_vertex_values(bare, 1.0 / np.cosh(dist / width), dz.n)
        starts.append(dz.to_dofs(u))
    return starts


def estimate_sharp_constant(name: str, p: float, graph, budget: int, seed: int,
                            samples_per_edge: int = 9, num_starts: int = 50
                            ) -> tuple[float, GraphFunction]:
    """Certified lower bound on the discrete sharp constant of an inequality.

    Projected (sub)gradient ascent on the log-ratio from multiple starts;
    iterates vanish on the truncation boundary so that every witness extends
    by zero to the infinite grid.  Deterministic given the seed; the bound is
    monotone in the budget.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if num_starts < 1:
        raise ValueError(f"num_starts must be >= 1, got {num_starts}")
    dz = make_discretization(graph, samples_per_edge)
    obj = _RatioObjective(dz, name, p)
    boundary = truncation_boundary(graph)

    def normalize(v):
        """v scaled in place to unit mass, unless it has none."""
        m = dz.mass(v)
        if m > 0:
            v /= np.sqrt(m)
        return m > 0

    # v and the gradient vanish on the boundary, so every candidate
    # v + tau*g does too, and the witness extends by zero.
    best_val, best_v = -np.inf, None
    for v in _ascent_starts(graph, dz, num_starts, seed):
        v[boundary] = 0.0
        if not normalize(v):
            continue
        val, terms = obj.evaluate(v)
        tau = 0.1
        for _ in range(budget):
            g = obj.grad(v, terms)
            g[boundary] = 0.0
            gn = np.linalg.norm(g)
            if gn < 1e-14:
                break
            g /= gn
            accepted = False
            while tau > 1e-14:
                cand = tau * g
                cand += v
                normalize(cand)
                cval, cterms = obj.evaluate(cand)
                if cval > val:
                    v, terms, val = cand, cterms, cval
                    tau *= 1.5
                    accepted = True
                    break
                tau *= 0.5
            if not accepted:
                break
        if val > best_val:
            best_val, best_v = val, v
    if best_v is None:
        raise ValueError("every ascent start vanishes once the truncation boundary is zeroed")
    return float(np.exp(best_val)), GraphFunction(_bare_graph(graph)[0], best_v)
