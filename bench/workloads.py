"""The benchmark's workloads: inputs made from a seed, a fixed list of
operations against the public ``hexnls`` API, and a check of every output.

Each workload is closed-loop with one caller: an operation starts only after
the previous one returned.  Operations reach hexnls through module attributes
at call time (``hx.minimize``, not a name bound at import), so the traced run
can swap in its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hexnls as hx
import hexnls.cli  # noqa: F401  (not imported by the package itself)

SOBOLEV2D_BOUND = 2.0 * math.sqrt(2.0)   # unit edge length
SLACK = 1.01                             # the CLI's 1% slack on the inequality bounds


@dataclass
class Op:
    """One operation: ``call`` runs it, ``check`` lists what is wrong with its output.

    ``unit`` marks the workload's unit call, whose latency gives
    ``unit_call_ms``: a ``minimize`` call or an ``inequality_ratio`` call.
    """
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    unit: bool = False


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _at_most(limit: float, what: str) -> Callable[[float], list[str]]:
    return lambda value: [] if value <= limit else [f"{what} {value!r} > {limit!r}"]


@dataclass
class Workload:
    setup: Callable[[int], object]
    warmup: Callable[[], None]
    operations: Callable[[object, dict], list[Op]]


# --- phase-r20 --------------------------------------------------------------

# (p, mu, regime).  (5, 100) is a lattice-scale spike that the solver labels
# GroundState although its energy diverges under mesh refinement (a known
# defect); it stays in so that a fix shows up here.
PHASE_POINTS = ((3.0, 1.0, "GroundState"), (5.0, 1.0, "SpreadToZero"),
                (5.0, 100.0, "GroundState"), (6.0, 10.0, "UnboundedBelow"))
MASS_JITTER = 0.005


@dataclass
class PhaseInputs:
    lat: object
    masses: list[float]
    seed: int


def phase_masses(seed: int) -> list[float]:
    """Seed 0 gives the exact points; other seeds scale each mass by a factor
    in [1 - 0.005, 1 + 0.005], which keeps every point in its regime."""
    if seed == 0:
        return [mu for _, mu, _ in PHASE_POINTS]
    factors = 1.0 + MASS_JITTER * np.random.default_rng(seed).uniform(-1.0, 1.0, len(PHASE_POINTS))
    return [mu * float(f) for (_, mu, _), f in zip(PHASE_POINTS, factors)]


def phase_setup(seed: int) -> PhaseInputs:
    return PhaseInputs(hx.build_honeycomb(20, 1.0), phase_masses(seed), seed)


def phase_warmup() -> None:
    lat = hx.build_honeycomb(3, 1.0)
    for p, mu, _ in PHASE_POINTS:
        hx.minimize(lat, p, mu)


def phase_operations(inp: PhaseInputs, reference: dict) -> list[Op]:
    cfg = hx.SolverConfig()
    refs = reference["phase-r20"]["energies_at_seed_0"] if inp.seed == 0 else None

    def check(idx: int, p: float, mu: float, regime: str):
        def run(out) -> list[str]:
            tag = f"minimize(p={p:g}, mu={mu!r})"
            bad = []
            if out.classification != regime:
                bad.append(f"{tag}: {out.classification}, expected {regime}")
            if out.classification == "GroundState":
                if not out.residual <= cfg.residual_tol:
                    bad.append(f"{tag}: residual {out.residual} > {cfg.residual_tol}")
                if not out.final_energy < 0:
                    bad.append(f"{tag}: ground-state energy {out.final_energy} not negative")
                mass = hx.integrate_power(out.minimizer, 2)
                if not _rel(mass, mu) <= 1e-10:
                    bad.append(f"{tag}: mass {mass!r} drifted from {mu!r}")
            if refs is not None:
                ref = refs[idx]
                gap = (out.final_energy - ref["energy"]) / abs(ref["energy"])
                # "at_most": an UnboundedBelow run must get at least as low.
                ok = gap <= ref["rtol"] if ref["side"] == "at_most" else abs(gap) <= ref["rtol"]
                if not ok:
                    bad.append(f"{tag}: energy {out.final_energy!r} vs reference "
                               f"{ref['energy']!r} (rtol {ref['rtol']}, {ref['side']})")
            return bad
        return run

    return [Op(f"minimize p={p:g} mu={mu:g}",
               lambda p=p, mu=mu: hx.minimize(inp.lat, p, mu),
               check(i, p, mu, regime), unit=True)
            for i, ((p, _, regime), mu) in enumerate(zip(PHASE_POINTS, inp.masses))]


# --- inequalities -----------------------------------------------------------
#
# Quadrature on many small GraphFunctions and the DOF-space ascent, plus the
# p = 6 squeezed probes and the unbounded-p6 CLI kind so that the solver's
# probe path and the CLI are measured too.  Nothing here calls the
# preconditioned solve, so solver changes should not move it.

GN_POWERS = (3.0, 4.0, 5.0, 6.0)
PROBE_WIDTHS = [1.0, 0.5, 0.25, 0.125]


@dataclass
class InequalityInputs:
    lat6: object
    lat10: object
    lat20: object
    corpus: list
    ascent_seeds: tuple[int, int]
    out_dir: Path


def inequality_setup(out_dir: Path) -> Callable[[int], InequalityInputs]:
    def setup(seed: int) -> InequalityInputs:
        s3, s6, a6, a20 = (int(s) for s in np.random.SeedSequence(seed).generate_state(4))
        # Small to large, so no large lattice is alive while a small one is built.
        lat3 = hx.build_honeycomb(3, 1.0)
        lat6 = hx.build_honeycomb(6, 1.0)
        corpus = hx.random_corpus(lat3, 500, s3) + hx.random_corpus(lat6, 500, s6)
        return InequalityInputs(lat6, hx.build_honeycomb(10, 1.0), hx.build_honeycomb(20, 1.0),
                                corpus, (a6, a20), out_dir)
    return setup


def inequality_warmup() -> None:
    lat = hx.build_honeycomb(2, 1.0)
    for u in hx.random_corpus(lat, 6, 0):
        hx.inequality_ratio(u, "sobolev2d")
        hx.inequality_ratio(u, "gn1d", 5.0)
    hx.estimate_sharp_constant("sobolev2d", 2.0, lat, budget=2, seed=0, num_starts=3)
    hx.estimate_sharp_constant("gn_interp", 5.0, lat, budget=2, seed=0, num_starts=3)
    hx.demonstrate_unbounded(lat, 1.0, [1.0, 0.5])


def _gn_interp_check(p: float):
    def run(result) -> list[str]:
        c_hat, witness = result
        # The constant must be its witness's ratio, and the witness must obey
        # the 1D Gagliardo-Nirenberg bound: gn_interp <= (|w|_2/|w'|_2)^((6-p)/2)
        # exactly when gn1d(w) <= 1.
        mass = hx.integrate_power(witness, 2)
        grad_l2sq = hx.gradient_norms(witness)[1]
        bound = SLACK * (mass / grad_l2sq) ** ((6.0 - p) / 4.0)
        own = hx.inequality_ratio(witness, "gn_interp", p).value
        bad = _at_most(bound, f"gn_interp p={p:g} constant")(c_hat)
        if not _rel(own, c_hat) <= 1e-9:
            bad.append(f"gn_interp constant {c_hat!r} differs from its witness ratio {own!r}")
        return bad
    return run


def inequality_operations(inp: InequalityInputs) -> list[Op]:
    ops = []
    s2 = _at_most(SOBOLEV2D_BOUND * SLACK, "sobolev2d ratio")
    gn = _at_most(SLACK, "gn1d ratio")
    for u in inp.corpus:
        ops.append(Op("sobolev2d", lambda u=u: hx.inequality_ratio(u, "sobolev2d").value, s2,
                      unit=True))
        for p in GN_POWERS:
            ops.append(Op(f"gn1d p={p:g}",
                          lambda u=u, p=p: hx.inequality_ratio(u, "gn1d", p).value, gn,
                          unit=True))
    a6, a20 = inp.ascent_seeds
    s2_const = _at_most(SOBOLEV2D_BOUND * SLACK, "sobolev2d constant")
    ops.append(Op("ascent sobolev2d R=6",
                  lambda: hx.estimate_sharp_constant("sobolev2d", 2.0, inp.lat6, budget=60,
                                                     seed=a6, num_starts=50),
                  lambda r: s2_const(r[0])))
    ops.append(Op("ascent gn_interp p=5 R=20",
                  lambda: hx.estimate_sharp_constant("gn_interp", 5.0, inp.lat20, budget=60,
                                                     seed=a20, num_starts=12),
                  _gn_interp_check(5.0)))
    return ops


def _refuses_coarse(lat) -> bool:
    try:
        hx.squeezed_profile(lat, 1.0, 0.05, samples_per_edge=9)
    except hx.ResolutionError:
        return True
    return False


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = hx.cli.main(argv)
    return code, buf.getvalue()


def probe_operations(inp: InequalityInputs) -> list[Op]:
    """Fixed cases; the seed does not enter."""
    lat = inp.lat10

    def decreasing(es) -> list[str]:
        ok = all(a > b for a, b in zip(es, es[1:])) and es[-1] < -10.0
        return [] if ok else [f"mu=10 probe energies not strictly decreasing below -10: {es}"]

    def above(es) -> list[str]:
        return [] if min(es) >= -1e-6 else [f"mu=0.01 probe energies below -1e-6: {es}"]

    # The CLI kind checks its own probes (mu=0.01 stays >= -1e-6, mu=10 strictly
    # decreases) and exits 1 when one fails.
    argv = ["unbounded-p6", "--out", str(inp.out_dir / "unbounded-p6")]
    return [Op("probe mu=0.01", lambda: hx.demonstrate_unbounded(lat, 0.01, PROBE_WIDTHS), above),
            Op("probe mu=10", lambda: hx.demonstrate_unbounded(lat, 10.0, PROBE_WIDTHS),
               decreasing),
            Op("coarse width refused", lambda: _refuses_coarse(lat),
               lambda ok: [] if ok else ["an unresolvable width was not refused"]),
            Op("cli unbounded-p6", lambda: _cli(argv),
               lambda r: [] if r[0] == 0 else [f"hexnls unbounded-p6 exited {r[0]}: "
                                               f"{r[1].strip()}"])]


def inequalities_operations(inp: InequalityInputs, reference: dict) -> list[Op]:
    return inequality_operations(inp) + probe_operations(inp)


def workloads(out_dir: Path) -> dict[str, Workload]:
    return {
        "phase-r20": Workload(phase_setup, phase_warmup, phase_operations),
        "inequalities": Workload(inequality_setup(out_dir), inequality_warmup,
                                 inequalities_operations),
    }
