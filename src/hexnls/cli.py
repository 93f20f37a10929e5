"""Batch experiment front-end: `hexnls <kind> --config spec.json [overrides]`.

Each experiment kind writes plot-ready CSV/JSON artifacts plus a manifest
recording the resolved configuration, package version, and timings.  Exit
codes: 0 all embedded assertions pass, 1 assertion failure, 2 usage or I/O
error.  Given a seed, the data files are byte-identical across reruns; the
manifest (which carries timings) is the only non-deterministic artifact, so
every timing goes there.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (build_trial_function, critical_mass_from_constant, soliton_params,
                       soliton_profile, trial_kinetic_integral, trial_lp_integral,
                       trial_normalization, trial_truncation_radius)
from .calculus import GraphFunction, from_vertex_values, gradient_norms, integrate_power
from .functionals import (energy, estimate_sharp_constant, inequality_ratio,
                          random_corpus)
from .graph_core import build_line
from .honeycomb import build_honeycomb
from .solver import bisect_critical_mass, demonstrate_unbounded, minimize

DEFAULTS: dict[str, dict] = {
    "inequalities": {
        "radius": 6, "edge_length": 1.0, "seed": 0, "corpus_size": 200,
        "p_list": [3.0, 4.0, 5.0, 6.0], "ascent_starts": 12, "ascent_budget": 60,
        "slack": 1e-2,
    },
    "trial-forms": {
        "eps_list": [0.1, 0.2, 0.5], "p_list": [2.0, 3.0, 4.0],
        "mu_list": [0.5, 1.0, 2.0], "samples_per_edge": 65, "tolerance": 1e-3,
    },
    "phase-diagram": {
        "radius": 20, "edge_length": 1.0,
        "p_list": [3.0, 5.0], "mu_list": [0.01, 1.0, 100.0],
    },
    "critical-mass": {
        "radius": 20, "edge_length": 1.0, "seed": 0, "p": 5.0,
        "mu_lo": 1e-3, "mu_hi": 100.0, "tolerance": 0.05,
        "ascent_starts": 12, "ascent_budget": 60,
    },
    "unbounded-p6": {
        "radius": 20, "edge_length": 1.0, "mu_list": [0.01, 10.0],
        "width_list": [2.0, 1.0, 0.5, 0.25],
    },
    "soliton-check": {
        "half_length": 30.0, "p": 4.0, "mu": 2.0,
        "samples_per_edge": 17, "profile_tolerance": 1e-2,
    },
}
# The types a config value may take, by the type of its default: an int
# passes for a float, and a bool, which isinstance counts as an int, for none.
_ACCEPTED_TYPES = {list: (list,), int: (int,), float: (int, float)}


def _load_config(args: argparse.Namespace) -> dict:
    """The kind's defaults, updated from the config file, then from the flags.

    A setting the kind does not read is refused, so that a manifest lists
    only values the run used, and so is a value of another type than the
    setting's default, a number (alone or in a list) that is not finite, and
    an empty list: json reads NaN and Infinity, and either, like a list with
    nothing to check, would switch off a gate.
    """
    defaults = DEFAULTS[args.kind]
    cfg = dict(defaults)
    if args.config is not None:
        with open(args.config) as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"{args.config} is not a JSON object")
        unknown = sorted(set(spec) - set(defaults))
        if unknown:
            raise ValueError(f"{args.kind} has no setting {', '.join(map(repr, unknown))}")
        for key, value in spec.items():
            want = type(defaults[key])
            if isinstance(value, bool) or not isinstance(value, _ACCEPTED_TYPES[want]):
                raise ValueError(f"{args.kind} setting {key!r} takes a {want.__name__}, "
                                 f"got {value!r}")
        cfg.update(spec)
    # Each flag writes those of its settings that the kind has.
    for flag, keys in (("p", ("p", "p_list")), ("mu", ("mu", "mu_list")),
                       ("radius", ("radius",)), ("seed", ("seed",))):
        value = getattr(args, flag)
        if value is None:
            continue
        used = [k for k in keys if k in defaults]
        if not used:
            raise ValueError(f"{args.kind} reads no {flag}; --{flag} does not apply")
        for k in used:
            cfg[k] = [value] if k.endswith("_list") else value
    for key, value in cfg.items():
        if value == []:
            raise ValueError(f"{args.kind} setting {key!r} must not be empty")
        for x in value if isinstance(value, list) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{args.kind} setting {key!r} must be finite, got {x!r}")
    return cfg


# --- experiment bodies ------------------------------------------------------

def run_inequalities(cfg: dict, outdir: Path, manifest: dict) -> list[str]:
    slack = cfg["slack"]
    if slack < 0:
        raise ValueError(f"slack must be non-negative, got {slack!r}")
    lat = build_honeycomb(cfg["radius"], cfg["edge_length"])
    bounds = {"sobolev2d": 2.0 * math.sqrt(2.0 * cfg["edge_length"]), "gn1d": 1.0}
    corpus = random_corpus(lat, cfg["corpus_size"], cfg["seed"])
    rows = ["name,p,ratio,bound,status"]
    failures = []

    def record(name: str, p: float, value: float):
        bound = bounds.get(name)
        if bound is None:
            rows.append(f"{name},{p!r},{value!r},,reported")
            return
        ok = value <= bound * (1.0 + slack)
        rows.append(f"{name},{p!r},{value!r},{bound!r},{'pass' if ok else 'fail'}")
        if not ok:
            failures.append(f"{name} ratio {value} exceeds {bound}*(1+{slack})")

    for u in corpus:
        record("sobolev2d", 2.0, inequality_ratio(u, "sobolev2d").value)
        for p in cfg["p_list"]:
            for name in ("gn1d", "gn2d", "gn_interp"):
                record(name, p, inequality_ratio(u, name, p).value)
    summary = {}
    for name, p in [("sobolev2d", 2.0)] + [("gn1d", p) for p in cfg["p_list"]] \
            + [("gn_interp", p) for p in cfg["p_list"] if 4.0 <= p <= 6.0]:
        c_hat, _ = estimate_sharp_constant(
            name, p, lat, budget=cfg["ascent_budget"], seed=cfg["seed"],
            num_starts=cfg["ascent_starts"])
        summary[f"{name}_p{p:g}"] = c_hat
        record(name, p, c_hat)
    (outdir / "inequality_ratios.csv").write_text("\n".join(rows) + "\n")
    (outdir / "sharp_constants.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return failures


def run_trial_forms(cfg: dict, outdir: Path, manifest: dict) -> list[str]:
    tol = cfg["tolerance"]
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    rows = ["eps,p,quantity,closed_form,quadrature,rel_error,status"]
    failures = []
    for eps in cfg["eps_list"]:
        lat = build_honeycomb(trial_truncation_radius(eps), 1.0)
        u = build_trial_function(lat, eps, cfg["samples_per_edge"])
        checks = [("kinetic", "", trial_kinetic_integral(eps), gradient_norms(u)[1])]
        for p in cfg["p_list"]:
            checks.append((f"lp_p{p:g}", f"{p:g}", trial_lp_integral(eps, p),
                           integrate_power(u, p)))
        for quantity, p_tag, exact, quad in checks:
            rel = abs(quad - exact) / abs(exact)
            ok = rel < tol
            rows.append(f"{eps!r},{p_tag},{quantity},{exact!r},{quad!r},{rel!r},"
                        f"{'pass' if ok else 'fail'}")
            if not ok:
                failures.append(f"eps={eps} {quantity}: rel error {rel} >= {tol}")
        for mu in cfg["mu_list"]:
            k = trial_normalization(eps, mu)
            mass = k * k * integrate_power(u, 2)
            rel = abs(mass - mu) / mu
            ok = rel < tol
            rows.append(f"{eps!r},,normalization_mu{mu:g},{mu!r},{mass!r},{rel!r},"
                        f"{'pass' if ok else 'fail'}")
            if not ok:
                failures.append(f"eps={eps} mu={mu} normalization: rel error {rel}")
    (outdir / "trial_forms.csv").write_text("\n".join(rows) + "\n")
    return failures


def render_phase_csv(points: list[dict]) -> str:
    """Plot-ready sweep table, sorted by (p, mu): each point's label and
    energy, and how the winning start got there."""
    rows = ["p,mu,classification,energy,iterations,residual,init_used"]
    for pt in sorted(points, key=lambda q: (q["p"], q["mu"])):
        rows.append(f"{pt['p']!r},{pt['mu']!r},{pt['classification']},"
                    f"{pt['energy']!r},{pt['iterations']},{pt['residual']!r},"
                    f"{pt['init_used']}")
    return "\n".join(rows) + "\n"


def run_phase_diagram(cfg: dict, outdir: Path, manifest: dict) -> list[str]:
    lat = build_honeycomb(cfg["radius"], cfg["edge_length"])
    points, runtimes = [], []
    for p in cfg["p_list"]:
        for mu in cfg["mu_list"]:
            t0 = time.perf_counter()
            out = minimize(lat, p, mu)
            runtimes.append({"p": p, "mu": mu,
                             "runtime_ms": int(1000 * (time.perf_counter() - t0))})
            points.append({"p": p, "mu": mu, "classification": out.classification,
                           "energy": out.final_energy, "iterations": out.iterations,
                           "residual": out.residual, "init_used": out.init_used})
    manifest["point_runtimes"] = runtimes
    (outdir / "phase_diagram.csv").write_text(render_phase_csv(points))
    failures = []
    for p in cfg["p_list"]:
        tags = [pt["classification"] for pt in
                sorted(points, key=lambda q: q["mu"]) if pt["p"] == p]
        if p < 4 and any(t != "GroundState" for t in tags):
            failures.append(f"p={p}: expected GroundState at every mass, got {tags}")
        if 4 <= p < 6:
            flips = sum(a != b for a, b in zip(tags, tags[1:]))
            if flips > 1:
                failures.append(f"p={p}: {flips} classification flips along mass")
        if p == 6 and "GroundState" in tags:
            failures.append(f"p={p}: ground state reported at the critical power")
    return failures


def run_critical_mass(cfg: dict, outdir: Path, manifest: dict) -> list[str]:
    lat = build_honeycomb(cfg["radius"], cfg["edge_length"])
    p = cfg["p"]
    mid, (lo, hi) = bisect_critical_mass(lat, p, cfg["mu_lo"], cfg["mu_hi"],
                                         tol=cfg["tolerance"])
    c_hat, _ = estimate_sharp_constant("gn_interp", p, lat, budget=cfg["ascent_budget"],
                                       seed=cfg["seed"], num_starts=cfg["ascent_starts"])
    analytic_lo = critical_mass_from_constant(p, c_hat)
    doc = {"p": p, "critical_mass": mid, "bracket": [lo, hi],
           "interp_constant": c_hat, "analytic_lower_bound": analytic_lo}
    (outdir / "critical_mass.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    failures = []
    if (hi - lo) > cfg["tolerance"] * 0.5 * (hi + lo):
        failures.append(f"bracket [{lo}, {hi}] wider than {cfg['tolerance']} relative")
    if lo < analytic_lo * 0.95:
        failures.append(f"bracket lower end {lo} below analytic bound {analytic_lo} - 5%")
    return failures


def run_unbounded_p6(cfg: dict, outdir: Path, manifest: dict) -> list[str]:
    lat = build_honeycomb(cfg["radius"], cfg["edge_length"])
    rows = ["mu,width,energy"]
    failures = []
    for mu in cfg["mu_list"]:
        energies = demonstrate_unbounded(lat, mu, cfg["width_list"])
        for w, e in zip(cfg["width_list"], energies):
            rows.append(f"{mu!r},{w!r},{e!r}")
        if mu <= 0.1 and any(e < -1e-6 for e in energies):
            failures.append(f"mu={mu}: squeezed probes went below -1e-6 "
                            f"at the critical power")
        if mu >= 10 and not all(a > b for a, b in zip(energies, energies[1:])):
            failures.append(f"mu={mu}: squeezed energies not strictly decreasing")
    (outdir / "unbounded_p6.csv").write_text("\n".join(rows) + "\n")
    return failures


def run_soliton_check(cfg: dict, outdir: Path, manifest: dict) -> list[str]:
    tol = cfg["profile_tolerance"]
    if tol <= 0:
        raise ValueError(f"profile_tolerance must be positive, got {tol!r}")
    graph = build_line(cfg["half_length"])
    p, mu = cfg["p"], cfg["mu"]
    out = minimize(graph, p, mu, samples_per_edge=cfg["samples_per_edge"], init="soliton-bump")
    failures = []
    if out.classification != "GroundState":
        failures.append(f"expected GroundState on the line, got {out.classification}")
        doc = {"classification": out.classification, "energy": out.final_energy}
    else:
        u = out.minimizer
        params = soliton_params(p, mu)
        x = from_vertex_values(graph, graph.xy[:, 0], u.samples_per_edge).dofs
        # Center the reference profile on the numerical maximizer.
        x_peak = x[int(np.abs(u.vertex_values()).argmax())]
        diff = GraphFunction(graph, np.abs(u.dofs) - soliton_profile(params, x - x_peak))
        l2_rel = math.sqrt(integrate_power(diff, 2) / mu)
        doc = {"classification": out.classification, "energy": out.final_energy,
               "profile_l2_rel_discrepancy": l2_rel, "residual": out.residual,
               "lagrange_multiplier": out.lagrange_multiplier}
        if l2_rel >= tol:
            failures.append(f"profile discrepancy {l2_rel} >= {tol}")
        if out.final_energy >= 0:
            failures.append(f"line ground-state energy not negative: {out.final_energy}")
    (outdir / "soliton_check.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return failures


RUNNERS = {
    "inequalities": run_inequalities,
    "trial-forms": run_trial_forms,
    "phase-diagram": run_phase_diagram,
    "critical-mass": run_critical_mass,
    "unbounded-p6": run_unbounded_p6,
    "soliton-check": run_soliton_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hexnls",
        description="Reproducible NLS-on-graphs experiments (CSV/JSON artifacts).")
    parser.add_argument("kind", choices=RUNNERS)
    parser.add_argument("--config", help="JSON experiment spec (defaults per kind)")
    parser.add_argument("--p", type=float, help="override the nonlinearity power")
    parser.add_argument("--mu", type=float, help="override the mass")
    parser.add_argument("--radius", type=int, help="override the truncation radius")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A runner may add its own timings to the manifest.
    manifest = {"kind": args.kind, "config": cfg, "version": __version__}
    t0 = time.perf_counter()
    try:
        failures = RUNNERS[args.kind](cfg, outdir, manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest["runtime_seconds"] = time.perf_counter() - t0
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"{args.kind}: all assertions passed; artifacts in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
