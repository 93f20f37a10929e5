"""Span tracing for the traced benchmark run.

Spans are recorded around the public entry points of each ``hexnls`` module.
The benchmark swaps every reference to an entry point (in all loaded
``hexnls`` modules, since modules import each other's functions by name) for
a wrapper while a traced section runs, and puts the originals back after it;
the package sources are never edited.  With tracing off nothing is wrapped.

A span is ``[name, start, end, parent]``; spans are kept in memory and
summarised when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    """Spans and counters of one traced section (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.minimize_calls: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self.last = -1   # index of the span that closed most recently

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        idx = len(self.spans)
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self.last = idx

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(end - start) - c for (_, start, end, _), c in zip(self.spans, covered)]

    def summary(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        out: dict[str, list] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def root_of(self, idx: int, name: str) -> int:
        """Index of the outermost ancestor span (or idx itself) called name, or -1."""
        found = -1
        while idx >= 0:
            if self.spans[idx][0] == name:
                found = idx
            idx = self.spans[idx][3]
        return found


# --- instrumentation --------------------------------------------------------

def _artifact_bytes(argv) -> int:
    """Bytes of the data files a CLI run wrote (the manifest carries timings,
    so its size is not deterministic and it is left out)."""
    out = Path(argv[argv.index("--out") + 1])
    return sum(f.stat().st_size for f in out.iterdir()
               if f.is_file() and f.name != "manifest.json")


def _count_minimize(tracer: Tracer, args, kwargs, result):
    tracer.counters["solver.iterations"] += result.iterations
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    mu = kwargs.get("mu", args[2] if len(args) > 2 else None)
    tracer.minimize_calls.append((tracer.last, p, mu, result.iterations))


# (module, attribute, span name, counter hook(tracer, args, kwargs, result))
FUNCTIONS = [
    ("graph_core", "validate", "graph_core.validate", None),
    ("honeycomb", "build_honeycomb", "honeycomb.build_honeycomb",
     lambda t, a, k, r: t.counters.update({"honeycomb.edges_built": r.graph.num_edges})),
    ("analytic", "build_trial_function", "analytic.build_trial_function",
     lambda t, a, k, r: t.counters.update({"analytic.samples_built": r.values.size})),
    ("calculus", "integrate_power", "calculus.integrate_power",
     lambda t, a, k, r: t.counters.update({"calculus.quadrature_bytes": a[0].values.nbytes})),
    ("calculus", "gradient_norms", "calculus.gradient_norms",
     lambda t, a, k, r: t.counters.update({"calculus.quadrature_bytes": a[0].values.nbytes})),
    ("functionals", "inequality_ratio", "functionals.inequality_ratio", None),
    ("functionals", "estimate_sharp_constant", "functionals.estimate_sharp_constant", None),
    ("functionals", "random_corpus", "functionals.random_corpus", None),
    ("solver", "initial_function", "solver.initial_function", None),
    ("solver", "minimize", "solver.minimize", _count_minimize),
    ("solver", "demonstrate_unbounded", "solver.demonstrate_unbounded", None),
    ("cli", "main", "cli.main",
     lambda t, a, k, r: t.counters.update({"cli.artifact_bytes": _artifact_bytes(a[0])})),
]

# (module, class, method, span name)
METHODS = [
    ("calculus", "Discretization", "__init__", "calculus.discretization"),
    ("calculus", "Discretization", "mass", "calculus.dof_eval"),
    ("calculus", "Discretization", "lp", "calculus.dof_eval"),
    ("calculus", "Discretization", "kinetic", "calculus.dof_eval"),
    ("calculus", "Discretization", "boundary_mass_fraction", "calculus.boundary_fraction"),
]


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


class _TracedLU:
    """SuperLU stand-in whose solve is traced (SuperLU objects take no attributes)."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer, self._lu = tracer, lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("solver.newton_lu_solve", self._lu.solve, args, kwargs)


def _scipy_wrappers(tracer: Tracer, factorized, splu):
    def traced_factorized(A):
        solve = tracer.call("solver.factorize", factorized, (A,), {})
        return lambda b: tracer.call("solver.precond_solve", solve, (b,), {})

    def traced_splu(*args, **kwargs):
        return _TracedLU(tracer, tracer.call("solver.newton_lu", splu, args, kwargs))

    return traced_factorized, traced_splu


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route calls into hexnls through tracing wrappers for the with-block."""
    import hexnls.cli  # noqa: F401  (the package does not import its CLI module)
    modules = [m for n, m in list(sys.modules.items())
               if (n == "hexnls" or n.startswith("hexnls.")) and m is not None]
    undo: list[tuple[object, str, object]] = []

    def replace_everywhere(old, new):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)
                    undo.append((mod, attr, old))

    try:
        for mod_name, attr, name, hook in FUNCTIONS:
            fn = getattr(sys.modules[f"hexnls.{mod_name}"], attr)
            replace_everywhere(fn, _wrap(tracer, name, fn, hook))
        solver = sys.modules["hexnls.solver"]
        for attr, new in zip(("factorized", "splu"),
                             _scipy_wrappers(tracer, solver.factorized, solver.splu)):
            undo.append((solver, attr, getattr(solver, attr)))
            setattr(solver, attr, new)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"hexnls.{mod_name}"], cls_name)
            undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, _wrap(tracer, name, cls.__dict__[meth]))
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


# --- per-layer metrics ------------------------------------------------------

def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced section, as name -> (value, unit).

    Every ``*_s`` metric but ``cli.main_s`` is self time, so the layers
    partition the traced time; a metric whose layer the workload never calls
    is 0.
    """
    s = tracer.summary()
    c = tracer.counters

    def self_s(*names):
        return sum((s[n][2] for n in names if n in s), 0.0)

    def total_s(*names):
        return sum((s[n][1] for n in names if n in s), 0.0)

    def calls(*names):
        return sum(s[n][0] for n in names if n in s)

    solves = calls("solver.precond_solve")
    return {
        "graph_core.validate_s": (self_s("graph_core.validate"), "s"),
        "graph_core.validate_calls": (calls("graph_core.validate"), "count"),
        "honeycomb.build_s": (self_s("honeycomb.build_honeycomb"), "s"),
        "honeycomb.edges_built": (c["honeycomb.edges_built"], "count"),
        "analytic.trial_function_s": (self_s("analytic.build_trial_function"), "s"),
        "analytic.samples_built": (c["analytic.samples_built"], "count"),
        "calculus.quadrature_s": (self_s("calculus.integrate_power",
                                         "calculus.gradient_norms"), "s"),
        "calculus.quadrature_calls": (calls("calculus.integrate_power",
                                            "calculus.gradient_norms"), "count"),
        "calculus.quadrature_bytes": (c["calculus.quadrature_bytes"], "B"),
        "calculus.dof_eval_s": (self_s("calculus.dof_eval"), "s"),
        "calculus.dof_eval_calls": (calls("calculus.dof_eval"), "count"),
        "calculus.boundary_fraction_s": (self_s("calculus.boundary_fraction"), "s"),
        "calculus.boundary_fraction_calls": (calls("calculus.boundary_fraction"), "count"),
        "calculus.discretization_s": (self_s("calculus.discretization"), "s"),
        "functionals.ratio_s": (self_s("functionals.inequality_ratio"), "s"),
        "functionals.ratio_calls": (calls("functionals.inequality_ratio"), "count"),
        "functionals.ascent_s": (self_s("functionals.estimate_sharp_constant"), "s"),
        "functionals.corpus_s": (self_s("functionals.random_corpus"), "s"),
        "solver.precond_solves": (solves, "count"),
        "solver.precond_solve_s": (self_s("solver.precond_solve"), "s"),
        "solver.factorizations": (calls("solver.factorize"), "count"),
        "solver.factorize_s": (self_s("solver.factorize"), "s"),
        "solver.newton_lu_calls": (calls("solver.newton_lu"), "count"),
        "solver.newton_lu_s": (self_s("solver.newton_lu", "solver.newton_lu_solve"), "s"),
        "solver.init_s": (self_s("solver.initial_function"), "s"),
        "solver.self_s": (self_s("solver.minimize"), "s"),
        "solver.iterations": (c["solver.iterations"], "count"),
        # Base: solver.precond_solves; 0 when the workload makes no solves.
        "solver.useful_ratio": (c["solver.iterations"] / solves if solves else 0.0, "ratio"),
        "solver.probe_s": (self_s("solver.demonstrate_unbounded"), "s"),
        "cli.main_s": (total_s("cli.main"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.artifact_bytes": (c["cli.artifact_bytes"], "B"),
        "trace_overhead_frac": (overhead_frac, "frac"),
    }


def report(tracer: Tracer) -> tuple[list[str], bool]:
    """Human-readable per-span table and the self-time partition check.

    The check: over every root span, the self times of the span and all its
    descendants add up to the root's duration.
    """
    lines = [f"{'span':<38}{'calls':>9}{'total_s':>12}{'self_s':>12}"]
    for name, (n, tot, own) in sorted(tracer.summary().items()):
        lines.append(f"{name:<38}{n:>9}{tot:>12.4f}{own:>12.4f}")
    own = tracer.self_times()
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    total_self = sum(own)
    ok = abs(total_self - roots) <= 1e-9 * max(1.0, roots)
    lines.append(f"self times of all spans {total_self:.6f} s = root span time "
                 f"{roots:.6f} s: {'ok' if ok else 'MISMATCH'}")
    for idx, p, mu, iters in tracer.minimize_calls:
        inside = [i for i in range(idx, len(tracer.spans))
                  if tracer.root_of(i, "solver.minimize") == idx]
        names = Counter(tracer.spans[i][0] for i in inside)
        dur = tracer.spans[idx][2] - tracer.spans[idx][1]
        sub_self = sum(own[i] for i in inside)
        lines.append(
            f"minimize(p={p:g}, mu={mu:.6g}): {dur:.4f} s = {sub_self:.4f} s of self times; "
            f"iterations {iters}, precond solves {names['solver.precond_solve']}, "
            f"factorizations {names['solver.factorize']}, "
            f"newton LU {names['solver.newton_lu']}")
    return lines, ok
