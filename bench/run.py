"""Run one hexnls benchmark workload and print its metrics.

    python3 bench/run.py --workload phase-r20 --seed 0 --seconds 40 --trace 0

The package is imported from the ``src/`` beside this directory (never from
an installed copy), so the run fails when the sources are missing.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off, over whole
passes of the operation list until the next would overrun ``--seconds`` (two
passes at least).  ``--trace 1`` runs untraced passes for half the time (one
at least), then one traced set-up and pass, and prints the per-layer
metrics, the span table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

THREADS = 1   # one BLAS thread: fixed reduction order, so counts repeat exactly
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy  # noqa: E402  (after the thread settings, which it reads on import)
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups before the passes, and again after them: each side repeats for at
# least SETUP_SECONDS and SETUP_REPS times.  A single set-up takes 0.03-0.2 s,
# which a slow second of the host would otherwise swamp.
SETUP_SECONDS = 1.5
SETUP_REPS = 5


def _import_checkout_package():
    src = ROOT / "src"
    if not (src / "hexnls" / "__init__.py").is_file():
        raise SystemExit(f"error: no hexnls sources at {src / 'hexnls'}")
    sys.path.insert(0, str(src))
    import hexnls
    if Path(hexnls.__file__).resolve().parent != (src / "hexnls").resolve():
        raise SystemExit(f"error: hexnls imported from {hexnls.__file__}, not {src}")


class Tally:
    """Operations attempted and failed; failures are printed, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for line in problems:
                print(f"FAIL: {line}", file=sys.stderr)


def run_pass(ops):
    """Run the operation list once; returns (wall s, per-operation latencies s, outputs)."""
    gc.collect()
    outputs, latencies = [], []
    t0 = perf_counter()
    for op in ops:
        s = perf_counter()
        try:
            outputs.append((True, op.call()))
        except Exception as exc:  # counted as a failed operation
            outputs.append((False, f"{op.name}: {type(exc).__name__}: {exc}"))
        latencies.append(perf_counter() - s)
    return perf_counter() - t0, latencies, outputs


def check_pass(ops, outputs, tally: Tally) -> None:
    for op, (ok, out) in zip(ops, outputs):
        if not ok:
            tally.record([out])
            continue
        try:
            tally.record(op.check(out))
        except Exception as exc:  # a check that cannot run is a failed output
            tally.record([f"{op.name}: check raised {type(exc).__name__}: {exc}"])


def timed_setups(wl, seed: int, times: list[float]):
    """Set up repeatedly, appending each duration; returns the last inputs."""
    state, start, reps = None, perf_counter(), 0
    while reps < SETUP_REPS or perf_counter() - start < SETUP_SECONDS:
        state = None
        gc.collect()
        t = perf_counter()
        state = wl.setup(seed)
        times.append(perf_counter() - t)
        reps += 1
    return state


def measure(ops, budget: float, min_passes: int, tally: Tally):
    """Whole passes until the next one would overrun the budget, but at least
    min_passes.

    Returns the pass walls and, per operation, its latencies over the passes.
    """
    walls, per_op = [], [[] for _ in ops]
    start = perf_counter()
    while True:
        wall, lat, outputs = run_pass(ops)
        check_pass(ops, outputs, tally)
        walls.append(wall)
        for samples, x in zip(per_op, lat):
            samples.append(x)
        if len(walls) >= min_passes and perf_counter() - start + wall > budget:
            return walls, per_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checkout_package()
    from tracing import Tracer, instrument, layer_metrics, report
    from workloads import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        table = workloads(Path(tmp))
        if args.workload not in table:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
        wl = table[args.workload]
        tally = Tally()

        wl.warmup()
        setup_times: list[float] = []
        state = timed_setups(wl, args.seed, setup_times)
        ops = wl.operations(state, reference)
        # Two passes at least with tracing off, so that no operation's time
        # rests on a single sample; the traced run needs one untraced pass
        # to compare against.
        if args.trace:
            walls, per_op = measure(ops, args.seconds / 2, 1, tally)
        else:
            walls, per_op = measure(ops, args.seconds, 2, tally)
        # Each operation's median over the passes, summed: a slow spell of the
        # machine during one pass moves it less than it moves that pass's wall.
        op_s = [statistics.median(samples) for samples in per_op]
        wall_s = sum(op_s)
        # The unit calls differ in size (lattices of several radii, four
        # phase points), so their latencies pool into several modes whose
        # median jumps between them; each call's own median is averaged instead.
        unit_s = [x for op, x in zip(ops, op_s) if op.unit]
        print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
              f"scipy {scipy.__version__}, {THREADS} BLAS thread")
        print(f"{args.workload}: seed {args.seed}, {len(walls)} passes of {len(ops)} "
              f"operations, {len(unit_s)} unit calls; "
              f"pass walls {' '.join(f'{w:.3f}' for w in walls)} s")

        state = ops = None
        if not args.trace:
            # More set-ups after the passes, so the median spans the whole run.
            timed_setups(wl, args.seed, setup_times)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (wall_s, "s"),
                "unit_call_ms": (1e3 * statistics.fmean(unit_s), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            sound = True
        else:
            gc.collect()
            tracer = Tracer()
            with instrument(tracer):
                traced_state = wl.setup(args.seed)
                traced_ops = wl.operations(traced_state, reference)
                traced_wall, _, outputs = run_pass(traced_ops)
            check_pass(traced_ops, outputs, tally)
            lines, sound = report(tracer)
            print("\n".join(lines))
            dump = ROOT / ".bench_build" / f"spans-{args.workload}-seed{args.seed}.json"
            dump.parent.mkdir(exist_ok=True)
            dump.write_text(json.dumps(tracer.spans))   # [name, start, end, parent]
            print(f"spans written to {dump.relative_to(ROOT)}")
            metrics = layer_metrics(tracer, traced_wall / wall_s - 1.0)
            for name, (value, u) in metrics.items():
                print(f"{name:<34}{value!r:>24} {u}")

    print(json.dumps({
        "correct": tally.failed == 0 and sound,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
