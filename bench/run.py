"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; without it
the run exits 2 and prints no result.  Untraced runs (``--trace 0``)
report the end-to-end metrics and install no wrappers.  Traced runs
(``--trace 1``) alternate untraced rounds with rounds in which the
program's functions are wrapped, and report the per-layer metrics and the
tracing overhead; their spans are written to ``bench/out/``.
"""

from __future__ import annotations

import os

# One thread per process: numpy's BLAS pools must not add more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 21

#: Median time of ``reference()`` on the host the bounds were set on.
REFERENCE_S = 0.0036


def reference() -> float:
    """Time one pass of a fixed kernel that never calls the program.

    Small-object dict, tuple and float work, the staple of the program's
    pure-Python layers.  The run's median of these times tracks how fast
    the machine runs during the run.
    """
    start = time.perf_counter()
    table = {}
    for i in range(8000):
        table[(i & 127, "x")] = (i * 0.5, math.sqrt(i))
    return time.perf_counter() - start


def load_package() -> SimpleNamespace:
    """Import the package afresh from ``src/`` (numpy stays loaded)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "anticipative"]:
        del sys.modules[name]
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"anticipative.{m}") for m in ("cli", "task", "simulate")}
    )
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"anticipative imported from {mods.cli.__file__}, not {SRC}")
    return mods


def setup(workload: str, seed: int):
    start = time.perf_counter()
    mods = load_package()
    ops = workloads.build_round(mods, workload, seed)
    return time.perf_counter() - start, ops


class Stats:
    """Operations attempted, failed and timed, and check problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.references: list[float] = []

    def attempt(self, op) -> None:
        self.attempted += 1
        gc.collect()  # garbage left by the previous operation is not this one's cost
        self.references.append(reference())
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception:
            self.failed += 1
            print(f"{op.kind} operation failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        self.samples[op.kind].append((time.perf_counter() - start, op.units))
        for problem in op.check(output):
            self.problems.append(f"{op.kind}: {problem}")

    @property
    def correct(self) -> bool:
        """No check problem and no failed operation: a failure is a wrong output too."""
        return not self.problems and not self.failed

    def median_time(self, kind: str) -> float | None:
        return spans.median(d for d, _ in self.samples[kind])

    def median_rate(self, kind: str) -> float | None:
        return spans.median(units / d for d, units in self.samples[kind])


def run_round(ops, stats: Stats, tracer=None) -> None:
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.kind)
        stats.attempt(op)


def end_to_end(stats: Stats, setups: list[float], setup_references: list[float]
               ) -> tuple[dict, dict]:
    """The end-to-end metrics at nominal machine speed, and their raw values.

    Times are divided, and rates multiplied, by a slowdown: the median
    ``reference()`` time over ``REFERENCE_S``.  The machine's speed drifts
    over seconds, so ``setup_s`` uses the references timed between the
    set-ups and the other metrics those timed between the operations.
    """
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {
        "setup_s": (spans.median(setups), "s"),
        "certify_s": (stats.median_time("certify"), "s"),
        "evals_per_s": (stats.median_rate("analytic"), "evals/s"),
        "shots_per_s": (stats.median_rate("deep"), "shots/s"),
        "runs_per_s": (stats.median_rate("wide"), "runs/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    setup_slowdown = spans.median(setup_references) / REFERENCE_S
    slowdown = spans.median(stats.references) / REFERENCE_S
    scaled = {}
    for name, (value, unit) in raw.items():
        factor = setup_slowdown if name == "setup_s" else slowdown
        if value is None:
            pass
        elif unit == "s":
            value /= factor
        elif unit.endswith("/s"):
            value *= factor
        scaled[name] = (value, unit)
    raw["setup_slowdown"] = (setup_slowdown, "ratio")
    raw["slowdown"] = (slowdown, "ratio")
    return scaled, raw


def traced_run(ops, workload: str, seed: int, until: float):
    """Alternate untraced and traced rounds until ``until``.

    Alternating keeps both halves in the same stretch of machine speed, so
    their difference is the tracing overhead.
    """
    primary = workloads.WORKLOADS[workload][0]
    tracer = spans.Tracer()
    plain, traced = Stats(), Stats()
    while True:
        run_round(ops, plain)
        tracer.install()
        run_round(ops, traced, tracer)
        tracer.uninstall()
        if time.perf_counter() >= until:
            break
    metrics = spans.layer_metrics(spans.SpanTable(tracer, primary))
    base, with_spans = plain.median_time(primary), traced.median_time(primary)
    metrics["trace.overhead_pct"] = (
        None if base is None or with_spans is None else 100.0 * (with_spans - base) / base, "%")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload}-seed{seed}.npz")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.problems += traced.problems
    return plain, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups, setup_references = [], []
    for _ in range(SETUPS):
        gc.collect()
        setup_references.append(reference())
        elapsed, ops = setup(args.workload, args.seed)
        setups.append(elapsed)
    until = time.perf_counter() + args.seconds
    raw = {}
    if args.trace:
        stats, metrics = traced_run(ops, args.workload, args.seed, until)
    else:
        stats = Stats()
        run_round(ops, stats)
        while time.perf_counter() < until:
            run_round(ops, stats)
        metrics, raw = end_to_end(stats, setups, setup_references)

    for problem in stats.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    def as_json(values: dict) -> dict:
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    # A kind whose every operation failed has no samples; its metric is null.
    result = {
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": as_json(metrics),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "raw": as_json(raw)}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "anticipative" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
