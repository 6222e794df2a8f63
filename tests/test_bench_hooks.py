"""The benchmark's span tracer still finds every hook it wraps.

``bench/spans.py`` patches package functions by dotted name and reads
attributes of the sampled runs; a rename in the package would otherwise
only surface when the benchmark is run with ``--trace 1``.  A traced
round must also reduce to a result line that strict JSON accepts.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _package(name: str):
    # Resolved when a test runs, not at import: the benchmark's loader
    # evicts and re-imports the package, and the tracer wraps the
    # functions of the modules imported last.
    return importlib.import_module(f"anticipative.{name}")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("bench_spans", BENCH / "spans.py")


@pytest.fixture(scope="module")
def workloads():
    # ``workloads.py`` imports its sibling ``oracle`` by bare name.
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        return _load("bench_workloads", BENCH / "workloads.py")


def test_every_wrapped_name_resolves(spans):
    assert spans.WRAPPED
    for name in spans.WRAPPED:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"anticipative.{module_name}")
        for attr in path:
            owner = getattr(owner, attr)
        assert callable(owner), name


@pytest.mark.parametrize("basis_mode", ["even", "per-shot"])
def test_run_result_carries_what_the_tracer_reads(spans, basis_mode):
    simulate = _package("simulate")
    plan = simulate.plan_experiment([1.0], shots=5, seed=0, basis_mode=basis_mode)
    res = simulate.sample_run(plan.runs[0], simulate.NOISELESS)
    assert isinstance(res, simulate.RunResult)
    assert res.run.shots == len(res.outcomes)
    assert res.outcomes.nbytes > 0
    assert res.bases is None or res.bases.nbytes == res.outcomes.nbytes
    assert res.tallies().shape == (4,)
    assert res.tallies().sum() == res.run.shots


def test_traced_round_reduces_to_finite_per_layer_metrics(spans, workloads):
    # One round of every operation kind at tiny sizes, traced as the
    # benchmark's ``--trace 1`` does.  A wrapped function the package no
    # longer calls reads null, and a count divided by zero calls reads NaN;
    # either makes the benchmark's result line unreadable.
    mods = SimpleNamespace(**{m: _package(m) for m in ("cli", "task", "simulate")})
    sizes = {"certify": (1,), "analytic": (2,), "deep": (2, 200), "wide": (4,)}
    ops = [
        make_op(mods, random.Random(f"1:{kind}"), *sizes[kind])
        for kind, make_op in workloads.OP_KINDS.items()
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            tracer.begin_op(op.kind)
            assert op.check(op.run()) == [], op.kind
    finally:
        tracer.uninstall()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"] for m in declared} - {"trace.overhead_pct"}
    for primary in sizes:
        metrics = spans.layer_metrics(spans.SpanTable(tracer, primary))
        assert set(metrics) == names, primary
        for name, (value, _) in metrics.items():
            assert isinstance(value, float) and math.isfinite(value), (primary, name, value)
        json.dumps(metrics, allow_nan=False)
