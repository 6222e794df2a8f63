"""The benchmark's span tracer still finds every hook it wraps.

``bench/spans.py`` patches package functions by dotted name and reads
attributes of the sampled runs; a rename in the package would otherwise
only surface when the benchmark is run with ``--trace 1``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from anticipative.simulate import NOISELESS, RunResult, plan_experiment, sample_run

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    plan = plan_experiment([1.0], shots=5, seed=0, basis_mode=basis_mode)
    res = sample_run(plan.runs[0], NOISELESS)
    assert isinstance(res, RunResult)
    assert res.run.shots == len(res.outcomes)
    assert res.outcomes.nbytes > 0
    assert res.bases is None or res.bases.nbytes == res.outcomes.nbytes
    assert set(res.tallies()) <= set(("a", "b"))
