"""The benchmark's output checks have teeth.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py

Each check passes on the program's real output and flags a perturbed
copy; a failing ``verify`` counts as a failed operation.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.load_package()


def test_oracle_matches_paper_spot_values():
    assert oracle.closed_form("anticipative", 1, 1.0) == pytest.approx(0.6365775262246129, abs=1e-15)
    assert oracle.closed_form("standard", 2, math.pi / 2) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("theta", [0.01, 0.4, 1.0, math.pi / 2])
def test_noiseless_expectation_equals_closed_forms(theta):
    for kind in oracle.KINDS:
        for k in oracle.K_VALUES:
            assert oracle.noisy_success(kind, k, theta, 0.0) == pytest.approx(
                oracle.closed_form(kind, k, theta), abs=1e-14)


def test_z_limit_grows_with_estimates():
    assert 6.0 < oracle.z_limit(18) < oracle.z_limit(2400) < 8.0


def test_perturbed_empirical_value_is_flagged(mods):
    op = workloads.wide_op(mods, random.Random(7), 20)
    curves = op.run()
    assert op.check(curves) == []
    key = next(iter(curves))
    est = curves[key]
    curves[key] = type(est)(est.value + 8.0 * est.stderr, est.stderr, est.shots)
    problems = op.check(curves)
    assert any("beyond" in p for p in problems)
    # An inflated stderr is flagged itself and does not hide the biased value.
    curves[key] = type(est)(est.value + 8.0 * est.stderr, 10.0 * est.stderr, est.shots)
    problems = op.check(curves)
    assert any(p.startswith("stderr") for p in problems)
    assert any("beyond" in p for p in problems)


def test_wrong_stderr_or_shots_is_flagged(mods):
    op = workloads.wide_op(mods, random.Random(7), 20)
    curves = op.run()
    assert op.check(curves) == []
    key = next(iter(curves))
    est = curves[key]
    curves[key] = type(est)(est.value, est.stderr * 1.01, est.shots)
    assert any(p.startswith("stderr") for p in op.check(curves))
    curves[key] = type(est)(est.value, est.stderr, est.shots - 1)
    assert any("shots" in p for p in op.check(curves))


def test_perturbed_csv_is_flagged(mods):
    op = workloads.deep_op(mods, random.Random(7), 2, 20_000)
    text = op.run()
    assert op.check(text) == []
    rows = text.split("\n")
    cells = rows[3].split(",")
    cells[4] = repr(float(cells[4]) + 10.0 * float(cells[5]))
    rows[3] = ",".join(cells)
    problems = op.check("\n".join(rows))
    assert "output differs from the first repeat" in problems
    assert any("beyond" in p for p in problems)


def test_wrong_pipeline_value_is_flagged(mods):
    op = workloads.analytic_op(mods, random.Random(7), 5)
    values = op.run()
    assert op.check(values) == []
    key = next(k for k in values if k[1] == "anticipative" and k[2] == 1)
    values[key] -= 0.1
    problems = op.check(values)
    assert any("closed form" in p for p in problems)
    assert any("no anticipative advantage" in p for p in problems)


def test_wrong_solve_output_is_flagged(mods):
    text = workloads._cli(mods, ["solve", "--theta", "1.0", "--k", "2"])
    assert oracle.check_solve(text, 2, 1.0, 4) == []
    assert oracle.check_solve(text, 2, 1.0, 8)
    assert oracle.check_solve(text.replace("C = 1024", "C = 1000"), 2, 1.0, 4)


def test_injected_verify_fault_is_a_failed_operation(mods):
    argv = ["verify", "--points", "1", "--inject-fault", "aux-normalization"]
    op = workloads.Op("certify", 1, lambda: workloads._cli(mods, argv), oracle.check_verify)
    stats = run.Stats()
    stats.attempt(op)
    assert (stats.attempted, stats.failed) == (1, 1)
    assert not stats.correct
    metrics, _ = run.end_to_end(stats, [0.1], [run.REFERENCE_S])
    assert metrics["certify_s"] == (None, "s")
