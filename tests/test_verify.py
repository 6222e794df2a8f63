"""Self-check suite: coverage registry, fault injection, reporting."""

from __future__ import annotations

import importlib
import math
import sys

import numpy as np
import pytest

from anticipative import cli, simulate, solver, task
from anticipative.bloch import Measurement, StateEnsemble
from anticipative.verify import (
    FAULTS,
    PUBLIC_OPS,
    run_verification,
)


@pytest.fixture(scope="module")
def report():
    return run_verification(points=5)


def test_all_checks_pass(report):
    assert report.passed
    assert len(report.checks) == 8
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.detail}"


def _recording(fn, name: str, called: set[str]):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)

    return wrapper


def test_every_public_op_is_exercised(monkeypatch):
    # Each registered function is replaced wherever a package module binds
    # it, so calls made through ``from .x import y`` names count as well.
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "anticipative"]
    required, called = set(), set()
    for module_name, names in PUBLIC_OPS.items():
        owner = importlib.import_module(f"anticipative.{module_name}")
        for op in names:
            name = f"{module_name}.{op}"
            original = getattr(owner, op)
            wrapper = _recording(original, name, called)
            required.add(name)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        monkeypatch.setattr(holder, key, wrapper)
    assert run_verification(points=5).passed
    missing = required - called
    assert not missing, sorted(missing)


def test_validators_are_exercised(monkeypatch):
    # The validators are methods, so they are recorded on their classes.
    called = set()
    for cls in (Measurement, StateEnsemble):
        name = f"{cls.__name__}.validate"
        monkeypatch.setattr(cls, "validate", _recording(cls.validate, name, called))
    assert run_verification(points=5).passed
    assert called == {"Measurement.validate", "StateEnsemble.validate"}


def _recorded_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Record the positional arguments of every call to ``module.name``.

    The function is replaced wherever a package module binds it.
    """
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "anticipative"]
    for holder in modules:
        for key, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, key, counting)
    return calls


def test_closed_forms_take_one_pipeline_call_per_scenario(monkeypatch):
    # Each scenario runs the whole angle grid as one stack, not angle by angle.
    calls = _recorded_calls(monkeypatch, task, "pipeline_success")
    assert run_verification().passed
    assert len(calls) == 6


def test_enumeration_takes_one_solver_call_per_k(monkeypatch):
    # The brute-force check stacks the grid; certificates and the reduction
    # take one angle at a time.
    calls = _recorded_calls(monkeypatch, solver, "build_auxiliary")
    assert run_verification().passed
    stacked = [(len(theta), k) for theta, k in calls if np.ndim(theta)]
    assert stacked == [(25, 1), (25, 2)]


def test_decomposition_takes_one_stacked_call(monkeypatch):
    calls = _recorded_calls(monkeypatch, simulate, "native_decomposition_check")
    assert run_verification().passed
    assert [len(args[0]) for args in calls] == [104]


def test_certify_operation_builds_the_parser_once(monkeypatch, capsys):
    # verify, then solve for k = 1, 2 at a generic angle and at pi/2
    cli._parser.cache_clear()
    calls = _recorded_calls(monkeypatch, cli, "build_parser")
    solves = [
        ["solve", "--theta", theta, "--k", k]
        for k in ("1", "2")
        for theta in ("0.7", repr(math.pi / 2))
    ]
    for argv in (["verify"], *solves):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_report_lines(report):
    lines = report.lines()
    assert len(lines) == 9
    assert all(line.startswith("PASS  ") for line in lines)
    assert "overall (8/8 checks" in lines[-1]


def test_impossible_tolerance_fails():
    report = run_verification(tol=1e-30, points=3)
    assert not report.passed


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_injection_breaks_exactly_the_certificates(fault):
    report = run_verification(points=3, fault=fault)
    assert not report.passed
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["optimality certificates"]
    detail = next(c.detail for c in report.checks if not c.passed)
    assert "fault injected" in detail


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        run_verification(fault="gremlins")
