"""Self-check suite: coverage of the exports, fault injection, reporting."""

from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest

import anticipative
from anticipative import bloch, cli, game, simulate, solver, task, verify
from anticipative.bloch import Measurement, StateEnsemble
from anticipative.verify import FAULTS, run_verification
from test_game import PACKAGE_CACHES


@pytest.fixture(scope="module")
def report():
    return run_verification(points=5)


def test_all_checks_pass(report):
    assert report.passed
    assert len(report.checks) == 8
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.detail}"


def test_repeated_runs_reuse_the_shared_strategies():
    # The sweep builds every strategy a run scores unstacked, and its weights.
    for theta in task.theta_grid(25):
        for s in task.SCENARIOS:
            task.pipeline_success(s, theta)
    before = game._shared_win_weights.cache_info()
    for _ in range(5):
        assert run_verification(points=5).passed
    after = game._shared_win_weights.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def _recording(fn, name: str, called: set[str]):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)

    return wrapper


def test_every_public_op_is_exercised(monkeypatch):
    # Cold: earlier tests of the same run leave the caches and the
    # pipeline's memo warm, and a warm cache skips calls this test must see.
    for cache in PACKAGE_CACHES:
        cache.cache_clear()
    monkeypatch.setattr(task, "_LAST_GAMES", (None, {}))
    _assert_public_ops_called(monkeypatch)


def test_every_public_op_is_exercised_after_a_warm_run(monkeypatch):
    # A run at the same points leaves the pipeline's games in its memo.
    assert run_verification(points=5).passed
    _assert_public_ops_called(monkeypatch)


def _assert_public_ops_called(monkeypatch) -> None:
    # Every function the package exports, classes and the entry point aside,
    # is replaced wherever a package module binds it, so calls made through
    # ``from .x import y`` names count as well.
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "anticipative"]
    required, called = set(), set()
    for name, original in list(vars(anticipative).items()):
        skipped = isinstance(original, type) or original is run_verification
        if skipped or not callable(original):
            continue
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


def test_closed_forms_build_one_born_table(monkeypatch):
    # The six scenarios share both kinds' games over the grid, one table stack.
    monkeypatch.setattr(task, "_LAST_GAMES", (None, {}))
    calls = _recorded_calls(monkeypatch, bloch, "joint_table")
    assert verify._check_closed_forms(1e-12, task.theta_grid(25)).passed
    assert len(calls) == 1
    assert calls[0][1].stack == (len(task.KINDS), 25)


def test_enumeration_takes_one_solver_call_per_k(monkeypatch):
    # No one-angle ensembles: the brute-force check stacks the grid, the
    # certificates their five sample angles and the reduction its three,
    # each once per k.
    calls = _recorded_calls(monkeypatch, solver, "build_auxiliary")
    assert run_verification().passed
    assert all(np.ndim(theta) == 1 for theta, _ in calls)
    assert [(len(theta), k) for theta, k in calls] == [
        (25, 1),
        (25, 2),
        (5, 1),
        (5, 2),
        (3, 1),
        (3, 2),
    ]


def test_closed_forms_and_exact_values_take_stacked_calls(monkeypatch):
    # Each check calls these once per scenario or per k over its angles,
    # never angle by angle.
    functions = ((task, "closed_form"), (task, "pq_values"), (simulate, "exact_success"))
    calls = {name: _recorded_calls(monkeypatch, module, name) for module, name in functions}
    assert run_verification().passed
    assert all(calls.values())
    for name, recorded in calls.items():
        thetas = [args[1] if name == "closed_form" else args[0] for args in recorded]
        assert all(np.ndim(theta) == 1 for theta in thetas), name
    # closed forms, enumeration (per k), ordering and simulator checks
    assert len(calls["closed_form"]) == 6 + 2 + 6 + 6
    assert len(calls["exact_success"]) == 6


def test_emit_curves_takes_one_closed_form_call_per_scenario(monkeypatch, capsys):
    calls = _recorded_calls(monkeypatch, task, "closed_form")
    assert cli.main(["curves", "--points", "7"]) == 0
    capsys.readouterr()
    assert [(scenario, len(grid)) for scenario, grid in calls] == [
        (scenario, 7) for scenario in task.SCENARIOS
    ]


def test_certificates_and_reduction_take_stacked_calls(monkeypatch):
    # Per k, the certificate check takes two paired measurements and three
    # residuals over five angles; the reduction check two paired
    # measurements and one reduction, which certifies both, over three.
    paired = _recorded_calls(monkeypatch, solver, "paired_measurement")
    residuals = _recorded_calls(monkeypatch, solver, "certificate_residual")
    reductions = _recorded_calls(monkeypatch, solver, "reduce_to_povm")
    assert run_verification().passed
    assert [len(theta) for theta, *_ in paired] == [5] * 4 + [3] * 4
    assert [aux.stack for aux, _ in residuals] == [(5,)] * 6 + [(3,)] * 4
    assert [aux.stack for aux, *_ in reductions] == [(3,)] * 2


def test_born_tables_take_one_table_per_kind(monkeypatch):
    calls = _recorded_calls(monkeypatch, bloch, "joint_table")
    assert verify._check_born_tables(1e-12, task.theta_grid(25)).passed
    assert [args[1].outcomes for args in calls] == [
        task.KIND_OUTCOMES[kind] for kind in task.KINDS
    ]
    assert all(args[0].stack == (5,) for args in calls)


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


@pytest.mark.parametrize("points", [1, 2, 3, 25])
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_injection_breaks_exactly_the_certificates(fault, points):
    # On one or two points some of the five sample positions coincide.
    report = run_verification(points=points, fault=fault)
    assert not report.passed
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["optimality certificates"]
    detail = next(c.detail for c in report.checks if not c.passed)
    assert "fault injected" in detail


def test_a_nan_in_an_early_gap_fails_the_check(monkeypatch):
    # A NaN must survive the later, finite gaps of the same check.
    pipeline, exact = task.pipeline_success, simulate.exact_success
    first = task.SCENARIOS[0]
    monkeypatch.setattr(
        task,
        "pipeline_success",
        lambda s, thetas: pipeline(s, thetas) * (math.nan if s == first else 1.0),
    )
    monkeypatch.setattr(
        simulate,
        "exact_success",
        lambda theta, kind, k: math.nan if k == 0 else exact(theta, kind, k),
    )
    for check in (
        verify._check_closed_forms(1e-12, task.theta_grid(5)),
        verify._check_simulator(1e-12, 2026),
    ):
        assert not check.passed and "= nan" in check.detail, check


#: Arguments ``run_verification`` rejects, with the CLI's message for each.
BAD_ARGUMENTS = [
    ({"tol": math.nan}, "tol must be finite and positive, got nan"),
    ({"tol": -1.0}, "tol must be finite and positive, got -1.0"),
    ({"tol": 0.0}, "tol must be finite and positive, got 0.0"),
    ({"tol": math.inf}, "tol must be finite and positive, got inf"),
    ({"tol": "1e-12"}, "tol must be finite and positive, got '1e-12'"),
    ({"tol": None}, "tol must be finite and positive, got None"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": "7"}, "seed must be an integer, got '7'"),
]


@pytest.mark.parametrize(
    "kwargs, message", BAD_ARGUMENTS, ids=[repr(kwargs) for kwargs, _ in BAD_ARGUMENTS]
)
def test_bad_arguments_rejected_before_any_check(monkeypatch, kwargs, message):
    def no_work(*_args, **_kwargs):
        raise AssertionError("a check ran before the arguments were checked")

    monkeypatch.setattr(task, "theta_grid", no_work)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_verification(**kwargs)


def test_numpy_integer_seed_accepted():
    assert run_verification(points=1, seed=np.int64(7)) == run_verification(points=1, seed=7)


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        run_verification(fault="gremlins")
