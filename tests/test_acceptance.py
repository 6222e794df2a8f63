"""Acceptance gate: the eight package-level criteria, one test each.

Every test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s``) carrying the measured figure and, where budgeted, the
runtime.  Tolerances and time budgets are stated inline; the analytic
targets are written out locally so the package is checked against
independently evaluated formulas, not against itself.
"""

from __future__ import annotations

import math
import time

import numpy as np

from anticipative.game import exclusion_info_map, success_with_cpost
from anticipative.simulate import (
    NOISELESS,
    NoiseModel,
    native_decomposition_check,
    plan_experiment,
    sample_run,
    empirical_success,
    simulate_curves,
)
from anticipative.solver import (
    anticipative_success,
    build_auxiliary,
    certificate_residual,
    certify_optimal,
    convex_combination,
    lambda_argmax,
    reduce_to_povm,
    fallback_function,
    paired_measurement,
)
from anticipative.task import (
    ANTICIPATIVE,
    KINDS,
    STANDARD,
    Scenario,
    anticipative_directions,
    closed_form,
    discrimination_game,
    measurement_for,
    pipeline_success,
    priority_post,
    theta_grid,
)

GRID = theta_grid()


def reference_success(kind: str, k: int, theta: float) -> float:
    """The six closed forms, evaluated directly."""
    c = math.cos(theta)
    if kind == STANDARD:
        return (0.5, (3 + math.cos(theta / 2) ** 2) / 6, (4 + math.cos(theta / 2) ** 2) / 6)[k]
    root = math.sqrt(10 + 6 * c)
    return (0.25 * (1 + (c + 3) / root), (4 + root) / 12, (6 + root) / 12)[k]


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {name} ({detail})")
    assert passed, f"criterion {num}: {name} ({detail})"


def test_criterion_1_closed_form_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for theta in GRID:
        for kind in KINDS:
            for k in (0, 1, 2):
                gap = abs(
                    pipeline_success(Scenario(kind, k), theta)
                    - reference_success(kind, k, theta)
                )
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(
        1,
        "closed-form equivalence",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.2e} over {len(GRID)} angles x 6 scenarios, "
        f"{elapsed:.2f} s < 1 s",
    )


def test_criterion_2_enumeration_oracle():
    start = time.perf_counter()
    worst = 0.0
    winners_ok = True
    for k, offset in ((1, 4.0), (2, 6.0)):
        for theta in GRID:
            aux = build_auxiliary(theta, k)
            best, winners = lambda_argmax(aux)
            target = offset + math.sqrt(10 + 6 * math.cos(theta))
            worst = max(worst, abs(24.0 * aux.normalization * best - target))
            for sign in (+1, -1):
                for order in ("ab", "ba"):
                    winners_ok = winners_ok and fallback_function(k, sign, order) in winners
    elapsed = time.perf_counter() - start
    report(
        2,
        "enumeration oracle",
        worst <= 1e-12 and winners_ok and elapsed < 5.0,
        f"max |24 C Lambda - target| {worst:.2e}, all four paired maximizers "
        f"found, {elapsed:.2f} s < 5 s",
    )


def _sampled_thetas(n: int = 5) -> list[float]:
    idx = (0, len(GRID) // 4, len(GRID) // 2, (3 * len(GRID)) // 4, len(GRID) - 1)
    return [float(GRID[i]) for i in idx[:n]]


def test_criterion_3_optimality_certificates():
    worst = 0.0
    value_gap = 0.0
    certified = True
    for k in (1, 2):
        for theta in _sampled_thetas():
            aux = build_auxiliary(theta, k)
            m_ab = paired_measurement(theta, k, "ab")
            m_ba = paired_measurement(theta, k, "ba")
            for m in (m_ab, m_ba, convex_combination([m_ab, m_ba])):
                certified = certified and certify_optimal(aux, m, 1e-12)
                worst = max(worst, certificate_residual(aux, m))
            value_gap = max(
                value_gap,
                abs(anticipative_success(aux) - reference_success(ANTICIPATIVE, k, theta)),
            )
    report(
        3,
        "optimality certificates",
        certified and worst <= 1e-12 and value_gap <= 1e-12,
        f"max residual {worst:.2e}, |2 C Lambda - closed form| {value_gap:.2e}, "
        f"5 angles x k in (1, 2) x 3 measurements",
    )


def test_criterion_4_reduction_consistency():
    worst = 0.0
    rules_ok = True
    for k in (1, 2):
        for theta in _sampled_thetas():
            aux = build_auxiliary(theta, k)
            povm, nu = reduce_to_povm(
                aux,
                paired_measurement(theta, k, "ab"),
                paired_measurement(theta, k, "ba"),
            )
            reference = measurement_for(ANTICIPATIVE, theta)
            for z in reference.outcomes:
                (got_s, got_b), (want_s, want_b) = povm[z], reference[z]
                worst = max(
                    worst,
                    float(abs(got_s - want_s)),
                    float(np.max(np.abs(got_b - want_b))),
                )
            m_dir, n_dir = anticipative_directions(theta)
            worst = max(worst, float(np.max(np.abs(povm["+m"][1] - 0.25 * m_dir))))
            worst = max(worst, float(np.max(np.abs(povm["+n"][1] - 0.25 * n_dir))))
            expected = priority_post(ANTICIPATIVE, k)
            rules_ok = rules_ok and nu.sets == expected.sets
            rules_ok = rules_ok and np.array_equal(nu.guess, expected.guess)
    report(
        4,
        "reduction consistency",
        worst <= 1e-12 and rules_ok,
        f"max Bloch deviation {worst:.2e}, priority rules exact for both k",
    )


def test_criterion_5_inequality_chain():
    chain_ok = True
    min_margin = math.inf
    for theta in GRID:
        v = {
            (kind, k): closed_form(Scenario(kind, k), theta)
            for kind in KINDS
            for k in (0, 1, 2)
        }
        chain_ok = chain_ok and v[(ANTICIPATIVE, 0)] <= v[(STANDARD, 0)] + 1e-15
        for k in (1, 2):
            chain_ok = chain_ok and v[(STANDARD, 0)] <= v[(STANDARD, k)] + 1e-15
            chain_ok = chain_ok and v[(STANDARD, k)] <= v[(ANTICIPATIVE, k)] + 1e-15
            min_margin = min(min_margin, v[(ANTICIPATIVE, k)] - v[(STANDARD, k)])
    report(
        5,
        "inequality chain",
        chain_ok and min_margin > 1e-6,
        f"chain holds at all {len(GRID)} angles, smallest anticipative "
        f"advantage {min_margin:.2e} > 1e-6",
    )


def test_criterion_6_spot_values():
    theta = math.pi / 2
    targets = {
        (STANDARD, 1): (3 + math.cos(theta / 2) ** 2) / 6,
        (ANTICIPATIVE, 1): (4 + math.sqrt(10)) / 12,
        (STANDARD, 2): 0.75,
        (ANTICIPATIVE, 2): (6 + math.sqrt(10)) / 12,
        (ANTICIPATIVE, 0): 0.25 * (1 + 3 / math.sqrt(10)),
    }
    worst = 0.0
    for (kind, k), target in targets.items():
        worst = max(worst, abs(closed_form(Scenario(kind, k), theta) - target))
    m_dir, n_dir = anticipative_directions(theta)
    worst = max(worst, abs(float(m_dir @ n_dir) - 0.6))
    report(
        6,
        "spot values at theta = pi/2",
        worst <= 1e-6,
        f"max |value - formula| {worst:.2e} over 5 scenarios plus the "
        f"axis opening cosine",
    )


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    shots = 20000
    # fixed-seed sweep: every grid point within 4 sigma
    curves = simulate_curves(plan_experiment(GRID, shots=shots, seed=1), NOISELESS)
    worst_z = 0.0
    for (theta, kind, k), est in curves.items():
        z = abs(est.value - closed_form(Scenario(kind, k), theta)) / est.stderr
        worst_z = max(worst_z, z)
    # coverage sweep: at least 95% of points within 2 sigma across 10 seeds
    within = 0
    total = 0
    for seed in range(1, 11):
        curves = simulate_curves(plan_experiment(GRID, shots=shots, seed=seed), NOISELESS)
        for (theta, kind, k), est in curves.items():
            z = abs(est.value - closed_form(Scenario(kind, k), theta)) / est.stderr
            within += z <= 2.0
            total += 1
    coverage = within / total
    # noisy advantage: anticipative still beats standard where it matters
    noise = NoiseModel(depolarizing=0.02, readout_flip=0.023)
    plan = plan_experiment([math.pi / 2], shots=shots, seed=1)
    results = [sample_run(run, noise) for run in plan.runs]
    advantage_ok = True
    est = empirical_success(results)
    for k in (1, 2):
        advantage_ok = advantage_ok and (
            est[(math.pi / 2, ANTICIPATIVE, k)].value > est[(math.pi / 2, STANDARD, k)].value
        )
    elapsed = time.perf_counter() - start
    report(
        7,
        "monte carlo statistics",
        worst_z <= 4.0 and coverage >= 0.95 and advantage_ok and elapsed < 30.0,
        f"fixed-seed max {worst_z:.2f} sigma <= 4, coverage {coverage:.1%} >= 95% "
        f"({total} points over 10 seeds), noisy anticipative advantage holds at "
        f"theta = pi/2, {elapsed:.1f} s < 30 s",
    )


def test_criterion_8_decomposition_identity():
    rng = np.random.default_rng(8)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=100)
    ok = all(native_decomposition_check(float(t), tol=1e-12) for t in angles)
    report(
        8,
        "rotation decomposition identity",
        ok,
        "holds up to global phase within 1e-12 at 100 random angles",
    )
