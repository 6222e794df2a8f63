"""End-to-end self-checks tying the analytic, solver and simulator layers.

Every public operation of the package is exercised by at least one check:
the test suite records the calls a verification run makes to each
function in the registry at the bottom.  Checks are pure functions of the
tolerance and seed, so a verification run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bloch, game, simulate, solver, task

#: Faults the suite can inject on request, for exercising failures.  Each
#: breaks exactly the optimality certificate check.
FAULTS = ("aux-normalization", "aux-lambda")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
        out.append(
            f"{'PASS' if self.passed else 'FAIL'}  overall "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks, "
            f"tolerance {self.tolerance:g})"
        )
        return out


def _tampered(aux: solver.AuxiliaryEnsemble) -> solver.AuxiliaryEnsemble:
    """Scale every member by 1.01 without rescaling ``lambda_max``.

    The result violates the certificate for every previously optimal
    measurement; this is the ``aux-normalization`` fault.
    """
    return replace(aux, scalars=1.01 * aux.scalars, blochs=1.01 * aux.blochs)


def _planted_lambda(
    aux: solver.AuxiliaryEnsemble, theta: float
) -> tuple[solver.AuxiliaryEnsemble, bloch.Measurement]:
    """The ``aux-lambda`` fault: a wrong maximum and a measurement stationary for it.

    ``lambda_max`` drops to the score of the constant guess ``+a``, measured
    along ``+-a`` together with the constant guess ``-a`` (success 1/2).
    Only the dual half of the certificate rejects the pair.
    """
    a, _ = task.basis_vectors(theta)
    plus, minus = (solver.constant_function(aux.k, y) for y in ("+a", "-a"))
    planted = replace(aux, lambda_max=aux.member(plus).eigenvalues()[1])
    m = bloch.Measurement((plus, minus), np.full(2, 0.5), 0.5 * np.array((a, -a)))
    return planted, m


def _check_closed_forms(tol: float, thetas: np.ndarray) -> CheckResult:
    worst = 0.0
    for theta in thetas:
        for scenario in task.SCENARIOS:
            gap = abs(
                task.pipeline_success(scenario, theta)
                - task.closed_form(scenario, theta)
            )
            worst = max(worst, gap)
    return CheckResult(
        name="closed-form equivalence",
        passed=worst <= tol,
        detail=f"max |pipeline - closed form| = {worst:.3e} over "
        f"{len(thetas)} angles x {len(task.SCENARIOS)} scenarios",
    )


def _check_born_tables(tol: float, thetas: np.ndarray) -> CheckResult:
    worst = 0.0
    ok = True
    for theta in thetas[:: max(len(thetas) // 5, 1)]:
        ensemble = task.make_ensemble(theta)
        anticipative = task.anticipative_measurement(theta)
        for m in (task.standard_measurement(theta), anticipative):
            table = bloch.joint_table(ensemble, m, tol)
            worst = max(worst, abs(table.total() - 1.0))
        p_plus, p_minus, q_plus, q_minus = task.pq_values(theta)
        table = bloch.joint_table(ensemble, anticipative, tol)
        expected = {
            ("+a", "+m"): p_plus,
            ("+a", "+n"): q_plus,
            ("-a", "+m"): p_minus,
            ("+b", "+n"): p_plus,
            ("+b", "+m"): q_plus,
            ("-b", "-m"): q_plus,
        }
        for (x, z), value in expected.items():
            worst = max(worst, abs(table.prob(x, z) - value))
        ok = ok and abs(sum(task.pq_values(theta)) - 0.25) <= tol
        a, _ = task.basis_vectors(theta)
        proj = bloch.projector(a)
        worst = max(worst, abs(bloch.trace_product(proj, proj) - 1.0))
        worst = max(
            worst,
            abs(bloch.trace_product(ensemble["+a"], proj) - 0.25),
        )
    return CheckResult(
        name="born tables",
        passed=ok and worst <= tol,
        detail=f"max table deviation = {worst:.3e}",
    )


def _check_enumeration(tol: float, thetas: np.ndarray) -> CheckResult:
    sizes = {1: 256, 2: 4096}
    norms = {1: 64.0, 2: 1024.0}
    worst = 0.0
    ok = True
    for k in solver.SOLVER_K:
        functions = solver.enumerate_functions(k)
        ok = ok and len(functions) == sizes[k]
        # The brute-force maximum only needs each distinct count vector once.
        # Counts are at most 6, so base-8 codes pack a vector into one int.
        places = 8 ** np.arange(4)
        codes = np.unique(solver.counts(functions, k) @ places)
        found = codes[:, None] // places % 8
        for theta in thetas:
            aux = solver.build_auxiliary(theta, k)
            ok = ok and abs(aux.normalization - norms[k]) <= tol
            worst = max(worst, abs(aux.total_trace() - 1.0))
            best, winners = solver.lambda_argmax(aux)
            brute = float(solver.gamma(found, aux.inner_product).max())
            worst = max(worst, abs(best * 24.0 * aux.normalization - brute))
            worst = max(
                worst,
                abs(
                    solver.anticipative_success(aux)
                    - task.closed_form(task.Scenario(task.ANTICIPATIVE, k), theta)
                ),
            )
            for order in ("ab", "ba"):
                for sign in (+1, -1):
                    ok = ok and solver.fallback_function(k, sign, order) in winners
    return CheckResult(
        name="enumeration oracle",
        passed=ok and worst <= tol,
        detail=f"max |brute force - closed form| = {worst:.3e} over "
        f"{len(thetas)} angles, k in {solver.SOLVER_K}",
    )


def _check_certificates(
    tol: float, thetas: np.ndarray, fault: str | None
) -> CheckResult:
    n = len(thetas)
    # Each position once: on a short grid some of the five coincide.
    sample = [thetas[i] for i in sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})]
    ok = True
    worst = 0.0
    gap = -math.inf
    for k in solver.SOLVER_K:
        for theta in sample:
            aux = solver.build_auxiliary(theta, k)
            m_ab = solver.paired_measurement(theta, k, "ab")
            m_ba = solver.paired_measurement(theta, k, "ba")
            measurements = [m_ab, m_ba, solver.convex_combination([m_ab, m_ba])]
            if fault == "aux-normalization":
                aux = _tampered(aux)
            elif fault == "aux-lambda":
                aux, planted = _planted_lambda(aux, theta)
                measurements = [planted]
            for m in measurements:
                ok = ok and solver.certify_optimal(aux, m, tol)
                worst = max(worst, solver.certificate_residual(aux, m))
            gap = max(gap, aux.dual_gap)
    detail = (
        f"max certificate residual = {worst:.3e}, max dual gap = {gap:.3e} "
        f"at {len(sample)} angles, k in {solver.SOLVER_K}"
    )
    if fault:
        detail += f" (fault injected: {fault})"
    return CheckResult(
        name="optimality certificates",
        passed=ok,
        detail=detail,
    )


def _check_reduction(tol: float, thetas: np.ndarray) -> CheckResult:
    ok = True
    worst = 0.0
    for k in solver.SOLVER_K:
        for i in sorted({0, len(thetas) // 2, len(thetas) - 1}):
            theta = thetas[i]
            aux = solver.build_auxiliary(theta, k)
            povm, nu = solver.reduce_to_povm(
                aux,
                solver.paired_measurement(theta, k, "ab"),
                solver.paired_measurement(theta, k, "ba"),
            )
            reference = task.anticipative_measurement(theta)
            ok = ok and povm.outcomes == reference.outcomes
            for label in reference.outcomes:
                got, want = povm[label], reference[label]
                worst = max(
                    worst,
                    abs(got.scalar - want.scalar),
                    float(np.max(np.abs(got.bloch - want.bloch))),
                )
            m_dir, n_dir = task.anticipative_directions(theta)
            worst = max(
                worst,
                float(np.max(np.abs(povm["+m"].bloch - 0.25 * m_dir))),
                float(np.max(np.abs(povm["+n"].bloch - 0.25 * n_dir))),
            )
            expected_nu = task.priority_post(task.ANTICIPATIVE, k)
            ok = ok and nu.sets == expected_nu.sets
            ok = ok and np.array_equal(nu.guess, expected_nu.guess)
            spec = task.discrimination_game(task.ANTICIPATIVE, theta)
            value = game.success_with_cpost(
                spec, game.exclusion_info_map(spec, k), nu
            )
            worst = max(worst, abs(value - solver.anticipative_success(aux)))
    return CheckResult(
        name="povm reduction",
        passed=ok and worst <= tol,
        detail=f"max reduction deviation = {worst:.3e}",
    )


def _check_ordering(thetas: np.ndarray) -> CheckResult:
    ok = True
    min_margin = math.inf
    for theta in thetas:
        values = {
            (kind, k): task.closed_form(task.Scenario(kind, k), theta)
            for kind in task.KINDS
            for k in task.K_VALUES
        }
        an, st = task.ANTICIPATIVE, task.STANDARD
        ok = ok and values[(an, 0)] <= values[(st, 0)] + 1e-15
        for k in (1, 2):
            ok = ok and values[(st, 0)] <= values[(st, k)] + 1e-15
            ok = ok and values[(st, k)] <= values[(an, k)] + 1e-15
            min_margin = min(min_margin, values[(an, k)] - values[(st, k)])
    ok = ok and min_margin > 1e-6
    return CheckResult(
        name="ordering chain",
        passed=ok,
        detail=f"smallest anticipative advantage on the grid = {min_margin:.3e}",
    )


def _check_decomposition(tol: float, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    angles = list(rng.uniform(0.0, 2.0 * math.pi, size=100))
    angles += [0.0, math.pi / 2, math.pi, 2.0 * math.pi]
    ok = all(simulate.native_decomposition_check(t, tol) for t in angles)
    return CheckResult(
        name="native decomposition",
        passed=ok,
        detail=f"identity holds at {len(angles)} angles (100 random, seed {seed})",
    )


def _check_simulator(tol: float, seed: int) -> CheckResult:
    ok = True
    worst = 0.0
    for theta in (math.pi / 8, math.pi / 3, math.pi / 2):
        for kind in task.KINDS:
            for k in task.K_VALUES:
                gap = abs(
                    simulate.exact_success(theta, kind, k)
                    - task.closed_form(task.Scenario(kind, k), theta)
                )
                worst = max(worst, gap)
    sched = simulate.angle_schedule(math.pi / 2, task.STANDARD, "b", state="+a")
    ok = ok and abs(sched.measurement + math.pi / 4) <= tol
    ok = ok and abs(sched.preparation - math.pi / 4) <= tol
    omega = simulate.tilt_angle(math.pi / 2)
    anti = simulate.angle_schedule(math.pi / 2, task.ANTICIPATIVE, "n")
    ok = ok and abs(anti.measurement - omega / 2.0) <= tol
    ok = ok and abs(omega - math.acos(0.6)) <= tol
    plan = simulate.plan_experiment([math.pi / 4, math.pi / 2], shots=2000, seed=seed)
    ok = ok and len(plan.runs) == 2 * 4 * 2 * 2
    results = [simulate.sample_run(run) for run in plan.runs]
    again = [simulate.sample_run(run) for run in plan.runs]
    ok = ok and all(
        np.array_equal(r1.outcomes, r2.outcomes) for r1, r2 in zip(results, again)
    )
    stat_worst = 0.0
    for (theta, kind, k), est in simulate.empirical_success(results).items():
        target = task.closed_form(task.Scenario(kind, k), theta)
        stat_worst = max(stat_worst, abs(est.value - target) / est.stderr)
    ok = ok and stat_worst <= 5.0
    return CheckResult(
        name="simulator consistency",
        passed=ok and worst <= tol,
        detail=f"max |exact path - closed form| = {worst:.3e}, "
        f"smoke test max deviation = {stat_worst:.2f} sigma (seed {seed})",
    )


def run_verification(
    tol: float = 1e-12,
    points: int = 25,
    seed: int = 2026,
    fault: str | None = None,
) -> VerificationReport:
    """Run every check and collect the results.

    ``fault`` optionally injects a known defect (see :data:`FAULTS`) to
    confirm the suite catches it; the affected check then fails.
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}, supported: {FAULTS}")
    thetas = task.theta_grid(points)
    checks = (
        _check_closed_forms(tol, thetas),
        _check_born_tables(tol, thetas),
        _check_enumeration(tol, thetas),
        _check_certificates(tol, thetas, fault),
        _check_reduction(tol, thetas),
        _check_ordering(thetas),
        _check_decomposition(tol, seed),
        _check_simulator(tol, seed),
    )
    return VerificationReport(checks=checks, tolerance=tol)


#: Public operations per module; a verification run must call all of them.
PUBLIC_OPS = {
    "bloch": ("trace_product", "projector", "joint_table"),
    "game": (
        "exclusion_info_map",
        "success_with_cpost",
        "success_no_cpost",
        "bayes_optimal_post",
        "win_weights",
    ),
    "solver": (
        "enumerate_functions",
        "counts",
        "gamma",
        "build_auxiliary",
        "lambda_argmax",
        "paired_measurement",
        "certify_optimal",
        "reduce_to_povm",
        "anticipative_success",
    ),
    "task": (
        "kind_axes",
        "signed_axes",
        "make_ensemble",
        "standard_measurement",
        "anticipative_directions",
        "anticipative_measurement",
        "pq_values",
        "closed_form",
        "priority_table",
    ),
    "simulate": (
        "plan_experiment",
        "sample_run",
        "empirical_success",
        "angle_schedule",
        "native_decomposition_check",
    ),
}

