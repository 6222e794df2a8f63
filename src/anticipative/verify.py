"""End-to-end self-checks tying the analytic, solver and simulator layers.

Every public operation of the package is exercised by at least one check:
the test suite records the calls a verification run makes and requires
every function the package exports to be called.  Checks are pure
functions of the tolerance and seed, so a verification run is
reproducible.  Each check passes its angles as one stack, once per
scenario or per ``k``.
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
    aux: solver.AuxiliaryEnsemble, theta: float | np.ndarray
) -> tuple[solver.AuxiliaryEnsemble, bloch.Measurement]:
    """The ``aux-lambda`` fault: a wrong maximum and a measurement stationary for it.

    ``lambda_max`` drops to the score of the constant guess ``+a``, measured
    along ``+-a`` together with the constant guess ``-a`` (success 1/2).
    Only the dual half of the certificate rejects the pair.  An array of
    angles plants one maximum and one measurement per angle.
    """
    a, _ = task.basis_vectors(theta)
    plus, minus = (solver.constant_function(aux.k, y) for y in ("+a", "-a"))
    scalar, vec = aux.member(plus)
    top = bloch.float_or_array(scalar + np.sqrt(np.vecdot(vec, vec)))
    blochs = 0.5 * np.stack((a, -a), axis=-2)
    m = bloch.Measurement((plus, minus), np.full(blochs.shape[:-1], 0.5), blochs)
    return replace(aux, lambda_max=top), m


def _worst(*gaps: np.ndarray) -> float:
    """Largest entry of all the arrays; NaN if any entry is NaN, so the check fails."""
    return float(np.maximum.reduce([np.maximum.reduce(g, axis=None) for g in gaps]))


def _check_closed_forms(tol: float, thetas: np.ndarray) -> CheckResult:
    # One pipeline and one closed-form call per scenario, over every angle at once.
    worst = _worst(
        *(np.abs(task.pipeline_success(s, thetas) - task.closed_form(s, thetas))
          for s in task.SCENARIOS)
    )
    return CheckResult(
        name="closed-form equivalence",
        passed=worst <= tol,
        detail=f"max |pipeline - closed form| = {worst:.3e} over "
        f"{len(thetas)} angles x {len(task.SCENARIOS)} scenarios",
    )


def _check_born_tables(tol: float, thetas: np.ndarray) -> CheckResult:
    # One stacked ensemble over the sampled angles and one table per kind.
    angles = thetas[:: max(len(thetas) // 5, 1)]
    ensemble = task.make_ensemble(angles)
    tables = {
        kind: bloch.joint_table(ensemble, task.measurement_for(kind, angles), tol)
        for kind in task.KINDS
    }
    pq = task.pq_values(angles)
    ok = bool(np.all(np.abs(sum(pq) - 0.25) <= tol))
    p_plus, p_minus, q_plus, q_minus = pq
    table = tables[task.ANTICIPATIVE]
    expected = {
        ("+a", "+m"): p_plus,
        ("+a", "+n"): q_plus,
        ("-a", "+m"): p_minus,
        ("+b", "+n"): p_plus,
        ("+b", "+m"): q_plus,
        ("-b", "-m"): q_plus,
    }
    got = np.array([table.prob(x, z) for x, z in expected])
    totals = np.array([t.total() for t in tables.values()])
    # The projector (I + a.sigma)/2 squares to itself and holds 1/4 of +a.
    half_a = 0.5 * task.basis_vectors(angles)[0]
    scalar, vec = ensemble["+a"]
    worst = _worst(
        np.abs(totals - 1.0),
        np.abs(got - np.array(list(expected.values()))),
        np.abs(2.0 * (0.25 + np.vecdot(half_a, half_a)) - 1.0),
        np.abs(2.0 * (scalar * 0.5 + np.vecdot(vec, half_a)) - 0.25),
    )
    return CheckResult(
        name="born tables",
        passed=ok and worst <= tol,
        detail=f"max table deviation = {worst:.3e}",
    )


def _check_enumeration(tol: float, thetas: np.ndarray) -> CheckResult:
    sizes = {1: 256, 2: 4096}
    norms = {1: 64.0, 2: 1024.0}
    gaps = []
    ok = True
    for k in solver.SOLVER_K:
        functions = solver.enumerate_functions(k)
        ok = ok and len(functions) == sizes[k]
        # The brute-force maximum only needs each distinct count vector once.
        # Counts are at most 6, so base-8 codes pack a vector into one int.
        places = 8 ** np.arange(4)
        codes = np.unique(solver.counts(functions, k) @ places)
        found = codes[:, None] // places % 8
        # One stacked ensemble per k covers the whole grid.
        aux = solver.build_auxiliary(thetas, k)
        ok = ok and abs(aux.normalization - norms[k]) <= tol
        best, winners = solver.lambda_argmax(aux)
        brute = np.maximum.reduce(solver.gamma(found, aux.inner_product), axis=-1)
        closed = task.closed_form(task.Scenario(task.ANTICIPATIVE, k), thetas)
        gaps += (
            np.abs(aux.total_trace() - 1.0),
            np.abs(best * 24.0 * aux.normalization - brute),
            np.abs(solver.anticipative_success(aux) - closed),
        )
        ok = ok and all(
            solver.fallback_function(k, sign, order) in found_set
            for found_set in winners
            for order in ("ab", "ba")
            for sign in (+1, -1)
        )
    worst = _worst(*gaps)
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
    sample = thetas[sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})]
    ok = True
    residuals, gaps = [], []
    for k in solver.SOLVER_K:
        # One stacked ensemble and measurement of each kind per k.
        aux = solver.build_auxiliary(sample, k)
        m_ab = solver.paired_measurement(sample, k, "ab")
        m_ba = solver.paired_measurement(sample, k, "ba")
        measurements = [m_ab, m_ba, solver.convex_combination([m_ab, m_ba])]
        if fault == "aux-normalization":
            aux = _tampered(aux)
        elif fault == "aux-lambda":
            aux, planted = _planted_lambda(aux, sample)
            measurements = [planted]
        for m in measurements:
            residuals.append(solver.certificate_residual(aux, m))
            passed = solver.certify_optimal(aux, m, tol, residual=residuals[-1])
            ok = ok and bool(np.logical_and.reduce(passed, axis=None))
        gaps.append(aux.dual_gap)
    worst, gap = _worst(*residuals), _worst(*gaps)
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
    # Each position once, as one stack shared by both k.
    angles = thetas[sorted({0, len(thetas) // 2, len(thetas) - 1})]
    reference = task.measurement_for(task.ANTICIPATIVE, angles)
    m_dir, n_dir = task.anticipative_directions(angles)
    spec = task.discrimination_game(task.ANTICIPATIVE, angles)
    ok = True
    gaps = []
    for k in solver.SOLVER_K:
        aux = solver.build_auxiliary(angles, k)
        povm, nu = solver.reduce_to_povm(
            aux,
            solver.paired_measurement(angles, k, "ab"),
            solver.paired_measurement(angles, k, "ba"),
        )
        ok = ok and povm.outcomes == reference.outcomes
        expected_nu = task.priority_post(task.ANTICIPATIVE, k)
        ok = ok and nu.sets == expected_nu.sets
        ok = ok and np.array_equal(nu.guess, expected_nu.guess)
        value = game.success_with_cpost(spec, game.exclusion_info_map(spec, k), nu)
        gaps += (
            np.abs(povm.scalars - reference.scalars),
            np.abs(povm.blochs - reference.blochs),
            np.abs(povm["+m"][1] - 0.25 * m_dir),
            np.abs(povm["+n"][1] - 0.25 * n_dir),
            np.abs(value - solver.anticipative_success(aux)),
        )
    worst = _worst(*gaps)
    return CheckResult(
        name="povm reduction",
        passed=ok and worst <= tol,
        detail=f"max reduction deviation = {worst:.3e}",
    )


def _check_ordering(thetas: np.ndarray) -> CheckResult:
    st, an = (
        [task.closed_form(task.Scenario(kind, k), thetas) for k in task.K_VALUES]
        for kind in task.KINDS
    )
    chain = [an[0] <= st[0] + 1e-15]
    for k in (1, 2):
        chain += (st[0] <= st[k] + 1e-15, st[k] <= an[k] + 1e-15)
    # Minus the largest shortfall; a NaN fails every comparison and the margin.
    min_margin = -_worst(st[1] - an[1], st[2] - an[2])
    ok = bool(np.all(chain)) and min_margin > 1e-6
    return CheckResult(
        name="ordering chain",
        passed=ok,
        detail=f"smallest anticipative advantage on the grid = {min_margin:.3e}",
    )


def _check_decomposition(tol: float, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    special = [0.0, math.pi / 2, math.pi, 2.0 * math.pi]
    angles = np.concatenate((rng.uniform(0.0, 2.0 * math.pi, size=100), special))
    # One stacked check over every angle.
    ok = bool(np.all(simulate.native_decomposition_check(angles, tol)))
    return CheckResult(
        name="native decomposition",
        passed=ok,
        detail=f"identity holds at {len(angles)} angles (100 random, seed {seed})",
    )


def _check_simulator(tol: float, seed: int) -> CheckResult:
    ok = True
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
    estimates = simulate.empirical_success(results)
    # The exact path's three angles, then the plan's: one closed-form call each.
    angles = np.array((math.pi / 8, math.pi / 3, math.pi / 2, *plan.thetas))
    gaps, sigmas = [], []
    for s in task.SCENARIOS:
        closed = task.closed_form(s, angles)
        gaps.append(np.abs(simulate.exact_success(angles[:3], s.kind, s.k) - closed[:3]))
        est = [estimates[(theta, s.kind, s.k)] for theta in plan.thetas]
        sigmas += [abs(e.value - c) / e.stderr for e, c in zip(est, closed[3:].tolist())]
    worst, stat_worst = _worst(*gaps), _worst(sigmas)
    ok = ok and stat_worst <= 5.0
    return CheckResult(
        name="simulator consistency",
        passed=ok and worst <= tol,
        detail=f"max |exact path - closed form| = {worst:.3e}, "
        f"smoke test max deviation = {stat_worst:.2f} sigma (seed {seed})",
    )


def check_tol(tol: float) -> None:
    """ValueError unless ``tol`` is finite and positive; the CLI checks ``--tol`` here."""
    try:
        ok = 0.0 < tol < math.inf
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def run_verification(
    tol: float = 1e-12,
    points: int = 25,
    seed: int = 2026,
    fault: str | None = None,
) -> VerificationReport:
    """Run every check and collect the results.

    ``fault`` optionally injects a known defect (see :data:`FAULTS`) to
    confirm the suite catches it; the affected check then fails.  ``tol``
    and ``seed`` are checked, as the CLI checks them, before any check runs.
    """
    check_tol(tol)
    seed = task.check_count("seed", seed, 0)
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

