"""Reference values and output checks, computed apart from the program.

Nothing here imports ``anticipative``: the closed forms are written out
from the paper's formulas, and the noisy simulator expectation is built
from the Born rule, the depolarizing contraction, Bayes-optimal priority
rows and uniform exclusion sets.  Each ``check_*`` function returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from statistics import NormalDist

STATES = ("+a", "-a", "+b", "-b")
KINDS = ("standard", "anticipative")
K_VALUES = (0, 1, 2)

#: Closed forms agree with the first-principles pipeline to this tolerance.
PIPELINE_TOL = 1e-12
#: Values printed at 12 significant digits are read back to this tolerance.
PRINTED_TOL = 1e-10
#: Reported and recomputed standard errors agree to this relative tolerance.
STDERR_RTOL = 1e-9
#: Chance that one operation flags a correct estimate, summed over its estimates.
FALSE_ALARM_PER_OP = 1e-9


def closed_form(kind: str, k: int, theta: float) -> float:
    """Success probability of one scenario, from the paper's formulas."""
    c = math.cos(theta)
    r = math.sqrt(10.0 + 6.0 * c)
    if kind == "standard":
        half = math.cos(theta / 2.0) ** 2
        return (0.5, (3.0 + half) / 6.0, (4.0 + half) / 6.0)[k]
    return ((1.0 + (3.0 + c) / r) / 4.0, (4.0 + r) / 12.0, (6.0 + r) / 12.0)[k]


def _axes(theta: float) -> dict[str, tuple[float, float]]:
    """In-plane unit vectors of the state axes and the tilted axes."""
    a = (math.cos(theta / 2.0), math.sin(theta / 2.0))
    b = (math.cos(theta / 2.0), -math.sin(theta / 2.0))
    norm = math.sqrt(10.0 + 6.0 * math.cos(theta))
    m = ((a[0] + 3.0 * b[0]) / norm, (a[1] + 3.0 * b[1]) / norm)
    n = ((3.0 * a[0] + b[0]) / norm, (3.0 * a[1] + b[1]) / norm)
    return {"a": a, "b": b, "m": m, "n": n}


def _signed(axes: dict, label: str) -> tuple[float, float]:
    x, y = axes[label[1]]
    return (x, y) if label[0] == "+" else (-x, -y)


def noisy_success(kind: str, k: int, theta: float, depolarizing: float) -> float:
    """Infinite-shot success of the simulator's estimator under depolarizing noise.

    Each state is measured along one of the kind's two axes with equal
    probability.  The Born rule gives ``(1 + (1 - p) x.u) / 2`` for the
    ``+u`` outcome.  After outcome ``z`` and a uniformly drawn set of ``k``
    wrong answers, the Bayes-optimal guess is the allowed answer with the
    largest likelihood of ``z``: a priority row sorted by likelihood.
    """
    axes = _axes(theta)
    bases = ("a", "b") if kind == "standard" else ("m", "n")
    shrink = 1.0 - depolarizing

    def p_outcome(z: str, x: str) -> float:
        u, v = _signed(axes, z), _signed(axes, x)
        return 0.5 * (1.0 + shrink * (u[0] * v[0] + u[1] * v[1]))

    total = 0.0
    for basis in bases:
        for z in ("+" + basis, "-" + basis):
            row = sorted(STATES, key=lambda y: -p_outcome(z, y))
            for x in STATES:
                wrong = [y for y in STATES if y != x]
                sets = list(itertools.combinations(wrong, k))
                wins = sum(next(y for y in row if y not in s) == x for s in sets)
                total += 0.125 * p_outcome(z, x) * wins / len(sets)
    return total


def pooled_shots(shots: int) -> int:
    """Shots behind one (theta, kind) estimate of a plan with ``shots`` per basis.

    Four states, each measured ``shots`` times in each of the kind's two
    bases (even mode) or ``2 * shots`` times with a drawn basis (per-shot
    mode).
    """
    return 8 * shots


def z_limit(estimates_per_op: int) -> float:
    """Two-sided z-score bound for one operation's estimates.

    Bonferroni over the operation's estimates: a correct simulator trips
    the bound with probability at most ``FALSE_ALARM_PER_OP`` per
    operation under the normal approximation.  The z-score divides by
    ``sqrt(p (1 - p) / N)`` with ``p`` the noisy expectation: the spread of
    a mean of ``N`` per-shot scores in [0, 1] with mean ``p`` is at most
    that, so true z-scores are smaller still.
    """
    tail = FALSE_ALARM_PER_OP / (2.0 * estimates_per_op)
    return NormalDist().inv_cdf(1.0 - tail)


def check_estimates(
    estimates: dict[tuple[float, str, int], tuple[float, float]],
    depolarizing: float,
    shots: int,
    expected: dict[tuple[float, str, int], float] | None = None,
) -> list[str]:
    """Compare ``(value, stderr)`` estimates with the noisy expectation.

    ``stderr`` must be the binomial bound ``sqrt(v (1 - v) / N)`` of the
    reported value ``v`` over the ``N = pooled_shots(shots)`` shots of its
    group.  The z-score uses the expectation's own standard error, so a
    wrong ``stderr`` cannot hide a biased value.
    """
    problems = []
    limit = z_limit(len(estimates))
    n = pooled_shots(shots)
    for (theta, kind, k), (value, stderr) in estimates.items():
        where = f"theta={theta!r} {kind} k={k}"
        if expected is not None:
            target = expected[(theta, kind, k)]
        else:
            target = noisy_success(kind, k, theta, depolarizing)
        binomial = math.sqrt(max(value * (1.0 - value), 0.0) / n)
        if not stderr > 0.0:
            problems.append(f"stderr {stderr!r} at {where}")
        elif not abs(stderr - binomial) <= STDERR_RTOL * binomial:
            problems.append(
                f"stderr {stderr!r} at {where}, expected {binomial!r} over {n} shots"
            )
        z = (value - target) / math.sqrt(target * (1.0 - target) / n)
        if not abs(z) <= limit:
            problems.append(f"z = {z:.2f} beyond {limit:.2f} at {where}")
    return problems


def check_pipeline(values: dict[tuple[float, str, int], float]) -> list[str]:
    """Pipeline values against the closed forms, plus the advantage ordering."""
    problems = []
    for (theta, kind, k), value in values.items():
        gap = abs(value - closed_form(kind, k, theta))
        if not gap <= PIPELINE_TOL:
            problems.append(f"|pipeline - closed form| = {gap:.3e} at {theta!r} {kind} k={k}")
    for theta in {key[0] for key in values}:
        for k in (1, 2):
            if not values[(theta, "anticipative", k)] > values[(theta, "standard", k)]:
                problems.append(f"no anticipative advantage at theta={theta!r} k={k}")
    return problems


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_curves_csv(
    text: str, thetas: list[float], shots: int, seed: int, depolarizing: float
) -> list[str]:
    """Check ``simulate`` CSV: layout, analytic column, advantage, estimates."""
    rows = parse_csv(text)
    keys = [(t, kind, k) for t in thetas for kind in KINDS for k in K_VALUES]
    if len(rows) != len(keys):
        return [f"{len(rows)} rows, expected {len(keys)}"]
    problems = []
    analytic = {}
    estimates = {}
    for key, row in zip(keys, rows):
        theta, kind, k = key
        if (row["kind"], int(row["k"])) != (kind, k):
            problems.append(f"row order: got {row['kind']} k={row['k']} for {key}")
            continue
        if abs(float(row["theta"]) - theta) > PRINTED_TOL:
            problems.append(f"theta column {row['theta']} for {theta!r}")
        if (int(row["shots"]), int(row["seed"])) != (shots, seed):
            problems.append(f"shots/seed columns {row['shots']},{row['seed']}")
        analytic[key] = float(row["analytic"])
        if abs(analytic[key] - closed_form(kind, k, theta)) > PRINTED_TOL:
            problems.append(f"analytic column {row['analytic']} at {key}")
        estimates[key] = (float(row["empirical"]), float(row["stderr"]))
    for theta in thetas:
        for k in (1, 2):
            if not analytic[(theta, "anticipative", k)] > analytic[(theta, "standard", k)]:
                problems.append(f"no anticipative advantage at theta={theta!r} k={k}")
    return problems + check_estimates(estimates, depolarizing, shots)


def check_solve(text: str, k: int, theta: float, maximizers: int) -> list[str]:
    """Check ``solve`` output: C, the number of maximizers and the success."""
    fields = dict(line.split(" = ", 1) for line in text.strip().split("\n"))
    problems = []
    expected_c = {1: 64.0, 2: 1024.0}[k]
    if float(fields["C"]) != expected_c:
        problems.append(f"C = {fields['C']} at k={k}, expected {expected_c:g}")
    if int(fields["maximizers"]) != maximizers:
        problems.append(
            f"{fields['maximizers']} maximizers at theta={theta!r} k={k}, "
            f"expected {maximizers}"
        )
    gap = abs(float(fields["success"]) - closed_form("anticipative", k, theta))
    if gap > PRINTED_TOL:
        problems.append(f"|success - closed form| = {gap:.3e} at theta={theta!r} k={k}")
    return problems


def check_verify(text: str) -> list[str]:
    """Every line of the ``verify`` report passes."""
    lines = text.strip().split("\n")
    problems = [line for line in lines if not line.startswith("PASS")]
    if not lines[-1].startswith("PASS  overall"):
        problems.append("no overall PASS line")
    return problems
