"""The four-state qubit guessing task and its closed-form solutions.

Four equiprobable pure states sit in a plane of the Bloch ball, pairwise
antipodal along two axes ``a`` and ``b`` separated by an angle ``theta``.
The guesser either measures projectively along the state axes (the
standard measurement) or along two tilted axes chosen in anticipation of
the wrong answers leaked after the measurement (the anticipative
measurement).  This module builds both setups and knows the exact success
probabilities of all six scenarios.

The geometry, the pipeline, :func:`pq_values` and :func:`closed_form`
take one angle or a 1-D array of angles.  An array runs through the same
code with a leading stack axis: axes of shape ``[n, 3]``, ensembles and
measurements stacked over the angles, one stacked Born table and one
success value per angle, each equal to what that angle alone gives.

The measurement is fixed before the leaked answers arrive, so the three
scenarios of a kind differ only in their classical post-processing, and
both kinds' Born tables at an angle come from one stacked contraction.
:func:`pipeline_success` keeps the last angle's pair of games and reuses
it while calls stay at that angle (or stack of angles); a caller that
needs one kind pays for the other half.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import JointTable, Measurement, StateEnsemble
from .bloch import first_true, float_or_array, joint_table
from .game import (
    GameSpec,
    PostProcessing,
    all_exclusion_sets,
    bayes_optimal_post,
    deterministic_post,
    exclusion_info_map,
    no_exclusion_map,
    success_no_cpost,
    success_with_cpost,
)

#: Input labels in canonical order; also the answer alphabet.
INPUT_LABELS = ("+a", "-a", "+b", "-b")

STANDARD = "standard"
ANTICIPATIVE = "anticipative"
KINDS = (STANDARD, ANTICIPATIVE)

#: Projective bases per measurement kind, in canonical order.
KIND_BASES: dict[str, tuple[str, str]] = {
    STANDARD: ("a", "b"),
    ANTICIPATIVE: ("m", "n"),
}

#: Outcome labels per kind, ``+`` then ``-`` along each basis in turn: the
#: order of the measurements, of strategies' ``guess`` and of shot tallies.
KIND_OUTCOMES: dict[str, tuple[str, ...]] = {
    kind: tuple(s + b for b in bases for s in "+-")
    for kind, bases in KIND_BASES.items()
}

#: Number of answers that can be excluded, per scenario.
K_VALUES = (0, 1, 2)

_THETA_SLACK = 1e-12


def check_theta(theta: float | np.ndarray) -> float | np.ndarray:
    """Validate the axis angle; the task needs ``0 < theta <= pi/2``.

    A scalar comes back as a float.  A 1-D array of angles comes back as a
    float array; it must not be empty, and the message names its first
    angle out of range (NaN included).  Anything but real numbers (a
    string, ``None``, a complex number) is rejected.
    """
    # isinstance first: np.asarray costs more than the whole check of a float.
    if not isinstance(theta, float):
        values = np.asarray(theta)
        if values.dtype.kind not in "biuf":
            raise ValueError(f"theta must be a real number or an array of them, got {theta!r}")
        if values.ndim:
            return _check_thetas(values)
        theta = values
    theta = float(theta)
    if not 0.0 < theta <= math.pi / 2 + _THETA_SLACK:
        raise ValueError(f"theta must lie in (0, pi/2], got {theta!r}")
    return theta


def _check_thetas(values: np.ndarray) -> np.ndarray:
    """:func:`check_theta` of an array with at least one axis: a float copy."""
    thetas = values.astype(float)
    if thetas.ndim != 1 or not thetas.size:
        raise ValueError(
            f"theta must be a float or a non-empty 1-D array, got shape {thetas.shape}"
        )
    bad = ~((thetas > 0.0) & (thetas <= math.pi / 2 + _THETA_SLACK))
    if np.count_nonzero(bad):
        bad = first_true(bad)
        raise ValueError(
            f"theta must lie in (0, pi/2], got {float(thetas[bad])!r} at index {bad[0]}"
        )
    return thetas


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _check_k(k: int, allowed: tuple[int, ...] = K_VALUES) -> int:
    """``k`` as an ``int``; ValueError unless it is an integer in ``allowed``.

    A float such as ``1.0`` is rejected, as ``operator.index`` rejects it.
    """
    try:
        index = operator.index(k)
    except TypeError:
        index = None
    if index not in allowed:
        raise ValueError(f"k must be one of {allowed}, got {k!r}")
    return index


@dataclass(frozen=True)
class Scenario:
    """One of the six scenarios: measurement kind plus exclusion count."""

    kind: str
    k: int

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        object.__setattr__(self, "k", _check_k(self.k))


SCENARIOS = tuple(Scenario(kind, k) for kind in KINDS for k in K_VALUES)


def check_count(name: str, value, low: int) -> int:
    """``value`` as an ``int``; ValueError, in the CLI's wording, unless an integer >= ``low``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {count}")
    return count


def theta_grid(
    points: int = 25,
    theta_min: float = math.pi / 50,
    theta_max: float = math.pi / 2,
) -> np.ndarray:
    """Evenly spaced angles; the default grid is ``i * pi/50, i = 1..25``."""
    points = check_count("points", points, 1)
    check_theta(theta_min)
    check_theta(theta_max)
    if theta_max < theta_min:
        raise ValueError("theta_max must be >= theta_min")
    if points == 1:
        return np.array([theta_min])
    return np.linspace(theta_min, theta_max, points)


def negate_label(label: str) -> str:
    sign, axis = label[0], label[1:]
    return ("-" if sign == "+" else "+") + axis


def signed_label(axis: str, sign: int) -> str:
    return ("+" if sign > 0 else "-") + axis


#: Reflection across the symmetry axis: it maps ``a`` to ``b``.
_MIRROR = np.array([1.0, -1.0, 1.0])


def basis_vectors(theta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit Bloch vectors of the two state axes.

    Both lie in the xy-plane at angles ``+theta/2`` and ``-theta/2`` from
    the symmetry axis, so ``a . b = cos(theta)``.  Each has shape ``(3,)``
    for one angle and ``(n, 3)`` for an array of ``n`` angles.
    """
    half = check_theta(theta) / 2.0
    # Rows (x, y, z) are built along the first axis; the copy puts them last.
    a = np.ascontiguousarray(np.array((np.cos(half), np.sin(half), 0.0 * half)).T)
    return a, a * _MIRROR


def signed_axes(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows ``u, -u, v, -v``: the ``+`` then ``-`` end of each axis in turn.

    Over the state axes ``a, b`` these are the Bloch vectors of the states
    in :data:`INPUT_LABELS` order; over a kind's :func:`kind_axes` they are
    the directions of its outcomes in :data:`KIND_OUTCOMES` order.  Axes
    of shape ``(..., 3)`` give rows of shape ``(..., 4, 3)``.
    """
    return np.array((u, -u, v, -v)).swapaxes(0, -2)


def kind_axes(kind: str, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes of a kind's two bases, in :data:`KIND_BASES` order.

    The standard measurement uses the state axes ``a, b``.  The
    anticipative one tilts ``m`` toward ``b`` and ``n`` toward ``a``:
    ``m = (a + 3b)/|a + 3b|`` and ``n = (3a + b)/|3a + b|``; both norms are
    ``sqrt(10 + 6 a.b)``.  Stacked axes ``(..., 3)`` give stacked results.
    """
    _check_kind(kind)
    if kind == STANDARD:
        return a, b
    # vecdot runs the dot kernel of ``a @ b``; an einsum rounds differently.
    norm = np.sqrt(10.0 + 6.0 * np.vecdot(a, b))[..., None]
    return (a + 3.0 * b) / norm, (3.0 * a + b) / norm


def _filled(shape: tuple[int, ...], value: float) -> np.ndarray:
    """``np.full(shape, value)`` without its Python layer, which costs more here."""
    arr = np.empty(shape)
    arr.fill(value)
    return arr


def _ensemble(a: np.ndarray, b: np.ndarray) -> StateEnsemble:
    """:func:`make_ensemble` given the state axes rather than the angle."""
    blochs = 0.125 * signed_axes(a, b)
    return StateEnsemble(INPUT_LABELS, _filled(blochs.shape[:-1], 0.125), blochs)


def make_ensemble(theta: float | np.ndarray) -> StateEnsemble:
    """The four equiprobable pure states ``(I +- a.sigma)/8, (I +- b.sigma)/8``."""
    return _ensemble(*basis_vectors(theta))


def _measurements(a: np.ndarray, b: np.ndarray) -> Measurement:
    """Both kinds' measurements as one stack ``blochs[kind, ..., 4, 3]``.

    Kinds follow :data:`KINDS`, outcomes the columns ``2 * basis index + bit``;
    each kind is checked as its own POVM, a failure naming its stack index.
    """
    blochs = 0.25 * np.array([signed_axes(*kind_axes(kind, a, b)) for kind in KINDS])
    return Measurement((0, 1, 2, 3), _filled(blochs.shape[:-1], 0.25), blochs)


def anticipative_directions(theta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes ``m, n`` of the anticipative measurement (:func:`kind_axes`)."""
    return kind_axes(ANTICIPATIVE, *basis_vectors(theta))


def measurement_for(kind: str, theta: float | np.ndarray) -> Measurement:
    """Even mixture of the projective measurements along the kind's axes.

    Effects ``(I +- u.sigma)/4`` for each axis ``u`` of :func:`kind_axes`,
    labelled by :data:`KIND_OUTCOMES`: the standard outcomes match the
    input labels, the anticipative ones are ``+-m, +-n``.
    """
    _check_kind(kind)
    pair = _measurements(*basis_vectors(theta))
    i = KINDS.index(kind)
    return Measurement(KIND_OUTCOMES[kind], pair.scalars[i], pair.blochs[i])


class PQValues(NamedTuple):
    """The four distinct Born probabilities of the anticipative setup.

    ``p_plus``/``p_minus`` pair a state with the tilted axis of the other
    letter (e.g. ``+a`` with ``+-m``), ``q_plus``/``q_minus`` with its own
    (e.g. ``+a`` with ``+-n``).  They satisfy
    ``q_plus >= p_plus >= p_minus >= q_minus`` and sum to ``1/4``.
    """

    p_plus: float
    p_minus: float
    q_plus: float
    q_minus: float


def pq_values(theta: float | np.ndarray) -> PQValues:
    """The four values: floats at one angle, arrays over a 1-D array of angles."""
    c = np.cos(check_theta(theta))
    root = np.sqrt(10.0 + 6.0 * c)
    p = (1.0 + 3.0 * c) / root
    q = (c + 3.0) / root
    values = (1.0 + p, 1.0 - p, 1.0 + q, 1.0 - q)
    return PQValues(*(float_or_array(v / 16.0) for v in values))


def closed_form(scenario: Scenario, theta: float | np.ndarray) -> float | np.ndarray:
    """Exact success probability of a scenario at angle ``theta``.

    Standard: ``1/2`` for ``k = 0`` and ``(2 + k + cos^2(theta/2))/6`` for
    ``k = 1, 2``.  Anticipative: ``4 q_plus`` for ``k = 0`` and
    ``(2 + 2k + r)/12`` with ``r = sqrt(10 + 6 cos(theta))`` for ``k = 1, 2``.
    One angle gives a float; a 1-D array of angles gives an array, each
    entry equal to the float its angle gives alone.
    """
    theta = check_theta(theta)
    if scenario.kind == STANDARD:
        if scenario.k == 0:
            return float_or_array(np.full(np.shape(theta), 0.5))
        # C pow, as Python's ``** 2``: an array's ``** 2`` is ``x * x``,
        # which differs from it by an ulp at some angles.
        cos_sq = np.float_power(np.cos(theta / 2.0), 2)
        return float_or_array((2 + scenario.k + cos_sq) / 6.0)
    if scenario.k == 0:
        return 4.0 * pq_values(theta).q_plus
    root = np.sqrt(10.0 + 6.0 * np.cos(theta))
    return float_or_array((2 + 2 * scenario.k + root) / 12.0)


def priority_table(kind: str) -> dict[str, tuple[str, str, str, str]]:
    """Optimal guessing order per outcome, best answer first.

    Given the leaked set, the optimal guess is the first answer in the
    outcome's row that is not excluded.  Both kinds share the same row
    structure; only the outcome labels differ (each tilted axis ranks the
    states of its nearby axis first).
    """
    rows = {
        "+": ("+a", "+b", "-b", "-a"),
        "-": ("-a", "-b", "+b", "+a"),
    }
    if kind == STANDARD:
        first, second = "a", "b"
    else:
        _check_kind(kind)
        first, second = "n", "m"
    table = {}
    for sign in ("+", "-"):
        table[sign + first] = rows[sign]
        y0, y1, y2, y3 = rows[sign]
        table[sign + second] = (y1, y0, y3, y2)
    return table


def _games(theta: float | np.ndarray) -> dict[str, GameSpec]:
    """Both kinds' games at ``theta``: each a slice of one :func:`joint_table` call."""
    a, b = basis_vectors(theta)
    tables = joint_table(_ensemble(a, b), _measurements(a, b)).probs
    games = {}
    for kind, probs in zip(KINDS, tables):
        joint = JointTable(INPUT_LABELS, KIND_OUTCOMES[kind], probs)
        games[kind] = GameSpec(INPUT_LABELS, INPUT_LABELS, operator.eq, joint)
    return games


def discrimination_game(kind: str, theta: float | np.ndarray) -> GameSpec:
    """State discrimination as a guessing game: answer the input label.

    Both kinds' games come from one Born table (:func:`_games`), so a
    caller that needs one kind also pays for the other half.  An array of
    angles gives one game over the stack of their joint tables.
    """
    _check_kind(kind)
    return _games(theta)[kind]


#: ``(angle key, games by kind)`` of the last angle or stack :func:`pipeline_success`
#: saw, read and replaced as one tuple, so no thread pairs a key with other games.
_LAST_GAMES: tuple[object, dict[str, GameSpec]] = (None, {})


def pipeline_success(
    scenario: Scenario, theta: float | np.ndarray
) -> float | np.ndarray:
    """Success of the Bayes-optimal strategy, computed from first principles.

    Builds the Born table, the exclusion channel and the optimal
    post-processing, then evaluates the matching success functional.  Must
    agree with :func:`closed_form` to numerical precision.  One angle gives
    a float; a 1-D array of angles gives an array of the same length, each
    entry equal to the float its angle gives alone.

    Both kinds' games of the last angle are kept until a call comes at
    another angle (the validated float, or the shape and bytes of the
    validated array), so the other five scenarios at an angle and any
    repeat skip the ensemble, the measurements, the Born table and their
    checks; only the leak, the Bayes strategy and the functional run, with
    their checks.  A one-kind caller builds both tables; all are read-only.
    """
    global _LAST_GAMES
    theta = check_theta(theta)
    key = theta if isinstance(theta, float) else (theta.shape, theta.tobytes())
    last_key, games = _LAST_GAMES
    if last_key != key:
        games = _games(theta)
        _LAST_GAMES = (key, games)
    game = games[scenario.kind]
    if scenario.k == 0:
        alpha = no_exclusion_map(game)
        return success_no_cpost(game, bayes_optimal_post(game, alpha))
    alpha = exclusion_info_map(game, scenario.k)
    return success_with_cpost(game, alpha, bayes_optimal_post(game, alpha))


def priority_post(kind: str, k: int) -> PostProcessing:
    """Deterministic strategy read off the priority table.

    It guesses the first answer of the outcome's row that is not in the
    leaked size-``k`` set; for ``k = 0`` the only set is the empty
    ``NO_INFO`` key, so it guesses the head of the row.  Coincides with
    the Bayes-optimal strategy for every ``theta`` >= 1e-6 in the task's
    range; closer to 0 the answers tie.  Outcomes follow
    :data:`KIND_OUTCOMES`, the game's order.  The table is read on every
    call; the strategy is the one shared :func:`deterministic_post` of its
    picks, the very object the Bayes strategy is where they coincide.
    """
    k = _check_k(k)
    table = priority_table(kind)
    sets = all_exclusion_sets(INPUT_LABELS, k)
    outcomes = KIND_OUTCOMES[kind]
    picks = [
        [INPUT_LABELS.index(next(y for y in table[z] if y not in s)) for z in outcomes]
        for s in sets
    ]
    return deterministic_post(sets, outcomes, INPUT_LABELS, picks)
