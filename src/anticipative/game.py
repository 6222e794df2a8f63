"""Guessing games with classical posterior information.

Everything here is dimension-agnostic: a game is a joint probability table
over inputs and measurement outcomes, a correctness predicate, and a
partial-information channel that leaks a set of wrong answers after the
measurement.  Leaks and strategies are arrays in the game's label order:
``correct[x, y]`` over inputs and answers, ``alpha.weights[x, s]`` over
inputs and leaked sets, and ``nu.guess[s, z, y]`` over leaked sets,
outcomes and answers.  A guessing strategy is scored in one place,
:func:`win_weights`: the probability that it wins on input ``x`` after
outcome ``z``, averaged over the leaked sets.  The success functionals
weight that array by the joint table, and the shot simulator uses it as
its per-shot weights.  Strategies that see no leaked set are scored
against the channel that always leaks the empty set.

Only the joint table depends on the measured angle.  What a game's
structure ``(inputs, answers, correctness)`` fixes is built and checked
once and shared: the ``correct`` table, the leaks of each ``k`` and each
leak's validation against that structure.  A strategy is checked to be a
distribution when it is built; only its labels are checked against a
game and leak, on every call.  Every strategy the package builds is
deterministic and comes from :func:`deterministic_post`: one shared,
read-only object per choice of guesses, whose win weights against a leak
and game structure are built once too.  A game may hold a stack of joint
tables, ``probs[..., x, z]`` (one per angle, say); strategies, weights
and success values then carry the same leading axes, each entry is
computed exactly as for its table alone, and nothing stacked is kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .bloch import (
    DEFAULT_TOL,
    JointTable,
    Label,
    first_true,
    float_or_array,
    stack_note,
)

#: An exclusion set, canonically ordered by answer index.
ExclusionSet = tuple[Label, ...]

#: Key for the empty exclusion set (no posterior information).
NO_INFO: ExclusionSet = ()


def all_exclusion_sets(answers: tuple[Label, ...], k: int) -> tuple[ExclusionSet, ...]:
    """All size-``k`` subsets of ``answers`` in lexicographic index order.

    Each subset keeps the order of ``answers``, which makes the tuples
    canonical labels.
    """
    if not 0 <= k <= len(answers):
        raise ValueError(f"k must be in [0, {len(answers)}], got {k}")
    return tuple(itertools.combinations(answers, k))


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


# The checks below reduce with ``np.add.reduce`` and test with
# ``np.count_nonzero``: on these few-entry arrays the ndarray methods'
# Python layer costs more than the arithmetic.


@lru_cache(maxsize=64)
def _correct_table(
    inputs: tuple[Label, ...],
    answers: tuple[Label, ...],
    correctness: Callable[[Label, Label], bool],
) -> np.ndarray:
    """``[x, y]``: 1.0 when ``answers[y]`` wins on ``inputs[x]``; read-only.

    Raises for an input without a correct answer; the check runs again on
    every call that fails, since a raise is not cached.
    """
    correct = _frozen(
        [correctness(x, y) for x in inputs for y in answers]
    ).reshape(len(inputs), len(answers))
    wins = np.add.reduce(correct, axis=1)
    if np.count_nonzero(wins) < len(wins):
        x = inputs[int(wins.argmin())]
        raise ValueError(f"input {x!r} has no correct answer")
    return correct


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A guessing game.

    ``correctness(x, y)`` says whether answering ``y`` on input ``x`` wins;
    it is evaluated into ``correct[i, j]``, 1.0 when answer ``answers[j]``
    wins on input ``inputs[i]`` and 0.0 otherwise.  It must be a pure,
    hashable function: the table is built once per ``(inputs, answers,
    correctness)`` and shared, read-only, by every game with that
    structure, so an unhashable callable raises ``TypeError``.  Labels
    that compare and hash equal, such as ``1``, ``1.0`` and ``True``, make
    the same structure.  The joint table fixes the input prior and the
    measurement statistics at once; its rows must be indexed by ``inputs``.
    """

    inputs: tuple[Label, ...]
    answers: tuple[Label, ...]
    correctness: Callable[[Label, Label], bool]
    joint: JointTable
    correct: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "answers", tuple(self.answers))
        if self.joint.inputs != self.inputs:
            raise ValueError(
                f"joint table rows {self.joint.inputs!r} do not match "
                f"game inputs {self.inputs!r}"
            )
        correct = _correct_table(self.inputs, self.answers, self.correctness)
        object.__setattr__(self, "correct", correct)

    @property
    def outcomes(self) -> tuple[Label, ...]:
        return self.joint.outcomes


def _membership(
    answers: tuple[Label, ...], sets: tuple[ExclusionSet, ...]
) -> np.ndarray:
    """``[y, s]``: 1.0 when ``sets[s]`` contains ``answers[y]``; read-only."""
    return _frozen([[y in s for s in sets] for y in answers])


@lru_cache(maxsize=64)
def _leak_correct(
    alpha: "PartialInfoMap",
    inputs: tuple[Label, ...],
    answers: tuple[Label, ...],
    correctness: Callable[[Label, Label], bool],
) -> np.ndarray:
    """``[s * len(answers) + y, x]``: ``alpha(sets[s] | x) correct[x, y]``; read-only.

    The angle-independent factor of the Bayes scores and of the win
    weights, so that each of them is one matmul with the joint tables or
    the strategies.  Built once per validated leak and game structure.
    With a 0/1 ``correct`` each entry is exactly a leak weight or zero.
    """
    correct = _correct_table(inputs, answers, correctness)
    table = alpha.weights.T[:, None, :] * correct.T[None, :, :]
    return _frozen(table.reshape(-1, len(inputs)))


def _holds_correct(
    correct: np.ndarray, answers: tuple[Label, ...], sets: tuple[ExclusionSet, ...]
) -> np.ndarray:
    """``[x, s]``: whether ``sets[s]`` contains a correct answer for input ``x``."""
    return correct @ _membership(answers, sets) > 0


@dataclass(frozen=True, eq=False)
class PartialInfoMap:
    """Distribution ``alpha(S | x)`` of the leaked exclusion set per input.

    ``weights[i, j]`` is ``alpha(sets[j] | inputs[i])``: rows follow the
    game's input order and columns the leaked sets in ``sets``.
    """

    sets: tuple[ExclusionSet, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen(self.weights))

    def validate(self, game: GameSpec) -> None:
        """Raise unless weights are a proper conditional distribution.

        For each input the weights must sum to one and put zero mass on any
        set containing a correct answer for that input, within
        ``DEFAULT_TOL``.  A leak and its arrays are immutable, so a pass is
        remembered per leak object and game structure; a failure raises
        again on every call.
        """
        _check_leak(self, game.inputs, game.answers, game.correctness)


@lru_cache(maxsize=64)
def _check_leak(
    alpha: PartialInfoMap,
    inputs: tuple[Label, ...],
    answers: tuple[Label, ...],
    correctness: Callable[[Label, Label], bool],
) -> None:
    """:meth:`PartialInfoMap.validate`, keyed on the leak object's identity."""
    w = alpha.weights
    if w.shape != (len(inputs), len(alpha.sets)):
        raise ValueError(
            f"info map weights have shape {w.shape}, expected "
            f"{len(inputs)} game inputs x {len(alpha.sets)} sets"
        )
    correct = _correct_table(inputs, answers, correctness)
    negative = w < -DEFAULT_TOL
    leaks_correct = (w > DEFAULT_TOL) & _holds_correct(correct, answers, alpha.sets)
    if np.count_nonzero(negative):
        i, j = np.argwhere(negative)[0]
        raise ValueError(
            f"negative weight alpha({alpha.sets[j]!r} | {inputs[i]!r}) "
            f"= {w[i, j]}"
        )
    if np.count_nonzero(leaks_correct):
        i, j = np.argwhere(leaks_correct)[0]
        x = inputs[i]
        raise ValueError(
            f"alpha({alpha.sets[j]!r} | {x!r}) > 0 but the set contains a "
            f"correct answer for {x!r}"
        )
    for x, total in zip(inputs, np.add.reduce(w, axis=1).tolist()):
        if not abs(total - 1.0) <= DEFAULT_TOL:  # a NaN total fails too
            raise ValueError(f"alpha(. | {x!r}) sums to {total}, expected 1")


@dataclass(frozen=True, eq=False)
class PostProcessing:
    """Guessing strategy ``nu(y | z, S)``.

    ``guess[..., j, o, a]`` is ``nu(answers[a] | outcomes[o], sets[j])``;
    each ``guess[..., j, o]`` is a distribution over answers, within
    ``DEFAULT_TOL``, or construction raises naming the first bad rule (and
    its stack index).  Leading axes hold a stack of strategies, one per
    table of a stacked game.  Strategies that ignore the posterior
    information have the single set ``NO_INFO``.  The labels travel with
    the array, so a strategy is only scored against a game and leak with
    the same outcomes, answers and sets.
    """

    sets: tuple[ExclusionSet, ...]
    outcomes: tuple[Label, ...]
    answers: tuple[Label, ...]
    guess: np.ndarray

    def __post_init__(self) -> None:
        for name in ("sets", "outcomes", "answers"):
            if not getattr(self, name):
                raise ValueError(f"post-processing has no {name}: every rule needs one")
        guess = _frozen(self.guess)
        shape = (len(self.sets), len(self.outcomes), len(self.answers))
        if guess.shape[-3:] != shape:
            raise ValueError(f"guess has shape {guess.shape}, expected {shape}")
        totals = np.add.reduce(guess, axis=-1)
        off = np.abs(totals - 1.0)
        if not (
            np.minimum.reduce(guess, axis=None) >= -DEFAULT_TOL
            and np.maximum.reduce(off, axis=None) <= DEFAULT_TOL
        ):
            negative = np.logical_or.reduce(~(guess >= -DEFAULT_TOL), axis=-1)
            *at, j, o = bad = first_true(~(off <= DEFAULT_TOL) | negative)
            raise ValueError(
                f"rule for ({self.sets[j]!r}, {self.outcomes[o]!r}) is not a "
                f"distribution (sum {totals[bad]}){stack_note(tuple(at))}"
            )
        object.__setattr__(self, "guess", guess)

    def validate(self, game: GameSpec, sets: tuple[ExclusionSet, ...]) -> None:
        """Raise unless every leaked set and game outcome has a rule.

        Sets, outcomes and answers must be those of the leak and the game,
        in order.  Checked on every call; the rules were checked when the
        strategy was built.
        """
        if (self.sets, self.outcomes) != (sets, game.outcomes):
            raise ValueError(
                f"post-processing has no rule for some leaked set {sets!r} or "
                f"outcome {game.outcomes!r}; it has {self.sets!r}, {self.outcomes!r}"
            )
        if self.answers != game.answers:
            raise ValueError(
                f"post-processing guesses unknown answers {self.answers!r}; "
                f"the game's are {game.answers!r}"
            )


def exclusion_info_map(game: GameSpec, k: int) -> PartialInfoMap:
    """Uniform leak of ``k`` wrong answers after each round.

    For input ``x`` the channel draws uniformly among all size-``k``
    subsets of the wrong answers for ``x``.  ``k`` must be at least 1 and
    small enough that every input has such a subset.  The sets are those
    of :func:`all_exclusion_sets` that some input can leak, in its order.
    The leak is built once per game structure and ``k`` and shared.
    """
    return _exclusion_map(game.inputs, game.answers, game.correctness, k)


@lru_cache(maxsize=64)
def _exclusion_map(
    inputs: tuple[Label, ...],
    answers: tuple[Label, ...],
    correctness: Callable[[Label, Label], bool],
    k: int,
) -> PartialInfoMap:
    correct = _correct_table(inputs, answers, correctness)
    max_k = len(answers) - int(np.add.reduce(correct, axis=1).max())
    if not 1 <= k <= max_k:
        raise ValueError(f"k must be in [1, {max_k}], got {k}")
    sets = all_exclusion_sets(answers, k)
    allowed = ~_holds_correct(correct, answers, sets)
    used = np.flatnonzero(np.logical_or.reduce(allowed, axis=0))
    allowed = allowed[:, used]
    weights = allowed / np.add.reduce(allowed, axis=1)[:, None]
    return PartialInfoMap(tuple(sets[j] for j in used), weights)


def no_exclusion_map(game: GameSpec) -> PartialInfoMap:
    """Degenerate channel that always leaks the empty set (k = 0).

    Built once per number of inputs and shared.
    """
    return _no_exclusion_map(len(game.inputs))


@lru_cache(maxsize=64)
def _no_exclusion_map(n_inputs: int) -> PartialInfoMap:
    return PartialInfoMap((NO_INFO,), np.ones((n_inputs, 1)))


def win_weights(
    game: GameSpec, alpha: PartialInfoMap, nu: PostProcessing
) -> np.ndarray:
    """Winning probability of ``nu`` per input and outcome.

    Returns ``w[..., x, z] = sum_S alpha(S | x) sum_y correctness(x, y)
    nu(y | z, S)``, indexed by ``game.inputs`` and ``game.outcomes``, with
    the stack axes of ``nu``.  ``nu`` must have a rule for every outcome of
    the game, whatever its probability, and exactly the leaked sets of
    ``alpha``, in its order.  Both are checked on every call: the leak as
    :meth:`PartialInfoMap.validate` does, the strategy's labels as
    :meth:`PostProcessing.validate` does.  The weights do not depend on
    the joint table, so an unstacked strategy's are built once per leak,
    game structure and strategy object and returned read-only; a stacked
    strategy's are built on every call.
    """
    alpha.validate(game)
    nu.validate(game, alpha.sets)
    weigh = _shared_win_weights if nu.guess.ndim == 3 else _win_weights
    return weigh(alpha, nu, game.inputs, game.answers, game.correctness)


def _win_weights(
    alpha: PartialInfoMap,
    nu: PostProcessing,
    inputs: tuple[Label, ...],
    answers: tuple[Label, ...],
    correctness: Callable[[Label, Label], bool],
) -> np.ndarray:
    table = _leak_correct(alpha, inputs, answers, correctness)
    rules = nu.guess.mT  # [..., s, y, z]
    return table.T @ rules.reshape(rules.shape[:-3] + (-1, rules.shape[-1]))


@lru_cache(maxsize=64)
def _shared_win_weights(*structure) -> np.ndarray:
    """:func:`_win_weights` of an unstacked strategy; read-only."""
    return _frozen(_win_weights(*structure))


def success_with_cpost(
    game: GameSpec, alpha: PartialInfoMap, nu: PostProcessing
) -> float | np.ndarray:
    """Average winning probability when guesses may use the leaked set.

    Sums ``correctness(x, y) nu(y | z, S) alpha(S | x) p(x, z)`` over all
    inputs, outcomes, leaked sets and answers: the joint table weighted by
    :func:`win_weights`.  A float, or one value per entry of a stack.
    """
    weighted = game.joint.probs * win_weights(game, alpha, nu)
    return float_or_array(np.add.reduce(weighted, axis=(-2, -1)))


def success_no_cpost(game: GameSpec, nu0: PostProcessing) -> float | np.ndarray:
    """Average winning probability of a strategy that sees only ``z``.

    The strategy's only set must be ``NO_INFO``.
    """
    return success_with_cpost(game, no_exclusion_map(game), nu0)


def bayes_optimal_post(game: GameSpec, alpha: PartialInfoMap) -> PostProcessing:
    """Deterministic strategy maximizing the success functional.

    For each leaked set and outcome it scores every answer by
    ``sum_x correctness(x, y) alpha(S | x) p(x, z)`` and puts all mass on
    the best one.  Ties resolve to the earliest answer in the game's
    answer order, which makes the output deterministic.  The scores and
    their argmax run on every call; the strategy is then the
    :func:`deterministic_post` of the picks: for an unstacked game the one
    shared, read-only strategy of its sets, outcomes, answers and picks,
    so its win weights are remembered too, and for a stacked game a new
    stack of each table's strategy.
    """
    alpha.validate(game)
    table = _leak_correct(alpha, game.inputs, game.answers, game.correctness)
    scores = table @ game.joint.probs  # [..., s * len(answers) + y, z]
    n_answers = len(game.answers)
    scores = scores.reshape(scores.shape[:-2] + (len(alpha.sets), n_answers, -1))
    picks = scores.argmax(axis=-2)
    return deterministic_post(alpha.sets, game.outcomes, game.answers, picks)


def deterministic_post(
    sets: tuple[ExclusionSet, ...],
    outcomes: tuple[Label, ...],
    answers: tuple[Label, ...],
    picks,
) -> PostProcessing:
    """The strategy guessing ``answers[picks[..., s, z]]`` on set ``s`` and outcome ``z``.

    ``picks`` holds integer indices into ``answers``.  Picks of shape
    ``(len(sets), len(outcomes))`` give the one shared, read-only strategy
    of ``(sets, outcomes, answers, picks)``; a stack of them gives a new
    stack of strategies.
    """
    picks = np.asarray(picks)
    if picks.dtype.kind not in "iu":
        raise ValueError(f"picks must be integer indices into {len(answers)} answers")
    picks = picks.astype(np.intp, copy=False)
    if picks.shape == (len(sets), len(outcomes)):
        return _shared_post(sets, outcomes, answers, picks.tobytes())
    return _one_hot_post(sets, outcomes, answers, picks)


@lru_cache(maxsize=64)
def _shared_post(
    sets: tuple[ExclusionSet, ...],
    outcomes: tuple[Label, ...],
    answers: tuple[Label, ...],
    picks: bytes,
) -> PostProcessing:
    """The strategy guessing ``answers[picks[s, z]]``, ``picks`` an intp array's bytes."""
    picks = np.frombuffer(picks, dtype=np.intp).reshape(len(sets), len(outcomes))
    return _one_hot_post(sets, outcomes, answers, picks)


def _one_hot_post(sets, outcomes, answers, picks: np.ndarray) -> PostProcessing:
    """A new strategy guessing ``answers[picks[..., s, z]]``, range-checked.

    A shared strategy's picks are checked here when it is first built, so a
    cache hit, whose bytes match those of checked picks, skips the check.
    """
    if picks.size and not 0 <= picks.min() <= picks.max() < len(answers):
        raise ValueError(f"picks must be integer indices into {len(answers)} answers")
    return PostProcessing(sets, outcomes, answers, np.eye(len(answers))[picks])
