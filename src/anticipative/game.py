"""Guessing games with classical posterior information.

Everything here is dimension-agnostic: a game is a joint probability table
over inputs and measurement outcomes, a correctness predicate, and a
partial-information channel that leaks a set of wrong answers after the
measurement.  A guessing strategy is scored in one place,
:func:`win_weights`: the probability that it wins on input ``x`` after
outcome ``z``, averaged over the leaked sets.  The success functionals
weight that array by the joint table, and the shot simulator uses it as
its per-shot weights.  Strategies that see no leaked set are scored
against the channel that always leaks the empty set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .bloch import DEFAULT_TOL, JointTable, Label

#: An exclusion set, canonically ordered by answer index.
ExclusionSet = tuple[Label, ...]

#: Key for the empty exclusion set (no posterior information).
NO_INFO: ExclusionSet = ()


def all_exclusion_sets(answers: tuple[Label, ...], k: int) -> tuple[ExclusionSet, ...]:
    """All size-``k`` subsets of ``answers`` in lexicographic index order.

    Each subset keeps the order of ``answers``, which makes the tuples
    canonical dictionary keys.
    """
    if not 0 <= k <= len(answers):
        raise ValueError(f"k must be in [0, {len(answers)}], got {k}")
    return tuple(itertools.combinations(answers, k))


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A guessing game.

    ``correctness(x, y)`` says whether answering ``y`` on input ``x`` wins.
    The joint table fixes the input prior and the measurement statistics at
    once; its rows must be indexed by ``inputs``.
    """

    inputs: tuple[Label, ...]
    answers: tuple[Label, ...]
    correctness: Callable[[Label, Label], bool]
    joint: JointTable

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "answers", tuple(self.answers))
        if self.joint.inputs != self.inputs:
            raise ValueError(
                f"joint table rows {self.joint.inputs!r} do not match "
                f"game inputs {self.inputs!r}"
            )
        correct = {
            x: frozenset(y for y in self.answers if self.correctness(x, y))
            for x in self.inputs
        }
        for x, good in correct.items():
            if not good:
                raise ValueError(f"input {x!r} has no correct answer")
        object.__setattr__(self, "correct_sets", correct)

    @property
    def outcomes(self) -> tuple[Label, ...]:
        return self.joint.outcomes

    def correct_answers(self, x: Label) -> frozenset[Label]:
        return self.correct_sets[x]

    def wrong_answers(self, x: Label) -> tuple[Label, ...]:
        good = self.correct_sets[x]
        return tuple(y for y in self.answers if y not in good)


@dataclass(frozen=True, eq=False)
class PartialInfoMap:
    """Distribution ``alpha(S | x)`` of the leaked exclusion set per input."""

    weights: Mapping[Label, Mapping[ExclusionSet, float]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "weights",
            {x: dict(per_x) for x, per_x in self.weights.items()},
        )

    def validate(self, game: GameSpec, tol: float = DEFAULT_TOL) -> None:
        """Raise unless weights are a proper conditional distribution.

        For each input the weights must sum to one and put zero mass on any
        set containing a correct answer for that input.
        """
        if set(self.weights) != set(game.inputs):
            raise ValueError(
                f"info map inputs {sorted(map(repr, self.weights))} do not "
                f"match game inputs {game.inputs!r}"
            )
        for x, per_x in self.weights.items():
            good = game.correct_answers(x)
            total = 0.0
            for s, w in per_x.items():
                if w < -tol:
                    raise ValueError(f"negative weight alpha({s!r} | {x!r}) = {w!r}")
                if w > tol and good & set(s):
                    raise ValueError(
                        f"alpha({s!r} | {x!r}) > 0 but the set contains a "
                        f"correct answer for {x!r}"
                    )
                total += w
            if abs(total - 1.0) > tol:
                raise ValueError(
                    f"alpha(. | {x!r}) sums to {total!r}, expected 1"
                )


@dataclass(frozen=True, eq=False)
class PostProcessing:
    """Guessing strategy ``nu(y | z, S)`` keyed by ``(S, z)`` pairs.

    Strategies that ignore the posterior information use the ``NO_INFO``
    key.  Each value is a distribution over answers; answers omitted from a
    rule carry zero probability.
    """

    rules: Mapping[tuple[ExclusionSet, Label], Mapping[Label, float]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rules",
            {key: dict(dist) for key, dist in self.rules.items()},
        )

    def rule(self, s: ExclusionSet, z: Label) -> Mapping[Label, float]:
        try:
            return self.rules[(s, z)]
        except KeyError:
            raise ValueError(
                f"post-processing has no rule for outcome {z!r} with "
                f"excluded set {s!r}"
            ) from None

    def validate(self, game: GameSpec, tol: float = DEFAULT_TOL) -> None:
        known = set(game.answers)
        for (s, z), dist in self.rules.items():
            stray = set(dist) - known
            if stray:
                raise ValueError(
                    f"rule for ({s!r}, {z!r}) guesses unknown answers {stray!r}"
                )
            total = sum(dist.values())
            if any(w < -tol for w in dist.values()) or abs(total - 1.0) > tol:
                raise ValueError(
                    f"rule for ({s!r}, {z!r}) is not a distribution "
                    f"(sum {total!r})"
                )


def exclusion_info_map(game: GameSpec, k: int) -> PartialInfoMap:
    """Uniform leak of ``k`` wrong answers after each round.

    For input ``x`` the channel draws uniformly among all size-``k``
    subsets of the wrong answers for ``x``.  ``k`` must be at least 1 and
    small enough that every input has such a subset.
    """
    max_k = min(len(game.wrong_answers(x)) for x in game.inputs)
    if not 1 <= k <= max_k:
        raise ValueError(f"k must be in [1, {max_k}], got {k}")
    weights: dict[Label, dict[ExclusionSet, float]] = {}
    for x in game.inputs:
        sets = all_exclusion_sets(game.wrong_answers(x), k)
        weights[x] = {s: 1.0 / len(sets) for s in sets}
    return PartialInfoMap(weights)


def no_exclusion_map(game: GameSpec) -> PartialInfoMap:
    """Degenerate channel that always leaks the empty set (k = 0)."""
    return PartialInfoMap({x: {NO_INFO: 1.0} for x in game.inputs})


def _arrays(
    game: GameSpec, alpha: PartialInfoMap
) -> tuple[list[ExclusionSet], np.ndarray, np.ndarray]:
    """Leaked sets in first-seen order, ``alpha[x, S]`` and ``correct[x, y]``."""
    sets = list(dict.fromkeys(s for per_x in alpha.weights.values() for s in per_x))
    leak = np.array([[alpha.weights[x].get(s, 0.0) for s in sets] for x in game.inputs])
    correct = np.array(
        [[y in game.correct_answers(x) for y in game.answers] for x in game.inputs],
        dtype=float,
    )
    return sets, leak, correct


def win_weights(
    game: GameSpec,
    alpha: PartialInfoMap,
    nu: PostProcessing,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Winning probability of ``nu`` per input and outcome.

    Returns ``w[x, z] = sum_S alpha(S | x) sum_y correctness(x, y)
    nu(y | z, S)``, indexed by ``game.inputs`` and ``game.outcomes``.  A
    missing rule for any outcome paired with a set that ``alpha`` leaks
    with non-zero weight is an error, whatever the outcome's probability.
    """
    alpha.validate(game, tol)
    nu.validate(game, tol)
    sets, leak, correct = _arrays(game, alpha)
    column = {y: j for j, y in enumerate(game.answers)}
    guess = np.zeros((len(sets), len(game.outcomes), len(game.answers)))
    for i in np.flatnonzero(leak.any(axis=0)):
        for j, z in enumerate(game.outcomes):
            for y, q in nu.rule(sets[i], z).items():
                guess[i, j, column[y]] = q
    return np.einsum("xs,szy,xy->xz", leak, guess, correct)


def success_with_cpost(
    game: GameSpec,
    alpha: PartialInfoMap,
    nu: PostProcessing,
    tol: float = DEFAULT_TOL,
) -> float:
    """Average winning probability when guesses may use the leaked set.

    Sums ``correctness(x, y) nu(y | z, S) alpha(S | x) p(x, z)`` over all
    inputs, outcomes, leaked sets and answers: the joint table weighted by
    :func:`win_weights`.
    """
    return float(np.sum(game.joint.probs * win_weights(game, alpha, nu, tol)))


def success_no_cpost(
    game: GameSpec, nu0: PostProcessing, tol: float = DEFAULT_TOL
) -> float:
    """Average winning probability of a strategy that sees only ``z``.

    The strategy must be keyed by the ``NO_INFO`` set.
    """
    return success_with_cpost(game, no_exclusion_map(game), nu0, tol)


def bayes_optimal_post(
    game: GameSpec, alpha: PartialInfoMap, tol: float = DEFAULT_TOL
) -> PostProcessing:
    """Deterministic strategy maximizing the success functional.

    For each leaked set and outcome it scores every answer by
    ``sum_x correctness(x, y) alpha(S | x) p(x, z)`` and puts all mass on
    the best one.  Ties resolve to the earliest answer in the game's
    answer order, which makes the output deterministic.
    """
    alpha.validate(game, tol)
    sets, leak, correct = _arrays(game, alpha)
    scores = np.einsum("xs,xz,xy->szy", leak, game.joint.probs, correct)
    best = scores.argmax(axis=2)
    return PostProcessing(
        {
            (s, z): {game.answers[best[i, j]]: 1.0}
            for i, s in enumerate(sets)
            for j, z in enumerate(game.outcomes)
        }
    )
