"""Success functionals, exclusion channels and Bayes-optimal guessing."""

from __future__ import annotations

import gc
import importlib
import math
import pkgutil
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import anticipative
from anticipative import cli as cli_module
from anticipative import game as game_module
from anticipative import simulate as simulate_module
from anticipative import solver as solver_module
from anticipative import task as task_module
from anticipative.bloch import JointTable
from anticipative.game import (
    NO_INFO,
    GameSpec,
    PartialInfoMap,
    PostProcessing,
    all_exclusion_sets,
    bayes_optimal_post,
    deterministic_post,
    exclusion_info_map,
    no_exclusion_map,
    success_no_cpost,
    success_with_cpost,
    win_weights,
)
from anticipative.task import (
    ANTICIPATIVE,
    INPUT_LABELS,
    STANDARD,
    Scenario,
    SCENARIOS,
    closed_form,
    discrimination_game,
    pipeline_success,
    priority_post,
    theta_grid,
)


def equality(x, y):
    return x == y


#: A game where some inputs have two correct answers and some answers win
#: on two inputs, so Bayes scores and win weights sum several terms.
GENERAL_WINS = frozenset({("x0", "y0"), ("x0", "y1"), ("x1", "y1"), ("x2", "y2"), ("x2", "y3")})


def general_correctness(x, y):
    return (x, y) in GENERAL_WINS


class TestExclusionSets:
    def test_singletons_in_answer_order(self):
        assert all_exclusion_sets(("u", "v", "w"), 1) == (("u",), ("v",), ("w",))

    def test_pairs_lexicographic(self):
        assert all_exclusion_sets(INPUT_LABELS, 2) == (
            ("+a", "-a"),
            ("+a", "+b"),
            ("+a", "-b"),
            ("-a", "+b"),
            ("-a", "-b"),
            ("+b", "-b"),
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            all_exclusion_sets(INPUT_LABELS, 5)


class TestGameSpec:
    def test_four_state_game(self):
        game = discrimination_game(STANDARD, 1.0)
        assert game.inputs == INPUT_LABELS
        row = game.correct[INPUT_LABELS.index("+a")]
        assert {y for y, c in zip(game.answers, row) if c} == {"+a"}
        assert tuple(y for y, c in zip(game.answers, row) if not c) == ("-a", "+b", "-b")

    def test_mismatched_table_rejected(self):
        table = JointTable(("x",), ("z",), np.array([[1.0]]))
        with pytest.raises(ValueError, match="do not match"):
            GameSpec(("other",), ("y",), lambda x, y: True, table)

    def test_answerless_input_rejected(self):
        table = JointTable(("x",), ("z",), np.array([[1.0]]))
        with pytest.raises(ValueError, match="no correct answer"):
            GameSpec(("x",), ("y",), lambda x, y: False, table)


class TestExclusionInfoMap:
    def test_uniform_weights(self):
        game = discrimination_game(STANDARD, 1.0)
        for k in (1, 2):
            alpha = exclusion_info_map(game, k)
            alpha.validate(game)
            for x, row in zip(INPUT_LABELS, alpha.weights):
                weights = {s: w for s, w in zip(alpha.sets, row) if w}
                assert len(weights) == 3
                assert all(w == pytest.approx(1.0 / 3.0) for w in weights.values())
                assert all(x not in s for s in weights)

    def test_k_bounds(self):
        game = discrimination_game(STANDARD, 1.0)
        with pytest.raises(ValueError):
            exclusion_info_map(game, 0)
        with pytest.raises(ValueError):
            exclusion_info_map(game, 4)
        # k = 3 leaks every wrong answer and is still a valid channel
        alpha = exclusion_info_map(game, 3)
        alpha.validate(game)

    def test_full_leak_is_free_win(self):
        game = discrimination_game(STANDARD, 1.0)
        alpha = exclusion_info_map(game, 3)
        nu = bayes_optimal_post(game, alpha)
        assert success_with_cpost(game, alpha, nu) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_weights_rejected(self):
        game = discrimination_game(STANDARD, 1.0)
        bad = PartialInfoMap(tuple((x,) for x in INPUT_LABELS), np.eye(4))
        with pytest.raises(ValueError, match="correct answer"):
            bad.validate(game)
        # each input leaks "-a" with weight 0.5, except "-a", which leaks "+a"
        short = PartialInfoMap((("-a",), ("+a",)), [[0.5, 0], [0, 0.5], [0.5, 0], [0.5, 0]])
        with pytest.raises(ValueError, match="sums to"):
            short.validate(game)
        # a row that sums to 1 through a negative weight
        alpha = exclusion_info_map(game, 1)
        negative = PartialInfoMap(
            alpha.sets, np.vstack([[0.0, 1.5, -0.5, 0.0], alpha.weights[1:]])
        )
        with pytest.raises(ValueError, match="negative weight"):
            negative.validate(game)
        # a NaN weight fails the row sum, however the leak is used
        weights = alpha.weights.copy()
        weights[0, 1] = float("nan")
        nan = PartialInfoMap(alpha.sets, weights)
        message = r"^alpha\(\. \| '\+a'\) sums to nan, expected 1$"
        for check in (
            nan.validate,
            lambda g: bayes_optimal_post(g, nan),
            lambda g: success_with_cpost(g, nan, priority_post(STANDARD, 1)),
        ):
            with pytest.raises(ValueError, match=message):
                check(game)


class TestSuccessFunctionals:
    def test_standard_with_exclusion_matches_closed_forms(self):
        for theta in (0.2, 1.0, math.pi / 2):
            game = discrimination_game(STANDARD, theta)
            for k in (1, 2):
                alpha = exclusion_info_map(game, k)
                nu = priority_post(STANDARD, k)
                got = success_with_cpost(game, alpha, nu)
                assert got == pytest.approx(
                    closed_form(Scenario(STANDARD, k), theta), abs=1e-12
                )

    def test_anticipative_with_exclusion_matches_closed_forms(self):
        for theta in (0.2, 1.0, math.pi / 2):
            game = discrimination_game(ANTICIPATIVE, theta)
            for k in (1, 2):
                alpha = exclusion_info_map(game, k)
                nu = priority_post(ANTICIPATIVE, k)
                got = success_with_cpost(game, alpha, nu)
                assert got == pytest.approx(
                    closed_form(Scenario(ANTICIPATIVE, k), theta), abs=1e-12
                )

    def test_no_cpost_identity_relabel(self):
        game = discrimination_game(STANDARD, 1.0)
        # outcome labels are the answer labels, so the identity guess is eye(4)
        nu0 = PostProcessing((NO_INFO,), game.outcomes, game.answers, [np.eye(4)])
        assert success_no_cpost(game, nu0) == pytest.approx(0.5, abs=1e-12)

    def test_no_cpost_uniform_guess(self):
        game = discrimination_game(STANDARD, 1.0)
        uniform = np.full((1, 4, 4), 0.25)
        nu0 = PostProcessing((NO_INFO,), game.outcomes, game.answers, uniform)
        assert success_no_cpost(game, nu0) == pytest.approx(0.25, abs=1e-12)

    def test_no_cpost_anticipative_head_guess(self):
        # guessing the nearest state from each tilted outcome gives 4 q_plus
        theta = math.pi / 2
        game = discrimination_game(ANTICIPATIVE, theta)
        nu0 = priority_post(ANTICIPATIVE, 0)
        got = success_no_cpost(game, nu0)
        assert got == pytest.approx(0.48717082451262844, abs=1e-12)
        assert got == pytest.approx(
            closed_form(Scenario(ANTICIPATIVE, 0), theta), abs=1e-12
        )

    def test_missing_rule_is_error(self):
        game = discrimination_game(STANDARD, 1.0)
        alpha = exclusion_info_map(game, 1)
        # rules for the leaked set ("-a",) only
        nu = PostProcessing((("-a",),), game.outcomes, game.answers, [np.eye(4)])
        with pytest.raises(ValueError, match="no rule"):
            success_with_cpost(game, alpha, nu)
        # a strategy built for the other measurement's outcome labels
        with pytest.raises(ValueError, match="no rule"):
            success_with_cpost(game, alpha, priority_post(ANTICIPATIVE, 1))
        # a rule is required for every outcome, even one of probability zero
        table = JointTable(("x",), ("z", "never"), np.array([[1.0, 0.0]]))
        spec = GameSpec(("x",), ("x",), equality, table)
        with pytest.raises(ValueError, match="no rule"):
            success_no_cpost(spec, PostProcessing((NO_INFO,), ("z",), ("x",), [[[1.0]]]))

    def test_malformed_rule_is_error(self):
        game = discrimination_game(STANDARD, 1.0)
        guess = np.zeros((1, 4, 4))
        guess[..., 0] = 0.7
        with pytest.raises(ValueError, match="not a distribution"):
            PostProcessing((NO_INFO,), game.outcomes, game.answers, guess)
        # every row sums to 1, through a negative entry
        guess = np.tile([1.5, -0.5, 0.0, 0.0], (1, 4, 1))
        with pytest.raises(ValueError, match="not a distribution"):
            PostProcessing((NO_INFO,), game.outcomes, game.answers, guess)

    def test_unknown_answer_is_error(self):
        game = discrimination_game(STANDARD, 1.0)
        nu0 = PostProcessing((NO_INFO,), game.outcomes, ("nope",), np.ones((1, 4, 1)))
        with pytest.raises(ValueError, match="unknown answers"):
            success_no_cpost(game, nu0)


class TestBayesOptimalPost:
    def test_reproduces_priority_tables(self):
        for theta in theta_grid(9):
            for kind in (STANDARD, ANTICIPATIVE):
                game = discrimination_game(kind, theta)
                for k in (1, 2):
                    alpha = exclusion_info_map(game, k)
                    nu = bayes_optimal_post(game, alpha)
                    expected = priority_post(kind, k)
                    assert nu.sets == expected.sets, (theta, kind, k)
                    assert np.array_equal(nu.guess, expected.guess), (theta, kind, k)

    def test_no_info_column_argmax(self):
        for kind in (STANDARD, ANTICIPATIVE):
            game = discrimination_game(kind, 1.0)
            nu = bayes_optimal_post(game, no_exclusion_map(game))
            expected = priority_post(kind, 0)
            assert nu.sets == expected.sets
            assert np.array_equal(nu.guess, expected.guess)

    def test_beats_random_strategies(self):
        rng = np.random.default_rng(19)
        theta = 1.1
        game = discrimination_game(ANTICIPATIVE, theta)
        alpha = exclusion_info_map(game, 1)
        best = success_with_cpost(game, alpha, bayes_optimal_post(game, alpha))
        sets = alpha.sets
        for _ in range(100):
            guess = rng.dirichlet(np.ones(len(INPUT_LABELS)), size=(len(sets), 4))
            rival = success_with_cpost(
                game, alpha, PostProcessing(sets, game.outcomes, game.answers, guess)
            )
            assert rival <= best + 1e-12

    def test_ties_break_to_first_answer(self):
        # symmetric table: every answer scores equally, so "+a" must win
        table = JointTable(
            INPUT_LABELS, ("z",), np.full((4, 1), 0.25)
        )
        game = GameSpec(INPUT_LABELS, INPUT_LABELS, equality, table)
        nu = bayes_optimal_post(game, no_exclusion_map(game))
        assert nu.sets == (NO_INFO,) and nu.outcomes == ("z",)
        assert np.array_equal(nu.guess[0, 0], [1.0, 0.0, 0.0, 0.0])


class TestInputIndependentLeak:
    def test_no_advantage_when_alpha_ignores_input(self):
        # five answers so the leaked set can avoid every correct answer
        rng = np.random.default_rng(23)
        inputs = ("x1", "x2")
        answers = ("y1", "y2", "y3", "y4", "y5")
        correct = {"x1": "y1", "x2": "y2"}
        for _ in range(20):
            probs = rng.dirichlet(np.ones(6)).reshape(2, 3)
            table = JointTable(inputs, ("z1", "z2", "z3"), probs)
            game = GameSpec(
                inputs, answers, lambda x, y: correct[x] == y, table
            )
            sets = (("y3", "y4"), ("y4", "y5"), ("y3", "y5"))
            w = rng.dirichlet(np.ones(len(sets)))
            alpha = PartialInfoMap(sets, [w, w])
            alpha.validate(game)
            with_info = success_with_cpost(
                game, alpha, bayes_optimal_post(game, alpha)
            )
            without = success_no_cpost(
                game, bayes_optimal_post(game, no_exclusion_map(game))
            )
            assert with_info == pytest.approx(without, abs=1e-12)


#: The caches of what an unstacked strategy's content fixes.
STRATEGY_CACHES = (
    game_module._shared_post,
    game_module._shared_win_weights,
)

#: Every cache of the game module, none of them keyed on theta.
STRUCTURE_CACHES = (
    game_module.all_exclusion_sets,
    game_module._correct_table,
    game_module._membership,
    game_module._leak_correct,
    game_module._exclusion_map,
    game_module._no_exclusion_map,
    game_module._check_leak,
) + STRATEGY_CACHES


#: Every ``lru_cache`` of the package, so that a cache added or removed
#: shows up in this list.
PACKAGE_CACHES = STRUCTURE_CACHES + (
    solver_module.enumerate_functions,
    solver_module._allowed,
    solver_module.count_classes,
    solver_module.fallback_function,
    simulate_module._words_seed_type,
    simulate_module._success_weights,
    cli_module._parser,
)


def _clear_structure_caches() -> None:
    for cache in STRUCTURE_CACHES:
        cache.cache_clear()


class TestStructureCaches:
    def test_every_cache_of_the_module_is_listed(self):
        defined = []
        for info in pkgutil.iter_modules(anticipative.__path__, "anticipative."):
            module = importlib.import_module(info.name)
            defined += [
                value for value in vars(module).values()
                if hasattr(value, "cache_clear") and value.__module__ == module.__name__
            ]
        assert set(defined) == set(PACKAGE_CACHES)
        assert len(PACKAGE_CACHES) == len(set(PACKAGE_CACHES))

    def test_correct_table_per_correctness(self):
        table = JointTable(("x", "w"), ("z",), np.array([[0.5], [0.5]]))
        same = GameSpec(("x", "w"), ("x", "w"), equality, table)
        again = GameSpec(("x", "w"), ("x", "w"), equality, table)
        other = GameSpec(("x", "w"), ("x", "w"), lambda x, y: x != y, table)
        assert again.correct is same.correct
        assert np.array_equal(same.correct, np.eye(2))
        assert np.array_equal(other.correct, 1.0 - np.eye(2))

    def test_unhashable_correctness_is_rejected(self):
        @dataclass
        class Judge:
            def __call__(self, x, y):
                return x == y

        table = JointTable(("x", "w"), ("z",), np.array([[0.5], [0.5]]))
        with pytest.raises(TypeError, match="unhashable"):
            GameSpec(("x", "w"), ("x", "w"), Judge(), table)

    def test_invalid_leak_raises_same_message_every_call(self):
        game = discrimination_game(STANDARD, 1.0)
        bad = PartialInfoMap(tuple((x,) for x in INPUT_LABELS), np.eye(4))
        messages = []
        for check in (bad.validate, bad.validate, lambda g: bayes_optimal_post(g, bad)):
            with pytest.raises(ValueError, match="correct answer") as err:
                check(game)
            messages.append(str(err.value))
        assert len(set(messages)) == 1

    def test_leak_valid_for_one_game_is_checked_for_another(self):
        four = discrimination_game(STANDARD, 1.0)
        alpha = exclusion_info_map(four, 1)
        alpha.validate(four)
        table = JointTable(("x",), ("z",), np.array([[1.0]]))
        one = GameSpec(("x",), INPUT_LABELS, lambda x, y: y == "+a", table)
        with pytest.raises(ValueError, match="shape"):
            alpha.validate(one)

    def test_cached_tables_reject_writes(self):
        game = discrimination_game(ANTICIPATIVE, 0.7)
        arrays = [game.correct, no_exclusion_map(game).weights]
        arrays += [exclusion_info_map(game, k).weights for k in (1, 2, 3)]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5

    def test_pipeline_bit_identical_warm_and_cleared(self):
        grid = theta_grid(25)

        def values():
            return [pipeline_success(s, theta) for theta in grid for s in SCENARIOS]

        warm = values()
        _clear_structure_caches()
        cold = values()
        assert [v.hex() for v in cold] == [v.hex() for v in warm]
        assert [v.hex() for v in values()] == [v.hex() for v in warm]

    def test_caches_do_not_grow_with_theta(self):
        _clear_structure_caches()
        for theta in np.linspace(0.01, math.pi / 2, 300):
            for s in SCENARIOS:
                pipeline_success(s, theta)
        sizes = {cache: cache.cache_info().currsize for cache in STRUCTURE_CACHES}
        # one shared strategy per scenario, with its check and win weights
        assert max(sizes[cache] for cache in STRATEGY_CACHES) <= len(SCENARIOS), sizes
        assert max(sizes[cache] for cache in sizes if cache not in STRATEGY_CACHES) <= 4, sizes
        # the pipeline's memo holds both kinds' games of the last angle only
        key, games = task_module._LAST_GAMES
        assert key == theta and list(games) == list(task_module.KINDS), (key, games)


    def test_stacked_call_keeps_no_stacked_array(self, monkeypatch):
        thetas = np.geomspace(1e-7, math.pi / 2, 2026)
        monkeypatch.setattr(task_module, "_LAST_GAMES", (None, {}))
        for s in SCENARIOS:
            pipeline_success(s, 0.7)  # fills every cache a stacked call reads
        sizes = [cache.cache_info().currsize for cache in STRUCTURE_CACHES]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for s in SCENARIOS:
                pipeline_success(s, thetas)
            task_module._LAST_GAMES = (None, {})  # the pipeline's own memo
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [cache.cache_info().currsize for cache in STRUCTURE_CACHES] == sizes
        # one stacked float per angle would be 16 KB; a stacked strategy 2 MB
        assert kept < 8 * len(thetas), kept


#: Angles at the edges of the range and one inside, where the Bayes
#: strategies follow the priority order.
DEGENERATE = (1e-7, 1e-6, 0.7, math.pi / 2)

#: Angles so small that answers tie and the Bayes picks leave the priority order.
TIES = (1e-12, 1e-8)


def _strategies(theta) -> dict:
    """``(game, leak, Bayes strategy)`` of each scenario at ``theta``."""
    found = {}
    for s in SCENARIOS:
        game = discrimination_game(s.kind, theta)
        alpha = no_exclusion_map(game) if s.k == 0 else exclusion_info_map(game, s.k)
        found[s] = (game, alpha, bayes_optimal_post(game, alpha))
    return found


class TestSharedStrategies:
    @pytest.mark.parametrize("theta", DEGENERATE + TIES)
    def test_bayes_strategy_equals_a_memo_free_build(self, theta):
        for game, alpha, nu in _strategies(theta).values():
            table = game_module._leak_correct.__wrapped__(
                alpha, game.inputs, game.answers, game.correctness
            )
            n = len(game.answers)
            scores = (table @ game.joint.probs).reshape(len(alpha.sets), n, -1)
            guess = np.eye(n)[scores.argmax(axis=-2)]
            assert nu.guess.shape == guess.shape
            assert nu.guess.tobytes() == guess.tobytes()
            assert bayes_optimal_post(game, alpha) is nu

    @pytest.mark.parametrize("theta", (1e-6, 0.7, math.pi / 2))
    def test_bayes_strategy_is_the_priority_strategy(self, theta):
        for s, (_, _, nu) in _strategies(theta).items():
            assert nu is priority_post(s.kind, s.k), s

    def test_deterministic_post_shares_unstacked_picks(self):
        sets, outcomes, answers = (NO_INFO,), ("z0", "z1"), ("y0", "y1", "y2")
        nu = deterministic_post(sets, outcomes, answers, [[2, 0]])
        assert deterministic_post(sets, outcomes, answers, np.array([[2, 0]])) is nu
        assert nu.guess.tolist() == [[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]]
        stack = [[[2, 0]], [[1, 1]]]
        stacked = deterministic_post(sets, outcomes, answers, stack)
        assert deterministic_post(sets, outcomes, answers, stack) is not stacked
        assert stacked.guess[0].tolist() == nu.guess.tolist()
        for bad in ([[3, 0]], [[-1, 0]], [[1.5, 0]], [[[2, 0]], [[0, 3]]]):
            with pytest.raises(ValueError, match="integer indices into 3 answers"):
                deterministic_post(sets, outcomes, answers, bad)
        with pytest.raises(ValueError, match="guess has shape"):
            deterministic_post(sets, outcomes, answers, [[0, 1, 2]])

    def test_each_choice_of_picks_has_its_own_strategy(self):
        shared = {}
        for theta in DEGENERATE + TIES:
            for s, (_, _, nu) in _strategies(theta).items():
                key = (s, nu.guess.argmax(axis=-1).tobytes())
                assert shared.setdefault(key, nu) is nu, (theta, s)
        # the tie region picks otherwise for every scenario
        assert len(shared) == 2 * len(SCENARIOS)
        assert len({id(nu) for nu in shared.values()}) == len(shared)

    @pytest.mark.parametrize("inner", [True, False], ids=["scenario-inner", "scenario-outer"])
    def test_pipeline_bits_equal_emptied_memos(self, inner):
        angles = DEGENERATE + TIES
        if inner:
            calls = [(s, t) for t in angles for s in SCENARIOS]
        else:
            calls = [(s, t) for s in SCENARIOS for t in angles]
        cold = []
        for s, t in calls:
            _clear_structure_caches()
            task_module._LAST_GAMES = (None, {})
            cold.append(pipeline_success(s, t).hex())
        for _ in range(2):
            assert [pipeline_success(s, t).hex() for s, t in calls] == cold

    def test_strategy_valid_for_one_game_is_checked_for_another(self):
        four = discrimination_game(STANDARD, 0.7)
        alpha = exclusion_info_map(four, 1)
        nu = bayes_optimal_post(four, alpha)
        tilted = discrimination_game(ANTICIPATIVE, 0.7)
        backwards = GameSpec(INPUT_LABELS, INPUT_LABELS[::-1], equality, four.joint)
        checks = {
            "no rule": lambda: win_weights(tilted, exclusion_info_map(tilted, 1), nu),
            "unknown answers": lambda: nu.validate(backwards, alpha.sets),
            "no rule for some leaked set": lambda: win_weights(
                four, exclusion_info_map(four, 2), nu
            ),
        }
        for match, check in checks.items():
            messages = set()
            for _ in range(3):
                win_weights(four, alpha, nu)  # passes; its weights are remembered
                with pytest.raises(ValueError, match=match) as err:
                    check()
                messages.add(str(err.value))
            assert len(messages) == 1, messages

    def test_bad_strategy_raises_on_every_call(self):
        game = discrimination_game(STANDARD, 1.0)
        nan = np.eye(4)[None].copy()
        nan[0, 3, 2] = float("nan")
        short = np.zeros((1, 4, 4))
        short[..., 0] = 0.7
        for guess in (nan, short):
            messages = set()
            for _ in range(3):
                with pytest.raises(ValueError, match="not a distribution") as err:
                    PostProcessing((NO_INFO,), game.outcomes, game.answers, guess)
                messages.add(str(err.value))
            assert len(messages) == 1, messages

    def test_shared_arrays_reject_writes(self):
        for game, alpha, nu in _strategies(0.7).values():
            weights = win_weights(game, alpha, nu)
            assert win_weights(game, alpha, nu) is weights
            for arr in (nu.guess, weights):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 0.5


class TestStackedGames:
    def test_stacked_functionals_equal_each_table(self):
        thetas = theta_grid(9)
        for kind in (STANDARD, ANTICIPATIVE):
            stacked = discrimination_game(kind, thetas)
            singles = [discrimination_game(kind, theta) for theta in thetas]
            for k in (1, 2):
                alpha = exclusion_info_map(stacked, k)
                nu = bayes_optimal_post(stacked, alpha)
                assert nu.guess.shape == (9, len(alpha.sets), 4, 4)
                weights = win_weights(stacked, alpha, nu)
                values = success_with_cpost(stacked, alpha, nu)
                for i, single in enumerate(singles):
                    nu1 = bayes_optimal_post(single, alpha)
                    assert np.array_equal(nu.guess[i], nu1.guess)
                    assert weights[i].tolist() == win_weights(single, alpha, nu1).tolist()
                    assert values[i] == success_with_cpost(single, alpha, nu1)
            # one unstacked strategy scored against every table of the stack
            nu0 = priority_post(kind, 0)
            assert success_no_cpost(stacked, nu0).tolist() == [
                success_no_cpost(single, nu0) for single in singles
            ]

    def test_contractions_match_a_loop_on_a_general_game(self):
        rng = np.random.default_rng(5)
        inputs, answers = ("x0", "x1", "x2"), ("y0", "y1", "y2", "y3")
        outcomes = tuple(f"z{i}" for i in range(5))
        probs = rng.random((4, 3, 5))
        probs /= probs.sum(axis=(1, 2), keepdims=True)
        game = GameSpec(inputs, answers, general_correctness, JointTable(inputs, outcomes, probs))
        alpha = exclusion_info_map(game, 1)
        nu = bayes_optimal_post(game, alpha)
        weights = win_weights(game, alpha, nu)
        values = success_with_cpost(game, alpha, nu)
        c, w = game.correct, alpha.weights
        for n in range(4):
            for s in range(len(alpha.sets)):
                for z in range(5):
                    scores = [sum(w[x, s] * probs[n, x, z] * c[x, y] for x in range(3))
                              for y in range(4)]
                    assert nu.guess[n, s, z].tolist() == np.eye(4)[np.argmax(scores)].tolist()
            loop = [[sum(w[x, s] * c[x, y] * nu.guess[n, s, z, y]
                         for s in range(len(alpha.sets)) for y in range(4))
                     for z in range(5)] for x in range(3)]
            assert weights[n] == pytest.approx(np.array(loop), abs=1e-15)
            assert values[n] == pytest.approx(float((probs[n] * np.array(loop)).sum()), abs=1e-15)

    def test_bad_rule_names_stack_index(self):
        game = discrimination_game(STANDARD, theta_grid(3))
        guess = np.tile(np.eye(4), (3, 1, 1, 1))
        guess[2, 0, 1] = [0.5, 0.0, 0.0, 0.0]
        message = r"^rule for \(\(\), '-a'\) is not a distribution \(sum 0.5\) at stack index 2$"
        with pytest.raises(ValueError, match=message):
            PostProcessing((NO_INFO,), game.outcomes, game.answers, guess)

    def test_unstacked_rule_message_unchanged(self):
        game = discrimination_game(STANDARD, 1.0)
        guess = np.zeros((1, 4, 4))
        guess[..., 0] = 0.7
        message = r"^rule for \(\(\), '\+a'\) is not a distribution \(sum 0.7\)$"
        with pytest.raises(ValueError, match=message):
            PostProcessing((NO_INFO,), game.outcomes, game.answers, guess)

    def test_nan_rule_is_not_a_distribution(self):
        game = discrimination_game(STANDARD, 1.0)
        guess = np.eye(4)[None].copy()
        guess[0, 3, 2] = float("nan")
        with pytest.raises(ValueError, match=r"'-b'\) is not a distribution \(sum nan\)$"):
            PostProcessing((NO_INFO,), game.outcomes, game.answers, guess)

    def test_stacked_strategy_shape_checked(self):
        with pytest.raises(ValueError, match="guess has shape"):
            PostProcessing((NO_INFO,), ("z",), ("y",), np.ones((3, 1, 2, 1)))
