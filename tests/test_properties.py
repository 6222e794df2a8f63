"""Cross-layer properties over the whole angle range ``(0, pi/2]``."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from anticipative.game import bayes_optimal_post, exclusion_info_map, no_exclusion_map
from anticipative.simulate import exact_success
from anticipative.solver import anticipative_success, build_auxiliary
from anticipative.task import (
    ANTICIPATIVE,
    SCENARIOS,
    Scenario,
    closed_form,
    discrimination_game,
    pipeline_success,
    priority_post,
)

thetas = st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True)


@given(thetas)
@example(1e-6)
@example(math.pi / 2)
def test_every_layer_matches_the_closed_forms(theta):
    for scenario in SCENARIOS:
        expected = closed_form(scenario, theta)
        assert abs(pipeline_success(scenario, theta) - expected) <= 1e-12
        assert abs(exact_success(theta, scenario.kind, scenario.k) - expected) <= 1e-12
    for k in (1, 2):
        expected = closed_form(Scenario(ANTICIPATIVE, k), theta)
        assert abs(anticipative_success(build_auxiliary(theta, k)) - expected) <= 1e-12


@given(st.floats(min_value=1e-6, max_value=math.pi / 2))
@example(1e-6)
@example(math.pi / 2)
def test_bayes_optimal_rules_are_the_priority_rules(theta):
    # below 1e-6 the states nearly coincide and answers legitimately tie
    for scenario in SCENARIOS:
        game = discrimination_game(scenario.kind, theta)
        if scenario.k == 0:
            alpha = no_exclusion_map(game)
        else:
            alpha = exclusion_info_map(game, scenario.k)
        nu = bayes_optimal_post(game, alpha)
        expected = priority_post(scenario.kind, scenario.k)
        assert nu.sets == expected.sets, scenario
        assert np.array_equal(nu.guess, expected.guess), scenario
