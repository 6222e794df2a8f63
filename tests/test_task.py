"""Four-state task: geometry, Born statistics, closed forms, priorities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anticipative.bloch import joint_table
from anticipative.game import NO_INFO
from anticipative.task import (
    ANTICIPATIVE,
    INPUT_LABELS,
    K_VALUES,
    KIND_OUTCOMES,
    SCENARIOS,
    STANDARD,
    Scenario,
    anticipative_directions,
    anticipative_measurement,
    basis_vectors,
    check_theta,
    closed_form,
    discrimination_game,
    kind_axes,
    make_ensemble,
    measurement_for,
    negate_label,
    pipeline_success,
    pq_values,
    priority_post,
    priority_table,
    signed_axes,
    signed_label,
    standard_measurement,
    theta_grid,
)
from matrix_oracle import signed_direction

angles = st.floats(min_value=0.01, max_value=math.pi / 2, allow_nan=False)


class TestGeometry:
    @given(angles)
    def test_basis_vectors(self, theta):
        a, b = basis_vectors(theta)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-15)
        assert a[2] == b[2] == 0.0
        assert float(a @ b) == pytest.approx(math.cos(theta), abs=1e-14)
        # symmetric about the x axis
        assert a[0] == b[0]
        assert a[1] == -b[1]

    def test_theta_domain(self):
        for bad in (0.0, -0.3, math.pi / 2 + 1e-9, math.pi):
            with pytest.raises(ValueError):
                check_theta(bad)
        # right at the upper endpoint, with representation slack
        check_theta(math.pi / 2)
        check_theta(math.pi / 2 + 1e-13)

    def test_label_helpers(self):
        assert negate_label("+a") == "-a"
        assert negate_label("-b") == "+b"
        assert signed_label("m", +1) == "+m"
        assert signed_label("n", -1) == "-n"

    def test_theta_grid_default(self):
        grid = theta_grid()
        assert len(grid) == 25
        expected = [i * math.pi / 50 for i in range(1, 26)]
        assert np.allclose(grid, expected, atol=1e-14)

    def test_theta_grid_validation(self):
        assert theta_grid(1).tolist() == [math.pi / 50]
        with pytest.raises(ValueError):
            theta_grid(0)
        with pytest.raises(ValueError):
            theta_grid(5, theta_min=1.0, theta_max=0.5)
        with pytest.raises(ValueError):
            theta_grid(5, theta_min=0.0)


class TestSetups:
    @given(angles)
    def test_ensemble_valid(self, theta):
        ensemble = make_ensemble(theta)
        assert ensemble.inputs == INPUT_LABELS
        ensemble.validate()
        for x in INPUT_LABELS:
            state = ensemble[x]
            assert state.trace == pytest.approx(0.25, abs=1e-15)
            assert state.eigenvalues() == pytest.approx((0.0, 0.25), abs=1e-15)

    @given(angles, st.sampled_from([STANDARD, ANTICIPATIVE]))
    def test_measurements_valid(self, theta, kind):
        m = measurement_for(kind, theta)
        assert len(m) == 4
        m.validate()

    def test_measurement_labels(self):
        assert standard_measurement(1.0).outcomes == INPUT_LABELS
        assert anticipative_measurement(1.0).outcomes == ("+m", "-m", "+n", "-n")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            measurement_for("daring", 1.0)

    def test_kind_checked_before_theta(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            measurement_for("daring", 0.0)

    @given(angles)
    def test_axes_match_the_matrix_oracle(self, theta):
        # states in INPUT_LABELS order, each kind's outcomes in KIND_OUTCOMES order
        a, b = basis_vectors(theta)
        rows = {"states": (INPUT_LABELS, signed_axes(a, b))}
        for kind in (STANDARD, ANTICIPATIVE):
            rows[kind] = (KIND_OUTCOMES[kind], signed_axes(*kind_axes(kind, a, b)))
        for labels, vectors in rows.values():
            for label, vector in zip(labels, vectors):
                expected = signed_direction(theta, label)
                assert np.allclose(vector, expected, rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError, match="kind must be one of"):
            kind_axes("daring", a, b)

    @given(angles)
    def test_anticipative_directions(self, theta):
        m, n = anticipative_directions(theta)
        a, b = basis_vectors(theta)
        c = math.cos(theta)
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-14)
        assert float(m @ n) == pytest.approx((3 + 5 * c) / (5 + 3 * c), abs=1e-13)
        # n leans toward a, m toward b
        assert float(n @ a) > float(n @ b)
        assert float(m @ b) > float(m @ a)

    def test_direction_opening_at_right_angle(self):
        m, n = anticipative_directions(math.pi / 2)
        assert float(m @ n) == pytest.approx(0.6, abs=1e-15)


class TestBornStatistics:
    def test_frozen_values(self):
        pq = pq_values(1.0)
        assert pq.q_plus == pytest.approx(0.1233060267664903, abs=1e-15)
        assert pq.p_plus == pytest.approx(0.10751506436898883, abs=1e-15)
        pq = pq_values(math.pi / 2)
        assert pq.q_plus == pytest.approx(0.12179270612815711, abs=1e-15)
        assert pq.p_plus == pytest.approx(0.082264235376052375, abs=1e-15)

    @given(angles)
    def test_ordering_and_sum(self, theta):
        pq = pq_values(theta)
        assert pq.q_plus >= pq.p_plus >= pq.p_minus >= pq.q_minus > 0.0
        assert sum(pq) == pytest.approx(0.25, abs=1e-15)

    @given(angles)
    def test_table_placement(self, theta):
        # each state pairs with its nearby tilted axis at probability q
        # and with the other axis at probability p
        table = joint_table(make_ensemble(theta), anticipative_measurement(theta))
        pq = pq_values(theta)
        tol = 1e-14
        for x, near in (("+a", "n"), ("-a", "n"), ("+b", "m"), ("-b", "m")):
            far = "m" if near == "n" else "n"
            sign, flip = x[0], negate_label(x)[0]
            assert table.prob(x, sign + near) == pytest.approx(pq.q_plus, abs=tol)
            assert table.prob(x, flip + near) == pytest.approx(pq.q_minus, abs=tol)
            assert table.prob(x, sign + far) == pytest.approx(pq.p_plus, abs=tol)
            assert table.prob(x, flip + far) == pytest.approx(pq.p_minus, abs=tol)

    def test_standard_table_is_cosine_law(self):
        theta = 1.1
        table = joint_table(make_ensemble(theta), standard_measurement(theta))
        c = math.cos(theta)
        assert table.prob("+a", "+a") == pytest.approx(0.125, abs=1e-15)
        assert table.prob("+a", "-a") == pytest.approx(0.0, abs=1e-15)
        assert table.prob("+a", "+b") == pytest.approx((1 + c) / 16, abs=1e-15)
        assert table.prob("+a", "-b") == pytest.approx((1 - c) / 16, abs=1e-15)


class TestClosedForms:
    def test_frozen_right_angle_values(self):
        theta = math.pi / 2
        expect = {
            (STANDARD, 0): 0.5,
            (STANDARD, 1): 0.58333333333333337,
            (STANDARD, 2): 0.75,
            (ANTICIPATIVE, 0): 0.48717082451262844,
            (ANTICIPATIVE, 1): 0.59685647168069833,
            (ANTICIPATIVE, 2): 0.76352313834736496,
        }
        for (kind, k), value in expect.items():
            assert closed_form(Scenario(kind, k), theta) == pytest.approx(
                value, abs=1e-15
            )

    def test_frozen_generic_values(self):
        assert closed_form(Scenario(ANTICIPATIVE, 1), 1.0) == pytest.approx(
            0.63657752622461294, abs=1e-15
        )
        assert closed_form(Scenario(STANDARD, 1), 1.0) == pytest.approx(
            0.62835852548901172, abs=1e-15
        )

    @given(angles)
    def test_no_info_anticipative_is_q_sum(self, theta):
        got = closed_form(Scenario(ANTICIPATIVE, 0), theta)
        assert got == pytest.approx(4 * pq_values(theta).q_plus, abs=1e-15)

    @given(angles)
    def test_value_orderings(self, theta):
        values = {
            (kind, k): closed_form(Scenario(kind, k), theta)
            for kind in (STANDARD, ANTICIPATIVE)
            for k in K_VALUES
        }
        # more exclusions never hurt
        for kind in (STANDARD, ANTICIPATIVE):
            assert values[(kind, 0)] <= values[(kind, 1)] <= values[(kind, 2)]
        # anticipation trades the no-information game for the leaky ones
        assert values[(ANTICIPATIVE, 0)] <= values[(STANDARD, 0)]
        assert values[(ANTICIPATIVE, 1)] >= values[(STANDARD, 1)]
        assert values[(ANTICIPATIVE, 2)] >= values[(STANDARD, 2)]

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario("sideways", 1)
        with pytest.raises(ValueError):
            Scenario(STANDARD, 3)
        assert len(SCENARIOS) == 6


class TestPipeline:
    def test_matches_closed_forms_on_grid(self):
        for scenario in SCENARIOS:
            for theta in theta_grid(9):
                assert pipeline_success(scenario, theta) == pytest.approx(
                    closed_form(scenario, theta), abs=1e-12
                ), scenario

    def test_game_structure(self):
        game = discrimination_game(STANDARD, 1.0)
        assert game.inputs == INPUT_LABELS
        assert game.answers == INPUT_LABELS
        row = game.correct[INPUT_LABELS.index("+a")]
        assert tuple(y for y, c in zip(game.answers, row) if not c) == ("-a", "+b", "-b")
        assert game.joint.total() == pytest.approx(1.0, abs=1e-15)


class TestPriorities:
    def test_tables_exact(self):
        assert priority_table(STANDARD) == {
            "+a": ("+a", "+b", "-b", "-a"),
            "-a": ("-a", "-b", "+b", "+a"),
            "+b": ("+b", "+a", "-a", "-b"),
            "-b": ("-b", "-a", "+a", "+b"),
        }
        assert priority_table(ANTICIPATIVE) == {
            "+n": ("+a", "+b", "-b", "-a"),
            "-n": ("-a", "-b", "+b", "+a"),
            "+m": ("+b", "+a", "-a", "-b"),
            "-m": ("-b", "-a", "+a", "+b"),
        }
        with pytest.raises(ValueError):
            priority_table("other")

    def test_post_structure(self):
        def rule(nu, s, z):
            row = nu.guess[nu.sets.index(s), nu.outcomes.index(z)]
            return {y: q for y, q in zip(nu.answers, row) if q}

        nu = priority_post(ANTICIPATIVE, 0)
        assert rule(nu, NO_INFO, "+n") == {"+a": 1.0}
        nu = priority_post(ANTICIPATIVE, 1)
        assert rule(nu, ("+a",), "+n") == {"+b": 1.0}
        nu = priority_post(STANDARD, 2)
        assert rule(nu, ("+a", "+b"), "+a") == {"-b": 1.0}
        with pytest.raises(ValueError):
            priority_post(STANDARD, 3)
