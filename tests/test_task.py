"""Four-state task: geometry, Born statistics, closed forms, priorities."""

from __future__ import annotations

import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anticipative import task as task_module
from anticipative.bloch import joint_table
from anticipative.game import NO_INFO, PostProcessing
from anticipative.simulate import NOISELESS, NoiseModel, exact_success
from anticipative.task import (
    ANTICIPATIVE,
    INPUT_LABELS,
    K_VALUES,
    KIND_OUTCOMES,
    KINDS,
    SCENARIOS,
    STANDARD,
    Scenario,
    anticipative_directions,
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
            scalar, bloch = ensemble[x]
            radius = np.linalg.norm(bloch)
            assert 2.0 * scalar == pytest.approx(0.25, abs=1e-15)
            eigenvalues = (scalar - radius, scalar + radius)
            assert eigenvalues == pytest.approx((0.0, 0.25), abs=1e-15)

    @given(angles, st.sampled_from([STANDARD, ANTICIPATIVE]))
    def test_measurements_valid(self, theta, kind):
        m = measurement_for(kind, theta)
        assert len(m) == 4
        m.validate()

    def test_measurement_labels(self):
        assert measurement_for(STANDARD, 1.0).outcomes == INPUT_LABELS
        assert measurement_for(ANTICIPATIVE, 1.0).outcomes == ("+m", "-m", "+n", "-n")

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
        table = joint_table(make_ensemble(theta), measurement_for(ANTICIPATIVE, theta))
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
        table = joint_table(make_ensemble(theta), measurement_for(STANDARD, theta))
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

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", None], ids=repr)
    def test_k_must_be_an_integer(self, bad):
        # 1.0 == 1, but a float k used to reach the structure caches and
        # fail or pass depending on what they held.
        message = rf"^k must be one of \(0, 1, 2\), got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Scenario(ANTICIPATIVE, bad)
        with pytest.raises(ValueError, match=message):
            priority_post(ANTICIPATIVE, bad)

    def test_integer_k_stored_as_int(self):
        for k in (np.int64(2), True):
            scenario = Scenario(STANDARD, k)
            assert type(scenario.k) is int and scenario == Scenario(STANDARD, int(k))
        assert priority_post(STANDARD, np.int64(1)).sets == priority_post(STANDARD, 1).sets


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


#: theta_grid(25), a geometric sweep down to 1e-6 and the tie at pi/2.
STACK = np.concatenate(
    (theta_grid(25), np.geomspace(1e-6, math.pi / 2, 2000), [math.pi / 2])
)

#: pipeline_success per angle, in SCENARIOS order, as computed before angles
#: could be stacked: the stacked path must keep these bits.
PINNED = (
    (1e-6, ("0x1.0000000000000p-1", "0x1.55555555553dep-1", "0x1.aaaaaaaaaa933p-1",
            "0x1.fffffffffff74p-2", "0x1.555555555543cp-1", "0x1.aaaaaaaaaa991p-1")),
    (math.pi / 50, ("0x1.0000000000000p-1", "0x1.553fc7aa85b00p-1",
                    "0x1.aa951cffdb055p-1", "0x1.fff7eb420b9e4p-2",
                    "0x1.55452a512bc9ap-1", "0x1.aa9a7fa6811efp-1")),
    (0.7, ("0x1.0000000000000p-1", "0x1.4b4cc86e2a277p-1", "0x1.a0a21dc37f7ccp-1",
           "0x1.fc551ea808650p-2", "0x1.4da277d7bc75bp-1", "0x1.a2f7cd2d11cb0p-1")),
    (math.pi / 2, ("0x1.0000000000000p-1", "0x1.2aaaaaaaaaaabp-1",
                   "0x1.8000000000000p-1", "0x1.f2dce89b636cbp-2",
                   "0x1.31972be48c91cp-1", "0x1.86ec8139e1e71p-1")),
)


#: The functions that take one angle or a 1-D array of them, each given ``theta``.
ANGLE_CALLS = (
    lambda theta: pipeline_success(SCENARIOS[1], theta),
    lambda theta: closed_form(SCENARIOS[4], theta),
    pq_values,
    lambda theta: exact_success(theta, ANTICIPATIVE, 1),
)


class TestStackedAngles:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=str)
    def test_stack_equals_scalar_calls(self, scenario):
        stacked = pipeline_success(scenario, STACK)
        assert stacked.shape == STACK.shape
        assert stacked.tolist() == [pipeline_success(scenario, t) for t in STACK]

    def test_pinned_bits(self):
        thetas = np.array([theta for theta, _ in PINNED])
        for i, scenario in enumerate(SCENARIOS):
            stacked = pipeline_success(scenario, thetas)
            for j, (theta, bits) in enumerate(PINNED):
                value = pipeline_success(scenario, theta)
                assert type(value) is float
                assert value.hex() == float(stacked[j]).hex() == bits[i], (scenario, theta)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=str)
    def test_closed_form_stack_equals_scalar_calls(self, scenario):
        stacked = closed_form(scenario, STACK)
        assert stacked.shape == STACK.shape
        alone = [closed_form(scenario, t) for t in STACK.tolist()]
        assert all(type(v) is float for v in alone)
        assert [v.hex() for v in stacked.tolist()] == [v.hex() for v in alone]
        assert closed_form(scenario, np.array(0.7)) == closed_form(scenario, 0.7)

    def test_pq_values_stack_equals_scalar_calls(self):
        stacked = pq_values(STACK)
        alone = [pq_values(t) for t in STACK.tolist()]
        for field, values in zip(stacked._fields, stacked):
            column = [getattr(pq, field) for pq in alone]
            assert all(type(v) is float for v in column)
            assert [v.hex() for v in values.tolist()] == [v.hex() for v in column], field
        assert pq_values(np.array(0.7)) == pq_values(0.7)

    @pytest.mark.parametrize(
        "noise", [NOISELESS, NoiseModel(0.02, 0.023)], ids=["noiseless", "noisy"]
    )
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=str)
    def test_exact_success_stack_equals_scalar_calls(self, scenario, noise):
        def call(theta):
            return exact_success(theta, scenario.kind, scenario.k, noise)

        thetas = STACK[::4]
        stacked = call(thetas)
        assert stacked.shape == thetas.shape
        alone = [call(t) for t in thetas.tolist()]
        assert all(type(v) is float for v in alone)
        assert [v.hex() for v in stacked.tolist()] == [v.hex() for v in alone]
        assert call(np.array(0.7)) == call(0.7)

    @pytest.mark.parametrize(
        ("k", "theta", "bits"),
        [(1, 0.5482722305896336, "0x1.4f145ba70448ap-1"),
         (2, 1.5522906201177793, "0x1.80ca1ec0bfd41p-1")],
    )
    def test_closed_form_squares_with_c_pow(self, k, theta, bits):
        # cos^2(theta/2) as C pow gives these bits; cos * cos is an ulp off here.
        scenario = Scenario(STANDARD, k)
        assert closed_form(scenario, theta).hex() == bits
        assert float(closed_form(scenario, np.array([theta]))[0]).hex() == bits

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=str)
    def test_degenerate_geometry_matches_closed_forms(self, scenario):
        # theta -> 0, where the anticipative advantage vanishes, and the tie at pi/2
        thetas = STACK[25:]
        gap = np.abs(pipeline_success(scenario, thetas) - closed_form(scenario, thetas))
        assert gap.max() <= 1e-15, thetas[gap.argmax()]

    def test_geometry_rows_equal_scalar_calls(self):
        a, b = basis_vectors(STACK)
        assert a.shape == b.shape == (len(STACK), 3)
        for kind in (STANDARD, ANTICIPATIVE):
            u, v = kind_axes(kind, a, b)
            for i in (0, 24, 25, 1000, len(STACK) - 1):
                a1, b1 = basis_vectors(STACK[i])
                u1, v1 = kind_axes(kind, a1, b1)
                for got, want in ((a[i], a1), (b[i], b1), (u[i], u1), (v[i], v1)):
                    assert got.tolist() == want.tolist()

    def test_one_angle_stack(self):
        value = pipeline_success(SCENARIOS[4], np.array([0.7]))
        assert value.shape == (1,)
        assert value[0] == pipeline_success(SCENARIOS[4], 0.7)
        assert discrimination_game(ANTICIPATIVE, [0.7]).joint.probs.shape == (1, 4, 4)

    @pytest.mark.parametrize(
        ("bad", "first"),
        [
            ([0.3, float("nan"), -1.0], "nan at index 1"),
            ([0.3, 0.5, 0.0], "0.0 at index 2"),
            ([-0.2, 2.0], "-0.2 at index 0"),
            ([1.0, math.pi / 2 + 1e-9], f"{math.pi / 2 + 1e-9!r} at index 1"),
        ],
    )
    def test_angle_array_names_first_bad_angle(self, bad, first):
        message = rf"^theta must lie in \(0, pi/2\], got {re.escape(first)}$"
        with pytest.raises(ValueError, match=message):
            check_theta(np.array(bad))
        for call in ANGLE_CALLS:
            with pytest.raises(ValueError, match=message):
                call(bad)

    @pytest.mark.parametrize(
        "bad", [np.array([]), [], np.full((2, 3), 0.5)], ids=["empty", "empty-list", "2-d"]
    )
    def test_empty_or_2d_angle_array_rejected(self, bad):
        shape = re.escape(str(np.shape(bad)))
        message = rf"^theta must be a float or a non-empty 1-D array, got shape {shape}$"
        for call in ANGLE_CALLS:
            with pytest.raises(ValueError, match=message):
                call(bad)

    def test_float_messages_unchanged(self):
        for bad in (float("nan"), 0.0, -0.3, np.float64(2.0), np.array(3.0)):
            message = rf"^theta must lie in \(0, pi/2\], got {re.escape(repr(float(bad)))}$"
            with pytest.raises(ValueError, match=message):
                pipeline_success(SCENARIOS[0], bad)
        assert check_theta(np.array(0.5)) == 0.5 and type(check_theta(np.array(0.5))) is float


class TestOneAngle:
    @pytest.mark.parametrize("bad", ["0.7", b"0.7", None, 0.7j, ["0.5", "0.7"]], ids=repr)
    def test_non_numbers_rejected(self, bad):
        message = r"^theta must be a real number or an array of them, got "
        with pytest.raises(ValueError, match=message):
            check_theta(bad)
        with pytest.raises(ValueError, match=message):
            pipeline_success(SCENARIOS[0], bad)
        with pytest.raises(ValueError, match=message):
            closed_form(SCENARIOS[0], bad)


@pytest.fixture
def table_calls(monkeypatch):
    """Empty the pipeline's game memo and record each Born table the task builds."""
    task_module._LAST_GAME.clear()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return joint_table(*args, **kwargs)

    monkeypatch.setattr(task_module, "joint_table", counting)
    return calls


def _cold(scenario, theta):
    """pipeline_success with an empty memo: the game is built afresh."""
    task_module._LAST_GAME.clear()
    return pipeline_success(scenario, theta)


def _hexes(value) -> list[str]:
    return [v.hex() for v in np.atleast_1d(value).tolist()]


#: Call sequences over a grid: all six scenarios per angle; the kinds
#: alternating at each k of an angle; and each scenario over the whole grid.
LOOP_ORDERS = {
    "scenario-inner": lambda grid: [(s, t) for t in grid for s in SCENARIOS],
    "kind-interleaved": lambda grid: [
        (Scenario(kind, k), t) for t in grid for k in K_VALUES for kind in KINDS
    ],
    "k-outer": lambda grid: [
        (Scenario(kind, k), t) for k in K_VALUES for kind in KINDS for t in grid
    ],
}

#: Angle grids of both forms: floats, and stacks of differing lengths
#: whose bytes share prefixes.
GRIDS = {
    "floats": theta_grid(25).tolist(),
    "arrays": [STACK[:5], STACK[:6], STACK[5:10], STACK[25:40], STACK[-3:]],
}


class TestGameMemo:
    def test_six_scenarios_build_one_table_per_kind(self, table_calls, monkeypatch):
        validated = []
        original = PostProcessing.validate

        def recording(self, *args, **kwargs):
            validated.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PostProcessing, "validate", recording)
        for s in SCENARIOS:
            pipeline_success(s, 0.7)
        assert len(table_calls) == 2
        # the strategy of every call is still checked against its game
        assert len(validated) == len(SCENARIOS)

    def test_repeats_reuse_the_game_of_their_kind(self, table_calls):
        for theta in (0.7, np.array([0.3, 0.7])):
            for s in SCENARIOS + SCENARIOS:
                pipeline_success(s, theta)
        assert len(table_calls) == 4

    def test_a_second_sweep_builds_as_many_tables(self, table_calls):
        grid = theta_grid(30)
        for _ in range(2):
            for theta in grid:
                for s in SCENARIOS:
                    pipeline_success(s, theta)
        assert len(table_calls) == 2 * 2 * len(grid)

    @pytest.mark.parametrize("order", sorted(LOOP_ORDERS))
    @pytest.mark.parametrize("form", sorted(GRIDS))
    def test_bits_equal_an_empty_memo(self, order, form):
        calls = LOOP_ORDERS[order](GRIDS[form])
        cold = [_hexes(_cold(s, t)) for s, t in calls]
        task_module._LAST_GAME.clear()
        assert [_hexes(pipeline_success(s, t)) for s, t in calls] == cold

    def test_two_threads_match_a_serial_sweep(self):
        grid = theta_grid(40).tolist()
        serial = {(s, t): pipeline_success(s, t).hex() for t in grid for s in SCENARIOS}
        found = [{}, {}]
        start = threading.Barrier(2)

        def sweep(i):
            start.wait()
            for _ in range(3):
                for t in grid[i::2]:
                    for s in SCENARIOS:
                        found[i][(s, t)] = pipeline_success(s, t).hex()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=sweep, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert {**found[0], **found[1]} == serial


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
