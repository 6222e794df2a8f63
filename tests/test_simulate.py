"""Shot-level simulator: seeding, sampling, estimation, gate check."""

from __future__ import annotations

import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from anticipative.simulate import (
    CHUNK,
    KIND_BASES,
    NOISELESS,
    RANDOM_BASIS,
    NoiseModel,
    RunSpec,
    angle_schedule,
    empirical_success,
    exact_success,
    measurement_angle,
    native_decomposition_check,
    outcome_probability,
    plan_experiment,
    sample_run,
    simulate_curves,
    state_angle,
    success_weights,
    tilt_angle,
)
from anticipative.task import (
    ANTICIPATIVE,
    INPUT_LABELS,
    K_VALUES,
    KINDS,
    SCENARIOS,
    STANDARD,
    Scenario,
    anticipative_directions,
    basis_vectors,
    closed_form,
    discrimination_game,
    theta_grid,
)
from matrix_oracle import plane_direction, plus_probability_cells, signed_direction

#: Angles for the geometry checks, from near the theta -> 0 end up to pi/2.
FINE_THETAS = np.concatenate((np.geomspace(1e-6, 0.02, 40), theta_grid(101)))


class TestNoiseModel:
    def test_defaults(self):
        noise = NoiseModel()
        assert noise.depolarizing == 0.0
        assert noise.readout_flip == 0.023
        assert NOISELESS.readout_flip == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(depolarizing=1.5)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip=0.6)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip=-0.01)


class TestPlan:
    def test_full_grid_run_count(self):
        plan = plan_experiment(theta_grid(), shots=100, seed=0)
        # 25 angles x 2 kinds x 4 states x 2 bases
        assert len(plan) == 400

    def test_canonical_order(self):
        plan = plan_experiment([0.5, 1.0], shots=10, seed=0)
        first = plan.runs[0]
        assert (first.theta, first.kind, first.state, first.basis) == (
            0.5,
            STANDARD,
            "+a",
            "a",
        )
        assert [r.index for r in plan.runs] == list(range(len(plan)))
        keys = [(r.theta, r.kind, r.state, r.basis) for r in plan.runs]
        assert len(set(keys)) == len(keys)
        # theta outermost, basis innermost
        assert plan.runs[1].basis == "b"
        assert plan.runs[8].kind == ANTICIPATIVE
        assert plan.runs[16].theta == 1.0

    def test_per_shot_mode(self):
        plan = plan_experiment([1.0], shots=6, seed=7, basis_mode="per-shot")
        assert len(plan) == 8
        assert all(r.basis == RANDOM_BASIS for r in plan.runs)
        assert all(r.shots == 12 for r in plan.runs)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_experiment([], shots=10)
        with pytest.raises(ValueError):
            plan_experiment([1.0], shots=0)
        with pytest.raises(ValueError):
            plan_experiment([1.0], shots=10, kinds=("sideways",))
        with pytest.raises(ValueError):
            plan_experiment([1.0], shots=10, basis_mode="odd")

    def test_seed_lineage(self):
        plan = plan_experiment([1.0], shots=10, seed=99)
        seq = plan.runs[3].seed_sequence()
        assert seq.entropy == 99
        assert seq.spawn_key == (3,)


class TestProbabilities:
    def test_frozen_plus_probability(self):
        # at theta = pi/2 the +a state meets the n axis at cos = 3/sqrt(10)
        got = outcome_probability(math.pi / 2, "+a", ANTICIPATIVE, "n")
        assert got == pytest.approx(0.9743416490252569, abs=1e-15)

    def test_eigenstate_is_deterministic(self):
        assert outcome_probability(1.0, "+a", STANDARD, "a") == pytest.approx(
            1.0, abs=1e-15
        )
        assert outcome_probability(1.0, "-a", STANDARD, "a") == pytest.approx(
            0.0, abs=1e-15
        )

    def test_noise_limits(self):
        for state in INPUT_LABELS:
            for kind, bases in KIND_BASES.items():
                for basis in bases:
                    assert outcome_probability(
                        0.8, state, kind, basis, NoiseModel(1.0, 0.0)
                    ) == pytest.approx(0.5, abs=1e-15)
                    assert outcome_probability(
                        0.8, state, kind, basis, NoiseModel(0.0, 0.5)
                    ) == pytest.approx(0.5, abs=1e-15)

    def test_readout_interpolation(self):
        clean = outcome_probability(1.0, "+b", ANTICIPATIVE, "m")
        eps = 0.023
        noisy = outcome_probability(1.0, "+b", ANTICIPATIVE, "m", NoiseModel(0.0, eps))
        assert noisy == pytest.approx(clean * (1 - 2 * eps) + eps, abs=1e-15)

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            outcome_probability(1.0, "+a", STANDARD, "n")
        with pytest.raises(ValueError):
            outcome_probability(1.0, "+a", "sideways", "a")

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_table_matches_per_cell_oracle(self, kind, p):
        # the array table equals the per-cell dot products exactly
        noise = NoiseModel(p, 0.0)
        for theta in FINE_THETAS:
            a, b = basis_vectors(theta)
            axes = (a, b) if kind == STANDARD else anticipative_directions(theta)
            expected = plus_probability_cells((a, -a, b, -b), axes, p)
            bases = KIND_BASES[kind]
            got = [
                [outcome_probability(theta, x, kind, u, noise) for u in bases]
                for x in INPUT_LABELS
            ]
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("noise", [NoiseModel(0.05, 0.023), NoiseModel(0.3, 0.1)])
    def test_readout_folds_into_one_shrink(self, noise):
        # with depolarizing too, the flip is P -> P (1 - 2 eps) + eps per cell
        eps = noise.readout_flip
        flipless = NoiseModel(noise.depolarizing, 0.0)
        for theta in (1e-6, 0.4, math.pi / 2):
            for kind, bases in KIND_BASES.items():
                for x, basis in ((x, u) for x in INPUT_LABELS for u in bases):
                    clean = outcome_probability(theta, x, kind, basis, flipless)
                    got = outcome_probability(theta, x, kind, basis, noise)
                    assert got == pytest.approx(clean * (1 - 2 * eps) + eps, abs=1e-15)


class TestAngles:
    def test_state_angles(self):
        theta = 0.9
        assert state_angle(theta, "+a") == pytest.approx(theta / 2)
        assert state_angle(theta, "-a") == pytest.approx(theta / 2 + math.pi)
        assert state_angle(theta, "+b") == pytest.approx(-theta / 2)
        assert state_angle(theta, "-b") == pytest.approx(-theta / 2 + math.pi)

    def test_tilt_angle_frozen(self):
        assert tilt_angle(math.pi / 2) == pytest.approx(math.acos(0.6), abs=1e-15)

    def test_measurement_angles(self):
        theta = 0.9
        omega = tilt_angle(theta)
        assert measurement_angle(theta, STANDARD, "a") == pytest.approx(theta / 2)
        assert measurement_angle(theta, STANDARD, "b") == pytest.approx(-theta / 2)
        assert measurement_angle(theta, ANTICIPATIVE, "n") == pytest.approx(omega / 2)
        assert measurement_angle(theta, ANTICIPATIVE, "m") == pytest.approx(-omega / 2)
        with pytest.raises(ValueError):
            measurement_angle(theta, STANDARD, "m")

    def test_measurement_angles_match_tilt_on_fine_grid(self):
        for theta in FINE_THETAS:
            omega = tilt_angle(theta)
            expected = {
                (STANDARD, "a"): theta / 2,
                (STANDARD, "b"): -theta / 2,
                (ANTICIPATIVE, "n"): omega / 2,
                (ANTICIPATIVE, "m"): -omega / 2,
            }
            for (kind, basis), angle in expected.items():
                got = measurement_angle(theta, kind, basis)
                assert got == pytest.approx(angle, abs=1e-15)

    def test_schedule_reproduces_born_overlap(self):
        # the in-plane angles carry the whole geometry: the rotation angle
        # between preparation and measurement matches the Bloch overlap
        for theta in theta_grid(7):
            for kind, bases in KIND_BASES.items():
                for state in INPUT_LABELS:
                    for basis in bases:
                        sched = angle_schedule(theta, kind, basis, state)
                        overlap = float(
                            signed_direction(theta, state)
                            @ plane_direction(theta, basis)
                        )
                        rotated = math.cos(sched.preparation - sched.measurement)
                        assert rotated == pytest.approx(overlap, abs=1e-12)


class TestSampling:
    def test_deterministic_replay(self):
        plan = plan_experiment([1.0], shots=500, seed=5)
        for run in plan.runs[:4]:
            first = sample_run(run, NOISELESS).outcomes
            again = sample_run(run, NOISELESS).outcomes
            assert np.array_equal(first, again)

    def test_frozen_streams(self):
        plan = plan_experiment([math.pi / 2], shots=12, seed=2026)
        r0 = sample_run(plan.runs[0], NOISELESS)
        assert r0.outcomes.tolist() == [0] * 12
        r9 = sample_run(plan.runs[9], NOISELESS)
        assert (plan.runs[9].state, plan.runs[9].basis) == ("+a", "n")
        assert r9.outcomes.tolist() == [0] * 11 + [1]

    def test_frozen_per_shot_stream(self):
        plan = plan_experiment([1.0], shots=6, seed=7, basis_mode="per-shot")
        res = sample_run(plan.runs[2], NOISELESS)
        assert res.outcomes.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]
        assert res.bases.tolist() == [0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0]

    def test_outcomes_read_only(self):
        plan = plan_experiment([1.0], shots=8, seed=3)
        res = sample_run(plan.runs[0], NOISELESS)
        with pytest.raises(ValueError):
            res.outcomes[0] = 1

    def test_tallies_split_by_basis(self):
        plan = plan_experiment([1.0], shots=100, seed=8, basis_mode="per-shot")
        res = sample_run(plan.runs[0], NOISELESS)
        tallies = res.tallies()
        assert tallies.shape == (4,)
        assert tallies[0] + tallies[1] > 0 and tallies[2] + tallies[3] > 0
        assert tallies.sum() == 200

    @pytest.mark.parametrize("basis_mode", ["even", "per-shot"])
    def test_tallies_match_direct_count(self, basis_mode):
        plan = plan_experiment([0.7], shots=300, seed=12, basis_mode=basis_mode)
        for run in plan.runs:
            res = sample_run(run, NoiseModel(0.2, 0.1))
            bases = KIND_BASES[run.kind]
            drawn = [bases[i] for i in res.bases] if res.bases is not None else None
            expected = [0, 0, 0, 0]
            for shot, bit in enumerate(res.outcomes.tolist()):
                basis = run.basis if drawn is None else drawn[shot]
                expected[2 * bases.index(basis) + bit] += 1
            assert res.tallies().tolist() == expected

    @pytest.mark.parametrize("shots", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("basis", ["m", RANDOM_BASIS])
    def test_stream_layout_across_chunks(self, shots, basis):
        # an independent reference draws the documented layout whole:
        # bases, then n Born uniforms, then n flip uniforms
        noise = NoiseModel(0.2, 0.1)
        run = RunSpec(5, 0.7, ANTICIPATIVE, "+b", basis, shots, 2026)
        rng = np.random.default_rng(run.seed_sequence())
        bases = rng.integers(0, 2, shots) if basis == RANDOM_BASIS else None
        born = rng.random(shots)
        flips = rng.random(shots) < noise.readout_flip
        depolarized = NoiseModel(noise.depolarizing, 0.0)
        p_plus = np.array(
            [outcome_probability(0.7, "+b", ANTICIPATIVE, b, depolarized) for b in "mn"]
        )
        expected = (born >= p_plus[0 if bases is None else bases]) ^ flips
        res = sample_run(run, noise)
        assert np.array_equal(res.outcomes, expected.astype(np.uint8))
        assert res.outcomes.dtype == np.uint8
        if bases is None:
            assert res.bases is None
        else:
            assert np.array_equal(res.bases, bases)


#: Rows of a weight table (``INPUT_LABELS`` order) and its columns: the
#: outcomes ``+a, -a, +b, -b`` (standard) or ``+m, -m, +n, -n`` (anticipative).
PA, MA, PB, MB = range(4)
PLUS_1, MINUS_1, PLUS_2, MINUS_2 = range(4)


class TestWeights:
    @pytest.mark.parametrize("kind", [STANDARD, ANTICIPATIVE])
    def test_columns_are_the_game_outcome_order(self, kind):
        expected = tuple(s + b for b in KIND_BASES[kind] for s in "+-")
        assert discrimination_game(kind, 0.8).outcomes == expected

    def test_no_information_weights(self):
        w = success_weights(ANTICIPATIVE, 0)
        assert w[PA, PLUS_2] == 1.0  # outcome +n, state +a
        assert w[PB, PLUS_2] == 0.0
        assert w[MB, MINUS_1] == 1.0  # outcome -m, state -b

    def test_single_exclusion_weights(self):
        w = success_weights(ANTICIPATIVE, 1)
        assert w[PA, PLUS_2] == 1.0
        assert w[PB, PLUS_2] == pytest.approx(1 / 3)
        assert w[MB, PLUS_2] == 0.0
        assert w[MA, PLUS_2] == 0.0

    def test_double_exclusion_weights(self):
        w = success_weights(STANDARD, 2)
        assert w[PA, PLUS_1] == 1.0  # outcome +a, state +a
        assert w[PB, PLUS_1] == pytest.approx(2 / 3)
        assert w[MB, PLUS_1] == pytest.approx(1 / 3)
        assert w[MA, PLUS_1] == 0.0

    def test_row_sums(self):
        # each answer appears once per priority rank across the four rows
        for kind in (STANDARD, ANTICIPATIVE):
            for k, total in ((0, 1.0), (1, 4 / 3), (2, 2.0)):
                w = success_weights(kind, k)
                assert w.shape == (len(INPUT_LABELS), 4)
                for x in range(len(INPUT_LABELS)):
                    assert sum(w[x].tolist()) == pytest.approx(total, abs=1e-15)

    def test_built_once_and_read_only(self):
        w = success_weights(STANDARD, 1)
        assert success_weights(STANDARD, 1) is w
        with pytest.raises(ValueError):
            w[PA, PLUS_1] = 0.5


class TestEstimation:
    def test_exact_success_matches_closed_forms(self):
        for scenario in SCENARIOS:
            for theta in theta_grid(9):
                assert exact_success(theta, scenario.kind, scenario.k) == pytest.approx(
                    closed_form(scenario, theta), abs=1e-12
                ), scenario

    def test_exact_success_depolarized_limit(self):
        for kind in (STANDARD, ANTICIPATIVE):
            for k, limit in ((0, 0.25), (1, 1 / 3), (2, 0.5)):
                assert exact_success(
                    1.0, kind, k, NoiseModel(1.0, 0.0)
                ) == pytest.approx(limit, abs=1e-15)
                assert exact_success(
                    1.0, kind, k, NoiseModel(0.0, 0.5)
                ) == pytest.approx(limit, abs=1e-15)

    def test_grid_estimates_within_four_sigma(self):
        plan = plan_experiment(theta_grid(5), shots=20000, seed=1)
        curves = simulate_curves(plan, NOISELESS)
        assert len(curves) == 5 * 2 * 3
        for (theta, kind, k), est in curves.items():
            target = closed_form(Scenario(kind, k), theta)
            assert abs(est.value - target) <= 4.0 * est.stderr
            assert est.shots == 8 * 20000

    def test_per_shot_mode_estimates(self):
        plan = plan_experiment([1.0], shots=20000, seed=4, basis_mode="per-shot")
        results = [sample_run(run, NOISELESS) for run in plan.runs]
        for (theta, kind, k), est in empirical_success(results, (0, 1, 2)).items():
            target = closed_form(Scenario(kind, k), theta)
            assert abs(est.value - target) <= 4.0 * est.stderr

    def test_unbalanced_group_rejected(self):
        plan = plan_experiment([1.0], shots=50, kinds=(STANDARD,), seed=0)
        results = [sample_run(run, NOISELESS) for run in plan.runs]
        with pytest.raises(ValueError, match="unbalanced"):
            empirical_success(results[:-1], (1,))
        assert empirical_success(results[:-1], (1,), require_equal_split=False)

    def test_noise_monotone_under_common_random_numbers(self):
        # identical seeds share every uniform draw, so adding depolarizing
        # noise can only push shots off the favorable outcome; one million
        # shots per noise level make any violation essentially certain to
        # surface
        plan = plan_experiment([0.9], shots=62500, seed=11)
        values = []
        for p in (0.0, 0.1, 0.5, 1.0):
            results = (sample_run(run, NoiseModel(p, 0.0)) for run in plan.runs)
            est = empirical_success(results, (1,))
            values.append({key: e.value for key, e in est.items()})
        for prev, nxt in zip(values, values[1:]):
            for key, value in prev.items():
                assert nxt[key] <= value + 1e-15

    def test_readout_noise_matches_exact_success(self):
        # the readout flip is applied once per shot, so noisy estimates
        # sit within a Bonferroni-corrected z bound of the exact noisy
        # success; a doubled flip lands about 50 sigma away
        noise = NoiseModel(0.0, 0.1)
        plan = plan_experiment([0.4, 1.0, math.pi / 2], shots=50000, seed=7)
        curves = simulate_curves(plan, noise)
        assert {k for _, _, k in curves} == {0, 1, 2}
        bound = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(curves)))
        for (theta, kind, k), est in curves.items():
            p = exact_success(theta, kind, k, noise)
            sigma = math.sqrt(p * (1.0 - p) / est.shots)
            assert abs(est.value - p) <= bound * sigma

    @pytest.mark.parametrize("basis_mode", ["even", "per-shot"])
    def test_generator_and_list_agree(self, basis_mode):
        plan = plan_experiment([0.6, 1.2], shots=3000, seed=21, basis_mode=basis_mode)
        noise = NoiseModel(0.05, 0.1)
        results = [sample_run(run, noise) for run in plan.runs]
        from_list = empirical_success(results)
        from_generator = empirical_success(sample_run(run, noise) for run in plan.runs)
        curves = simulate_curves(plan, noise)
        assert list(from_generator) == list(from_list) == list(curves)
        assert from_generator == from_list == curves

    def test_simulate_curves_holds_one_run_at_a_time(self):
        # holding all 32 runs of 250 000 shots would keep 8 MB of outcomes
        # alive; streaming keeps one run plus one chunk of uniforms
        plan = plan_experiment([0.5, 1.0], shots=250_000)
        noise = NoiseModel(0.05, 0.1)
        # warm the weight cache and numpy's lazily imported random module
        for kind in KINDS:
            for k in K_VALUES:
                success_weights(kind, k)
        plan.runs[0].rng()
        tracemalloc.start()
        try:
            simulate_curves(plan, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestGateDecomposition:
    def test_identity_holds_over_angles(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
            assert native_decomposition_check(float(theta))
        assert native_decomposition_check(0.0)
        assert native_decomposition_check(math.pi)

    def test_tolerance_is_honest(self):
        assert not native_decomposition_check(0.7, tol=1e-30)
