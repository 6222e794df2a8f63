"""Shot-level simulator: seeding, sampling, estimation, gate check."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from anticipative import simulate as simulate_module
from anticipative.simulate import (
    CHUNK,
    ExperimentPlan,
    KIND_BASES,
    NOISELESS,
    RANDOM_BASIS,
    NoiseModel,
    RunResult,
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
    _run_rng,
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

#: The one message for a state outside ``INPUT_LABELS``, here ``'+c'``.
UNKNOWN_STATE = r"^unknown state '\+c': states are \('\+a', '-a', '\+b', '-b'\)$"

#: md5 of the estimates of a 7-angle per-shot plan, per readout flip.
PER_SHOT_PINS = {
    0.0: "1ba3a64e5b2501f3f700052c929807da",
    0.1: "18f925b17c8c8722a7dca85658a3f882",
}

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

    def test_repeated_theta_rejected(self):
        # pooled by (theta, kind), two copies of one angle would make one
        # estimate of twice the shots instead of two estimates
        message = r"^theta 0\.3 is repeated: "
        with pytest.raises(ValueError, match=message):
            plan_experiment([0.3, 1.0, 0.3], shots=10)
        with pytest.raises(ValueError, match=message):
            plan_experiment(np.array([0.3, 0.3]), shots=10, basis_mode="per-shot")

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match=UNKNOWN_STATE):
            ExperimentPlan((1.0,), KINDS, ("+a", "+c"), 10, 0, "even")

    def test_fractional_shots_rejected_at_plan_time(self):
        message = r"^shots_per_run must be an integer >= 1, got 2.5$"
        with pytest.raises(ValueError, match=message):
            plan_experiment([1.0], shots=2.5)

    def test_negative_seed_rejected_at_plan_time(self):
        message = r"^master_seed must be an integer >= 0, got -1$"
        with pytest.raises(ValueError, match=message):
            plan_experiment([1.0], seed=-1)

    def test_fractional_seed_rejected_at_plan_time(self):
        message = r"^master_seed must be an integer >= 0, got 1.5$"
        with pytest.raises(ValueError, match=message):
            plan_experiment([1.0], seed=1.5)

    def test_numpy_integers_accepted(self):
        plan = plan_experiment([1.0], shots=np.int64(10), seed=np.int64(99))
        assert plan.runs[0].shots == 10
        assert plan.runs[3].seed_sequence().entropy == 99

    def test_seed_lineage(self):
        plan = plan_experiment([1.0], shots=10, seed=99)
        seq = plan.runs[3].seed_sequence()
        assert seq.entropy == 99
        assert seq.spawn_key == (3,)

    def test_angles_kept_as_floats(self):
        # numpy angles, Python floats and integers give the same plan
        grid = theta_grid(3)
        plans = [plan_experiment(thetas, shots=2, basis_mode="per-shot")
                 for thetas in (grid, grid.tolist(), list(map(np.float64, grid)))]
        for plan in plans:
            assert all(type(theta) is float for theta in plan.thetas)
            assert all(type(run.theta) is float for run in plan.runs)
            assert list(map(repr, plan.runs)) == list(map(repr, plans[1].runs))
            curves = simulate_curves(plan, NOISELESS)
            assert all(type(theta) is float for theta, _, _ in curves)
        assert plan_experiment([1], shots=2).thetas == (1.0,)


def _rebuilt(run: RunSpec) -> RunSpec:
    """The run constructed anew from its fields, without what its plan computed."""
    fields = dataclasses.fields(run)
    return RunSpec(**{f.name: getattr(run, f.name) for f in fields if f.init})


def _contract_state(run: RunSpec) -> dict:
    return np.random.default_rng(run.seed_sequence()).bit_generator.state


class TestLineage:
    """The generator :func:`sample_run` draws from, seeded from a plan's
    words or from the run alone, equals ``default_rng(run.seed_sequence())``."""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 7])
    def test_default_cli_plan(self, seed):
        plan = plan_experiment(theta_grid(), shots=20000, seed=seed)
        assert len(plan) == 400
        for run in plan.runs:
            assert _run_rng(run).bit_generator.state == _contract_state(run), run

    def test_wide_per_shot_plan(self):
        plan = plan_experiment(
            theta_grid(400), shots=100, seed=3, basis_mode="per-shot"
        )
        assert len(plan) == 3200
        for run in plan.runs:
            assert _run_rng(run).bit_generator.state == _contract_state(run), run

    @pytest.mark.parametrize(
        "index, seed",
        [
            (0, 0),
            (5, 2**32),
            (2**32 - 1, 2**200 + 7),
            (2**32, 9),
            (2**70, 1),
            (3, np.int64(99)),
        ],
    )
    def test_run_constructed_alone(self, index, seed):
        run = RunSpec(index, 0.7, ANTICIPATIVE, "+b", "m", 10, seed)
        assert _run_rng(run).bit_generator.state == _contract_state(run)
        _run_rng(run).random(3)  # a fresh generator per call, like default_rng
        assert _run_rng(run).bit_generator.state == _contract_state(run)

    def test_plan_run_rng_is_the_contract(self):
        # the plan's words seed only the sampler; rng() hands out the contract
        for run in plan_experiment([0.4, 1.2], shots=10, seed=2**64 + 5).runs:
            seq = run.rng().bit_generator.seed_seq
            assert type(seq) is np.random.SeedSequence
            assert (seq.entropy, seq.spawn_key) == (2**64 + 5, (run.index,))

    def test_contract_errors_kept(self):
        with pytest.raises(ValueError):
            RunSpec(-1, 0.7, STANDARD, "+a", "a", 10, 0).rng()
        with pytest.raises(ValueError):
            RunSpec(0, 0.7, STANDARD, "+a", "a", 10, -3).rng()

    def test_spawned_generators_follow_the_sequence(self):
        run = plan_experiment([0.4], shots=10, seed=11).runs[5]
        ours, contract = run.rng(), np.random.default_rng(run.seed_sequence())
        for _ in range(2):  # the second spawn continues where the first stopped
            for a, b in zip(ours.spawn(2), contract.spawn(2)):
                assert a.bit_generator.state == b.bit_generator.state

    def test_sequence_attributes_follow_the_contract(self):
        run = plan_experiment([0.4], shots=10, seed=2**64 + 5).runs[6]
        ours, contract = run.rng().bit_generator, run.seed_sequence()
        assert ours.seed_seq.entropy == contract.entropy
        assert ours.seed_seq.spawn_key == contract.spawn_key == (6,)
        assert ours.seed_seq.pool_size == contract.pool_size
        ours.spawn(3)
        assert ours.seed_seq.n_children_spawned == 3

    def test_generator_pickles_as_the_contract(self):
        run = plan_experiment([0.4, 1.2], shots=10, seed=7).runs[9]
        rng = run.rng()
        rng.random(5)
        rng.spawn(2)
        back = pickle.loads(pickle.dumps(rng))
        assert back.bit_generator.state == rng.bit_generator.state
        assert back.random(4).tolist() == rng.random(4).tolist()
        seq = back.bit_generator.seed_seq
        assert type(seq) is np.random.SeedSequence
        assert (seq.entropy, seq.spawn_key, seq.n_children_spawned) == (7, (9,), 2)
        contract = np.random.default_rng(run.seed_sequence())
        contract.spawn(2)
        for a, b in zip(back.spawn(2), contract.spawn(2)):
            assert a.bit_generator.state == b.bit_generator.state

    def test_plan_state_is_not_part_of_equality(self):
        plan = plan_experiment([0.4, 1.2], shots=10, seed=11, basis_mode="per-shot")
        for run in plan.runs:
            alone = _rebuilt(run)
            assert alone == run and hash(alone) == hash(run)
            assert repr(alone) == repr(run)
            assert alone.overlap() == run.overlap()

    def test_overlap_rows_match_the_born_table(self):
        # one stacked product per kind gives each angle's table bit for bit
        plan = plan_experiment(FINE_THETAS, shots=10, seed=0)
        for run in plan.runs:
            table = outcome_probability(run.theta, run.state, run.kind, run.basis)
            cell = run.overlap()[KIND_BASES[run.kind].index(run.basis)]
            assert table == 0.5 * (1.0 + cell)

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random costs every CLI start 10-15 ms; runs load it when sampled
        code = "import sys, anticipative; print('numpy.random' in sys.modules)"
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"


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

    def test_unknown_state_named(self):
        # paths a plan does not validate share its check
        bad = RunSpec(0, 0.7, STANDARD, "+c", "a", 3, 0)
        calls = (
            lambda: outcome_probability(0.7, "+c", STANDARD, "a"),
            lambda: sample_run(bad),
            bad.overlap,
            lambda: state_angle(0.7, "+c"),
            lambda: angle_schedule(0.7, STANDARD, "a", state="+c"),
            lambda: empirical_success([RunResult(bad, np.zeros(3, np.uint8))]),
        )
        for call in calls:
            with pytest.raises(ValueError, match=UNKNOWN_STATE):
                call()

    def test_unknown_basis_named_in_tallies(self):
        run = RunSpec(0, 0.7, STANDARD, "+a", "n", 3, 0)
        message = r"^kind 'standard' has bases \('a', 'b'\), got 'n'$"
        with pytest.raises(ValueError, match=message):
            RunResult(run, np.zeros(3, np.uint8)).tallies()

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


#: The functions of this module that take one angle, each called with ``theta``.
ONE_ANGLE_CALLS = {
    "state_angle": lambda theta: state_angle(theta, "+a"),
    "tilt_angle": tilt_angle,
    "measurement_angle": lambda theta: measurement_angle(theta, ANTICIPATIVE, "m"),
    "angle_schedule": lambda theta: angle_schedule(theta, STANDARD, "b"),
    "outcome_probability": lambda theta: outcome_probability(
        theta, "+a", STANDARD, "a"
    ),
    "plan_experiment": lambda theta: plan_experiment([theta]),
}

#: The same, plus exact_success, which also takes a 1-D array of angles.
ANGLE_CALLS = {
    **ONE_ANGLE_CALLS,
    "exact_success": lambda theta: exact_success(theta, ANTICIPATIVE, 1),
}


class TestOneAngle:
    @pytest.mark.parametrize("name", sorted(ONE_ANGLE_CALLS))
    def test_array_rejected(self, name):
        message = r"^theta must be one angle, got an array of shape \(2,\)$"
        with pytest.raises(ValueError, match=message):
            ONE_ANGLE_CALLS[name](np.array([0.3, 0.5]))

    @pytest.mark.parametrize("name", sorted(ANGLE_CALLS))
    def test_float_message_unchanged(self, name):
        # a float still gets check_theta's message
        message = r"^theta must lie in \(0, pi/2\], got 2.0$"
        with pytest.raises(ValueError, match=message):
            ANGLE_CALLS[name](2.0)


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

    @pytest.mark.parametrize("shots", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("basis", ["m", RANDOM_BASIS])
    @pytest.mark.parametrize("eps", [0.0, -0.0])
    def test_stream_layout_across_chunks_without_readout_flip(self, shots, basis, eps):
        # at eps = 0 the reference draws bases, then n Born uniforms, no flips
        noise = NoiseModel(0.2, eps)
        run = RunSpec(5, 0.7, ANTICIPATIVE, "+b", basis, shots, 2026)
        rng = np.random.default_rng(run.seed_sequence())
        bases = rng.integers(0, 2, shots) if basis == RANDOM_BASIS else None
        born = rng.random(shots)
        p_plus = np.array(
            [outcome_probability(0.7, "+b", ANTICIPATIVE, b, noise) for b in "mn"]
        )
        expected = born >= p_plus[0 if bases is None else bases]
        res = sample_run(run, noise)
        assert np.array_equal(res.outcomes, expected.astype(np.uint8))
        if bases is None:
            assert res.bases is None
        else:
            assert np.array_equal(res.bases, bases)

    @pytest.mark.parametrize("basis", ["n", RANDOM_BASIS])
    @pytest.mark.parametrize("eps", [0.0, -0.0, 0.1])
    def test_draws_only_the_uniforms_it_reads(self, monkeypatch, basis, eps):
        # the run's generator ends where the documented layout leaves a
        # reference: flip uniforms are drawn only when eps > 0
        shots = CHUNK + 5
        run = RunSpec(2, 0.9, ANTICIPATIVE, "-a", basis, shots, 77)
        held = np.random.default_rng(run.seed_sequence())
        monkeypatch.setattr(RunSpec, "rng", lambda self: held)
        sample_run(run, NoiseModel(0.1, eps))
        reference = np.random.default_rng(run.seed_sequence())
        if basis == RANDOM_BASIS:
            reference.integers(0, 2, shots)
        reference.random(shots)
        if eps > 0.0:
            reference.random(shots)
        assert held.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("shots", -3, r"^shots must be an integer >= 0, got -3$"),
            ("shots", 2.5, r"^shots must be an integer >= 0, got 2\.5$"),
            (
                "theta",
                np.array([0.3, 0.5]),
                r"^theta must be one angle, got an array of shape \(2,\)$",
            ),
        ],
        ids=["negative-shots", "fractional-shots", "array-theta"],
    )
    def test_bad_run_built_alone_rejected(self, field, value, message):
        run = RunSpec(1, 0.7, ANTICIPATIVE, "+b", "m", 10, 4)
        with pytest.raises(ValueError, match=message):
            sample_run(dataclasses.replace(run, **{field: value}))

    def test_run_built_alone_takes_zero_and_numpy_shots(self):
        run = RunSpec(1, 0.7, ANTICIPATIVE, "+b", "m", 0, 4)
        assert sample_run(run).outcomes.tolist() == []
        wide = dataclasses.replace(run, shots=1000)
        numpy_shots = dataclasses.replace(run, shots=np.int64(1000))
        expected = sample_run(wide, NoiseModel(0.05, 0.1)).outcomes
        got = sample_run(numpy_shots, NoiseModel(0.05, 0.1)).outcomes
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_run_allocates_no_chunk_buffer(self, eps):
        # the thread's buffers, made by the warm-up, are reused: the run
        # allocates its outcomes and no 512 KB of uniforms, nor (eps > 0)
        # a 64 KB flip mask per chunk
        plan = plan_experiment([0.8], shots=500_000, seed=9)
        peak, result = _traced_peak(plan, NoiseModel(0.05, eps))
        assert peak < result.outcomes.nbytes + 64 * 1024

    def test_small_runs_keep_small_buffers(self):
        # a thread's buffers fit its largest run: CHUNK-sized blocks kept
        # amid the heap raised the peak resident memory of small runs
        plan = plan_experiment([0.8], shots=100, seed=9, basis_mode="per-shot")
        noise = NoiseModel(0.05, 0.1)
        sample_run(plan.runs[0], noise)
        peaks = []

        def sample():
            tracemalloc.start()
            try:
                sample_run(plan.runs[1], noise)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=sample)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert peaks[0] < 16 * 1024

    def test_per_shot_run_holds_no_run_long_temporary(self):
        # bases are read from raw words a chunk at a time and the Born
        # probabilities go into a buffer of the thread, so no temporary
        # lasts the run; within a chunk ``take`` makes 512 KB of indices
        plan = plan_experiment([0.8], shots=250_000, seed=9, basis_mode="per-shot")
        peak, result = _traced_peak(plan, NoiseModel(0.05, 0.1))
        assert result.outcomes.nbytes == result.bases.nbytes == 500_000
        held = result.outcomes.nbytes + result.bases.nbytes
        assert peak < held + 640 * 1024

    @pytest.mark.parametrize(
        "shots", [0, 1, 2, 3, 199, 200, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
    )
    def test_bases_are_the_integers_stream(self, monkeypatch, shots):
        # basis i is the top bit of the i-th 32-bit half of the raw words,
        # which is integers(0, 2, n): the same bases from the same words
        held = {}

        def held_rng(run):
            held[run.master_seed] = np.random.default_rng(run.master_seed)
            return held[run.master_seed]

        monkeypatch.setattr(RunSpec, "rng", held_rng)
        for seed in range(50):
            run = RunSpec(3, 0.7, ANTICIPATIVE, "+b", RANDOM_BASIS, shots, seed)
            res = sample_run(run, NOISELESS)
            reference = np.random.default_rng(seed)
            bases = reference.integers(0, 2, shots).astype(np.uint8)
            assert np.array_equal(res.bases, bases)
            reference.random(shots)
            assert _live_state(held[seed]) == _live_state(reference)
            # and every later draw agrees, 64-bit and 32-bit
            assert held[seed].random() == reference.random()
            after = held[seed].integers(0, 1 << 32, 3)
            assert np.array_equal(after, reference.integers(0, 1 << 32, 3))

    @pytest.mark.parametrize("basis_mode", ["even", "per-shot"])
    def test_threads_sampling_at_once_match_sampling_in_turn(self, basis_mode):
        shots = 3 * CHUNK + 7
        plan = plan_experiment([0.6], shots=shots, seed=12, basis_mode=basis_mode)
        noise = NoiseModel(0.05, 0.1)
        in_turn = [sample_run(run, noise) for run in plan.runs]
        at_once = [None] * len(plan.runs)
        start = threading.Barrier(2)

        def sample(first):
            start.wait()
            for i in range(first, len(plan.runs), 2):
                at_once[i] = sample_run(plan.runs[i], noise)

        threads = [threading.Thread(target=sample, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for got, expected in zip(at_once, in_turn):
            assert np.array_equal(got.outcomes, expected.outcomes)
            if basis_mode == "per-shot":
                assert np.array_equal(got.bases, expected.bases)


def _traced_peak(plan: ExperimentPlan, noise: NoiseModel) -> tuple[int, RunResult]:
    """Traced peak of sampling ``plan.runs[1]`` once ``runs[0]`` warmed the thread."""
    sample_run(plan.runs[0], noise)
    tracemalloc.start()
    try:
        result = sample_run(plan.runs[1], noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def _live_state(rng: np.random.Generator) -> dict:
    """``bit_generator.state`` less a spent 32-bit half that no draw reads.

    PCG64 hands out 32-bit draws a half word at a time.  After the high
    half it clears ``has_uint32`` but leaves that half in ``uinteger``,
    where only a set ``has_uint32`` lets a draw read it.  Reading whole
    words raw leaves ``uinteger`` as it was, so after an even number of
    bases only this dead copy differs from ``integers``.
    """
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        del state["uinteger"]
    return state


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

    @pytest.mark.parametrize("bad", [1.0, 5, "1"], ids=repr)
    def test_k_checked_before_the_cache(self, bad):
        # A float k used to hit the table of its integer once that was built.
        message = rf"^k must be one of \(0, 1, 2\), got {re.escape(repr(bad))}$"
        plan = plan_experiment([1.0], shots=10, seed=0)
        results = [sample_run(run) for run in plan.runs]
        simulate_module._success_weights.cache_clear()
        for _ in range(2):  # with no table built, then with the k = 1 table
            with pytest.raises(ValueError, match=message):
                success_weights(STANDARD, bad)
            with pytest.raises(ValueError, match=message):
                exact_success(1.0, STANDARD, bad)
            with pytest.raises(ValueError, match=message):
                empirical_success(results, ks=(bad,))
            success_weights(STANDARD, 1)

    def test_built_once_and_read_only(self):
        w = success_weights(STANDARD, 1)
        assert success_weights(STANDARD, 1) is w
        with pytest.raises(ValueError):
            w[PA, PLUS_1] = 0.5


class _Tallied:
    """A per-shot run result reduced to what the estimator reads."""

    bases = ()

    def __init__(self, run: RunSpec, counts: np.ndarray) -> None:
        self.run, self.counts = run, counts

    def tallies(self) -> np.ndarray:
        return self.counts


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

    def test_group_without_shots_rejected(self):
        runs = [RunSpec(0, 0.7, STANDARD, "+a", basis, 0, 0) for basis in "ab"]
        message = r"^no shots for theta=0\.7, kind='standard'$"
        with pytest.raises(ValueError, match=message):
            empirical_success(sample_run(run) for run in runs)

    def test_no_exclusion_count_rejected(self):
        results = [sample_run(run) for run in plan_experiment([1.0], shots=5).runs]
        message = r"^ks must name at least one exclusion count$"
        with pytest.raises(ValueError, match=message):
            empirical_success(results, ())

    def test_exclusion_counts_read_once(self):
        # every group is scored for each k, so a generator of ks must not
        # run dry after the first group
        results = [sample_run(run) for run in plan_experiment([0.5, 1.0], shots=5).runs]
        from_generator = empirical_success(results, (k for k in (0, 2)))
        assert from_generator == empirical_success(results, (0, 2))
        assert len(from_generator) == 2 * 2 * 2

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

    @pytest.mark.parametrize(
        "thetas, shots, basis_mode, eps",
        [
            ([0.6, 1.2], 3000, "even", 0.1),
            ([0.6, 1.2], 3000, "per-shot", 0.1),
            (theta_grid(400), 100, "per-shot", 0.0),
            (theta_grid(400), 100, "per-shot", 0.1),
        ],
    )
    def test_generator_and_list_agree(self, thetas, shots, basis_mode, eps):
        plan = plan_experiment(thetas, shots=shots, seed=21, basis_mode=basis_mode)
        noise = NoiseModel(0.05, eps)
        results = [sample_run(run, noise) for run in plan.runs]
        from_list = empirical_success(results)
        from_generator = empirical_success(sample_run(run, noise) for run in plan.runs)
        curves = simulate_curves(plan, noise)
        # runs built alone compute their seeding words and overlaps themselves
        alone = empirical_success(sample_run(_rebuilt(run), noise) for run in plan.runs)
        assert list(from_generator) == list(from_list) == list(curves) == list(alone)
        assert from_generator == from_list == curves

        def bits(estimates):
            return {
                key: (e.value.hex(), e.stderr.hex(), e.shots)
                for key, e in estimates.items()
            }

        assert bits(curves) == bits(alone)

    def test_rows_summed_left_to_right(self):
        # At these tallies the weighted row of the standard k=1 estimate sums
        # to one float left to right and to another correctly rounded
        # (math.fsum, as sum() nearly does from Python 3.12 on); the
        # estimate is the left-to-right one on every interpreter.
        tallies = np.array([
            [885441, 403959, 794773, 933489],
            [441002, 42451, 271494, 536111],
            [509533, 424605, 962839, 821873],
            [870164, 318047, 499749, 375442],
        ])
        runs = plan_experiment([0.7], shots=1, kinds=(STANDARD,), basis_mode="per-shot").runs
        row = (success_weights(STANDARD, 1) * tallies).ravel().tolist()
        left = 0.0
        for term in row:
            left += term
        assert left != math.fsum(row)
        estimates = empirical_success(map(_Tallied, runs, tallies), (1,))
        assert estimates[(0.7, STANDARD, 1)].value.hex() == (left / tallies.sum()).hex()

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_per_shot_estimates_pinned(self, eps):
        # digests taken when per-shot bases were drawn with
        # Generator.integers; the CLI only runs even mode, so no CSV pin
        # covers this path
        plan = plan_experiment(theta_grid(7), shots=100, seed=3, basis_mode="per-shot")
        curves = simulate_curves(plan, NoiseModel(0.05, eps))
        text = "\n".join(
            f"{theta!r} {kind} {k} {e.value.hex()} {e.stderr.hex()} {e.shots}"
            for (theta, kind, k), e in sorted(curves.items())
        )
        assert hashlib.md5(text.encode()).hexdigest() == PER_SHOT_PINS[eps]

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

    def test_array_gives_each_angle_its_float_answer(self):
        rng = np.random.default_rng(1)
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, 40)
        angles = np.concatenate((angles, [0.0, math.pi]))
        for tol in (1e-12, 1e-30):
            got = native_decomposition_check(angles, tol)
            assert got.shape == angles.shape and got.dtype == bool
            alone = [native_decomposition_check(t, tol) for t in angles.tolist()]
            assert got.tolist() == alone
        assert type(native_decomposition_check(0.7)) is bool

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        # a NaN used to divide 0 by 0 for the phase, warn and return False
        with pytest.raises(ValueError, match="finite"):
            native_decomposition_check(bad)
        with pytest.raises(ValueError, match="finite.* index 2"):
            native_decomposition_check(np.array([0.1, 0.2, bad, 0.4]))
