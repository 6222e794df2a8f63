"""Enumeration solver: counts, scores, certificates, reduction."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anticipative import solver
from anticipative.bloch import Measurement
from anticipative.game import exclusion_info_map, success_with_cpost
from anticipative.solver import (
    GAMMA_TOL,
    anticipative_success,
    build_auxiliary,
    certificate_residual,
    certify_optimal,
    constant_function,
    convex_combination,
    count_classes,
    counts,
    enumerate_functions,
    exclusion_sets,
    gamma,
    lambda_argmax,
    reduce_to_povm,
    fallback_function,
    paired_measurement,
)
from anticipative.task import (
    ANTICIPATIVE,
    INPUT_LABELS,
    Scenario,
    anticipative_directions,
    basis_vectors,
    closed_form,
    discrimination_game,
    measurement_for,
    priority_post,
    theta_grid,
)

from anticipative.verify import _tampered

from matrix_oracle import (
    oracle_counts,
    oracle_functions,
    oracle_sets,
    pauli_components,
    to_matrix,
    top_eigenvalues,
)


def oracle_count_of(phi: int, k: int) -> tuple[int, int, int, int]:
    """Brute-force count vector of the outcome function with index ``phi``."""
    return oracle_counts(oracle_functions(k)[phi], k)


def _identity(label, weight: float = 1.0) -> Measurement:
    """One-outcome measurement whose effect is ``weight`` times the identity."""
    return Measurement((label,), [weight], [[0.0, 0.0, 0.0]])


class TestEnumeration:
    def test_function_counts(self):
        assert enumerate_functions(1).shape == (256, 4)
        assert enumerate_functions(2).shape == (4096, 6)

    def test_domain_sizes(self):
        assert len(exclusion_sets(1)) == 4
        assert len(exclusion_sets(2)) == 6

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            enumerate_functions(3)
        with pytest.raises(ValueError):
            exclusion_sets(0)

    def test_functions_unique_and_total(self):
        for k in (1, 2):
            assert exclusion_sets(k) == tuple(oracle_sets(k))
            rows = [
                tuple(INPUT_LABELS[i] for i in row) for row in enumerate_functions(k)
            ]
            assert rows == oracle_functions(k)
        assert rows[0] == ("+a",) * 6

    def test_functions_read_only(self):
        functions = enumerate_functions(1)
        with pytest.raises(ValueError):
            functions[0, 0] = 1

    def test_constant_function(self):
        for k in (1, 2):
            for label in INPUT_LABELS:
                phi = constant_function(k, label)
                assert type(phi) is int
                assert set(oracle_functions(k)[phi]) == {label}


def checked_counts(phi: int, k: int) -> tuple[int, int, int, int]:
    """Count vector of ``phi`` from the oracle, after matching the solver's."""
    expected = oracle_count_of(phi, k)
    assert tuple(counts(enumerate_functions(k)[phi], k).tolist()) == expected
    return expected


class TestCounts:
    def test_constant_function(self):
        # +a is excluded by one of the four singleton sets
        assert checked_counts(constant_function(1, "+a"), 1) == (3, 0, 0, 0)

    def test_preferred_fallback_k1(self):
        assert checked_counts(fallback_function(1, +1, "ab"), 1) == (3, 0, 1, 0)
        assert checked_counts(fallback_function(1, -1, "ab"), 1) == (0, 3, 0, 1)
        assert checked_counts(fallback_function(1, +1, "ba"), 1) == (1, 0, 3, 0)

    def test_preferred_fallback_k2(self):
        assert checked_counts(fallback_function(2, +1, "ab"), 2) == (3, 0, 2, 1)
        assert checked_counts(fallback_function(2, -1, "ab"), 2) == (0, 3, 1, 2)
        assert checked_counts(fallback_function(2, +1, "ba"), 2) == (2, 1, 3, 0)
        assert checked_counts(fallback_function(2, -1, "ba"), 2) == (1, 2, 0, 3)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            counts(enumerate_functions(1)[0], 2)

    @pytest.mark.parametrize("guess", [-1, 4])
    def test_guess_outside_the_alphabet_rejected(self, guess):
        with pytest.raises(ValueError, match="indices into INPUT_LABELS"):
            counts(np.array([0, 1, 2, guess]), 1)
        with pytest.raises(ValueError, match="domain"):
            counts(constant_function(1, "+a"), 1)


class TestCountClasses:
    def test_class_counts_and_multiplicities(self):
        for k, n_classes, n_functions in ((1, 66, 256), (2, 144, 4096)):
            classes = count_classes(k)
            assert classes.slots.shape == (n_classes, 4)
            assert len(np.unique(classes.slots, axis=0)) == n_classes
            assert classes.multiplicity.min() >= 1
            assert classes.multiplicity.sum() == n_functions
            brute = {oracle_counts(g, k) for g in oracle_functions(k)}
            assert len(brute) == n_classes

    def test_every_function_maps_to_its_count_vector(self):
        for k in (1, 2):
            classes = count_classes(k)
            assert len(classes.class_of) == len(oracle_functions(k))
            for phi, guesses in enumerate(oracle_functions(k)):
                slots = classes.slots[classes.class_of[phi]]
                assert tuple(slots.tolist()) == oracle_counts(guesses, k)

    def test_classes_numbered_in_first_seen_order(self):
        for k in (1, 2):
            class_of = count_classes(k).class_of.tolist()
            first_seen = list(dict.fromkeys(class_of))
            assert first_seen == list(range(len(first_seen)))

    def test_not_built_at_import(self):
        code = (
            "import anticipative.solver as s; "
            "print(s.count_classes.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == "0"


class TestGamma:
    def test_frozen_examples(self):
        assert gamma((3, 0, 1, 0), 0.0) == pytest.approx(
            7.16227766016838, abs=1e-12
        )
        assert gamma(np.array([3, 0, 2, 1]), 0.0) == pytest.approx(
            9.16227766016838, abs=1e-12
        )
        assert gamma((3, 0, 0, 1), 0.5) == pytest.approx(
            6.6457513110645907, abs=1e-12
        )

    def test_balanced_counts_have_no_bloch_gain(self):
        assert gamma((1, 1, 1, 1), 0.3) == pytest.approx(4.0, abs=1e-15)

    @given(
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    # unit vectors whose inner product is ip exactly; near ip = 1 the
    # score must not lose the small Bloch deviation to cancellation
    @example(1, 0, 0, 1, 0.9999999999999999)
    @example(3, 0, 0, 3, 0.9999999999999999)
    def test_matches_vector_norm(self, ap, am, bp, bm, ip):
        # the score is total plus the norm of the summed Bloch deviation
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([ip, math.sqrt((1.0 - ip) * (1.0 + ip)), 0.0])
        assert a @ b == ip
        vec = (ap - am) * a + (bp - bm) * b
        expected = ap + am + bp + bm + np.linalg.norm(vec)
        assert gamma((ap, am, bp, bm), ip) == pytest.approx(expected, abs=1e-9)

    def test_bad_inner_product(self):
        with pytest.raises(ValueError):
            gamma((1, 0, 0, 0), 1.5)

    def test_array_scores_equal_scalar_scores(self):
        rows = np.array(list(itertools.product(range(7), repeat=4)))
        for ip in (-0.9999999999999999, -0.4, 0.0, 0.3, 0.9999999999999999, 1.0):
            scores = gamma(rows, ip)
            assert scores.shape == (len(rows),)
            for c, score in zip(rows.tolist(), scores.tolist()):
                assert score == gamma(c, ip)
        grid = gamma(rows.reshape(7, 343, 4), 0.3)
        assert np.array_equal(grid.ravel(), gamma(rows, 0.3))


class TestBuildAuxiliary:
    @pytest.mark.parametrize(
        "call", [lambda k: build_auxiliary(0.7, k), exclusion_sets],
        ids=["build_auxiliary", "exclusion_sets"],
    )
    def test_float_k_rejected_whatever_the_cache(self, call):
        # 1.0 == 1: it used to fail in a fresh state and reuse the k = 1
        # structures once they were built.
        count_classes.cache_clear()
        enumerate_functions.cache_clear()
        for _ in range(2):  # with nothing built, then after a k = 1 call
            with pytest.raises(ValueError, match=r"^k must be one of \(1, 2\), got 1\.0$"):
                call(1.0)
            call(1)
        assert type(build_auxiliary(0.7, np.int64(2)).k) is int

    def test_normalization_constants(self):
        assert build_auxiliary(1.0, 1).normalization == pytest.approx(64.0)
        assert build_auxiliary(1.0, 2).normalization == pytest.approx(1024.0)

    def test_unit_total_trace(self):
        for k in (1, 2):
            aux = build_auxiliary(0.7, k)
            assert aux.total_trace() == pytest.approx(1.0, abs=1e-12)

    def test_members_match_operators_from_counts(self):
        theta = 0.9
        a, b = basis_vectors(theta)
        for k in (1, 2):
            aux = build_auxiliary(theta, k)
            scale = 1.0 / (24.0 * aux.normalization)
            for phi, guesses in enumerate(oracle_functions(k)):
                ap, am, bp, bm = oracle_counts(guesses, k)
                da, db = ap - am, bp - bm
                total = ap + am + bp + bm
                scalar, bloch = aux.member(phi)
                assert abs(scalar - total * scale) <= 1e-15
                assert np.max(np.abs(bloch - (da * a + db * b) * scale)) <= 1e-15

    def test_members_read_only(self):
        aux = build_auxiliary(0.9, 1)
        with pytest.raises(ValueError):
            aux.scalars[0] = 1.0
        with pytest.raises(ValueError):
            aux.blochs[0, 0] = 1.0
        scalar, bloch = aux.member(7)
        with pytest.raises(ValueError):
            scalar[...] = 1.0
        with pytest.raises(ValueError):
            bloch[0] = 1.0
        classes = count_classes(1)
        with pytest.raises(ValueError):
            classes.class_of[0] = 1

    def test_members_positive(self):
        aux = build_auxiliary(1.3, 1)
        for phi in range(256):
            scalar, bloch = aux.member(phi)
            assert scalar - np.linalg.norm(bloch) >= -1e-12

    def test_member_scores_match_matrix_eigenvalues(self):
        aux = build_auxiliary(0.9, 1)
        rng = np.random.default_rng(3)
        for idx in rng.integers(0, 256, size=20):
            scalar, bloch = aux.member(idx)
            top = np.linalg.eigvalsh(to_matrix((scalar, bloch)))[-1]
            assert scalar + np.linalg.norm(bloch) == pytest.approx(top, abs=1e-13)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            build_auxiliary(0.0, 1)
        with pytest.raises(ValueError):
            build_auxiliary(math.pi, 1)
        with pytest.raises(ValueError):
            build_auxiliary(1.0, 3)


class TestLambdaArgmax:
    def test_brute_force_equality_on_grid(self):
        for k in (1, 2):
            for theta in theta_grid(7):
                aux = build_auxiliary(theta, k)
                best, winners = lambda_argmax(aux)
                brute = max(
                    gamma(oracle_counts(guesses, k), aux.inner_product)
                    for guesses in oracle_functions(k)
                )
                assert 24.0 * aux.normalization * best == pytest.approx(
                    brute, abs=1e-12
                )
                assert winners

    def test_winner_sets_match_brute_force(self):
        for k in (1, 2):
            found = [oracle_counts(guesses, k) for guesses in oracle_functions(k)]
            for theta in (*theta_grid(7), 1e-6, math.pi / 2):
                aux = build_auxiliary(theta, k)
                _, winners = lambda_argmax(aux)
                scores = [gamma(c, aux.inner_product) for c in found]
                best = max(scores)
                brute = {phi for phi, s in enumerate(scores) if s >= best - GAMMA_TOL}
                assert winners == brute
            # the last angle, pi/2, doubles the maximizers
            assert len(winners) == 8

    def test_generic_maximizers_are_the_four_fallback_functions(self):
        for k in (1, 2):
            aux = build_auxiliary(1.0, k)
            _, winners = lambda_argmax(aux)
            expected = {
                fallback_function(k, sign, order)
                for sign in (+1, -1)
                for order in ("ab", "ba")
            }
            assert winners == expected
            assert all(type(phi) is int for phi in winners)

    def test_orthogonal_axes_double_the_maximizers(self):
        for k in (1, 2):
            aux = build_auxiliary(math.pi / 2, k)
            _, winners = lambda_argmax(aux)
            expected = {
                fallback_function(k, sign, order, flip_a=flip)
                for sign in (+1, -1)
                for order in ("ab", "ba")
                for flip in (False, True)
            }
            assert winners == expected
            assert len(winners) == 8

    def test_scores_computed_once_per_ensemble(self, monkeypatch):
        # build_auxiliary hands its scores to lambda_argmax and dual_gap; an
        # ensemble made by replace() scores its own arrays, not the ones it
        # was copied from
        calls = []
        original = solver._scores

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "_scores", counting)
        for theta in (0.7, STACK_ANGLES):
            aux = build_auxiliary(theta, 2)
            assert len(calls) == 1
            best, winners = lambda_argmax(aux)
            aux.dual_gap
            assert len(calls) == 1
            assert _hexes(best) == _hexes(aux.lambda_max)
            tampered = _tampered(aux)
            tampered_best, tampered_winners = lambda_argmax(tampered)
            tampered.dual_gap
            assert len(calls) == 2
            scores = original(tampered.scalars, tampered.blochs)
            assert _hexes(tampered_best) == _hexes(np.maximum.reduce(scores, axis=-1))
            assert tampered_winners == winners
            calls.clear()

    def test_small_angle_limit(self):
        aux = build_auxiliary(1e-6, 1)
        assert 24.0 * aux.normalization * aux.lambda_max == pytest.approx(
            8.0, abs=1e-11
        )

    def test_success_values_match_closed_forms(self):
        for k in (1, 2):
            for theta in theta_grid(7):
                aux = build_auxiliary(theta, k)
                assert anticipative_success(aux) == pytest.approx(
                    closed_form(Scenario(ANTICIPATIVE, k), theta), abs=1e-12
                )


#: ``theta_grid(25)``, a geometric sweep down to 1e-6 and the right angle.
STACK_ANGLES = np.concatenate(
    (theta_grid(25), np.geomspace(1e-6, math.pi / 2, 200), [math.pi / 2])
)


class TestStackedAngles:
    """An array of angles gives, per angle, what that angle gives alone."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_stack_matches_each_angle_bit_for_bit(self, k):
        aux = build_auxiliary(STACK_ANGLES, k)
        best, winners = lambda_argmax(aux)
        slots = count_classes(k).slots
        scores = gamma(slots, aux.inner_product)
        n = len(STACK_ANGLES)
        assert aux.stack == (n,) and len(winners) == n
        assert scores.shape == (n, len(slots))
        stacked = {
            "lambda_max": aux.lambda_max,
            "total_trace": aux.total_trace(),
            "success": anticipative_success(aux),
            "best": best,
            "inner_product": aux.inner_product,
            "dual_gap": aux.dual_gap,
        }
        for i, theta in enumerate(STACK_ANGLES.tolist()):
            one = build_auxiliary(theta, k)
            one_best, one_winners = lambda_argmax(one)
            alone = {
                "lambda_max": one.lambda_max,
                "total_trace": one.total_trace(),
                "success": anticipative_success(one),
                "best": one_best,
                "inner_product": one.inner_product,
                "dual_gap": one.dual_gap,
            }
            for name, values in stacked.items():
                assert type(alone[name]) is float
                assert float(values[i]).hex() == alone[name].hex(), (name, theta)
            one_scores = gamma(slots, one.inner_product)
            assert list(map(float.hex, scores[i].tolist())) == list(
                map(float.hex, one_scores.tolist())
            )
            assert winners[i] == one_winners
            if theta == math.pi / 2:
                assert len(one_winners) == 8
            elif theta >= 1e-3:
                # Below ~1e-4 the score gaps fall under GAMMA_TOL and more tie.
                assert len(one_winners) == 4, theta

    def test_one_angle_gives_floats_and_one_set(self):
        aux = build_auxiliary(0.7, 2)
        best, winners = lambda_argmax(aux)
        assert aux.stack == ()
        assert type(best) is float and isinstance(winners, frozenset)
        values = (aux.lambda_max, aux.inner_product, aux.total_trace(), aux.dual_gap)
        assert all(type(value) is float for value in values)

    def test_bad_angle_named(self):
        with pytest.raises(ValueError, match="at index 1"):
            build_auxiliary(np.array([0.5, math.nan, 0.7]), 1)
        with pytest.raises(ValueError, match="1-D"):
            build_auxiliary(np.full((2, 2), 0.5), 1)

    def test_bad_inner_product_in_an_array(self):
        for bad in ([0.3, math.nan], [-1.5, 0.3]):
            with pytest.raises(ValueError, match="must lie in"):
                gamma((1, 0, 0, 0), np.array(bad))


def _hexes(values) -> list[str]:
    """``float.hex`` of every entry, for bit-for-bit comparisons."""
    return [float(v).hex() for v in np.ravel(values)]


class TestStackedSolver:
    """The measurement, certificate and reduction on a stack of angles."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_stack_matches_each_angle_bit_for_bit(self, k, order):
        aux = build_auxiliary(STACK_ANGLES, k)
        m = paired_measurement(STACK_ANGLES, k, order)
        other = paired_measurement(STACK_ANGLES, k, "ba" if order == "ab" else "ab")
        mix = convex_combination([m, other], [0.25, 0.75])
        m_ab, m_ba = (m, other) if order == "ab" else (other, m)
        povm, nu = reduce_to_povm(aux, m_ab, m_ba)
        n = len(STACK_ANGLES)
        assert m.stack == mix.stack == povm.stack == (n,)
        assert m.blochs.shape == (n, 2, 3)
        stacked = {
            "residual": certificate_residual(aux, m),
            "mix_residual": certificate_residual(aux, mix),
            "certified": certify_optimal(aux, m),
            "mix_certified": certify_optimal(aux, mix),
        }
        assert stacked["certified"].shape == (n,)
        for i, theta in enumerate(STACK_ANGLES.tolist()):
            one = build_auxiliary(theta, k)
            one_m = paired_measurement(theta, k, order)
            one_other = paired_measurement(theta, k, "ba" if order == "ab" else "ab")
            one_mix = convex_combination([one_m, one_other], [0.25, 0.75])
            one_povm, one_nu = reduce_to_povm(
                one, *((one_m, one_other) if order == "ab" else (one_other, one_m))
            )
            alone = {
                "residual": certificate_residual(one, one_m),
                "mix_residual": certificate_residual(one, one_mix),
                "certified": certify_optimal(one, one_m),
                "mix_certified": certify_optimal(one, one_mix),
            }
            for name, values in stacked.items():
                assert type(alone[name]) in (float, bool), name
                assert _hexes(values[i]) == _hexes(alone[name]), (name, theta)
            assert m.outcomes == one_m.outcomes and mix.outcomes == one_mix.outcomes
            for got, want in ((m, one_m), (mix, one_mix), (povm, one_povm)):
                assert _hexes(got.scalars[i]) == _hexes(want.scalars)
                assert _hexes(got.blochs[i]) == _hexes(want.blochs)
            assert povm.outcomes == one_povm.outcomes
            assert nu.sets == one_nu.sets
            assert np.array_equal(nu.guess, one_nu.guess)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_flipped_stack_certifies_only_at_right_angles(self, k, order):
        aux = build_auxiliary(STACK_ANGLES, k)
        flipped = paired_measurement(STACK_ANGLES, k, order, flip_a=True)
        certified = certify_optimal(aux, flipped)
        residual = certificate_residual(aux, flipped)
        right = np.flatnonzero(STACK_ANGLES == math.pi / 2)
        assert np.array_equal(np.flatnonzero(certified), right)
        for i, theta in enumerate(STACK_ANGLES.tolist()):
            one = paired_measurement(theta, k, order, flip_a=True)
            assert _hexes(flipped.blochs[i]) == _hexes(one.blochs)
            one_aux = build_auxiliary(theta, k)
            assert certified[i] == certify_optimal(one_aux, one)
            assert residual[i].hex() == certificate_residual(one_aux, one).hex()

    def test_labels_do_not_depend_on_the_angle(self):
        for k in (1, 2):
            for order in ("ab", "ba"):
                m = paired_measurement(STACK_ANGLES, k, order)
                assert m.outcomes == paired_measurement(0.3, k, order).outcomes

    @pytest.mark.parametrize("k", [1, 2])
    def test_tampered_angle_fails_only_its_own_index(self, k):
        angles = theta_grid(7)
        aux = build_auxiliary(angles, k)
        m_ab = paired_measurement(angles, k, "ab")
        m_ba = paired_measurement(angles, k, "ba")
        blochs = aux.blochs.copy()
        blochs[3] *= 1.01
        tampered = replace(aux, blochs=blochs)
        for m in (m_ab, m_ba, convex_combination([m_ab, m_ba])):
            assert certify_optimal(aux, m).all()
            verdict = certify_optimal(tampered, m)
            assert np.flatnonzero(~verdict).tolist() == [3]
        with pytest.raises(ValueError, match="m_ab does not certify"):
            reduce_to_povm(tampered, m_ab, m_ba)

    def test_invalid_entry_fails_only_its_own_index(self):
        # the effects at angle 2 sum to 1.5 I: the only invalid entry
        angles = theta_grid(5)
        aux = build_auxiliary(angles, 1)
        m = paired_measurement(angles, 1, "ab")
        scalars = m.scalars.copy()
        scalars[2] *= 1.5
        bad = Measurement(m.outcomes, scalars, m.blochs)
        with pytest.raises(ValueError, match="at stack index 2"):
            bad.validate()
        assert np.flatnonzero(~certify_optimal(aux, bad)).tolist() == [2]
        everywhere = Measurement(m.outcomes, 1.5 * m.scalars, m.blochs)
        assert not certify_optimal(aux, everywhere).any()

    def test_residual_given_by_the_caller(self):
        aux = build_auxiliary(theta_grid(5), 2)
        m = paired_measurement(theta_grid(5), 2, "ab")
        residual = certificate_residual(aux, m)
        assert certify_optimal(aux, m, residual=residual).all()
        assert not certify_optimal(aux, m, residual=residual + 1.0).any()

    def test_one_angle_gives_the_unstacked_objects(self):
        aux = build_auxiliary(0.7, 1)
        m_ab = paired_measurement(0.7, 1, "ab")
        m_ba = paired_measurement(0.7, 1, "ba")
        assert m_ab.stack == () and m_ab.blochs.shape == (2, 3)
        assert type(certificate_residual(aux, m_ab)) is float
        assert certify_optimal(aux, m_ab) is True
        invalid = _identity(fallback_function(1, +1, "ab"), 0.5)
        assert certify_optimal(aux, invalid) is False
        povm, nu = reduce_to_povm(aux, m_ab, m_ba)
        assert povm.stack == () and nu.guess.shape == (4, 4, 4)


class TestTheoremMeasurement:
    def test_valid_and_projective(self):
        for k in (1, 2):
            m = paired_measurement(1.2, k, "ab")
            m.validate()
            assert len(m) == 2
            for scalar, bloch in (m[phi] for phi in m):
                radius = np.linalg.norm(bloch)
                eigenvalues = (scalar - radius, scalar + radius)
                assert eigenvalues == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_directions(self):
        theta = 0.8
        a, b = basis_vectors(theta)
        m_ab = paired_measurement(theta, 1, "ab")
        axis = (3 * a + b) / np.linalg.norm(3 * a + b)
        _, plus = m_ab[fallback_function(1, +1, "ab")]
        assert np.allclose(plus, 0.5 * axis, atol=1e-15)
        m_ba = paired_measurement(theta, 1, "ba")
        axis = (a + 3 * b) / np.linalg.norm(a + 3 * b)
        _, plus = m_ba[fallback_function(1, +1, "ba")]
        assert np.allclose(plus, 0.5 * axis, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 2])
    def test_axes_are_the_task_axes(self, k):
        # n for "ab" and m for "ba"; the flipped axes are still unit vectors
        for theta in np.concatenate((np.geomspace(1e-6, 0.02, 9), theta_grid(25))):
            m_dir, n_dir = anticipative_directions(theta)
            for order, axis in (("ab", n_dir), ("ba", m_dir)):
                plus, minus = paired_measurement(theta, k, order).blochs
                assert np.allclose(2 * plus, axis, rtol=0.0, atol=1e-15)
                assert np.array_equal(minus, -plus)
                flipped = paired_measurement(theta, k, order, flip_a=True).blochs[0]
                assert np.linalg.norm(2 * flipped) == pytest.approx(1.0, abs=1e-15)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            paired_measurement(1.0, 1, "xy")

    @pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
    def test_bad_sign(self, sign):
        with pytest.raises(ValueError, match="sign must be"):
            fallback_function(1, sign, "ab")
        with pytest.raises(ValueError, match="sign must be"):
            fallback_function(2, sign, "ba", flip_a=True)


class TestCertificates:
    def test_paired_measurements_certify(self):
        for k in (1, 2):
            for theta in (0.1, 0.9, math.pi / 2):
                aux = build_auxiliary(theta, k)
                m_ab = paired_measurement(theta, k, "ab")
                m_ba = paired_measurement(theta, k, "ba")
                assert certify_optimal(aux, m_ab)
                assert certify_optimal(aux, m_ba)
                mix = convex_combination([m_ab, m_ba])
                assert certify_optimal(aux, mix)
                assert certificate_residual(aux, mix) <= 1e-12

    def test_flipped_variant_only_at_orthogonal_axes(self):
        flipped = paired_measurement(math.pi / 2, 1, "ab", flip_a=True)
        aux = build_auxiliary(math.pi / 2, 1)
        assert certify_optimal(aux, flipped)
        aux = build_auxiliary(1.0, 1)
        flipped = paired_measurement(1.0, 1, "ab", flip_a=True)
        assert not certify_optimal(aux, flipped)

    def test_non_maximizing_support_fails(self):
        # all mass on a constant function, which never maximizes
        aux = build_auxiliary(0.5, 1)
        lazy = _identity(constant_function(1, "+a"))
        assert not certify_optimal(aux, lazy)

    def test_invalid_measurement_fails(self):
        aux = build_auxiliary(0.5, 1)
        phi = fallback_function(1, +1, "ab")
        assert not certify_optimal(aux, _identity(phi, 0.5))

    @pytest.mark.parametrize(
        "label, k",
        [("stray", 1), (-1, 1), (256, 1), (4096, 2)],
        ids=["stray", "negative", "past-end-k1", "past-end-k2"],
    )
    def test_unknown_outcome_label_rejected(self, label, k):
        aux = build_auxiliary(0.5, k)
        with pytest.raises(ValueError, match="not an outcome function"):
            certificate_residual(aux, _identity(label))
        with pytest.raises(ValueError, match="not an outcome function"):
            aux.member(label)

    def test_tampered_ensemble_fails(self):
        aux = _tampered(build_auxiliary(0.5, 1))
        assert not certify_optimal(aux, paired_measurement(0.5, 1, "ab"))

    def test_wrong_lambda_with_stationary_measurement_fails(self):
        # lambda_max lowered to the constant guess's top eigenvalue: the
        # projective pair on the constant guesses +a and -a is stationary
        # for it (residual ~0) but succeeds only half the time, so the
        # dual half of the certificate must reject it
        theta, k = 0.8, 1
        aux = build_auxiliary(theta, k)
        a, _ = basis_vectors(theta)
        plus, minus = constant_function(k, "+a"), constant_function(k, "-a")
        scalar, bloch = aux.member(plus)
        planted = replace(aux, lambda_max=float(scalar + np.linalg.norm(bloch)))
        m = Measurement((plus, minus), [0.5, 0.5], [0.5 * a, -0.5 * a])
        assert anticipative_success(planted) == pytest.approx(0.5, abs=1e-15)
        assert anticipative_success(aux) > 0.647
        assert certificate_residual(planted, m) <= 1e-15
        assert not certify_optimal(planted, m)
        assert planted.dual_gap > 1e-4
        assert aux.dual_gap <= 1e-15

    @pytest.mark.parametrize("k", [1, 2])
    def test_dual_gap_matches_matrix_eigenvalues(self, k):
        for theta in theta_grid(25):
            aux = build_auxiliary(theta, k)
            scalar, bloch = aux.member(constant_function(k, "+a"))
            planted = replace(aux, lambda_max=float(scalar + np.linalg.norm(bloch)))
            for ens in (aux, _tampered(aux), planted):
                top = top_eigenvalues(ens.scalars, ens.blochs).max()
                assert ens.dual_gap == pytest.approx(top - ens.lambda_max, abs=1e-15)
            assert aux.dual_gap == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_residual_matches_matrix_products(self, k):
        # e(phi) M(phi) - Lambda M(phi) per effect as 2x2 matrices; the
        # tampered ensemble makes every residual nonzero.
        for theta in (0.1, 0.9, math.pi / 2):
            aux = build_auxiliary(theta, k)
            m = convex_combination(
                [paired_measurement(theta, k, "ab"), paired_measurement(theta, k, "ba")]
            )
            for ens in (aux, _tampered(aux)):
                worst = 0.0
                for phi in m:
                    effect = to_matrix(m[phi])
                    member = to_matrix(ens.member(phi))
                    diff = member @ effect - ens.lambda_max * effect
                    worst = max(worst, float(np.abs(pauli_components(diff)).max()))
                assert certificate_residual(ens, m) == pytest.approx(worst, abs=1e-15)
            assert certificate_residual(_tampered(aux), m) > 1e-7


class TestConvexCombination:
    def test_mixes_rows_by_label_in_first_seen_order(self):
        up, down, side = [0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.5, 0.0, 0.0]
        first = Measurement(("x", "y"), [0.5, 0.5], [up, down])
        second = Measurement(("y", "z"), [0.5, 0.5], [side, [-0.5, 0.0, 0.0]])
        mix = convex_combination([first, second], [0.25, 0.75])
        assert mix.outcomes == ("x", "y", "z")
        assert np.array_equal(mix.scalars, [0.125, 0.125 + 0.375, 0.375])
        assert np.array_equal(mix["y"][1], [0.375, 0.0, -0.125])
        mix.validate()

    def test_bad_weights_rejected(self):
        m = paired_measurement(1.0, 1, "ab")
        with pytest.raises(ValueError, match="sum to 1"):
            convex_combination([m, m], [0.5, 0.6])
        with pytest.raises(ValueError, match="sum to 1"):
            convex_combination([m, m], [1.0])

    @pytest.mark.parametrize(
        "weights",
        [[2.0, -1.0], [math.nan, 0.5], [math.inf, -math.inf], [math.inf, 0.0]],
        ids=["negative", "nan", "infinities", "infinite"],
    )
    def test_weights_that_are_not_convex_rejected(self, weights):
        # the warnings filter turns a RuntimeWarning from NaN arithmetic
        # into an error, so these must fail before any mixing
        m_ab, m_ba = (paired_measurement(1.0, 1, order) for order in ("ab", "ba"))
        with pytest.raises(ValueError, match="finite and non-negative"):
            convex_combination([m_ab, m_ba], weights)

    def test_no_measurements_rejected(self):
        with pytest.raises(ValueError, match="at least one measurement"):
            convex_combination([])


class TestReduction:
    def test_matches_four_outcome_measurement(self):
        for k in (1, 2):
            for theta in (0.3, 1.0, math.pi / 2):
                aux = build_auxiliary(theta, k)
                povm, nu = reduce_to_povm(
                    aux,
                    paired_measurement(theta, k, "ab"),
                    paired_measurement(theta, k, "ba"),
                )
                reference = measurement_for(ANTICIPATIVE, theta)
                assert povm.outcomes == reference.outcomes
                assert np.max(np.abs(povm.scalars - reference.scalars)) <= 1e-12
                assert np.max(np.abs(povm.blochs - reference.blochs)) <= 1e-12
                expected = priority_post(ANTICIPATIVE, k)
                assert nu.sets == expected.sets
                assert np.array_equal(nu.guess, expected.guess)

    def test_reduced_strategy_achieves_solver_value(self):
        for k in (1, 2):
            theta = 0.9
            aux = build_auxiliary(theta, k)
            povm, nu = reduce_to_povm(
                aux,
                paired_measurement(theta, k, "ab"),
                paired_measurement(theta, k, "ba"),
            )
            game = discrimination_game(ANTICIPATIVE, theta)
            alpha = exclusion_info_map(game, k)
            got = success_with_cpost(game, alpha, nu)
            assert got == pytest.approx(anticipative_success(aux), abs=1e-12)

    def test_uncertified_inputs_rejected(self):
        aux = _tampered(build_auxiliary(0.7, 1))
        with pytest.raises(ValueError, match="does not certify"):
            reduce_to_povm(
                aux,
                paired_measurement(0.7, 1, "ab"),
                paired_measurement(0.7, 1, "ba"),
            )

    def test_swapped_inputs_rejected(self):
        aux = build_auxiliary(0.7, 1)
        m_ab = paired_measurement(0.7, 1, "ab")
        with pytest.raises(ValueError, match="expected outcome function"):
            reduce_to_povm(aux, m_ab, m_ab)
