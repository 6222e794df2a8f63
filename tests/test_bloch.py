"""Operator layer: parametrization, traces, validity, Born tables."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anticipative.bloch import (
    HermitianOp,
    Measurement,
    StateEnsemble,
    joint_table,
    operator_product,
    projector,
    trace_product,
)
from anticipative.task import KINDS, make_ensemble, measurement_for, theta_grid

from matrix_oracle import to_matrix, trace_pair

IDENTITY = HermitianOp(1.0, [0.0, 0.0, 0.0])
#: Bloch parts of the projectors onto +z and -z (scalar 1/2 each).
Z_UP = [0.0, 0.0, 0.5]
Z_DOWN = [0.0, 0.0, -0.5]
#: Two states of prior 1/2 along +z and -z.
Z_PAIR = ([0.25, 0.25], [[0.0, 0.0, 0.25], [0.0, 0.0, -0.25]])

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vectors = st.tuples(finite, finite, finite)


class TestHermitianOp:
    def test_trace_and_norm(self):
        op = HermitianOp(0.5, [0.3, 0.0, -0.4])
        assert op.trace == 1.0
        assert op.bloch_norm == pytest.approx(0.5, abs=1e-15)

    def test_eigenvalues_match_matrix_diagonalization(self):
        # scalar +- |bloch| against numpy's Hermitian eigensolver
        rng = np.random.default_rng(7)
        for _ in range(100):
            op = HermitianOp(rng.normal(), rng.normal(size=3))
            expected = np.linalg.eigvalsh(to_matrix(op))
            lo, hi = op.eigenvalues()
            assert abs(lo - expected[0]) <= 1e-12
            assert abs(hi - expected[1]) <= 1e-12

    def test_positivity_boundary(self):
        assert HermitianOp(0.5, [0.5, 0.0, 0.0]).is_positive()
        assert not HermitianOp(0.5, [0.6, 0.0, 0.0]).is_positive()
        assert HermitianOp(0.5, [0.5 + 1e-14, 0.0, 0.0]).is_positive()

    def test_effect_bound(self):
        y_half = [[0.0, 0.5, 0.0], [0.0, -0.5, 0.0]]
        trivial = Measurement(("1", "0"), [1.0, 0.0], np.zeros((2, 3)))
        trivial.validate()
        Measurement(("+", "-"), [0.5, 0.5], y_half).validate()
        # eigenvalue 1.3 exceeds the bound even though the op is positive
        op = HermitianOp(0.8, [0.0, 0.5, 0.0])
        assert op.is_positive()
        big = Measurement(("big", "rest"), [0.8, 0.2], y_half)
        message = r"^invalid measurement: 'big' exceeds effect bound"
        with pytest.raises(ValueError, match=message):
            big.validate()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            HermitianOp(1.0, [1.0, 0.0])

    def test_immutability(self):
        op = HermitianOp(1.0, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            op.bloch[0] = 5.0


class TestTraceProduct:
    def test_identity_pairing(self):
        assert trace_product(IDENTITY, IDENTITY) == 2.0

    def test_projector_pairings(self):
        p = projector([0.0, 0.0, 1.0])
        q = projector([0.0, 0.0, -1.0])
        assert trace_product(p, p) == pytest.approx(1.0, abs=1e-15)
        assert trace_product(p, q) == pytest.approx(0.0, abs=1e-15)

    @given(finite, vectors, finite, vectors)
    def test_matches_matrix_trace(self, s1, v1, s2, v2):
        a, b = HermitianOp(s1, v1), HermitianOp(s2, v2)
        assert trace_product(a, b) == pytest.approx(trace_pair(a, b), abs=1e-9)

    @given(finite, vectors, finite, vectors)
    def test_symmetry(self, s1, v1, s2, v2):
        a, b = HermitianOp(s1, v1), HermitianOp(s2, v2)
        assert trace_product(a, b) == trace_product(b, a)

    @given(finite, vectors, finite, vectors, finite, vectors, finite)
    def test_bilinearity(self, s1, v1, s2, v2, s3, v3, scale):
        a, b, c = HermitianOp(s1, v1), HermitianOp(s2, v2), HermitianOp(s3, v3)
        mix = HermitianOp(s1 + s2 * scale, np.add(v1, np.multiply(v2, scale)))
        left = trace_product(mix, c)
        right = trace_product(a, c) + scale * trace_product(b, c)
        assert left == pytest.approx(right, abs=1e-9)


class TestOperatorProduct:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = HermitianOp(rng.normal(), rng.normal(size=3))
            b = HermitianOp(rng.normal(), rng.normal(size=3))
            s, v = operator_product(a.scalar, a.bloch, b.scalar, b.bloch)
            rebuilt = s * np.eye(2) + sum(
                comp * pauli
                for comp, pauli in zip(
                    v,
                    (
                        np.array([[0, 1], [1, 0]]),
                        np.array([[0, -1j], [1j, 0]]),
                        np.array([[1, 0], [0, -1]]),
                    ),
                )
            )
            assert np.allclose(rebuilt, to_matrix(a) @ to_matrix(b), atol=1e-12)

    def test_rows_match_single_products(self):
        rng = np.random.default_rng(12)
        a0, a = rng.normal(size=5), rng.normal(size=(5, 3))
        b0, b = rng.normal(size=5), rng.normal(size=(5, 3))
        s, v = operator_product(a0, a, b0, b)
        assert s.shape == (5,) and v.shape == (5, 3)
        for i in range(5):
            s_i, v_i = operator_product(a0[i], a[i], b0[i], b[i])
            assert s[i] == s_i and np.array_equal(v[i], v_i)


class TestProjector:
    def test_unit_direction(self):
        p = projector([1.0, 0.0, 0.0])
        assert p.scalar == 0.5
        assert p.eigenvalues() == (0.0, 1.0)
        mat = to_matrix(p)
        assert np.allclose(mat @ mat, mat, atol=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            projector([0.9, 0.0, 0.0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            projector([1.0, 0.0])




class TestMeasurement:
    def test_valid_two_outcome(self):
        m = Measurement(("+", "-"), [0.5, 0.5], [Z_UP, Z_DOWN])
        m.validate(tol=1e-15)

    def test_zero_effect_allowed(self):
        m = Measurement(("+", "null"), [1.0, 0.0], np.zeros((2, 3)))
        m.validate()

    def test_incomplete_sum_flagged(self):
        m = Measurement(("+",), [0.5], [Z_UP])
        message = r"^invalid measurement: sum deviation 5.000e-01$"
        with pytest.raises(ValueError, match=message):
            m.validate()

    def test_negative_effect_flagged(self):
        m = Measurement(
            ("bad", "rest"), [0.1, 0.9], [[0.0, 0.0, 0.4], [0.0, 0.0, -0.4]]
        )
        message = r"^invalid measurement: 'bad' not positive"
        with pytest.raises(ValueError, match=message):
            m.validate()

    def test_nan_effect_flagged(self):
        nan = float("nan")
        for scalars, blochs in (([1.0], [[nan, 0.0, 0.0]]), ([nan], [[0.0, 0.0, 0.0]])):
            m = Measurement(("e",), scalars, blochs)
            message = r"^invalid measurement: 'e' not positive \(min eigenvalue nan\)$"
            with pytest.raises(ValueError, match=message):
                m.validate()

    def test_first_failing_outcome_named(self):
        # "neg" is not positive, "big" exceeds the bound and the sum is 1.1:
        # only the first failing row is reported
        m = Measurement(
            ("ok", "neg", "big"),
            [0.2, 0.1, 0.8],
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.4], [0.0, 0.5, 0.0]],
        )
        message = (
            r"^invalid measurement: 'neg' not positive \(min eigenvalue -3.000e-01\)$"
        )
        with pytest.raises(ValueError, match=message):
            m.validate()

    def test_outcome_order_preserved(self):
        m = Measurement(("z", "a"), [0.5, 0.5], np.zeros((2, 3)))
        assert m.outcomes == ("z", "a")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one effect"):
            Measurement((), [], np.zeros((0, 3)))

    def test_lookup_returns_the_row_as_an_operator(self):
        m = Measurement(("+", "-"), [0.5, 0.5], [Z_UP, Z_DOWN])
        assert isinstance(m["-"], HermitianOp)
        assert m["-"].scalar == 0.5
        assert np.array_equal(m["-"].bloch, Z_DOWN)
        assert m.index("-") == 1
        assert list(m) == ["+", "-"] and len(m) == 2
        with pytest.raises(KeyError):
            m["?"]

    def test_arrays_read_only_and_copied(self):
        blochs = np.array([Z_UP, Z_DOWN])
        m = Measurement(("+", "-"), [0.5, 0.5], blochs)
        blochs[0, 2] = 9.0
        assert m.blochs[0, 2] == 0.5
        with pytest.raises(ValueError):
            m.scalars[0] = 1.0
        with pytest.raises(ValueError):
            m.blochs[0, 0] = 1.0

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError, match="duplicate labels"):
            Measurement(("+", "+"), [0.5, 0.5], [Z_UP, Z_DOWN])
        with pytest.raises(ValueError, match="shape"):
            Measurement(("+", "-"), [1.0], [Z_UP, Z_DOWN])
        with pytest.raises(ValueError, match="shape"):
            Measurement(("+", "-"), [0.5, 0.5], [[0.0, 0.5], [0.0, -0.5]])


class TestStateEnsemble:
    def test_valid(self):
        ens = StateEnsemble(("0", "1"), *Z_PAIR)
        ens.validate()
        assert ens.total_trace() == pytest.approx(1.0)

    def test_trace_deviation_flagged(self):
        ens = StateEnsemble(("0",), [0.25], [[0.0, 0.0, 0.0]])
        message = r"^invalid ensemble: trace deviation 5.000e-01$"
        with pytest.raises(ValueError, match=message):
            ens.validate()

    def test_negative_state_flagged(self):
        ens = StateEnsemble(
            ("0", "1"), [0.25, 0.25], [[0.0, 0.3, 0.0], [0.0, 0.0, 0.0]]
        )
        with pytest.raises(ValueError, match=r"^invalid ensemble: '0' not positive"):
            ens.validate()

    def test_nan_state_flagged(self):
        ens = StateEnsemble(("0",), [0.5], [[0.0, float("nan"), 0.0]])
        message = r"^invalid ensemble: '0' not positive \(min eigenvalue nan\)$"
        with pytest.raises(ValueError, match=message):
            ens.validate()

    def test_first_failing_state_named(self):
        # states "1" and "2" are not positive and the traces sum to 1.5
        ens = StateEnsemble(
            ("0", "1", "2"),
            [0.25, 0.25, 0.25],
            [[0.0, 0.0, 0.0], [0.0, 0.3, 0.0], [0.4, 0.0, 0.0]],
        )
        message = r"^invalid ensemble: '1' not positive \(min eigenvalue -5.000e-02\)$"
        with pytest.raises(ValueError, match=message):
            ens.validate()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one state"):
            StateEnsemble((), [], np.zeros((0, 3)))

    def test_lookup_returns_the_row_as_an_operator(self):
        ens = make_ensemble(1.0)
        assert ens.inputs == ("+a", "-a", "+b", "-b")
        state = ens["-b"]
        assert isinstance(state, HermitianOp)
        assert state.scalar == 0.125
        assert np.array_equal(state.bloch, ens.blochs[3])


class TestJointTable:
    def _qubit_pair(self):
        ens = StateEnsemble(("0", "1"), *Z_PAIR)
        m = Measurement(("+", "-"), [0.5, 0.5], [Z_UP, Z_DOWN])
        return ens, m

    def test_deterministic_discrimination(self):
        ens, m = self._qubit_pair()
        table = joint_table(ens, m)
        assert table.prob("0", "+") == pytest.approx(0.5, abs=1e-15)
        assert table.prob("0", "-") == pytest.approx(0.0, abs=1e-15)
        assert table.total() == pytest.approx(1.0, abs=1e-15)

    def test_matches_matrix_oracle(self):
        ens, m = self._qubit_pair()
        table = joint_table(ens, m)
        for x in ens.inputs:
            for z in m.outcomes:
                assert table.prob(x, z) == pytest.approx(
                    trace_pair(ens[x], m[z]), abs=1e-14
                )

    def test_matches_trace_product_loop(self):
        # the one contraction against the pairwise Born rule, bit for bit
        for theta in theta_grid(25):
            ens = make_ensemble(theta)
            for kind in KINDS:
                m = measurement_for(kind, theta)
                loop = [[max(trace_product(ens[x], m[z]), 0.0) for z in m] for x in ens]
                assert np.array_equal(joint_table(ens, m).probs, loop)

    def test_unknown_label_raises_key_error(self):
        table = joint_table(*self._qubit_pair())
        with pytest.raises(KeyError):
            table.prob("0", "?")

    def test_rounding_negatives_clamped(self):
        # eigenvalue of each state dips to ~ -2.5e-14, inside the tolerance
        stretch = 1.0 + 1e-13
        up = np.array([0.0, 0.0, 1.0])
        ens = StateEnsemble(
            ("0", "1"), [0.25, 0.25], [0.25 * stretch * up, -0.25 * stretch * up]
        )
        m = Measurement(("+", "-"), [0.5, 0.5], [0.5 * up, -0.5 * up])
        table = joint_table(ens, m)
        assert table.prob("0", "-") == 0.0
        assert table.prob("1", "+") == 0.0

    def test_invalid_measurement_rejected(self):
        ens, _ = self._qubit_pair()
        broken = Measurement(("+", "-"), [0.5, 0.5], [Z_UP, Z_UP])
        with pytest.raises(ValueError, match="invalid measurement"):
            joint_table(ens, broken)

    def test_invalid_ensemble_rejected(self):
        _, m = self._qubit_pair()
        bad = StateEnsemble(("0",), [0.5], [[0.0, 0.0, 0.6]])
        with pytest.raises(ValueError, match="invalid ensemble"):
            joint_table(bad, m)

    def test_validation_errors_name_the_label(self):
        ens, m = self._qubit_pair()
        leaky = Measurement(("+", "-"), [0.5, 0.5], [Z_UP, [0.0, 0.0, -0.7]])
        with pytest.raises(ValueError, match=r"^invalid measurement: '-' not positive"):
            joint_table(ens, leaky)
        bad = StateEnsemble(("0", "1"), [0.25, 0.25], [Z_PAIR[1][0], [0.3, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^invalid ensemble: '1' not positive"):
            joint_table(bad, m)

    # Each argument below passes validation at tol = 1e-3, by 0.9 tol at most,
    # yet the errors add up to more than tol in the table.

    def test_negative_entry_beyond_tolerance_rejected(self):
        tol, d = 1e-3, 0.9e-3
        ens = StateEnsemble(("0",), [0.5], [[0.0, 0.0, 0.5 + d]])
        m = Measurement(
            ("E", "F"),
            [(1 - d) / 2, (1 + d) / 2],
            [[0.0, 0.0, -(1 + d) / 2], [0.0, 0.0, (1 + d) / 2]],
        )
        with pytest.raises(ValueError, match=r"negative probability p\('0', 'E'\)"):
            joint_table(ens, m, tol)

    def test_row_off_its_trace_rejected(self):
        tol, d = 1e-3, 0.9e-3
        ens = StateEnsemble(("0",), [0.5], [Z_UP])
        m = Measurement(("up", "down"), [0.5 + d, 0.5], [Z_UP, [0.0, 0.0, -0.5 + d]])
        with pytest.raises(ValueError, match=r"row '0' sums to 1.00\d+, expected 1.0$"):
            joint_table(ens, m, tol)

    def test_total_off_one_rejected(self):
        tol, eps = 1e-3, 0.2e-3
        ens = StateEnsemble(
            ("0", "1"), [0.25 + eps, 0.25 + eps], [[0.0, 0.0, 0.25], [0.0, 0.0, -0.25]]
        )
        m = Measurement(("all",), [1.0 + 0.9e-3], [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"table sums to 1.00\d+, expected 1$"):
            joint_table(ens, m, tol)
