"""Operator layer: parametrization, traces, validity, Born tables."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anticipative.bloch import (
    Measurement,
    StateEnsemble,
    joint_table,
    operator_product,
)
from anticipative.task import KINDS, make_ensemble, measurement_for, theta_grid

from matrix_oracle import (
    born_loop,
    cross_product_reference,
    matrix,
    pairwise_born,
    to_matrix,
    trace_pair,
)

#: Bloch parts of the projectors onto +z and -z (scalar 1/2 each).
Z_UP = [0.0, 0.0, 0.5]
Z_DOWN = [0.0, 0.0, -0.5]
#: Two states of prior 1/2 along +z and -z.
Z_PAIR = ([0.25, 0.25], [[0.0, 0.0, 0.25], [0.0, 0.0, -0.25]])

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vectors = st.tuples(finite, finite, finite)


class TestRows:
    """A label's row is the pair ``(scalar, bloch)``, eigenvalues ``scalar -+ |bloch|``."""

    def test_eigenvalues_match_matrix_diagonalization(self):
        # scalar -+ |bloch| against numpy's Hermitian eigensolver
        rng = np.random.default_rng(7)
        m = Measurement(tuple(range(100)), rng.normal(size=100), rng.normal(size=(100, 3)))
        lo, hi = m.scalars - m._radii(), m.scalars + m._radii()
        for z in m:
            expected = np.linalg.eigvalsh(to_matrix(m[z]))
            assert abs(lo[z] - expected[0]) <= 1e-12
            assert abs(hi[z] - expected[1]) <= 1e-12

    def test_positivity_boundary(self):
        for radius, positive in ((0.5, True), (0.6, False), (0.5 + 1e-14, True)):
            ens = StateEnsemble(("0",), [0.5], [[radius, 0.0, 0.0]])
            if positive:
                ens.validate()
            else:
                with pytest.raises(ValueError, match="'0' not positive"):
                    ens.validate()

    def test_effect_bound(self):
        y_half = [[0.0, 0.5, 0.0], [0.0, -0.5, 0.0]]
        trivial = Measurement(("1", "0"), [1.0, 0.0], np.zeros((2, 3)))
        trivial.validate()
        Measurement(("+", "-"), [0.5, 0.5], y_half).validate()
        # eigenvalue 1.3 exceeds the bound even though the effect is positive
        big = Measurement(("big", "rest"), [0.8, 0.2], y_half)
        scalar, bloch = big["big"]
        assert scalar - np.linalg.norm(bloch) >= 0.0
        message = r"^invalid measurement: 'big' exceeds effect bound"
        with pytest.raises(ValueError, match=message):
            big.validate()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            StateEnsemble(("0",), [0.5], [[1.0, 0.0]])

    def test_rows_read_only(self):
        m = Measurement(("+", "-"), [0.5, 0.5], [Z_UP, Z_DOWN])
        scalar, bloch = m["+"]
        with pytest.raises(ValueError):
            bloch[0] = 5.0
        with pytest.raises(ValueError):
            scalar[...] = 1.0
        assert m.blochs[0, 0] == 0.0 and m.scalars[0] == 0.5


class TestPairwiseBorn:
    """The pairwise reference of ``tests/matrix_oracle.py`` and the table's linearity."""

    def test_identity_effect_reads_each_trace(self):
        ens = make_ensemble(1.0)
        everything = Measurement(("I",), [1.0], [[0.0, 0.0, 0.0]])
        table = joint_table(ens, everything)
        assert table.probs[:, 0].tolist() == (2.0 * ens.scalars).tolist()

    @given(finite, vectors, finite, vectors)
    def test_matches_matrix_trace(self, s1, v1, s2, v2):
        a, b = (s1, np.array(v1)), (s2, np.array(v2))
        assert pairwise_born(a, b) == pytest.approx(trace_pair(a, b), abs=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.01, max_value=1.5)
    )
    def test_table_linear_in_the_measurement(self, weight, theta):
        ens = make_ensemble(theta)
        first, second = (measurement_for(kind, theta) for kind in KINDS)
        mix = Measurement(
            ("0", "1", "2", "3"),
            weight * first.scalars + (1.0 - weight) * second.scalars,
            weight * first.blochs + (1.0 - weight) * second.blochs,
        )
        left = joint_table(ens, mix).probs
        right = (
            weight * joint_table(ens, first).probs
            + (1.0 - weight) * joint_table(ens, second).probs
        )
        assert np.allclose(left, right, rtol=0.0, atol=1e-15)


class TestOperatorProduct:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a0, a = rng.normal(), rng.normal(size=3)
            b0, b = rng.normal(), rng.normal(size=3)
            s, v = operator_product(a0, a, b0, b)
            assert np.allclose(matrix(s, v), matrix(a0, a) @ matrix(b0, b), atol=1e-12)

    def test_rows_match_single_products(self):
        rng = np.random.default_rng(12)
        a0, a = rng.normal(size=5), rng.normal(size=(5, 3))
        b0, b = rng.normal(size=5), rng.normal(size=(5, 3))
        s, v = operator_product(a0, a, b0, b)
        assert s.shape == (5,) and v.shape == (5, 3)
        for i in range(5):
            s_i, v_i = operator_product(a0[i], a[i], b0[i], b[i])
            assert s[i] == s_i and np.array_equal(v[i], v_i)

    def test_bit_identical_to_np_cross(self):
        # Random rows at several scales, one pair, rows against one operator,
        # and the certificate's own inputs (auxiliary rows times effects).
        rng = np.random.default_rng(13)
        cases = [
            (rng.normal(size=n), rng.normal(size=(n, 3)) * scale,
             rng.normal(size=n), rng.normal(size=(n, 3)))
            for n, scale in ((7, 1.0), (64, 1e-9), (64, 1e9))
        ]
        cases.append((0.3, rng.normal(size=3), -1.2, rng.normal(size=3)))
        rows = rng.normal(size=4), rng.normal(size=(4, 3))
        cases.append((*rows, 0.5, [0.0, 0.3, -0.4]))
        for theta in theta_grid(9):
            m = measurement_for("anticipative", theta)
            ens = make_ensemble(theta)
            cases.append((ens.scalars, ens.blochs, m.scalars, m.blochs))
        for args in cases:
            got, expected = operator_product(*args), cross_product_reference(*args)
            for g, e in zip(got, expected):
                assert g.dtype == e.dtype and g.shape == e.shape
                assert g.tobytes() == e.tobytes()


class TestTaskEffects:
    def test_effects_are_half_projectors(self):
        # 2 M(z) = (I + u.sigma)/2 squares to itself, eigenvalues 0 and 1
        for kind in KINDS:
            m = measurement_for(kind, 0.7)
            for z in m:
                projector = 2.0 * to_matrix(m[z])
                assert np.allclose(projector @ projector, projector, atol=1e-15)
                assert np.allclose(np.linalg.eigvalsh(projector), [0.0, 1.0], atol=1e-15)


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

    def test_lookup_returns_the_row_as_a_pair(self):
        m = Measurement(("+", "-"), [0.5, 0.5], [Z_UP, Z_DOWN])
        scalar, bloch = m["-"]
        assert scalar == 0.5 and scalar.shape == ()
        assert np.array_equal(bloch, Z_DOWN)
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

    def test_lookup_returns_the_row_as_a_pair(self):
        ens = make_ensemble(1.0)
        assert ens.inputs == ("+a", "-a", "+b", "-b")
        scalar, bloch = ens["-b"]
        assert scalar == 0.125
        assert np.array_equal(bloch, ens.blochs[3])


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

    def test_matches_pairwise_born_loop(self):
        # the one contraction against the pairwise Born rule, bit for bit
        for theta in theta_grid(25):
            ens = make_ensemble(theta)
            for kind in KINDS:
                m = measurement_for(kind, theta)
                assert np.array_equal(joint_table(ens, m).probs, born_loop(ens, m))

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


class TestStacks:
    """Leading stack axes: every check names the stack entry it failed on."""

    def _z_stack(self, n=3):
        ens = StateEnsemble(("0", "1"), np.full((n, 2), 0.25), np.tile(Z_PAIR[1], (n, 1, 1)))
        m = Measurement(("+", "-"), np.full((n, 2), 0.5), np.tile([Z_UP, Z_DOWN], (n, 1, 1)))
        return ens, m

    def test_stacked_table_is_the_stack_of_tables(self):
        thetas = theta_grid(7)
        ens = make_ensemble(thetas)
        assert ens.stack == (7,) and ens.blochs.shape == (7, 4, 3)
        for kind in KINDS:
            table = joint_table(ens, measurement_for(kind, thetas))
            assert table.probs.shape == (7, 4, 4)
            for i, theta in enumerate(thetas):
                single = joint_table(make_ensemble(theta), measurement_for(kind, theta))
                assert table.probs[i].tolist() == single.probs.tolist()
            assert table.total().shape == (7,)
            assert table.prob("+a", table.outcomes[0]).shape == (7,)

    def test_stack_axes_broadcast(self):
        ens, m = self._z_stack()
        single = Measurement(("+", "-"), [0.5, 0.5], [Z_UP, Z_DOWN])
        assert joint_table(ens, single).probs.shape == (3, 2, 2)
        assert joint_table(StateEnsemble(("0", "1"), *Z_PAIR), m).probs.shape == (3, 2, 2)

    def test_unstacked_results_stay_floats(self):
        ens, m = (StateEnsemble(("0", "1"), *Z_PAIR),
                  Measurement(("+", "-"), [0.5, 0.5], [Z_UP, Z_DOWN]))
        table = joint_table(ens, m)
        assert type(table.total()) is float and type(table.prob("0", "+")) is float
        assert type(ens.total_trace()) is float

    def test_lookup_on_a_stack_is_the_stacked_pair(self):
        thetas = theta_grid(5)
        ens = make_ensemble(thetas)
        for i, x in enumerate(ens):
            scalars, blochs = ens[x]
            assert scalars.shape == (5,) and blochs.shape == (5, 3)
            assert not scalars.flags.writeable and not blochs.flags.writeable
            assert np.array_equal(scalars, ens.scalars[:, i])
            for j, theta in enumerate(thetas):
                scalar, bloch = make_ensemble(theta)[x]
                assert scalars[j] == scalar and np.array_equal(blochs[j], bloch)
        with pytest.raises(KeyError):
            ens["?"]

    def test_layout_must_share_stack_axes(self):
        with pytest.raises(ValueError, match="after the same stack axes"):
            Measurement(("+", "-"), [0.5, 0.5], np.tile([Z_UP, Z_DOWN], (3, 1, 1)))

    def test_bad_ensemble_row_names_stack_index(self):
        ens, _ = self._z_stack()
        blochs = ens.blochs.copy()
        blochs[2, 1] = [0.3, 0.0, 0.0]
        bad = StateEnsemble(ens.inputs, ens.scalars, blochs)
        message = (
            r"^invalid ensemble: '1' not positive \(min eigenvalue -5.000e-02\) "
            r"at stack index 2$"
        )
        with pytest.raises(ValueError, match=message):
            bad.validate()
        with pytest.raises(ValueError, match=message):
            joint_table(bad, self._z_stack()[1])

    def test_ensemble_trace_names_stack_index(self):
        ens, _ = self._z_stack()
        scalars = ens.scalars.copy()
        scalars[1] = [0.25, 0.5]
        bad = StateEnsemble(ens.inputs, scalars, ens.blochs)
        message = r"^invalid ensemble: trace deviation 5.000e-01 at stack index 1$"
        with pytest.raises(ValueError, match=message):
            bad.validate()

    def test_bad_effect_names_stack_index(self):
        _, m = self._z_stack()
        scalars, blochs = m.scalars.copy(), m.blochs.copy()
        scalars[1, 0] = 0.7
        bad = Measurement(m.outcomes, scalars, blochs)
        message = (
            r"^invalid measurement: '\+' exceeds effect bound "
            r"\(max eigenvalue 1.200e\+00\) at stack index 1$"
        )
        with pytest.raises(ValueError, match=message):
            bad.validate()
        nan = blochs.copy()
        nan[2, 1, 0] = float("nan")
        message = r"^invalid measurement: '-' not positive \(min eigenvalue nan\) at stack index 2$"
        with pytest.raises(ValueError, match=message):
            Measurement(m.outcomes, m.scalars, nan).validate()

    def test_effect_sum_names_stack_index(self):
        _, m = self._z_stack(4)
        scalars, blochs = m.scalars.copy(), m.blochs.copy()
        scalars[3], blochs[3] = [0.5, 0.25], 0.0
        message = r"^invalid measurement: sum deviation 2.500e-01 at stack index 3$"
        with pytest.raises(ValueError, match=message):
            Measurement(m.outcomes, scalars, blochs).validate()

    def test_multi_axis_stack_index(self):
        ens = StateEnsemble(
            ("0", "1"), np.full((2, 3, 2), 0.25), np.tile(Z_PAIR[1], (2, 3, 1, 1))
        )
        scalars = ens.scalars.copy()
        scalars[1, 2] = 0.3
        message = r"trace deviation 2.000e-01 at stack index \(1, 2\)$"
        with pytest.raises(ValueError, match=message):
            StateEnsemble(ens.inputs, scalars, ens.blochs).validate()

    # As in TestJointTable, each argument passes validation at tol = 1e-3
    # while the table does not; only stack entry 1 is bad.

    def test_negative_entry_names_stack_index(self):
        tol, d = 1e-3, 0.9e-3
        ens = StateEnsemble(("0",), [[0.5], [0.5]], [[[0.0, 0.0, 0.5]], [[0.0, 0.0, 0.5 + d]]])
        m = Measurement(
            ("E", "F"),
            [(1 - d) / 2, (1 + d) / 2],
            [[0.0, 0.0, -(1 + d) / 2], [0.0, 0.0, (1 + d) / 2]],
        )
        message = r"^negative probability p\('0', 'E'\) = -\S+ at stack index 1$"
        with pytest.raises(ValueError, match=message):
            joint_table(ens, m, tol)

    def test_row_off_its_trace_names_stack_index(self):
        tol, d = 1e-3, 0.9e-3
        ens = StateEnsemble(("0",), [0.5], [Z_UP])
        m = Measurement(
            ("up", "down"),
            [[0.5, 0.5], [0.5 + d, 0.5]],
            [[Z_UP, Z_DOWN], [Z_UP, [0.0, 0.0, -0.5 + d]]],
        )
        message = r"^row '0' sums to 1.00\d+, expected 1.0 at stack index 1$"
        with pytest.raises(ValueError, match=message):
            joint_table(ens, m, tol)

    def test_total_off_one_names_stack_index(self):
        tol, eps = 1e-3, 0.2e-3
        ens = StateEnsemble(
            ("0", "1"),
            [[0.25, 0.25], [0.25 + eps, 0.25 + eps]],
            [[[0.0, 0.0, 0.25], [0.0, 0.0, -0.25]]] * 2,
        )
        m = Measurement(("all",), [[1.0], [1.0 + 0.9e-3]], [[[0.0, 0.0, 0.0]]] * 2)
        message = r"^table sums to 1.00\d+, expected 1 at stack index 1$"
        with pytest.raises(ValueError, match=message):
            joint_table(ens, m, tol)
