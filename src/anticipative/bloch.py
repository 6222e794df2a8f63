"""Qubit operators in the Bloch parametrization.

A Hermitian 2x2 operator means ``scalar * I + bloch . sigma`` with ``sigma``
the vector of Pauli matrices; its eigenvalues are ``scalar -+ |bloch|`` and
its trace is ``2 * scalar``.  Ensembles and measurements are families of
operators stored as arrays: labels ``(l_0, ..., l_{n-1})`` with
``scalars[n]`` and ``blochs[n, 3]``, row ``i`` holding the operator of label
``l_i``.  Looking a label up returns its row as the read-only pair
``(scalar, bloch)``.  Eigenvalues, positivity and the Born-rule table are
all closed-form in this parametrization: the table of an ensemble against
a measurement is the single contraction ``p = 2 (s_x s_z^T + B_x B_z^T)``,
so no complex matrices are needed anywhere in this module.  ``validate``
on an ensemble or a measurement returns nothing and raises ValueError
naming the first bad row, or else the deviation of the completeness sum.

The arrays may carry leading stack axes, ``scalars[..., n]`` and
``blochs[..., n, 3]``: a stack of families sharing one label tuple, such
as the same ensemble at many angles.  Every check then runs on the whole
stack at once and its message ends with the stack index of the first
failing entry; a label's pair is then ``scalars[..., i]`` and
``blochs[..., i, :]``, one row per entry.  The Born table of two stacks is
the stack of their tables, ``probs[..., x, z]``, computed entry by entry
exactly as for one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

import numpy as np

#: Default numerical tolerance for validity checks and clamping.
DEFAULT_TOL = 1e-12

#: Outcome and state labels are arbitrary hashable values.
Label = Hashable


#: ``j`` and ``l`` of each component ``i`` in the cross product.
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def operator_product(
    a_scalars: object, a_blochs: object, b_scalars: object, b_blochs: object
) -> tuple[np.ndarray, np.ndarray]:
    """Full (generally non-Hermitian) products ``A B`` in Pauli components.

    ``A = a0 I + a . sigma`` and ``B = b0 I + b . sigma`` are given row by
    row, as scalars of shape ``(n,)`` and Bloch vectors of shape
    ``(n, 3)``, or as one scalar and one 3-vector each.  Returns ``(s, v)``
    with ``A B = s I + v . sigma`` where ``s = a0 b0 + a . b`` is real and
    ``v = a0 b + b0 a + i (a x b)``.  The cross term makes ``v`` complex
    whenever the Bloch parts are not parallel.  ``a x b`` is written out
    by components, ``(a x b)_i = a_j b_l - a_l b_j`` with ``(i, j, l)``
    cyclic: the same products and differences ``np.cross`` takes, without
    that function's axis shuffling.
    """
    a0, a = np.asarray(a_scalars, dtype=float), np.asarray(a_blochs, dtype=float)
    b0, b = np.asarray(b_scalars, dtype=float), np.asarray(b_blochs, dtype=float)
    s = a0 * b0 + np.add.reduce(a * b, axis=-1)
    cross = a[..., _NEXT] * b[..., _AFTER] - a[..., _AFTER] * b[..., _NEXT]
    v = a0[..., None] * b + b0[..., None] * a + 1j * cross
    return s, v


# The checks below test a whole stack at once and look for the entry to name
# only once a test has failed.  Each test of a row is written so that a NaN
# fails it; a sum is tested only after its rows passed, so it is not NaN.
# On one unstacked object the sums are numpy scalars, whose arithmetic is
# cheaper than that of arrays.


def first_true(bad: np.ndarray) -> tuple[int, ...]:
    """Index of the first true entry of ``bad``, in C order."""
    return tuple(int(i) for i in np.unravel_index(int(bad.argmax()), bad.shape))


def stack_note(index: tuple[int, ...]) -> str:
    """Message suffix naming the stack entry ``index``; empty when it is ``()``."""
    if not index:
        return ""
    return f" at stack index {index[0] if len(index) == 1 else index}"


def float_or_array(value: np.ndarray) -> float | np.ndarray:
    """A Python float for an unstacked (0-d) numpy result, else the array itself."""
    return float(value) if value.ndim == 0 else value


def _position(labels: tuple[Label, ...], label: Label) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise KeyError(label) from None


class _Operators:
    """Labelled operators ``scalars[..., i] * I + blochs[..., i, :] . sigma``.

    Subclasses name their labels and call :meth:`_freeze` once built.
    """

    labels: tuple[Label, ...]
    scalars: np.ndarray
    blochs: np.ndarray

    def _freeze(self, labels_field: str, empty: str) -> None:
        labels = tuple(getattr(self, labels_field))
        if not labels:
            raise ValueError(empty)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels!r}")
        n = len(labels)
        scalars = np.array(self.scalars, dtype=float, order="C")
        blochs = np.array(self.blochs, dtype=float, order="C")
        if scalars.shape[-1:] != (n,) or blochs.shape != scalars.shape + (3,):
            raise ValueError(
                f"{n} labels need scalars of shape ({n},) and blochs of shape "
                f"({n}, 3), after the same stack axes, got {scalars.shape} and "
                f"{blochs.shape}"
            )
        scalars.setflags(write=False)
        blochs.setflags(write=False)
        object.__setattr__(self, labels_field, labels)
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "blochs", blochs)

    @property
    def stack(self) -> tuple[int, ...]:
        """Shape of the leading stack axes; ``()`` for a single family."""
        return self.scalars.shape[:-1]

    def index(self, label: Label) -> int:
        """Row of ``label`` in the arrays; KeyError if there is none."""
        return _position(self.labels, label)

    def __getitem__(self, label: Label) -> tuple[np.ndarray, np.ndarray]:
        """Read-only row ``(scalars[..., i], blochs[..., i, :])`` of ``label``."""
        i = self.index(label)
        return self.scalars[..., i], self.blochs[..., i, :]

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def _radii(self) -> np.ndarray:
        """``|bloch|`` of every row: the eigenvalues are ``scalar -+ |bloch|``."""
        return np.sqrt(np.vecdot(self.blochs, self.blochs))


@dataclass(frozen=True, eq=False)
class Measurement(_Operators):
    """POVM as outcome labels plus one effect per row.

    Effect ``outcomes[i]`` is ``scalars[i] * I + blochs[i] . sigma``;
    ``m[z]`` returns it as the pair ``(scalar, bloch)``.  The arrays are
    read-only and the outcome order is the order of ``outcomes``.
    :meth:`validate` raises ValueError naming the first bad effect.
    """

    outcomes: tuple[Label, ...]
    scalars: np.ndarray
    blochs: np.ndarray

    def __post_init__(self) -> None:
        self._freeze("outcomes", "measurement needs at least one effect")

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.outcomes

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Raise ValueError unless every row is an effect summing to identity.

        Zero operators are allowed as effects.  The message names the first
        failing outcome, or else the largest componentwise deviation of the
        effect sum from the identity.
        """
        r = self._radii()
        lo, hi = self.scalars - r, self.scalars + r
        # np.add.reduce and friends: the ndarray methods add a Python layer
        # per call, which on these few-row arrays costs more than the work.
        if not (
            np.minimum.reduce(lo, axis=None) >= -tol
            and np.maximum.reduce(hi, axis=None) <= 1.0 + tol
        ):
            positive = lo >= -tol
            *at, i = first_true(~(positive & (hi <= 1.0 + tol)))
            problem = (
                f"exceeds effect bound (max eigenvalue {hi[(*at, i)]:.3e})"
                if positive[(*at, i)]
                else f"not positive (min eigenvalue {lo[(*at, i)]:.3e})"
            )
            raise ValueError(
                f"invalid measurement: {self.outcomes[i]!r} {problem}"
                f"{stack_note(tuple(at))}"
            )
        off_s = abs(np.add.reduce(self.scalars, axis=-1) - 1.0)
        off_b = abs(np.add.reduce(self.blochs, axis=-2))
        if np.count_nonzero(off_s > tol) or np.count_nonzero(off_b > tol):
            deviation = np.maximum(off_s, np.max(off_b, axis=-1))
            at = first_true(deviation > tol)
            raise ValueError(
                f"invalid measurement: sum deviation {deviation[at]:.3e}"
                f"{stack_note(at)}"
            )


@dataclass(frozen=True, eq=False)
class StateEnsemble(_Operators):
    """Sub-normalized states, one per input label, with unit total trace.

    State ``inputs[i]`` is ``scalars[i] * I + blochs[i] . sigma``;
    ``ensemble[x]`` returns it as the pair ``(scalar, bloch)``.  Each state
    absorbs its prior, so its trace ``2 * scalars[i]`` is the prior
    probability of its input and the traces sum to one.  :meth:`validate`
    raises ValueError naming the first state that is not positive.
    """

    inputs: tuple[Label, ...]
    scalars: np.ndarray
    blochs: np.ndarray

    def __post_init__(self) -> None:
        self._freeze("inputs", "ensemble needs at least one state")

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.inputs

    def total_trace(self) -> float | np.ndarray:
        """Sum of the state traces; one per entry of a stack."""
        return float_or_array(2.0 * np.add.reduce(self.scalars, axis=-1))

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Raise ValueError unless every state is positive with unit total trace.

        The message names the first non-positive input, or else the
        deviation of the total trace from one.
        """
        lo = self.scalars - self._radii()
        if not np.minimum.reduce(lo, axis=None) >= -tol:
            *at, i = first_true(~(lo >= -tol))
            raise ValueError(
                f"invalid ensemble: {self.inputs[i]!r} not positive "
                f"(min eigenvalue {lo[(*at, i)]:.3e}){stack_note(tuple(at))}"
            )
        deviation = abs(2.0 * np.add.reduce(self.scalars, axis=-1) - 1.0)
        if np.count_nonzero(deviation > tol):
            at = first_true(deviation > tol)
            raise ValueError(
                f"invalid ensemble: trace deviation {deviation[at]:.3e}"
                f"{stack_note(at)}"
            )


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint probability table ``p(x, z)`` over inputs and outcomes.

    ``probs[..., i, j]`` is the probability of input ``inputs[i]`` together
    with outcome ``outcomes[j]``, in each table of a stack.  Entries are
    non-negative and each table sums to one.
    """

    inputs: tuple[Label, ...]
    outcomes: tuple[Label, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        arr = np.array(self.probs, dtype=float)
        if arr.shape[-2:] != (len(self.inputs), len(self.outcomes)):
            raise ValueError(
                f"table shape {arr.shape} does not match "
                f"{len(self.inputs)} inputs x {len(self.outcomes)} outcomes"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def prob(self, x: Label, z: Label) -> float | np.ndarray:
        """``p(x, z)``; one per entry of a stack."""
        i = _position(self.inputs, x)
        return float_or_array(self.probs[..., i, _position(self.outcomes, z)])

    def total(self) -> float | np.ndarray:
        """Sum of the table; one per entry of a stack."""
        return float_or_array(np.add.reduce(self.probs, axis=(-2, -1)))


def joint_table(
    ensemble: StateEnsemble, m: Measurement, tol: float = DEFAULT_TOL
) -> JointTable:
    """Born-rule table ``p(x, z) = tr[state(x) effect(z)]``.

    Computed in one contraction of the arrays,
    ``probs = 2 (s_x s_z^T + B_x B_z^T)``: rows follow ``ensemble.inputs``
    and columns ``m.outcomes``.  Stacked arguments give the stack of their
    tables, their stack axes broadcast against each other; each table is
    the same batched matmul as for one pair, so it matches that pair's
    table bit for bit.  Both arguments are validated first.  Tiny negative
    entries in ``(-tol, 0)`` produced by rounding are clamped to zero; the
    rows must marginalize to the state traces and each table must sum to
    one.
    """
    ensemble.validate(tol)
    m.validate(tol)
    s_x, b_x = ensemble.scalars, ensemble.blochs
    raw = 2.0 * (s_x[..., :, None] * m.scalars[..., None, :] + b_x @ m.blochs.mT)
    # Validated arguments are finite, so the extremes decide.
    if np.minimum.reduce(raw, axis=None) < -tol:
        *at, i, j = first_true(raw < -tol)
        raise ValueError(
            f"negative probability p({ensemble.inputs[i]!r}, {m.outcomes[j]!r}) "
            f"= {float(raw[(*at, i, j)])!r}{stack_note(tuple(at))}"
        )
    probs = np.maximum(raw, 0.0)
    rows = np.add.reduce(probs, axis=-1)
    traces = 2.0 * s_x
    off = np.abs(rows - traces)
    if np.maximum.reduce(off, axis=None) > tol:
        *at, i = bad = first_true(off > tol)
        expected = np.broadcast_to(traces, rows.shape)[bad]
        raise ValueError(
            f"row {ensemble.inputs[i]!r} sums to {float(rows[bad])!r}, "
            f"expected {float(expected)!r}{stack_note(tuple(at))}"
        )
    total = np.add.reduce(probs, axis=(-2, -1))
    if np.count_nonzero(abs(total - 1.0) > tol):
        at = first_true(abs(total - 1.0) > tol)
        raise ValueError(
            f"table sums to {float(total[at])!r}, expected 1{stack_note(at)}"
        )
    return JointTable(ensemble.inputs, m.outcomes, probs)
