"""Qubit operators in the Bloch parametrization.

A Hermitian 2x2 operator means ``scalar * I + bloch . sigma`` with ``sigma``
the vector of Pauli matrices; one such operator is a :class:`HermitianOp`.
Ensembles and measurements are families of operators stored as arrays:
labels ``(l_0, ..., l_{n-1})`` with ``scalars[n]`` and ``blochs[n, 3]``, row
``i`` holding the operator of label ``l_i``.  Looking a label up returns its
row as one :class:`HermitianOp`.  Traces, eigenvalues, positivity and the
Born-rule table are all closed-form in this parametrization: the table of an
ensemble against a measurement is the single contraction
``p = 2 (s_x s_z^T + B_x B_z^T)``, so no complex matrices are needed anywhere
in this module.  ``validate`` on an ensemble or a measurement returns nothing
and raises ValueError naming the first bad row, or else the deviation of the
completeness sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

import numpy as np

#: Default numerical tolerance for validity checks and clamping.
DEFAULT_TOL = 1e-12

#: Outcome and state labels are arbitrary hashable values.
Label = Hashable


def _as_bloch(vec: object) -> np.ndarray:
    arr = np.array(vec, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """Hermitian operator ``scalar * I + bloch . sigma``.

    Immutable after construction.  The eigenvalues are
    ``scalar -+ |bloch|``, the trace is ``2 * scalar``.
    """

    scalar: float
    bloch: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalar", float(self.scalar))
        object.__setattr__(self, "bloch", _as_bloch(self.bloch))

    @property
    def trace(self) -> float:
        return 2.0 * self.scalar

    @property
    def bloch_norm(self) -> float:
        return float(np.linalg.norm(self.bloch))

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalue pair ``(scalar - |bloch|, scalar + |bloch|)``."""
        r = self.bloch_norm
        return (self.scalar - r, self.scalar + r)

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether the smallest eigenvalue is >= -tol."""
        return self.scalar - self.bloch_norm >= -tol

    def allclose(self, other: "HermitianOp", tol: float = DEFAULT_TOL) -> bool:
        return (
            abs(self.scalar - other.scalar) <= tol
            and bool(np.all(np.abs(self.bloch - other.bloch) <= tol))
        )

    def __repr__(self) -> str:
        x, y, z = self.bloch
        return f"HermitianOp({self.scalar:.6g}, [{x:.6g}, {y:.6g}, {z:.6g}])"


def trace_product(a: HermitianOp, b: HermitianOp) -> float:
    """Hilbert-Schmidt pairing ``tr[A B] = 2 (a0 b0 + a . b)``.

    Symmetric and bilinear; this is the only contraction the Born rule
    needs.
    """
    return 2.0 * (a.scalar * b.scalar + float(a.bloch @ b.bloch))


def operator_product(
    a_scalars: object, a_blochs: object, b_scalars: object, b_blochs: object
) -> tuple[np.ndarray, np.ndarray]:
    """Full (generally non-Hermitian) products ``A B`` in Pauli components.

    ``A = a0 I + a . sigma`` and ``B = b0 I + b . sigma`` are given row by
    row, as scalars of shape ``(n,)`` and Bloch vectors of shape
    ``(n, 3)``, or as one scalar and one 3-vector each.  Returns ``(s, v)``
    with ``A B = s I + v . sigma`` where ``s = a0 b0 + a . b`` is real and
    ``v = a0 b + b0 a + i (a x b)``.  The cross term makes ``v`` complex
    whenever the Bloch parts are not parallel.
    """
    a0, a = np.asarray(a_scalars, dtype=float), np.asarray(a_blochs, dtype=float)
    b0, b = np.asarray(b_scalars, dtype=float), np.asarray(b_blochs, dtype=float)
    s = a0 * b0 + np.add.reduce(a * b, axis=-1)
    v = a0[..., None] * b + b0[..., None] * a + 1j * np.cross(a, b)
    return s, v


def projector(direction: object, tol: float = DEFAULT_TOL) -> HermitianOp:
    """Rank-one projector ``(I + direction . sigma) / 2`` onto a unit vector.

    Raises ValueError if the direction is not unit length within ``tol``.
    """
    u = np.asarray(direction, dtype=float)
    if u.shape != (3,):
        raise ValueError(f"direction must have shape (3,), got {u.shape}")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"direction must be unit length, |u| = {norm!r}")
    return HermitianOp(0.5, 0.5 * u)


def _position(labels: tuple[Label, ...], label: Label) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise KeyError(label) from None


class _Operators:
    """Labelled operators ``scalars[i] * I + blochs[i] . sigma``.

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
        scalars = np.array(self.scalars, dtype=float)
        blochs = np.array(self.blochs, dtype=float)
        if scalars.shape != (n,) or blochs.shape != (n, 3):
            raise ValueError(
                f"{n} labels need scalars of shape ({n},) and blochs of shape "
                f"({n}, 3), got {scalars.shape} and {blochs.shape}"
            )
        scalars.setflags(write=False)
        blochs.setflags(write=False)
        object.__setattr__(self, labels_field, labels)
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "blochs", blochs)

    def index(self, label: Label) -> int:
        """Row of ``label`` in the arrays; KeyError if there is none."""
        return _position(self.labels, label)

    def __getitem__(self, label: Label) -> HermitianOp:
        i = self.index(label)
        return HermitianOp(self.scalars[i], self.blochs[i])

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def _eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        """Smallest and largest eigenvalue of every row."""
        r = np.sqrt(np.add.reduce(self.blochs * self.blochs, axis=1))
        return self.scalars - r, self.scalars + r


@dataclass(frozen=True, eq=False)
class Measurement(_Operators):
    """POVM as outcome labels plus one effect per row.

    Effect ``outcomes[i]`` is ``scalars[i] * I + blochs[i] . sigma``;
    ``m[z]`` returns it as a :class:`HermitianOp`.  The arrays are
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
        lo, hi = self._eigenvalues()
        # Tested as "not within bounds", so a NaN entry fails its row.
        positive = lo >= -tol
        bad = ~(positive & (hi <= 1.0 + tol))
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            problem = (
                f"exceeds effect bound (max eigenvalue {hi[i]:.3e})"
                if positive[i]
                else f"not positive (min eigenvalue {lo[i]:.3e})"
            )
            raise ValueError(f"invalid measurement: {self.outcomes[i]!r} {problem}")
        # np.add.reduce: the ndarray methods add a Python layer per call,
        # which on these few-row arrays costs more than the arithmetic.
        sum_s = float(np.add.reduce(self.scalars))
        deviation = max(abs(sum_s - 1.0), *np.abs(np.add.reduce(self.blochs)).tolist())
        if not deviation <= tol:
            raise ValueError(f"invalid measurement: sum deviation {deviation:.3e}")


@dataclass(frozen=True, eq=False)
class StateEnsemble(_Operators):
    """Sub-normalized states, one per input label, with unit total trace.

    State ``inputs[i]`` is ``scalars[i] * I + blochs[i] . sigma``;
    ``ensemble[x]`` returns it as a :class:`HermitianOp`.  Each state
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

    def total_trace(self) -> float:
        return 2.0 * float(np.add.reduce(self.scalars))

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Raise ValueError unless every state is positive with unit total trace.

        The message names the first non-positive input, or else the
        deviation of the total trace from one.
        """
        lo, _ = self._eigenvalues()
        bad = ~(lo >= -tol)
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            raise ValueError(
                f"invalid ensemble: {self.inputs[i]!r} "
                f"not positive (min eigenvalue {lo[i]:.3e})"
            )
        deviation = abs(self.total_trace() - 1.0)
        if not deviation <= tol:
            raise ValueError(f"invalid ensemble: trace deviation {deviation:.3e}")


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint probability table ``p(x, z)`` over inputs and outcomes.

    ``probs[i, j]`` is the probability of input ``inputs[i]`` together with
    outcome ``outcomes[j]``.  Entries are non-negative and sum to one.
    """

    inputs: tuple[Label, ...]
    outcomes: tuple[Label, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        arr = np.array(self.probs, dtype=float)
        if arr.shape != (len(self.inputs), len(self.outcomes)):
            raise ValueError(
                f"table shape {arr.shape} does not match "
                f"{len(self.inputs)} inputs x {len(self.outcomes)} outcomes"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def prob(self, x: Label, z: Label) -> float:
        i = _position(self.inputs, x)
        return float(self.probs[i, _position(self.outcomes, z)])

    def total(self) -> float:
        return float(self.probs.sum())


def joint_table(
    ensemble: StateEnsemble, m: Measurement, tol: float = DEFAULT_TOL
) -> JointTable:
    """Born-rule table ``p(x, z) = tr[state(x) effect(z)]``.

    Computed in one contraction of the arrays,
    ``probs = 2 (s_x s_z^T + B_x B_z^T)``: rows follow ``ensemble.inputs``
    and columns ``m.outcomes``.  Both arguments are validated first.  Tiny
    negative entries in ``(-tol, 0)`` produced by rounding are clamped to
    zero; the rows must marginalize to the state traces and the table must
    sum to one.
    """
    ensemble.validate(tol)
    m.validate(tol)
    s_x, b_x = ensemble.scalars, ensemble.blochs
    raw = 2.0 * (s_x[:, None] * m.scalars + b_x @ m.blochs.T)
    # Validated arguments are finite, so the minimum decides.
    if np.minimum.reduce(raw, axis=None) < -tol:
        i, j = np.argwhere(raw < -tol)[0]
        raise ValueError(
            f"negative probability p({ensemble.inputs[i]!r}, {m.outcomes[j]!r}) "
            f"= {float(raw[i, j])!r}"
        )
    probs = np.maximum(raw, 0.0)
    rows = np.add.reduce(probs, axis=1)
    traces = 2.0 * s_x
    off = np.abs(rows - traces) > tol
    if np.count_nonzero(off):
        i = int(off.argmax())
        raise ValueError(
            f"row {ensemble.inputs[i]!r} sums to {float(rows[i])!r}, "
            f"expected {float(traces[i])!r}"
        )
    total = float(np.add.reduce(probs, axis=None))
    if abs(total - 1.0) > tol:
        raise ValueError(f"table sums to {total!r}, expected 1")
    return JointTable(ensemble.inputs, m.outcomes, probs)
