"""Qubit operators in the Bloch parametrization.

A Hermitian 2x2 operator is stored as a pair ``(scalar, bloch)`` and means
``scalar * I + bloch . sigma`` with ``sigma`` the vector of Pauli matrices.
Traces, eigenvalues, positivity and Born-rule tables are all closed-form in
this parametrization, so no complex matrices are needed anywhere in this
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping

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

    def __add__(self, other: "HermitianOp") -> "HermitianOp":
        return HermitianOp(self.scalar + other.scalar, self.bloch + other.bloch)

    def __sub__(self, other: "HermitianOp") -> "HermitianOp":
        return HermitianOp(self.scalar - other.scalar, self.bloch - other.bloch)

    def __mul__(self, factor: float) -> "HermitianOp":
        return HermitianOp(self.scalar * factor, self.bloch * factor)

    __rmul__ = __mul__

    def allclose(self, other: "HermitianOp", tol: float = DEFAULT_TOL) -> bool:
        return (
            abs(self.scalar - other.scalar) <= tol
            and bool(np.all(np.abs(self.bloch - other.bloch) <= tol))
        )

    def __repr__(self) -> str:
        x, y, z = self.bloch
        return f"HermitianOp({self.scalar:.6g}, [{x:.6g}, {y:.6g}, {z:.6g}])"


IDENTITY = HermitianOp(1.0, np.zeros(3))
ZERO = HermitianOp(0.0, np.zeros(3))


def trace_product(a: HermitianOp, b: HermitianOp) -> float:
    """Hilbert-Schmidt pairing ``tr[A B] = 2 (a0 b0 + a . b)``.

    Symmetric and bilinear; this is the only contraction the Born rule
    needs.
    """
    return 2.0 * (a.scalar * b.scalar + float(a.bloch @ b.bloch))


def operator_product(a: HermitianOp, b: HermitianOp) -> tuple[complex, np.ndarray]:
    """Full (generally non-Hermitian) product ``A B`` in Pauli components.

    Returns ``(s, v)`` with ``A B = s * I + v . sigma`` where
    ``s = a0 b0 + a . b`` and ``v = a0 b + b0 a + i (a x b)``.  The cross
    term makes ``v`` complex whenever the Bloch parts are not parallel.
    """
    s = complex(a.scalar * b.scalar + float(a.bloch @ b.bloch))
    v = (
        a.scalar * b.bloch
        + b.scalar * a.bloch
        + 1j * np.cross(a.bloch, b.bloch)
    )
    return s, v.astype(complex)


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


@dataclass(frozen=True, eq=False)
class ValidityReport:
    """Outcome of validating a measurement or an ensemble.

    ``failures`` maps a label to a human-readable description of what went
    wrong for that element; ``deviation`` is the largest componentwise
    distance of the completeness sum from its target (identity for
    measurements, unit trace for ensembles).
    """

    valid: bool
    failures: Mapping[Label, str]
    deviation: float

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True, eq=False)
class Measurement:
    """POVM as an ordered mapping from outcome labels to effects."""

    effects: Mapping[Label, HermitianOp]

    def __post_init__(self) -> None:
        if not self.effects:
            raise ValueError("measurement needs at least one effect")
        object.__setattr__(self, "effects", dict(self.effects))

    @property
    def outcomes(self) -> tuple[Label, ...]:
        return tuple(self.effects)

    def __getitem__(self, label: Label) -> HermitianOp:
        return self.effects[label]

    def __iter__(self) -> Iterator[Label]:
        return iter(self.effects)

    def __len__(self) -> int:
        return len(self.effects)

    def effect_sum(self) -> HermitianOp:
        total = ZERO
        for op in self.effects.values():
            total = total + op
        return total

    def validate(self, tol: float = DEFAULT_TOL) -> ValidityReport:
        return validate_measurement(self, tol)


def validate_measurement(m: Measurement, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Check that every effect is a valid effect and the sum is identity.

    Zero operators are allowed as effects.  The report carries one message
    per failing label plus the largest componentwise deviation of the
    effect sum from the identity.
    """
    failures: dict[Label, str] = {}
    for label, op in m.effects.items():
        lo, hi = op.eigenvalues()
        if lo < -tol:
            failures[label] = f"not positive (min eigenvalue {lo:.3e})"
        elif hi > 1.0 + tol:
            failures[label] = f"exceeds effect bound (max eigenvalue {hi:.3e})"
    diff = m.effect_sum() - IDENTITY
    deviation = max(abs(diff.scalar), float(np.max(np.abs(diff.bloch))))
    return ValidityReport(
        valid=not failures and deviation <= tol,
        failures=failures,
        deviation=deviation,
    )


@dataclass(frozen=True, eq=False)
class StateEnsemble:
    """Sub-normalized states, one per input label, with unit total trace.

    Each member absorbs its prior, so ``trace(states[x])`` is the prior
    probability of input ``x`` and the traces sum to one.
    """

    states: Mapping[Label, HermitianOp]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("ensemble needs at least one state")
        object.__setattr__(self, "states", dict(self.states))

    @property
    def inputs(self) -> tuple[Label, ...]:
        return tuple(self.states)

    def __getitem__(self, label: Label) -> HermitianOp:
        return self.states[label]

    def __len__(self) -> int:
        return len(self.states)

    def total_trace(self) -> float:
        return sum(op.trace for op in self.states.values())

    def validate(self, tol: float = DEFAULT_TOL) -> ValidityReport:
        failures: dict[Label, str] = {}
        for label, op in self.states.items():
            if not op.is_positive(tol):
                failures[label] = (
                    f"not positive (min eigenvalue {op.eigenvalues()[0]:.3e})"
                )
        deviation = abs(self.total_trace() - 1.0)
        return ValidityReport(
            valid=not failures and deviation <= tol,
            failures=failures,
            deviation=deviation,
        )


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
        object.__setattr__(
            self, "_row", {x: i for i, x in enumerate(self.inputs)}
        )
        object.__setattr__(
            self, "_col", {z: j for j, z in enumerate(self.outcomes)}
        )

    def prob(self, x: Label, z: Label) -> float:
        return float(self.probs[self._row[x], self._col[z]])

    def total(self) -> float:
        return float(self.probs.sum())


def joint_table(
    ensemble: StateEnsemble, m: Measurement, tol: float = DEFAULT_TOL
) -> JointTable:
    """Born-rule table ``p(x, z) = tr[state(x) effect(z)]``.

    Both arguments are validated first.  Tiny negative entries in
    ``(-tol, 0)`` produced by rounding are clamped to zero; the rows must
    marginalize to the state traces and the table must sum to one.
    """
    ens_report = ensemble.validate(tol)
    if not ens_report:
        raise ValueError(
            f"invalid ensemble: failures={dict(ens_report.failures)!r}, "
            f"trace deviation {ens_report.deviation:.3e}"
        )
    m_report = validate_measurement(m, tol)
    if not m_report:
        raise ValueError(
            f"invalid measurement: failures={dict(m_report.failures)!r}, "
            f"sum deviation {m_report.deviation:.3e}"
        )
    inputs = ensemble.inputs
    outcomes = m.outcomes
    probs = np.empty((len(inputs), len(outcomes)))
    for i, x in enumerate(inputs):
        for j, z in enumerate(outcomes):
            p = trace_product(ensemble[x], m[z])
            if p < -tol:
                raise ValueError(f"negative probability p({x!r}, {z!r}) = {p!r}")
            probs[i, j] = max(p, 0.0)
        row_sum = probs[i].sum()
        if abs(row_sum - ensemble[x].trace) > tol:
            raise ValueError(
                f"row {x!r} sums to {row_sum!r}, expected {ensemble[x].trace!r}"
            )
    if abs(probs.sum() - 1.0) > tol:
        raise ValueError(f"table sums to {probs.sum()!r}, expected 1")
    return JointTable(inputs, outcomes, probs)
