"""Independent cross-check helpers built on explicit 2x2 complex matrices.

The package itself never touches complex matrices outside the native-gate
check; these helpers rebuild states, effects and traces from the Pauli
matrices so tests can compare the two routes, and evaluate the Born rule
one (state, effect) pair at a time.  The outcome-function helpers at the
bottom count guesses one function at a time, with plain loops and no
numpy, as a brute-force check on the solver's array counts.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SX, SY, SZ)


def matrix(scalar: float, bloch) -> np.ndarray:
    out = scalar * I2
    for component, pauli in zip(bloch, PAULI):
        out = out + component * pauli
    return out


def to_matrix(pair) -> np.ndarray:
    """The matrix of a ``(scalar, bloch)`` pair, such as ``ensemble[x]``."""
    scalar, bloch = pair
    return matrix(scalar, bloch)


def top_eigenvalues(scalars, blochs) -> np.ndarray:
    """Largest eigenvalue of each ``scalars[i] I + blochs[i] . sigma``, by ``eigvalsh``."""
    stacked = np.array([matrix(s, v) for s, v in zip(scalars, blochs)])
    return np.linalg.eigvalsh(stacked)[:, -1]


def pauli_components(op: np.ndarray) -> np.ndarray:
    """``(s, v_x, v_y, v_z)`` with ``op = s I + v . sigma``, complex in general."""
    return np.array([np.trace(op @ p) / 2.0 for p in (I2, *PAULI)])


def cross_product_reference(a_scalars, a_blochs, b_scalars, b_blochs):
    """``A B`` in Pauli components with the cross term taken by ``np.cross``.

    The formula ``bloch.operator_product`` had before it wrote the cross
    product out by components; the two must agree bit for bit.
    """
    a0, a = np.asarray(a_scalars, dtype=float), np.asarray(a_blochs, dtype=float)
    b0, b = np.asarray(b_scalars, dtype=float), np.asarray(b_blochs, dtype=float)
    s = a0 * b0 + np.add.reduce(a * b, axis=-1)
    v = a0[..., None] * b + b0[..., None] * a + 1j * np.cross(a, b)
    return s, v


def trace_pair(a, b) -> float:
    return float(np.trace(to_matrix(a) @ to_matrix(b)).real)


def pairwise_born(a, b) -> float:
    """``tr[A B] = 2 (a0 b0 + a . b)`` for two ``(scalar, bloch)`` pairs."""
    (a0, a), (b0, b) = a, b
    return 2.0 * (a0 * b0 + float(a @ b))


def born_loop(ensemble, measurement) -> list[list[float]]:
    """The Born table one pair at a time, tiny negatives clamped to zero."""
    return [
        [max(pairwise_born(ensemble[x], measurement[z]), 0.0) for z in measurement]
        for x in ensemble
    ]


def plane_direction(theta: float, which: str) -> np.ndarray:
    half = theta / 2.0
    a = np.array([math.cos(half), math.sin(half), 0.0])
    b = np.array([math.cos(half), -math.sin(half), 0.0])
    if which in ("a", "b"):
        return a if which == "a" else b
    norm = math.sqrt(10.0 + 6.0 * math.cos(theta))
    return (a + 3.0 * b) / norm if which == "m" else (3.0 * a + b) / norm


def signed_direction(theta: float, label: str) -> np.ndarray:
    sign = 1.0 if label[0] == "+" else -1.0
    return sign * plane_direction(theta, label[1])


def plus_probability_cells(states, directions, depolarizing: float) -> np.ndarray:
    """``(1 + (1 - p) x . u) / 2`` one cell at a time: ``[state, direction]``.

    Each cell is one scalar dot product of a state's Bloch vector ``x``
    and a basis axis ``u``, shrunk by the depolarizing factor ``1 - p``.
    """
    return np.array(
        [
            [0.5 * (1.0 + (1.0 - depolarizing) * float(x @ u)) for u in directions]
            for x in states
        ]
    )


def state_matrix(theta: float, label: str) -> np.ndarray:
    return matrix(0.125, 0.125 * signed_direction(theta, label))


def effect_matrix(theta: float, label: str) -> np.ndarray:
    return matrix(0.25, 0.25 * signed_direction(theta, label))


LABELS = ("+a", "-a", "+b", "-b")


def oracle_sets(k: int) -> list[tuple[str, ...]]:
    """The size-``k`` exclusion sets, in lexicographic order of ``LABELS``."""
    return list(itertools.combinations(LABELS, k))


def oracle_functions(k: int) -> list[tuple[str, ...]]:
    """Every outcome function as one guess per set, in ``itertools.product`` order."""
    return list(itertools.product(LABELS, repeat=len(oracle_sets(k))))


def oracle_counts(guesses: tuple[str, ...], k: int) -> tuple[int, int, int, int]:
    """How often each label is guessed while it is not excluded."""
    slots = [0, 0, 0, 0]
    for s, y in zip(oracle_sets(k), guesses):
        if y not in s:
            slots[LABELS.index(y)] += 1
    return tuple(slots)
