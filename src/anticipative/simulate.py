"""Seeded shot-level simulation of the four-state task.

Each run is one circuit: prepare one of the four states, rotate into one
of the two projective bases of the chosen measurement kind, and read out a
bit, optionally through depolarizing noise (applied to the state) followed
by a classical readout flip.  Runs draw their random streams from a
per-run child of the master seed, so any subset of runs can be reproduced
or executed in parallel without touching the others.

The simulator derives no axes of its own: it reads the state axes and
each kind's basis axes from the task (:func:`~anticipative.task.signed_axes`,
:func:`~anticipative.task.kind_axes`).  The ``+`` probability of every
(state, basis) cell is ``(1 + s x . u)/2`` from those axes, with noise
entering only as the shrink factor ``s``: ``1 - p`` for the sampler,
which draws its readout flips separately, and ``(1 - p)(1 - 2 eps)``
(:attr:`NoiseModel.shrink`) for :func:`outcome_probability` and
:func:`exact_success`, which fold the flip in.  A circuit's measurement
angle is the polar angle of the same axis.

Shots are counted per (state, outcome) cell, the outcome as column
``2 * i + bit`` for basis ``i`` of :data:`KIND_BASES` and bit 0 the ``+``
outcome: the game layer's outcome order.  Each cell is scored with an
exact weight from the game layer, the winning probability of the
priority strategy averaged over the leaked exclusion sets
(:func:`success_weights`).  So one set of shots estimates every
exclusion count ``k``.

Memory: :func:`simulate_curves` streams.  Each run is sampled through one
reused buffer of :data:`CHUNK` uniforms, tallied once into the count
table of its (theta, kind) and dropped, so a plan of any size holds one
chunk buffer plus one run's outcomes (and, in per-shot mode, its bases)
at a time.

Seed lineage: run ``i`` of a plan with master seed ``s`` uses
``numpy.random.SeedSequence(s, spawn_key=(i,))``, where ``i`` is the run's
position in the plan's canonical order (theta, then kind, then state, then
basis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .game import exclusion_info_map, no_exclusion_map, win_weights
from .task import (
    INPUT_LABELS,
    K_VALUES,
    KIND_BASES,
    KINDS,
    basis_vectors,
    check_theta,
    discrimination_game,
    kind_axes,
    priority_post,
    signed_axes,
)

#: Marker basis for runs that draw a basis per shot.
RANDOM_BASIS = "random"

BASIS_MODES = ("even", "per-shot")

#: Uniforms drawn per call into a run's reused buffer (512 KB of floats).
CHUNK = 1 << 16


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strength plus readout flip probability.

    The default readout error matches the hardware this task was sized
    for; construct ``NoiseModel(0.0, 0.0)`` for ideal statistics.
    """

    depolarizing: float = 0.0
    readout_flip: float = 0.023

    def __post_init__(self) -> None:
        if not 0.0 <= self.depolarizing <= 1.0:
            raise ValueError(
                f"depolarizing strength must lie in [0, 1], got {self.depolarizing!r}"
            )
        if not 0.0 <= self.readout_flip <= 0.5:
            raise ValueError(
                f"readout flip must lie in [0, 0.5], got {self.readout_flip!r}"
            )

    @property
    def shrink(self) -> float:
        """Factor on the Bloch overlap of the recorded bit, ``(1 - p)(1 - 2 eps)``.

        Depolarizing shrinks the state's Bloch vector by ``1 - p``; a
        readout flip with probability ``eps`` turns ``(1 + r)/2`` into
        ``(1 + (1 - 2 eps) r)/2``.
        """
        return (1.0 - self.depolarizing) * (1.0 - 2.0 * self.readout_flip)


NOISELESS = NoiseModel(0.0, 0.0)


@dataclass(frozen=True)
class RunSpec:
    """One circuit: a (theta, kind, state, basis) cell of the plan."""

    index: int
    theta: float
    kind: str
    state: str
    basis: str
    shots: int
    master_seed: int

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=(self.index,))

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed_sequence())


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Full factorial sweep over angles, kinds, states and bases."""

    thetas: tuple[float, ...]
    kinds: tuple[str, ...]
    states: tuple[str, ...]
    shots_per_run: int
    master_seed: int
    basis_mode: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "states", tuple(self.states))
        if not self.thetas:
            raise ValueError("plan needs at least one theta")
        for t in self.thetas:
            check_theta(t)
        for kind in self.kinds:
            if kind not in KIND_BASES:
                raise ValueError(f"unknown kind {kind!r}")
        if self.shots_per_run < 1:
            raise ValueError(f"shots_per_run must be >= 1, got {self.shots_per_run}")
        if self.basis_mode not in BASIS_MODES:
            raise ValueError(f"basis_mode must be one of {BASIS_MODES}")
        even = self.basis_mode == "even"
        shots = self.shots_per_run if even else 2 * self.shots_per_run
        runs: list[RunSpec] = []
        for theta in self.thetas:
            for kind in self.kinds:
                for state in self.states:
                    for basis in KIND_BASES[kind] if even else (RANDOM_BASIS,):
                        runs.append(
                            RunSpec(
                                index=len(runs),
                                theta=theta,
                                kind=kind,
                                state=state,
                                basis=basis,
                                shots=shots,
                                master_seed=self.master_seed,
                            )
                        )
        object.__setattr__(self, "runs", tuple(runs))

    def __len__(self) -> int:
        return len(self.runs)


def plan_experiment(
    thetas: Iterable[float],
    shots: int = 20000,
    seed: int = 0,
    kinds: Iterable[str] = KINDS,
    basis_mode: str = "even",
) -> ExperimentPlan:
    """Build the canonical plan: every state and basis at every angle.

    In the default even mode each basis of a kind gets its own run of
    ``shots`` shots, so a two-kind plan has ``len(thetas) * 4 * 2 * 2``
    runs.  In per-shot mode the basis is drawn per shot instead and each
    (theta, kind, state) cell is a single run of ``2 * shots`` shots.
    """
    return ExperimentPlan(
        thetas=tuple(thetas),
        kinds=tuple(kinds),
        states=INPUT_LABELS,
        shots_per_run=shots,
        master_seed=seed,
        basis_mode=basis_mode,
    )


def _basis_index(kind: str, basis: str) -> int:
    bases = KIND_BASES[kind]
    if basis not in bases:
        raise ValueError(f"kind {kind!r} has bases {bases}, got {basis!r}")
    return bases.index(basis)


@dataclass(frozen=True)
class AngleSchedule:
    """Rotation angles of one circuit, both measured in the state plane.

    ``preparation`` is the in-plane angle of the prepared state;
    ``measurement`` is the angle of the measured basis axis, so the
    pre-readout rotation is their difference.
    """

    preparation: float
    measurement: float


def state_angle(theta: float, state: str) -> float:
    """In-plane angle of a state: ``+-theta/2`` plus ``pi`` for antipodes."""
    check_theta(theta)
    base = {"a": theta / 2.0, "b": -theta / 2.0}[state[1]]
    return base if state[0] == "+" else base + math.pi


def tilt_angle(theta: float) -> float:
    """Opening angle between the anticipative axes: ``m . n = cos(omega)``.

    Equals ``arccos((3 + 5 cos(theta)) / (5 + 3 cos(theta)))``, evaluated
    as ``2 arcsin(sin(theta/2) sqrt(2 / (5 + 3 cos(theta))))``: the arccos
    form loses about half the digits as ``theta -> 0``.
    """
    theta = check_theta(theta)
    scale = math.sqrt(2.0 / (5.0 + 3.0 * math.cos(theta)))
    return 2.0 * math.asin(math.sin(theta / 2.0) * scale)


def measurement_angle(theta: float, kind: str, basis: str) -> float:
    """In-plane angle of the measured axis: the polar angle of the kind's axis.

    Standard runs measure at ``+theta/2`` (basis ``a``) or ``-theta/2``
    (basis ``b``); anticipative runs at ``+omega/2`` (basis ``n``) or
    ``-omega/2`` (basis ``m``), with ``omega`` the :func:`tilt_angle`.
    """
    u = kind_axes(kind, *basis_vectors(theta))[_basis_index(kind, basis)]
    return math.atan2(u[1], u[0])


def angle_schedule(
    theta: float, kind: str, basis: str, state: str = "+a"
) -> AngleSchedule:
    """Angles of the circuit measuring ``basis`` on a given prepared state."""
    return AngleSchedule(
        preparation=state_angle(theta, state),
        measurement=measurement_angle(theta, kind, basis),
    )


@lru_cache(maxsize=256)
def _plus_probabilities(theta: float, kind: str, shrink: float) -> np.ndarray:
    """Probability of the ``+`` outcome per cell, ``(1 + s X U^T) / 2``.

    ``X`` holds the task's state axes and ``U`` the kind's basis axes, so
    ``table[x, i]`` is for state ``INPUT_LABELS[x]`` measured in basis
    ``KIND_BASES[kind][i]``; ``s`` is the noise's shrink factor.
    Read-only, built once per ``(theta, kind, shrink)``.
    """
    a, b = basis_vectors(theta)
    overlaps = signed_axes(a, b) @ np.array(kind_axes(kind, a, b)).T
    table = 0.5 * (1.0 + shrink * overlaps)
    table.setflags(write=False)
    return table


def outcome_probability(
    theta: float, state: str, kind: str, basis: str, noise: NoiseModel = NOISELESS
) -> float:
    """Probability of recording the ``+`` outcome of the basis.

    Depolarizing noise contracts the state's Bloch vector before the Born
    rule and the readout flip mixes the recorded bit; both enter as the
    one factor :attr:`NoiseModel.shrink` on the overlap.
    """
    table = _plus_probabilities(theta, kind, noise.shrink)
    return float(table[INPUT_LABELS.index(state), _basis_index(kind, basis)])


class RunResult:
    """Outcomes of one run.

    Bit 0 means the ``+`` outcome of the shot's basis.  Per-shot-basis
    runs also store which basis each shot drew, as its index in
    :data:`KIND_BASES`.
    """

    def __init__(
        self, run: RunSpec, outcomes: np.ndarray, bases: np.ndarray | None = None
    ) -> None:
        self.run = run
        self.outcomes = outcomes
        self.bases = bases
        outcomes.setflags(write=False)
        if bases is not None:
            bases.setflags(write=False)

    def tallies(self) -> np.ndarray:
        """Shot counts per outcome column ``2 * basis index + bit``.

        The four columns follow the outcome order of the kind's
        discrimination game (``+a, -a, +b, -b`` or ``+m, -m, +n, -n``).
        A fixed-basis run fills the two columns of its basis from one
        ``count_nonzero``; a per-shot-basis run from three, on the bases,
        the outcomes and both at once.
        """
        counts = np.zeros(4, dtype=np.int64)
        if self.bases is not None:
            second = np.count_nonzero(self.bases)
            minus = np.count_nonzero(self.outcomes)
            second_minus = np.count_nonzero(self.bases & self.outcomes)
            first_minus = minus - second_minus
            counts[:] = (
                len(self.outcomes) - second - first_minus,
                first_minus,
                second - second_minus,
                second_minus,
            )
            return counts
        column = 2 * KIND_BASES[self.run.kind].index(self.run.basis)
        minus = np.count_nonzero(self.outcomes)
        counts[column : column + 2] = (len(self.outcomes) - minus, minus)
        return counts


def sample_run(run: RunSpec, noise: NoiseModel = NOISELESS) -> RunResult:
    """Sample every shot of a run from its own stream, :meth:`RunSpec.rng`.

    The stream layout is fixed: per-shot basis draws (per-shot mode only),
    then one uniform per shot against the Born probability, then one
    uniform per shot for the readout flip.  The Born draw uses the
    probability before readout (the overlap shrunk by ``1 - p`` only), so
    the flip is applied exactly once.
    Identical inputs give bit-identical outcomes.

    The uniforms are drawn :data:`CHUNK` at a time into one reused
    buffer: a Born pass over all chunks compares them into the outcome
    array, then a flip pass over all chunks XORs the flips into it.  So
    the stream is consumed in the order above, and the run holds one
    chunk of floats besides its outcomes (and, per-shot, its bases).
    """
    rng = run.rng()
    n = run.shots
    table = _plus_probabilities(run.theta, run.kind, 1.0 - noise.depolarizing)
    p_pair = table[INPUT_LABELS.index(run.state)]
    if run.basis == RANDOM_BASIS:
        bases = rng.integers(0, 2, size=n).astype(np.uint8)
    else:
        bases = None
        p_plus = p_pair[_basis_index(run.kind, run.basis)]
    buf = np.empty(min(n, CHUNK))
    outcomes = np.empty(n, dtype=bool)
    for lo in range(0, n, CHUNK):
        u = rng.random(out=buf[: n - lo])
        hi = lo + len(u)
        p = p_plus if bases is None else p_pair[bases[lo:hi]]
        np.greater_equal(u, p, out=outcomes[lo:hi])
    for lo in range(0, n, CHUNK):
        u = rng.random(out=buf[: n - lo])
        outcomes[lo : lo + len(u)] ^= u < noise.readout_flip
    return RunResult(run, outcomes.view(np.uint8), bases)


@dataclass(frozen=True)
class Estimate:
    """Empirical success estimate with a binomial-bound standard error."""

    value: float
    stderr: float
    shots: int


@lru_cache(maxsize=None)
def success_weights(kind: str, k: int) -> np.ndarray:
    """Exact per-shot success weights ``w[state, column]``.

    Rows follow ``INPUT_LABELS`` and columns the outcome order of the
    kind's discrimination game, which is the column ``2 * basis index +
    bit`` of :meth:`RunResult.tallies`.  The weight is the game layer's
    :func:`~anticipative.game.win_weights` of the priority strategy
    against a uniformly drawn exclusion set: the chance that a shot with
    that state and outcome wins, averaged exactly over all admissible
    sets.  Multiplying weights by observed counts reuses every shot for
    each ``k``.  The strategy and the leak do not depend on ``theta``, so
    the table is built once per ``(kind, k)`` and returned read-only.
    """
    spec = discrimination_game(kind, math.pi / 2)
    alpha = no_exclusion_map(spec) if k == 0 else exclusion_info_map(spec, k)
    w = win_weights(spec, alpha, priority_post(kind, k))
    w.setflags(write=False)
    return w


def empirical_success(
    results: Iterable[RunResult],
    ks: tuple[int, ...] = K_VALUES,
    require_equal_split: bool = True,
) -> dict[tuple[float, str, int], Estimate]:
    """Per-(theta, kind, k) success estimates for every exclusion count in ``ks``.

    Makes one pass over ``results`` (a generator will do) and keeps no
    run: each run's :meth:`RunResult.tallies` are added once into the
    ``counts[state, column]`` table of its (theta, kind).  Each table is
    then scored with the exact weights of :func:`success_weights`, the
    tables of all ``ks`` stacked once per kind, and the standard error is
    bounded by the binomial formula (the weights lie in [0, 1], so the
    bound is conservative).  Fixed-basis groups must cover both bases of
    their kind with equal shot counts for every state they contain;
    groups with a per-shot-basis run are exempt because their balance is
    stochastic by design.
    """
    tables: dict[tuple[float, str], np.ndarray] = {}
    per_shot: set[tuple[float, str]] = set()
    for res in results:
        key = (res.run.theta, res.run.kind)
        if key not in tables:
            tables[key] = np.zeros((len(INPUT_LABELS), 4), dtype=np.int64)
        tables[key][INPUT_LABELS.index(res.run.state)] += res.tallies()
        if res.bases is not None:
            per_shot.add(key)
        del res  # drop this run's outcomes before the next run is sampled
    weights: dict[str, np.ndarray] = {}
    out: dict[tuple[float, str, int], Estimate] = {}
    for (theta, kind), counts in tables.items():
        if require_equal_split and (theta, kind) not in per_shot:
            per_basis = (counts[:, 0::2] + counts[:, 1::2]).tolist()
            for state, totals in zip(INPUT_LABELS, per_basis):
                if totals[0] != totals[1]:
                    raise ValueError(
                        f"unbalanced basis counts for theta={theta!r}, "
                        f"kind={kind!r}, state={state!r}: "
                        f"{dict(zip(KIND_BASES[kind], totals))!r}"
                    )
        if kind not in weights:
            weights[kind] = np.stack([success_weights(kind, k).ravel() for k in ks])
        shots = int(counts.sum())
        for k, row in zip(ks, (weights[kind] * counts.ravel()).tolist()):
            # Summed left to right in row-major order: np.sum adds pairwise,
            # which moves some estimates by an ulp and with them CSV digits.
            value = sum(row) / shots
            stderr = math.sqrt(max(value * (1.0 - value), 0.0) / shots)
            out[(theta, kind, k)] = Estimate(value=value, stderr=stderr, shots=shots)
    return out


def exact_success(
    theta: float, kind: str, k: int, noise: NoiseModel = NOISELESS
) -> float:
    """Infinite-shot limit of the estimator, noise included.

    With no noise this equals the closed-form success probability of the
    scenario, which pins the estimator to the analytic layer.
    """
    plus = _plus_probabilities(theta, kind, noise.shrink)
    probs = np.stack((plus, 1.0 - plus), axis=-1).reshape(len(INPUT_LABELS), 4)
    return 0.125 * float(np.sum(probs * success_weights(kind, k)))


def simulate_curves(
    plan: ExperimentPlan, noise: NoiseModel = NOISELESS
) -> dict[tuple[float, str, int], Estimate]:
    """Sample the whole plan and estimate every scenario on it.

    Every ``k`` of :data:`K_VALUES` is estimated.  Runs are sampled one
    at a time as the estimator asks for them, so only one run's outcomes
    are alive at once.
    """
    return empirical_success(sample_run(run, noise) for run in plan.runs)


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(angle: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=complex
    )


_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def native_decomposition_check(theta: float, tol: float = 1e-12) -> bool:
    """Verify the native-gate decomposition of the plane rotation.

    Checks ``RY(theta) = i . sqrt(X) . RZ(pi - theta) . sqrt(X) . RZ(pi)``
    up to a global phase.  This is the only place complex matrices appear
    in the simulator.
    """
    lhs = _ry(theta)
    rhs = 1j * (_SQRT_X @ _rz(math.pi - theta) @ _SQRT_X @ _rz(math.pi))
    flat = np.argmax(np.abs(rhs))
    phase = lhs.flat[flat] / rhs.flat[flat]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.all(np.abs(lhs - phase * rhs) <= tol))
