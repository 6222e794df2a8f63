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
:func:`exact_success`, which fold the flip in.  The sampler draws flip
uniforms only when ``eps > 0``, and always after all of a run's Born
uniforms, so every noise model reads the same Born uniforms.  A
circuit's measurement angle is the polar angle of the same axis.
:func:`exact_success` takes one angle or a 1-D array of them, as the
task's closed forms do; the other functions of an angle take one.

Shots are counted per (state, outcome) cell, the outcome as column
``2 * i + bit`` for basis ``i`` of :data:`KIND_BASES` and bit 0 the ``+``
outcome: the game layer's outcome order.  Each cell is scored with an
exact weight from the game layer, the winning probability of the
priority strategy averaged over the leaked exclusion sets
(:func:`success_weights`).  So one set of shots estimates every
exclusion count ``k``.

Memory: :func:`simulate_curves` streams.  Each run draws its uniforms
into the chunk buffer of the thread sampling it (:func:`_chunk_buffer`),
is tallied once into the count table of its (theta, kind) and is
dropped, so a plan of any size holds the thread's chunk buffers plus one
run's outcomes (and, in per-shot mode, its bases) at a time: 250 000-shot
runs peak near 0.25 MB of traced memory, per-shot ones near 1.03 MB.

Seed lineage: run ``i`` of a plan with master seed ``s`` uses
``numpy.random.SeedSequence(s, spawn_key=(i,))``, where ``i`` is the run's
position in the plan's canonical order (theta, then kind, then state, then
basis).  :meth:`RunSpec.seed_sequence` is that contract, and
:meth:`RunSpec.rng` is ``default_rng`` of it for every run.  A plan
computes the state every run's sequence hands its generator once for all
runs, which only :func:`sample_run` seeds from, and each run's noise-free
Born overlaps once for all angles, so neither is rebuilt per run; the
streams are those of the contract.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .bloch import first_true, float_or_array, stack_note
from .game import exclusion_info_map, no_exclusion_map, win_weights
from .task import (
    INPUT_LABELS,
    K_VALUES,
    KIND_BASES,
    KINDS,
    _check_k,
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

#: Uniforms drawn per call into a thread's reused buffer (512 KB of floats).
CHUNK = 1 << 16

_per_thread = threading.local()


def _chunk_buffer(name: str, dtype, n: int) -> np.ndarray:
    """The first ``min(n, CHUNK)`` elements of the calling thread's buffer ``name``.

    Kept across the thread's runs, so a run does not allocate (and the
    heap does not trim and re-fault) its own, and grown only for a larger
    run: long-lived ``CHUNK``-sized blocks raised the peak resident memory
    of small runs.  Threads sampling at once each use their own buffers.
    """
    size = min(n, CHUNK)
    buf = getattr(_per_thread, name, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size, dtype)
        setattr(_per_thread, name, buf)
    return buf[:size]


def _draw_bases(rng: np.random.Generator, n: int) -> np.ndarray:
    """``rng.integers(0, 2, n).astype(np.uint8)`` from raw words (:func:`sample_run`).

    ``integers(0, 2)`` keeps the top bit of one 32-bit draw, and ``PCG64``
    hands out the low half of each word first; an odd last basis goes
    through ``integers``, leaving the same half in the 32-bit buffer.
    """
    bases = np.empty(n, dtype=np.uint8)
    whole = n - n % 2
    for lo in range(0, whole, CHUNK):  # CHUNK is even: no word spans two chunks
        hi = min(lo + CHUNK, whole)
        words = rng.bit_generator.random_raw((hi - lo) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")  # low half first
        halves >>= 31
        bases[lo:hi] = halves
    if n % 2:
        bases[-1] = rng.integers(0, 2)
    return bases


def _one_angle(theta: float) -> float:
    """``theta`` unchanged if it is a float, else :func:`check_theta` of it.

    The callers take one angle, so an array is rejected with one message; a
    float (a ``numpy.float64`` stays one) is left for the caller to range-check.
    """
    if isinstance(theta, float):
        return theta
    if np.ndim(theta):
        raise ValueError(
            f"theta must be one angle, got an array of shape {np.shape(theta)}"
        )
    return check_theta(theta)


def _count(name: str, value, low: int) -> int:
    """``value`` as an ``int``; ValueError unless it is an integer >= ``low``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return count


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

# numpy's SeedSequence hash: entropy words are hashed into a pool of four
# 32-bit words with the A constants and mixed pairwise; state words are
# drawn from the pool with the B constants.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash(value, const: int, mult: int):
    """One hash step on a Python int or a ``uint32`` array, and the next constant."""
    following = const * mult & _MASK32
    value = (value ^ const) * following & _MASK32
    return value ^ value >> 16, following


def _mix(x, y):
    """Fold hashed word ``y`` into pool word ``x`` (ints or ``uint32`` arrays)."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _absorb(pool: list, const: int, words) -> int:
    """Mix each entropy word beyond the pool's first four into every pool word."""
    for word in words:
        for dst in range(4):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return const


def _master_pool(master_seed: int) -> tuple[list[int], int]:
    """The pool and hash constant of ``SeedSequence(master_seed, spawn_key=(i,))``
    once the master seed's words are in, before the spawn key's.

    A spawned sequence pads its entropy to four words, so the first four
    words, and with them the pairwise mixing, do not depend on ``i``.
    """
    words = [
        master_seed >> shift & _MASK32
        for shift in range(0, max(master_seed.bit_length(), 1), 32)
    ]
    words += [0] * (4 - len(words))
    const = _INIT_A
    pool = []
    for word in words[:4]:
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    return pool, _absorb(pool, const, words[4:])


def _spawn_words(master_seed: int, keys: np.ndarray) -> bytes:
    """``SeedSequence(master_seed, spawn_key=(key,)).generate_state(4, uint64)``
    as 32 little-endian bytes per key of a ``uint32`` array.

    The words ``PCG64`` seeds itself from.  The master seed (an int >= 0)
    is hashed once in Python ints; the keys are then hashed together.
    """
    pool, const = _master_pool(master_seed)
    _absorb(pool, const, (keys,))
    state, const = [], _INIT_B
    for j in range(8):
        word, const = _hash(pool[j % 4], const, _MULT_B)
        state.append(word)
    # SeedSequence pairs its 32-bit words little-endian into 64-bit ones.
    return np.stack(state, axis=-1).astype("<u4", copy=False).tobytes()


@lru_cache(maxsize=None)
def _words_seed_type() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` a plan run's words.

    Defined on first use: subclassing at import time would import
    ``numpy.random``, which adds 10-15 ms to every CLI start.
    """
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        def __init__(self, words: bytes) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return np.frombuffer(self.words, "<u8").astype(np.uint64, copy=False)

    return WordsSeed


def _overlaps(theta: float | np.ndarray, kind: str) -> np.ndarray:
    """Noise-free overlaps ``x . u`` of the state axes with a kind's basis axes.

    ``out[..., x, i]`` is for state ``INPUT_LABELS[x]`` measured in basis
    ``KIND_BASES[kind][i]``.  An array of angles gives one table per angle
    from one stacked product, bit-equal to building each angle alone.
    """
    a, b = basis_vectors(theta)
    return signed_axes(a, b) @ np.stack(kind_axes(kind, a, b), axis=-1)


def _plus(overlap, shrink: float):
    """Probability of the ``+`` outcome, ``(1 + s overlap)/2``.

    The one Born formula of the module: an overlap may be a float or an
    array of them, and ``s`` is the noise's shrink factor.
    """
    return 0.5 * (1.0 + shrink * overlap)


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One circuit: a (theta, kind, state, basis) cell of the plan.

    :meth:`rng` is ``default_rng(self.seed_sequence())`` for every run.  A
    run built by :class:`ExperimentPlan` also carries its seeding words,
    which only :func:`sample_run` reads, and its row of noise-free
    overlaps, both computed once for the whole plan; a run constructed on
    its own is sampled from :meth:`rng`, computes its row of overlaps
    when asked, and has its shots and angle checked only then.  Neither
    field takes part in equality, hashing or repr.
    """

    index: int
    theta: float
    kind: str
    state: str
    basis: str
    shots: int
    master_seed: int
    _words: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _overlap: tuple[float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=(self.index,))

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed_sequence())

    def overlap(self) -> tuple[float, float]:
        """Noise-free overlaps of the run's state with its kind's two basis axes."""
        if self._overlap is not None:
            return self._overlap
        row = _overlaps(_one_angle(self.theta), self.kind)[_state_index(self.state)]
        return tuple(row.tolist())


def check_distinct_thetas(thetas: Iterable[float]) -> None:
    """Reject an angle that appears twice.

    Estimates pool every run of one (theta, kind), so a repeated angle
    would merge its groups of runs into one estimate without a word.
    """
    seen: set[float] = set()
    for theta in map(float, thetas):
        if theta in seen:
            raise ValueError(
                f"theta {theta!r} is repeated: the runs of one angle are pooled "
                "into one estimate, so each angle must appear once"
            )
        seen.add(theta)


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Full factorial sweep over angles, kinds, states and bases.

    Angles must be distinct (:func:`check_distinct_thetas`); they are kept
    as Python floats, whatever the input type.  The plan hashes every run's
    seeding words in one pass, builds the overlaps of all its angles in one
    stacked product per kind, and hands each run its own.
    """

    thetas: tuple[float, ...]
    kinds: tuple[str, ...]
    states: tuple[str, ...]
    shots_per_run: int
    master_seed: int
    basis_mode: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(float(_one_angle(t)) for t in self.thetas))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "states", tuple(self.states))
        if not self.thetas:
            raise ValueError("plan needs at least one theta")
        for t in self.thetas:
            check_theta(t)
        check_distinct_thetas(self.thetas)
        for kind in self.kinds:
            if kind not in KIND_BASES:
                raise ValueError(f"unknown kind {kind!r}")
        for state in self.states:
            _state_index(state)
        for name, low in (("shots_per_run", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), low))
        if self.basis_mode not in BASIS_MODES:
            raise ValueError(f"basis_mode must be one of {BASIS_MODES}")
        even = self.basis_mode == "even"
        shots = self.shots_per_run if even else 2 * self.shots_per_run
        per_cell = 2 if even else 1  # every kind has two bases
        n_runs = len(self.thetas) * len(self.kinds) * len(self.states) * per_cell
        seed = self.master_seed
        words = _spawn_words(seed, np.arange(n_runs, dtype=np.uint32))
        thetas = np.array(self.thetas)
        rows = {kind: _overlaps(thetas, kind).tolist() for kind in self.kinds}
        runs: list[RunSpec] = []
        for t, theta in enumerate(self.thetas):
            for kind in self.kinds:
                for state in self.states:
                    overlap = tuple(rows[kind][t][INPUT_LABELS.index(state)])
                    for basis in KIND_BASES[kind] if even else (RANDOM_BASIS,):
                        i = len(runs)
                        run = RunSpec(i, theta, kind, state, basis, shots, seed)
                        object.__setattr__(run, "_words", words[32 * i : 32 * i + 32])
                        object.__setattr__(run, "_overlap", overlap)
                        runs.append(run)
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


def _state_index(state: str) -> int:
    if state not in INPUT_LABELS:
        raise ValueError(f"unknown state {state!r}: states are {INPUT_LABELS}")
    return INPUT_LABELS.index(state)


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
    theta = check_theta(_one_angle(theta))
    _state_index(state)
    base = {"a": theta / 2.0, "b": -theta / 2.0}[state[1]]
    return base if state[0] == "+" else base + math.pi


def tilt_angle(theta: float) -> float:
    """Opening angle between the anticipative axes: ``m . n = cos(omega)``.

    Equals ``arccos((3 + 5 cos(theta)) / (5 + 3 cos(theta)))``, evaluated
    as ``2 arcsin(sin(theta/2) sqrt(2 / (5 + 3 cos(theta))))``: the arccos
    form loses about half the digits as ``theta -> 0``.
    """
    theta = check_theta(_one_angle(theta))
    scale = math.sqrt(2.0 / (5.0 + 3.0 * math.cos(theta)))
    return 2.0 * math.asin(math.sin(theta / 2.0) * scale)


def measurement_angle(theta: float, kind: str, basis: str) -> float:
    """In-plane angle of the measured axis: the polar angle of the kind's axis.

    Standard runs measure at ``+theta/2`` (basis ``a``) or ``-theta/2``
    (basis ``b``); anticipative runs at ``+omega/2`` (basis ``n``) or
    ``-omega/2`` (basis ``m``), with ``omega`` the :func:`tilt_angle`.
    """
    u = kind_axes(kind, *basis_vectors(_one_angle(theta)))[_basis_index(kind, basis)]
    return math.atan2(u[1], u[0])


def angle_schedule(
    theta: float, kind: str, basis: str, state: str = "+a"
) -> AngleSchedule:
    """Angles of the circuit measuring ``basis`` on a given prepared state."""
    return AngleSchedule(
        preparation=state_angle(theta, state),
        measurement=measurement_angle(theta, kind, basis),
    )


def outcome_probability(
    theta: float, state: str, kind: str, basis: str, noise: NoiseModel = NOISELESS
) -> float:
    """Probability of recording the ``+`` outcome of the basis.

    Depolarizing noise contracts the state's Bloch vector before the Born
    rule and the readout flip mixes the recorded bit; both enter as the
    one factor :attr:`NoiseModel.shrink` on the overlap.
    """
    table = _overlaps(_one_angle(theta), kind)
    overlap = table[_state_index(state), _basis_index(kind, basis)]
    return _plus(float(overlap), noise.shrink)


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
        column = 2 * _basis_index(self.run.kind, self.run.basis)
        minus = np.count_nonzero(self.outcomes)
        counts[column : column + 2] = (len(self.outcomes) - minus, minus)
        return counts


def _run_rng(run: RunSpec) -> np.random.Generator:
    """The generator :func:`sample_run` draws from, equal to :meth:`RunSpec.rng`.

    A plan run seeds ``PCG64`` from the words its plan hashed, which skips
    building its ``SeedSequence``; a run constructed on its own calls
    :meth:`RunSpec.rng`.
    """
    if run._words is None:
        return run.rng()
    return np.random.Generator(np.random.PCG64(_words_seed_type()(run._words)))


def sample_run(run: RunSpec, noise: NoiseModel = NOISELESS) -> RunResult:
    """Sample every shot of a run from its own stream, :meth:`RunSpec.rng`.

    The stream layout is fixed: per-shot basis draws (per-shot mode only),
    then one uniform per shot against the Born probability, then, only
    when the readout flip ``eps`` is above 0, one uniform per shot for the
    flip.  At ``eps = 0`` every flip would be false, so none is drawn; the
    outcomes are those the flip pass would leave, and a run's bases and
    Born uniforms are the same prefix of its stream under every noise
    model.  The Born draw uses the probability before readout (the
    overlap shrunk by ``1 - p`` only), so the flip is applied exactly once.
    Identical inputs give bit-identical outcomes.

    Basis ``i`` is the top bit of the ``i``-th 32-bit half of the raw
    ``PCG64`` words, low half first: the bases and words of
    ``integers(0, 2, n)``, kept if numpy changes ``integers``, as its
    stream policy (NEP 19) covers bit generators, not ``Generator`` methods.

    Bases, then uniforms, are drawn :data:`CHUNK` at a time, the uniforms
    into a buffer of the calling thread reused across runs: a Born pass
    over all chunks compares them into the outcome array, then a flip pass
    XORs the flips into it.  The per-shot Born probabilities and the flip
    mask also go into buffers of the thread.  The Born probability of
    each basis is ``(1 + (1 - p) overlap)/2`` from :meth:`RunSpec.overlap`.
    """
    rng = _run_rng(run)
    # a plan checked its runs' shots; a run built alone is checked here
    n = run.shots if run._words is not None else _count("shots", run.shots, 0)
    shrink = 1.0 - noise.depolarizing
    overlap = run.overlap()
    if run.basis == RANDOM_BASIS:
        bases = _draw_bases(rng, n)
        p_pair = np.array([_plus(cell, shrink) for cell in overlap])
        p_buf = _chunk_buffer("born", float, n)
    else:
        bases = None
        p = _plus(overlap[_basis_index(run.kind, run.basis)], shrink)
    buf = _chunk_buffer("uniforms", float, n)
    outcomes = np.empty(n, dtype=bool)
    for lo in range(0, n, CHUNK):
        u = rng.random(out=buf[: n - lo])
        hi = lo + len(u)
        if bases is not None:  # mode="raise" would copy ``out`` via a temporary
            p = p_pair.take(bases[lo:hi], out=p_buf[: len(u)], mode="clip")
        np.greater_equal(u, p, out=outcomes[lo:hi])
    if noise.readout_flip > 0.0:
        mask = _chunk_buffer("flips", bool, n)
        for lo in range(0, n, CHUNK):
            u = rng.random(out=buf[: n - lo])
            hi = lo + len(u)
            outcomes[lo:hi] ^= np.less(u, noise.readout_flip, out=mask[: len(u)])
    return RunResult(run, outcomes.view(np.uint8), bases)


@dataclass(frozen=True)
class Estimate:
    """Empirical success estimate with a binomial-bound standard error."""

    value: float
    stderr: float
    shots: int


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
    ``k`` must be an integer of :data:`K_VALUES`, checked on every call.
    """
    return _success_weights(kind, _check_k(k))


@lru_cache(maxsize=None)
def _success_weights(kind: str, k: int) -> np.ndarray:
    spec = discrimination_game(kind, math.pi / 2)
    alpha = no_exclusion_map(spec) if k == 0 else exclusion_info_map(spec, k)
    return win_weights(spec, alpha, priority_post(kind, k))


def empirical_success(
    results: Iterable[RunResult],
    ks: Iterable[int] = K_VALUES,
) -> dict[tuple[float, str, int], Estimate]:
    """Per-(theta, kind, k) success estimates for every exclusion count in ``ks``.

    Makes one pass over ``results`` and one over ``ks`` (generators will
    do) and keeps no run: each run's :meth:`RunResult.tallies` are added
    once into the ``counts[state, column]`` table of its (theta, kind).
    Each table is then scored with the exact weights of
    :func:`success_weights`, the tables of all ``ks`` stacked once per
    kind, and the standard error is bounded by the binomial formula (the
    weights lie in [0, 1], so the bound is conservative).  Fixed-basis
    groups must cover both bases of their kind with equal shot counts for
    every state they contain; groups with a per-shot-basis run are exempt
    because their balance is stochastic by design.  Every group must hold
    a shot, and ``ks`` at least one exclusion count.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("ks must name at least one exclusion count")
    tables: dict[tuple[float, str], np.ndarray] = {}
    per_shot: set[tuple[float, str]] = set()
    for res in results:
        key = (res.run.theta, res.run.kind)
        if key not in tables:
            tables[key] = np.zeros((len(INPUT_LABELS), 4), dtype=np.int64)
        tables[key][_state_index(res.run.state)] += res.tallies()
        if res.bases is not None:
            per_shot.add(key)
        del res  # drop this run's outcomes before the next run is sampled
    weights: dict[str, np.ndarray] = {}
    out: dict[tuple[float, str, int], Estimate] = {}
    for (theta, kind), counts in tables.items():
        if (theta, kind) not in per_shot:
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
        if shots == 0:
            raise ValueError(f"no shots for theta={theta!r}, kind={kind!r}")
        # Accumulated left to right in row-major order: np.sum adds pairwise and
        # sum() compensates from Python 3.12, and either moves CSV digits.
        sums = np.add.accumulate(weights[kind] * counts.ravel(), axis=1)[:, -1]
        for k, value in zip(ks, (sums / shots).tolist()):
            stderr = math.sqrt(max(value * (1.0 - value), 0.0) / shots)
            out[(theta, kind, k)] = Estimate(value=value, stderr=stderr, shots=shots)
    return out


def exact_success(
    theta: float | np.ndarray, kind: str, k: int, noise: NoiseModel = NOISELESS
) -> float | np.ndarray:
    """Infinite-shot limit of the estimator, noise included.

    With no noise this equals the closed-form success probability of the
    scenario, which pins the estimator to the analytic layer.  One angle
    gives a float; a 1-D array of angles gives an array, each entry equal
    to the float its angle gives alone.
    """
    plus = _plus(_overlaps(check_theta(theta), kind), noise.shrink)
    probs = np.stack((plus, 1.0 - plus), axis=-1).reshape(plus.shape[:-2] + (4, 4))
    return float_or_array(0.125 * np.sum(probs * success_weights(kind, k), axis=(-2, -1)))


def simulate_curves(
    plan: ExperimentPlan, noise: NoiseModel = NOISELESS
) -> dict[tuple[float, str, int], Estimate]:
    """Sample the whole plan and estimate every scenario on it.

    Every ``k`` of :data:`K_VALUES` is estimated.  Runs are sampled one
    at a time as the estimator asks for them, so only one run's outcomes
    are alive at once.
    """
    return empirical_success(sample_run(run, noise) for run in plan.runs)


def _ry(angle: np.ndarray) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.stack((c, -s, s, c), axis=-1).reshape(c.shape + (2, 2)) + 0j


def _rz(angle: np.ndarray) -> np.ndarray:
    w = np.exp(-0.5j * angle)
    diagonal = (w, np.zeros_like(w), np.zeros_like(w), np.exp(0.5j * angle))
    return np.stack(diagonal, axis=-1).reshape(w.shape + (2, 2))


_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def native_decomposition_check(
    theta: float | np.ndarray, tol: float = 1e-12
) -> bool | np.ndarray:
    """Verify the native-gate decomposition of the plane rotation.

    Checks ``RY(theta) = i . sqrt(X) . RZ(pi - theta) . sqrt(X) . RZ(pi)``
    up to a global phase.  One angle gives a ``bool``; an array of angles
    gives one per angle, from one stacked product.  A non-finite angle
    raises ValueError naming its index.  This is the only place complex
    matrices appear in the simulator.
    """
    thetas = np.asarray(theta, dtype=float)
    finite = np.isfinite(thetas)
    if not np.all(finite):
        at = first_true(~finite)
        raise ValueError(
            f"theta must be finite, got {float(thetas[at])!r}{stack_note(at)}"
        )
    lhs = _ry(thetas).reshape(thetas.shape + (4,))
    rhs = 1j * (_SQRT_X @ _rz(math.pi - thetas) @ _SQRT_X @ _rz(math.pi))
    rhs = rhs.reshape(lhs.shape)
    pick = np.argmax(np.abs(rhs), axis=-1)[..., None]
    phase = np.take_along_axis(lhs, pick, -1) / np.take_along_axis(rhs, pick, -1)
    ok = (np.abs(np.abs(phase[..., 0]) - 1.0) <= tol) & np.all(
        np.abs(lhs - phase * rhs) <= tol, axis=-1
    )
    return bool(ok) if ok.ndim == 0 else ok
