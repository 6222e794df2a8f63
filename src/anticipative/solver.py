"""Optimal anticipative measurements via an auxiliary discrimination problem.

Fixing the best guessing strategy (guess the drawn input unless it is
excluded, then fall back along a known order) turns the search for the
best measurement into minimum-error discrimination of an auxiliary
ensemble indexed by outcome functions ``phi``: maps sending each possible
exclusion set to a guess.  An outcome function is a plain ``int``, the
index of a row of :func:`enumerate_functions`, whose entries are the
guesses as indices into ``INPUT_LABELS``.  Every member of the ensemble
is a mix of task states that depends on ``phi`` only through its count
vector, so the 256 (``k = 1``) or 4096 (``k = 2``) functions fall into 66
or 144 count classes.  The ensemble is stored as one operator per class
plus the class multiplicities; the best discrimination success
``Lambda`` is a maximum over the classes, and the operator of a single
``phi`` is built only when asked for.  Measurements are optimal iff they
satisfy the exact Holevo / Yuen-Kennedy-Lax certificate: every used
effect is an eigen-projection of its member at ``Lambda``, and no member
has an eigenvalue above ``Lambda``.  The two-effect measurements built
here pass it and average to the four-outcome anticipative measurement.

Every function of an angle also takes a 1-D array of angles, as the task
layer does (``gamma`` an array of inner products): ensembles and
measurements then carry a leading angle axis, and each result gives per
angle what that angle gives alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bloch import DEFAULT_TOL, Measurement, float_or_array, operator_product
from .game import ExclusionSet, PostProcessing, all_exclusion_sets
from .task import (
    ANTICIPATIVE,
    INPUT_LABELS,
    KIND_OUTCOMES,
    _check_k,
    basis_vectors,
    kind_axes,
    negate_label,
    signed_label,
)

#: Exclusion counts the solver supports.
SOLVER_K = (1, 2)

#: Tolerance on the unnormalized score when collecting maximizers.
GAMMA_TOL = 1e-9


def exclusion_sets(k: int) -> tuple[ExclusionSet, ...]:
    """Canonically ordered size-``k`` subsets of the answer alphabet."""
    return all_exclusion_sets(INPUT_LABELS, _check_k(k, SOLVER_K))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def enumerate_functions(k: int) -> np.ndarray:
    """All ``4^|T|`` outcome functions as a read-only ``[4^|T|, |T|]`` array.

    Entry ``[phi, t]`` is the guess of function ``phi`` on
    ``exclusion_sets(k)[t]``, as an index into ``INPUT_LABELS``; rows run
    in ``itertools.product`` order.  ``|T| = 4`` for ``k = 1`` and ``6``
    for ``k = 2``, so there are 256 and 4096 rows.
    """
    n = len(exclusion_sets(k))
    return _readonly(np.indices((len(INPUT_LABELS),) * n).reshape(n, -1).T)


def _function_index(guesses: Iterable[str]) -> int:
    """Row of :func:`enumerate_functions` guessing ``guesses``, set by set."""
    phi = 0
    for y in guesses:
        phi = len(INPUT_LABELS) * phi + INPUT_LABELS.index(y)
    return phi


def constant_function(k: int, label: str) -> int:
    """The outcome function that guesses ``label`` on every exclusion set."""
    return _function_index([label] * len(exclusion_sets(k)))


@lru_cache(maxsize=None)
def _allowed(k: int) -> np.ndarray:
    """``[t, y]``: true where answer ``y`` is not in ``exclusion_sets(k)[t]``."""
    return _readonly(
        np.array([[y not in s for y in INPUT_LABELS] for s in exclusion_sets(k)])
    )


def counts(phi: np.ndarray, k: int) -> np.ndarray:
    """Count vectors ``(alpha_plus, alpha_minus, beta_plus, beta_minus)``.

    ``phi`` holds guesses as in the rows of :func:`enumerate_functions`,
    with shape ``[..., |T|]``; the result has shape ``[..., 4]``.
    ``alpha_plus`` counts sets ``S`` with ``phi(S) = +a`` and ``+a`` not in
    ``S``, and so on.  Guesses of an excluded answer never score and are
    not counted.  Each answer is counted straight from ``phi``, so no
    one-hot array of the guesses is built.
    """
    allowed = _allowed(k)
    phi = np.asarray(phi)
    if phi.shape[-1:] != allowed.shape[:1]:
        raise ValueError(f"outcome function domain does not match k = {k}")
    if phi.size and not 0 <= phi.min() <= phi.max() < len(INPUT_LABELS):
        raise ValueError("guesses must be indices into INPUT_LABELS")
    per_answer = [
        np.count_nonzero((phi == y) & allowed[:, y], axis=-1)
        for y in range(len(INPUT_LABELS))
    ]
    return np.stack(per_answer, axis=-1)


def gamma(
    c: Sequence[int] | np.ndarray, inner_product: float | np.ndarray
) -> float | np.ndarray:
    """Unnormalized discrimination score of a count vector ``(ap, am, bp, bm)``.

    ``total + sqrt(da^2 + db^2 + 2 da db (a.b))`` with ``da, db`` the
    signed count differences along the two axes.  Monotone in each count,
    which is what makes the constrained maxima easy to read off.  The
    radicand is regrouped around the exact integer square it approaches,
    so it does not cancel as ``a.b`` nears ``+-1``.  One count vector gives
    a ``float``; an integer array of shape ``[..., 4]`` gives one score per
    row, equal to the score of that row on its own.  An array of inner
    products puts its axes first: scores ``[j, ...]`` for inner product ``j``.
    """
    c = np.asarray(c, dtype=np.int64)
    ip = np.asarray(inner_product, dtype=float)
    if not np.all((ip >= -1.0) & (ip <= 1.0)):
        raise ValueError(f"inner product must lie in [-1, 1], got {inner_product!r}")
    inner_product = ip.reshape(ip.shape + (1,) * (c.ndim - 1))
    ap, am, bp, bm = np.moveaxis(c, -1, 0)
    da = ap - am
    db = bp - bm
    cross = 2.0 * da * db
    radicand = np.where(
        da * db < 0,
        (da + db) ** 2 - cross * (1.0 - inner_product),
        (da - db) ** 2 + cross * (1.0 + inner_product),
    )
    return float_or_array(ap + am + bp + bm + np.sqrt(np.maximum(radicand, 0.0)))


@dataclass(frozen=True, eq=False)
class CountClasses:
    """The outcome functions of one ``k``, grouped by count vector.

    ``slots[i]`` is the count vector of class ``i`` as
    ``(alpha_plus, alpha_minus, beta_plus, beta_minus)`` and
    ``multiplicity[i]`` is how many functions share it.  ``class_of[phi]``
    is the class of outcome function ``phi``.  Classes are numbered in the
    order their first function appears.
    """

    slots: np.ndarray
    multiplicity: np.ndarray
    class_of: np.ndarray


@lru_cache(maxsize=None)
def count_classes(k: int) -> CountClasses:
    """Count classes of all ``4^|T|`` outcome functions, built on first use.

    66 classes for ``k = 1`` and 144 for ``k = 2``.
    """
    all_counts = counts(enumerate_functions(k), k)
    slots, first, inverse = np.unique(
        all_counts, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    class_of = np.argsort(order)[inverse.reshape(-1)]
    return CountClasses(
        slots=_readonly(slots[order]),
        multiplicity=_readonly(np.bincount(class_of)),
        class_of=_readonly(class_of),
    )


@dataclass(frozen=True, eq=False)
class AuxiliaryEnsemble:
    """The ensemble ``{e(phi)}`` whose discrimination solves the game.

    Every member is proportional to a count-weighted mix of task states
    and depends on ``phi`` only through its count class: ``e(phi)`` is
    ``scalars[i] * I + blochs[..., i, :] . sigma`` with ``i`` the class of
    ``phi`` in :func:`count_classes`.  The scalars depend on the counts
    alone, so one row of them serves every angle of a stack; ``blochs``
    puts the stack axes first.  ``member(phi)`` returns the row of one
    outcome function.  ``normalization`` is the constant ``C`` that makes
    the traces sum to one; ``lambda_max`` is the best single-member score
    ``max_phi (scalar + |bloch|)`` and ``inner_product`` is ``a . b``, one
    of each per angle.  ``dual_gap`` is the largest member eigenvalue minus
    ``lambda_max``, positive when ``lambda_max`` is not the maximum, taken
    from ``scores`` once per instance.  ``scores`` are the class scores
    behind ``lambda_max``, which :func:`build_auxiliary` hands over; an
    ensemble made by ``dataclasses.replace`` scores its own arrays.
    """

    k: int
    scalars: np.ndarray
    blochs: np.ndarray
    normalization: float
    lambda_max: float | np.ndarray
    inner_product: float | np.ndarray

    @property
    def stack(self) -> tuple[int, ...]:
        """Shape of the leading angle axes; ``()`` for one angle."""
        return self.blochs.shape[:-2]

    def _classes(self, phis: Iterable[int]) -> np.ndarray:
        """Count class of each outcome function in ``phis``, as an index array."""
        class_of = count_classes(self.k).class_of
        phis = list(phis)
        for phi in phis:
            if not (isinstance(phi, (int, np.integer)) and 0 <= phi < len(class_of)):
                raise ValueError(f"{phi!r} is not an outcome function for k = {self.k}")
        return class_of[phis]

    def member(self, phi: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``(scalar, bloch)`` of ``e(phi)`` for an outcome function ``phi``."""
        (i,) = self._classes([phi])
        return self.scalars[..., i], self.blochs[..., i, :]

    @cached_property
    def scores(self) -> np.ndarray:
        """Each class's score ``scalar + |bloch|``, ``[..., class]``."""
        return _scores(self.scalars, self.blochs)

    @cached_property
    def dual_gap(self) -> float | np.ndarray:
        top = np.maximum.reduce(self.scores, axis=-1)
        return float_or_array(top - self.lambda_max)

    def total_trace(self) -> float | np.ndarray:
        """Sum of the member traces; one per angle, the same for all."""
        total = 2.0 * float(count_classes(self.k).multiplicity @ self.scalars)
        return float_or_array(np.full(self.stack, total))


def _scores(scalars: np.ndarray, blochs: np.ndarray) -> np.ndarray:
    """Discrimination score of each class: its member's largest eigenvalue."""
    return scalars + np.sqrt(np.vecdot(blochs, blochs))


def build_auxiliary(theta: float | np.ndarray, k: int) -> AuxiliaryEnsemble:
    """Construct the auxiliary ensemble for the four-state task.

    Each member is ``(total * I + (da a + db b).sigma) / (24 C)`` where
    the counts come from :func:`counts` and ``C`` is fixed by unit total
    trace: ``C = 64`` for ``k = 1`` and ``C = 1024`` for ``k = 2``.  A 1-D
    array of angles gives the ensembles of all of them stacked:
    ``blochs[n, class, 3]`` and ``n`` values of ``lambda_max``.
    """
    a, b = basis_vectors(theta)
    k = _check_k(k, SOLVER_K)
    classes = count_classes(k)
    slots = classes.slots
    totals = slots.sum(axis=1)
    da = slots[:, 0] - slots[:, 1]
    db = slots[:, 2] - slots[:, 3]
    # Unit total trace forces 12 C = sum of all counts.
    c_norm = int(classes.multiplicity @ totals) / 12.0
    scale = 1.0 / (24.0 * c_norm)
    scalars = _readonly(totals * scale)
    rows_a, rows_b = a[..., None, :], b[..., None, :]
    blochs = _readonly((da[:, None] * rows_a + db[:, None] * rows_b) * scale)
    scores = _scores(scalars, blochs)
    aux = AuxiliaryEnsemble(
        k=k,
        scalars=scalars,
        blochs=blochs,
        normalization=c_norm,
        lambda_max=float_or_array(np.maximum.reduce(scores, -1)),
        inner_product=float_or_array(np.vecdot(a, b)),
    )
    vars(aux)["scores"] = scores  # fills the cache of the property
    return aux


def lambda_argmax(
    aux: AuxiliaryEnsemble, tol: float = GAMMA_TOL
) -> tuple[float | np.ndarray, frozenset[int] | tuple[frozenset[int], ...]]:
    """Best member score and the set of members attaining it.

    Each count class is scored once and only the winning classes expand
    back to outcome functions.  The tie tolerance applies on the
    unnormalized (gamma) scale, where distinct scores are well separated;
    degenerate geometries such as ``a . b = 0`` then report every
    maximizer.  A stacked ensemble gives one score per angle and a tuple
    of the angles' maximizer sets.
    """
    scale = 24.0 * aux.normalization
    scores = aux.scores
    best = np.maximum.reduce(scores, axis=-1)
    wins = scores * scale >= best[..., None] * scale - tol
    chosen = wins[..., count_classes(aux.k).class_of]
    sets = tuple(
        frozenset(np.flatnonzero(row).tolist())
        for row in chosen.reshape(-1, chosen.shape[-1])
    )
    return float_or_array(best), sets if aux.stack else sets[0]


@lru_cache(maxsize=None)
def fallback_function(k: int, sign: int, order: str, flip_a: bool = False) -> int:
    """The outcome function attached to one effect of the paired measurement.

    It guesses the primary state, falls back to the secondary, then to
    the secondary's opposite.  ``order = "ab"`` makes ``a`` primary and
    ``b`` secondary; ``order = "ba"`` swaps the roles.  ``sign`` (+1 or
    -1) picks the ``+`` or ``-`` end of both axes.  ``flip_a`` replaces
    ``a`` with its antipode, which yields the extra maximizers at
    ``a . b = 0``.  Each answer is computed once and then cached.
    """
    if order not in ("ab", "ba"):
        raise ValueError(f"order must be 'ab' or 'ba', got {order!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    a_label = signed_label("a", -sign if flip_a else sign)
    b_label = signed_label("b", sign)
    primary, secondary = (a_label, b_label) if order == "ab" else (b_label, a_label)
    chain = (primary, secondary, negate_label(secondary))
    return _function_index(
        next(y for y in chain if y not in s) for s in exclusion_sets(k)
    )


def paired_measurement(
    theta: float | np.ndarray, k: int, order: str, flip_a: bool = False
) -> Measurement:
    """Two-effect optimal measurement with outcome-function labels.

    For ``order = "ab"`` the effects project onto ``+-n`` and are labelled
    by the fallback functions preferring ``+-a``; for ``order = "ba"`` the
    direction is ``m``, preferring ``+-b``.  ``m`` and ``n`` are the
    task's tilted axes (:func:`~anticipative.task.kind_axes`), taken with
    ``-a`` in place of ``a`` under ``flip_a``.  All remaining outcome
    functions implicitly carry the zero effect.  The labels do not depend
    on the angle, so an array of angles gives one measurement with
    ``blochs[n, 2, 3]``.
    """
    plus = fallback_function(k, +1, order, flip_a)
    minus = fallback_function(k, -1, order, flip_a)
    a, b = basis_vectors(theta)
    m_axis, n_axis = kind_axes(ANTICIPATIVE, -a if flip_a else a, b)
    axis = n_axis if order == "ab" else m_axis
    blochs = 0.5 * np.array((axis, -axis)).swapaxes(0, -2)
    return Measurement((plus, minus), np.full(blochs.shape[:-1], 0.5), blochs)


def certificate_residual(aux: AuxiliaryEnsemble, m: Measurement) -> float | np.ndarray:
    """Largest component of ``e(phi) M(phi) - Lambda M(phi)`` over effects.

    The optimality condition demands the operator product itself (not just
    its Hermitian part) vanish on every effect actually used, so the
    residual tracks real and imaginary Pauli components.  Stacks of
    ensembles and measurements broadcast; each entry gives one residual.
    """
    rows = aux._classes(m.outcomes)
    s, v = operator_product(
        aux.scalars[rows], aux.blochs[..., rows, :], m.scalars, m.blochs
    )
    lam = np.asarray(aux.lambda_max)[..., None]
    scalar = np.maximum.reduce(np.abs(s - lam * m.scalars), axis=-1)
    vector = np.abs(v - lam[..., None] * m.blochs)
    return float_or_array(np.maximum(scalar, np.maximum.reduce(vector, axis=(-2, -1))))


def _valid_entries(m: Measurement, tol: float) -> np.ndarray:
    """Per stack entry of ``m``: whether that entry alone is a valid measurement."""
    valid = np.ones(m.stack, dtype=bool)
    for i in np.ndindex(m.stack):
        try:
            Measurement(m.outcomes, m.scalars[i], m.blochs[i]).validate(tol)
        except ValueError:
            valid[i] = False
    return valid


def certify_optimal(
    aux: AuxiliaryEnsemble,
    m: Measurement,
    tol: float = DEFAULT_TOL,
    *,
    residual: float | np.ndarray | None = None,
) -> bool | np.ndarray:
    """Exact optimality test for a discrimination measurement.

    True iff ``m`` is a valid measurement, every effect satisfies
    ``e(phi) M(phi) = Lambda M(phi)`` within ``tol`` and no member's top
    eigenvalue exceeds ``Lambda`` by more than ``tol`` (``aux.dual_gap``);
    stationarity alone accepts any ``Lambda`` that a used member attains.
    Outcome functions without an entry in ``m`` carry the zero effect.
    Stacks give one verdict per entry, each judged on that entry alone.
    ``residual``, when the caller has it, is ``certificate_residual(aux, m)``.
    """
    valid = True
    try:
        m.validate(tol)
    except ValueError:
        valid = _valid_entries(m, tol)
        if not np.logical_or.reduce(valid, axis=None):
            return valid if m.stack else False
    if residual is None:
        residual = certificate_residual(aux, m)
    return valid & (residual <= tol) & (aux.dual_gap <= tol)


def convex_combination(
    measurements: Iterable[Measurement], weights: Iterable[float] | None = None
) -> Measurement:
    """Outcome-wise convex mix of measurements over a shared label space.

    Stacked measurements mix entry by entry; their stack axes broadcast.
    """
    measurements = list(measurements)
    if not measurements:
        raise ValueError("convex_combination needs at least one measurement")
    if weights is None:
        weights = [1.0 / len(measurements)] * len(measurements)
    weights = list(weights)
    if not all(0.0 <= w < np.inf for w in weights):
        raise ValueError(f"weights must be finite and non-negative, got {weights}")
    if len(weights) != len(measurements) or abs(sum(weights) - 1.0) > DEFAULT_TOL:
        raise ValueError("weights must match the measurements and sum to 1")
    labels = tuple(dict.fromkeys(z for m in measurements for z in m))
    stack = np.broadcast_shapes(*(m.stack for m in measurements))
    scalars = np.zeros(stack + (len(labels),))
    blochs = np.zeros(stack + (len(labels), 3))
    for w, m in zip(weights, measurements):
        rows = [labels.index(z) for z in m]
        scalars[..., rows] += w * m.scalars
        blochs[..., rows, :] += w * m.blochs
    return Measurement(labels, scalars, blochs)


def reduce_to_povm(
    aux: AuxiliaryEnsemble,
    m_ab: Measurement,
    m_ba: Measurement,
    tol: float = DEFAULT_TOL,
) -> tuple[Measurement, PostProcessing]:
    """Average the two paired measurements into the four-outcome POVM.

    Outcomes relabel as ``phi_ab(+-) -> +-n`` and ``phi_ba(+-) -> +-m``;
    the returned post-processing guesses what the underlying outcome
    function dictates, which reproduces the priority-table strategy.  Both
    inputs must pass the optimality certificate at every entry of a stack;
    the POVM then carries their stack axes and the strategy serves them all.
    """
    k = aux.k
    for name, m in (("m_ab", m_ab), ("m_ba", m_ba)):
        if not np.logical_and.reduce(certify_optimal(aux, m, tol), axis=None):
            raise ValueError(f"{name} does not certify as optimal")
    layout = {
        "+n": (m_ab, fallback_function(k, +1, "ab")),
        "-n": (m_ab, fallback_function(k, -1, "ab")),
        "+m": (m_ba, fallback_function(k, +1, "ba")),
        "-m": (m_ba, fallback_function(k, -1, "ba")),
    }
    outcomes = KIND_OUTCOMES[ANTICIPATIVE]
    stack = np.broadcast_shapes(m_ab.stack, m_ba.stack)
    scalars = np.empty(stack + (len(outcomes),))
    blochs = np.empty(stack + (len(outcomes), 3))
    for j, label in enumerate(outcomes):
        m, phi = layout[label]
        try:
            i = m.index(phi)
        except KeyError:
            raise ValueError(
                f"expected outcome function {phi!r} among {label!r} effects"
            ) from None
        scalars[..., j], blochs[..., j, :] = m.scalars[..., i], m.blochs[..., i, :]
    picks = enumerate_functions(k)[[layout[z][1] for z in outcomes]]
    guess = np.eye(len(INPUT_LABELS))[picks.T]
    povm = Measurement(outcomes, 0.5 * scalars, 0.5 * blochs)
    return povm, PostProcessing(exclusion_sets(k), outcomes, INPUT_LABELS, guess)


def anticipative_success(aux: AuxiliaryEnsemble) -> float:
    """Game value from the discrimination value: ``2 C Lambda``."""
    return 2.0 * aux.normalization * aux.lambda_max

