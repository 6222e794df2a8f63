"""Span tracing around the program's public functions, from outside ``src/``.

``install`` replaces each listed function with a recording wrapper in every
loaded ``anticipative`` module that holds it, so names bound with
``from .x import y`` are wrapped in the importing module too.  A span is
one wrapped call: name, start, end, parent span and the benchmark
operation it ran in, plus two integer tags (the ``k`` of a solver call,
the shots of a sampled run, ...).  Spans stay in flat arrays until the run
ends; ``layer_metrics`` then reduces them to the per-layer figures.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

import numpy as np


def _k_of_theta_k(theta, k, *args, **kwargs):
    return k, 0


def _k_of_aux(aux, *args, **kwargs):
    return aux.k, 0


def _k_of_scenario(scenario, theta, *args, **kwargs):
    return scenario.k, 0


def _kind_k(kind, k, *args, **kwargs):
    return ("standard", "anticipative").index(kind) * 3 + k, 0


#: ``module.function`` -> tag function of the call's arguments, or ``None``.
WRAPPED = {
    "cli.main": None,
    "cli.emit_curves": None,
    "verify.run_verification": None,
    "solver.build_auxiliary": _k_of_theta_k,
    "solver.lambda_argmax": _k_of_aux,
    "solver.certify_optimal": None,
    "solver.reduce_to_povm": None,
    "solver.counts": None,
    "solver.gamma": None,
    "task.pipeline_success": _k_of_scenario,
    "bloch.joint_table": None,
    "game.exclusion_info_map": None,
    "game.bayes_optimal_post": None,
    "game.success_with_cpost": None,
    "game.success_no_cpost": None,
    "simulate.plan_experiment": None,
    "simulate.sample_run": None,
    "simulate.empirical_success": None,
    "simulate.success_weights": _kind_k,
    "simulate.simulate_curves": None,
    "simulate.RunResult.tallies": None,
}

LAYERS = ("cli", "verify", "solver", "task", "game", "bloch", "simulate")


class Tracer:
    """In-memory span store; ``op`` is the benchmark operation now running."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self.size = array("q")
        self.stack = [-1]
        self.op = -1
        self.op_kinds: list[str] = []
        self.patches: list[tuple] = []

    def begin_op(self, kind: str) -> None:
        self.op = len(self.op_kinds)
        self.op_kinds.append(kind)

    def wrap(self, name: str, fn, tag_fn):
        name_id = len(self.names)
        self.names.append(name)
        sample_run = name == "simulate.sample_run"
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.op_of.append(self.op)
            self.end.append(0.0)
            self.tag.append(0)
            self.size.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if sample_run:
                self.tag[i] = result.run.shots
                self.size[i] = result.outcomes.nbytes + (
                    0 if result.bases is None else result.bases.nbytes
                )
            elif tag_fn is not None:
                self.tag[i], self.size[i] = tag_fn(*args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` wherever the package binds it."""
        if not self.patches:
            modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "anticipative"]
            for name, tag_fn in WRAPPED.items():
                module_name, *path = name.split(".")
                owner = sys.modules[f"anticipative.{module_name}"]
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
                wrapped = self.wrap(name, original, tag_fn)
                holders = [owner] if len(path) > 1 else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self.patches.append((holder, key, original, wrapped))
        for holder, key, _, wrapped in self.patches:
            setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original, _ in self.patches:
            setattr(holder, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "tag": np.frombuffer(self.tag, dtype=np.int64),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(
            path, names=np.array(self.names), op_kinds=np.array(self.op_kinds), **self.arrays()
        )


def median(values) -> float | None:
    """Median of an iterable; ``None`` (JSON null) when it is empty, never a number."""
    values = list(values)
    return float(statistics.median(values)) if values else None


class SpanTable:
    """Per-layer reductions of a finished trace.

    Each figure is taken over the operations of one kind: the kind whose
    end-to-end metric it should move.  Where two kinds qualify, the
    workload's own kind is used when it is one of them.  So the figure
    exists on every workload, at full size on its own workload and at the
    small size elsewhere.  Totals are per operation (median over the
    operations); per-call figures are medians over the calls inside them.
    """

    def __init__(self, tracer: Tracer, primary: str) -> None:
        cols = tracer.arrays()
        self.name = cols["name"]
        self.op = cols["op"]
        self.tag = cols["tag"]
        self.size = cols["size"]
        self.parent = cols["parent"]
        self.dur = cols["end"] - cols["start"]
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.layer = np.array([n.split(".")[0] for n in tracer.names])[self.name]
        self.op_kinds = tracer.op_kinds
        self.primary = primary

    def ops(self, kinds: tuple[str, ...]) -> np.ndarray:
        """Sorted ids of the operations a figure is taken over."""
        kind = self.primary if self.primary in kinds else kinds[0]
        return np.array([i for i, k in enumerate(self.op_kinds) if k == kind], dtype=np.int32)

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name, [self.ids[n] for n in names])

    def per_op(self, mask: np.ndarray, values: np.ndarray, kinds) -> np.ndarray:
        """Sum of ``values`` over ``mask`` in each operation of ``kinds``."""
        ops = self.ops(kinds)
        keep = mask & np.isin(self.op, ops)
        sums = np.zeros(len(ops))
        np.add.at(sums, np.searchsorted(ops, self.op[keep]), values[keep])
        return sums

    def total(self, kinds, *names: str, column: str = "dur") -> float:
        return median(self.per_op(self.mask(*names), getattr(self, column), kinds))

    def count(self, kinds, name: str) -> float:
        return median(self.per_op(self.mask(name), np.ones_like(self.dur), kinds))

    def calls(self, kinds, name: str, tags=None) -> np.ndarray:
        """Span indices of ``name`` (optionally only some tags) in operations of ``kinds``."""
        mask = self.mask(name) & np.isin(self.op, self.ops(kinds))
        if tags is not None:
            mask &= np.isin(self.tag, tags)
        return np.flatnonzero(mask)

    def per_call(self, kinds, name: str, scale: float, tags=None, column: str = "dur") -> float:
        return median(getattr(self, column)[self.calls(kinds, name, tags)] * scale)

    def tallies_per_run(self, kinds) -> float:
        ones = np.ones_like(self.dur)
        tallies = self.per_op(self.mask("simulate.RunResult.tallies"), ones, kinds)
        return median(tallies / self.per_op(self.mask("simulate.sample_run"), ones, kinds))

    def outcome_mb_held(self, kinds) -> float:
        """Largest outcome-array footprint held by one ``simulate_curves`` call.

        Computed from the array sizes of the sampled runs, not measured.
        """
        runs = self.mask("simulate.sample_run")
        held = np.zeros_like(self.dur)
        np.add.at(held, self.parent[runs], self.size[runs])
        curves = self.calls(kinds, "simulate.simulate_curves")
        return float(held[curves].max()) / 1e6 if len(curves) else None

    def weights_useful_ratio(self, kinds) -> float:
        """Distinct (kind, k) weight tables over tables built, per operation."""
        spans = self.calls(kinds, "simulate.success_weights")
        ratios = []
        for op in np.unique(self.op[spans]):
            tags = self.tag[spans][self.op[spans] == op]
            ratios.append(len(np.unique(tags)) / len(tags))
        return median(ratios)


CERTIFY, ANALYTIC, DEEP, WIDE = ("certify",), ("analytic",), ("deep",), ("wide",)

#: Kinds each layer's self time is taken over.
LAYER_KINDS = {
    "cli": ("certify", "deep"),
    "verify": CERTIFY,
    "solver": CERTIFY,
    "task": ANALYTIC,
    "game": ANALYTIC,
    "bloch": ANALYTIC,
    "simulate": ("deep", "wide"),
}


def layer_metrics(table: SpanTable) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as ``name -> (value, unit)``."""
    t = table
    runs = t.calls(DEEP, "simulate.sample_run")
    metrics = {
        "cli.main_s": (t.total(("certify", "deep"), "cli.main"), "s"),
        "cli.emit_curves_self_ms": (
            t.per_call(DEEP, "cli.emit_curves", 1e3, column="self_time"), "ms"),
        "verify.run_verification_s": (t.total(CERTIFY, "verify.run_verification"), "s"),
        "verify.run_verification_self_s": (
            t.total(CERTIFY, "verify.run_verification", column="self_time"), "s"),
        "solver.build_auxiliary_calls": (t.count(CERTIFY, "solver.build_auxiliary"), "count"),
        "solver.counts_calls": (t.count(CERTIFY, "solver.counts"), "count"),
        "solver.build_auxiliary_k1_ms": (
            t.per_call(CERTIFY, "solver.build_auxiliary", 1e3, [1]), "ms"),
        "solver.build_auxiliary_k2_ms": (
            t.per_call(CERTIFY, "solver.build_auxiliary", 1e3, [2]), "ms"),
        "solver.lambda_argmax_k1_ms": (t.per_call(CERTIFY, "solver.lambda_argmax", 1e3, [1]), "ms"),
        "solver.lambda_argmax_k2_ms": (t.per_call(CERTIFY, "solver.lambda_argmax", 1e3, [2]), "ms"),
        "solver.certify_optimal_us": (t.per_call(CERTIFY, "solver.certify_optimal", 1e6), "us"),
        "solver.reduce_to_povm_us": (t.per_call(CERTIFY, "solver.reduce_to_povm", 1e6), "us"),
        "solver.build_auxiliary_busy_s": (t.total(CERTIFY, "solver.build_auxiliary"), "s"),
        "solver.lambda_argmax_busy_s": (t.total(CERTIFY, "solver.lambda_argmax"), "s"),
        "solver.oracle_busy_s": (t.total(CERTIFY, "solver.counts", "solver.gamma"), "s"),
        "task.pipeline_success_k0_us": (
            t.per_call(ANALYTIC, "task.pipeline_success", 1e6, [0]), "us"),
        "task.pipeline_success_k12_us": (
            t.per_call(ANALYTIC, "task.pipeline_success", 1e6, [1, 2]), "us"),
        "bloch.joint_table_us": (t.per_call(ANALYTIC, "bloch.joint_table", 1e6), "us"),
        "game.exclusion_info_map_us": (t.per_call(ANALYTIC, "game.exclusion_info_map", 1e6), "us"),
        "game.bayes_optimal_post_us": (t.per_call(ANALYTIC, "game.bayes_optimal_post", 1e6), "us"),
        "game.success_with_cpost_us": (t.per_call(ANALYTIC, "game.success_with_cpost", 1e6), "us"),
        "game.success_no_cpost_us": (t.per_call(ANALYTIC, "game.success_no_cpost", 1e6), "us"),
        "simulate.sample_ns_per_shot": (median(t.dur[runs] / t.tag[runs] * 1e9), "ns"),
        "simulate.outcome_mb_held": (t.outcome_mb_held(DEEP), "MB"),
        "simulate.sample_run_calls": (t.count(WIDE, "simulate.sample_run"), "count"),
        "simulate.sample_run_us": (t.per_call(WIDE, "simulate.sample_run", 1e6), "us"),
        "simulate.plan_experiment_ms": (t.per_call(WIDE, "simulate.plan_experiment", 1e3), "ms"),
        "simulate.empirical_success_ms": (
            t.per_call(WIDE, "simulate.empirical_success", 1e3), "ms"),
        "simulate.empirical_success_busy_s": (t.total(WIDE, "simulate.empirical_success"), "s"),
        "simulate.success_weights_calls": (t.count(WIDE, "simulate.success_weights"), "count"),
        "simulate.success_weights_useful_ratio": (t.weights_useful_ratio(WIDE), "ratio"),
        "simulate.tallies_per_run": (t.tallies_per_run(WIDE), "count"),
        "simulate.simulate_curves_s": (
            t.total(("deep", "wide"), "simulate.simulate_curves"), "s"),
    }
    for layer, kinds in LAYER_KINDS.items():
        metrics[f"{layer}.self_s"] = (
            median(t.per_op(t.layer == layer, t.self_time, kinds)), "s")
    return metrics
