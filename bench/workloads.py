"""The four operation kinds and the workloads built from them.

Every workload runs rounds of all four kinds, because each result carries
every end-to-end metric.  A workload's own kind runs at full size and
takes most of each round; the other three run once per round at a small
fixed size, so their metrics exist on every workload and every layer is
reached in every traced run.  Inputs come from ``random.Random`` streams
keyed by the seed and the kind, so they do not depend on the sizes.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle

#: Depolarizing strength of both simulate kinds.  Readout flips stay at 0:
#: the sampler applies them twice (see the benchmark README).
DEPOLARIZING = 0.05

#: Lowest angle of the analytic and wide grids.  The anticipative advantage
#: shrinks like theta^2 / 96, which is still far above rounding here.
THETA_LOW = 0.01


class OpFailed(Exception):
    """The program reported failure (non-zero exit code)."""


@dataclass
class Op:
    """One benchmark operation: ``run`` is timed, ``check`` is not."""

    kind: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    first: list = field(default_factory=list)

    def check_repeatable(self, output) -> list[str]:
        """Same seed and inputs must give identical output on every repeat."""
        if not self.first:
            self.first.append(output)
        return [] if output == self.first[0] else ["output differs from the first repeat"]


def _cli(mods, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods.cli.main(argv)
    if code != 0:
        raise OpFailed(f"anticipative {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _shifted_grid(rng: random.Random, points: int) -> list[float]:
    """``points`` evenly spaced angles in (THETA_LOW, pi/2), offset by the seed."""
    step = (math.pi / 2 - THETA_LOW) / points
    offset = rng.random()
    return [THETA_LOW + (i + offset) * step for i in range(points)]


def certify_op(mods, rng: random.Random, verify_points: int | None) -> Op:
    """``verify`` (default points unless given), then ``solve`` for k=1,2 at two angles.

    ``theta_generic`` avoids both ends of the range: it must have exactly
    four maximizers, and pi/2 (eight maximizers) is solved separately.
    """
    verify_argv = ["verify", "--seed", str(rng.randrange(2**31))]
    if verify_points is not None:
        verify_argv += ["--points", str(verify_points)]
    theta_generic = rng.uniform(0.1, 1.45)
    solves = [(k, theta, 4 if theta == theta_generic else 8)
              for k in (1, 2) for theta in (theta_generic, math.pi / 2)]

    def run():
        report = _cli(mods, verify_argv)
        outs = [_cli(mods, ["solve", "--theta", repr(theta), "--k", str(k)])
                for k, theta, _ in solves]
        return report, outs

    def check(output):
        report, outs = output
        problems = oracle.check_verify(report)
        for (k, theta, maximizers), text in zip(solves, outs):
            problems += oracle.check_solve(text, k, theta, maximizers)
        return problems

    return Op("certify", 1, run, check)


def analytic_op(mods, rng: random.Random, points: int) -> Op:
    """``task.pipeline_success`` for all six scenarios on a fine shifted grid."""
    grid = _shifted_grid(rng, points)
    task = mods.task

    def run():
        return {(theta, s.kind, s.k): task.pipeline_success(s, theta)
                for theta in grid for s in task.SCENARIOS}

    return Op("analytic", 6 * points, run, oracle.check_pipeline)


def deep_op(mods, rng: random.Random, points: int, shots: int) -> Op:
    """``simulate`` through the CLI: even bases, depolarizing noise, no readout flip."""
    theta_min = rng.uniform(0.1, 0.5)
    theta_max = rng.uniform(1.0, math.pi / 2)
    seed = rng.randrange(2**31)
    argv = ["simulate", "--theta-min", repr(theta_min), "--theta-max", repr(theta_max),
            "--points", str(points), "--shots", str(shots), "--seed", str(seed),
            "--noise-depol", repr(DEPOLARIZING), "--noise-readout", "0"]
    step = (theta_max - theta_min) / (points - 1)
    thetas = [theta_min + i * step for i in range(points)]

    def run():
        return _cli(mods, argv)

    def check(text):
        return op.check_repeatable(text) + oracle.check_curves_csv(
            text, thetas, shots, seed, DEPOLARIZING)

    op = Op("deep", points * 16 * shots, run, check)
    return op


def wide_op(mods, rng: random.Random, points: int, shots: int = 100) -> Op:
    """``plan_experiment`` in per-shot basis mode plus ``simulate_curves``."""
    grid = _shifted_grid(rng, points)
    seed = rng.randrange(2**31)
    simulate = mods.simulate
    noise = simulate.NoiseModel(DEPOLARIZING, 0.0)
    expected = {}

    def run():
        plan = simulate.plan_experiment(grid, shots=shots, seed=seed, basis_mode="per-shot")
        return simulate.simulate_curves(plan, noise)

    def check(curves):
        if not expected:
            expected.update({(t, kind, k): oracle.noisy_success(kind, k, t, DEPOLARIZING)
                             for t in grid for kind in oracle.KINDS for k in oracle.K_VALUES})
        if set(curves) != set(expected):
            return [f"{len(curves)} estimates, expected {len(expected)}"]
        problems = [f"{est.shots} shots at {key}, expected {oracle.pooled_shots(shots)}"
                    for key, est in curves.items() if est.shots != oracle.pooled_shots(shots)]
        estimates = {key: (est.value, est.stderr) for key, est in curves.items()}
        return problems + op.check_repeatable(estimates) + oracle.check_estimates(
            estimates, DEPOLARIZING, shots, expected)

    op = Op("wide", 8 * points, run, check)
    return op


OP_KINDS = {"certify": certify_op, "analytic": analytic_op, "deep": deep_op, "wide": wide_op}

#: Size arguments of each kind at small size (the other workloads' probes).
SMALL = {"certify": (1,), "analytic": (150,), "deep": (2, 500_000), "wide": (120,)}

#: Workload -> (its own kind, full size arguments, repeats per round).
WORKLOADS = {
    "certify": ("certify", (None,), 1),
    "analytic-sweep": ("analytic", (250,), 3),
    "simulate-deep": ("deep", (3, 1_000_000), 3),
    "simulate-wide": ("wide", (400,), 4),
}


def build_round(mods, workload: str, seed: int) -> list[Op]:
    """The operations of one round, in order; every round repeats them."""
    primary, full, repeats = WORKLOADS[workload]
    ops = []
    for kind, make_op in OP_KINDS.items():
        rng = random.Random(f"{seed}:{kind}")
        if kind == primary:
            op = make_op(mods, rng, *full)
            ops += [op] * repeats
        else:
            ops.append(make_op(mods, rng, *SMALL[kind]))
    return ops
