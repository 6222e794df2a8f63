"""Command-line interface.

Four commands: ``curves`` writes the analytic success curves as CSV,
``simulate`` adds seeded empirical estimates, ``solve`` prints the
brute-force solution of the anticipative problem at one angle, and
``verify`` runs the self-check suite.  Exit codes: 0 on success, 1 when
verification fails, 2 on invalid configuration.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from . import simulate, solver, task, verify

CSV_HEADER = "theta,kind,k,analytic,empirical,stderr,shots,seed"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated settings of one CLI invocation."""

    command: str
    theta_min: float = math.pi / 50
    theta_max: float = math.pi / 2
    points: int = 25
    shots: int = 20000
    seed: int = 0
    noise_depol: float = 0.0
    noise_readout: float = 0.023
    output: str | None = None
    tol: float = 1e-12
    theta: float = math.pi / 2
    k: int = 1
    fault: str | None = None

    def grid(self):
        return task.theta_grid(self.points, self.theta_min, self.theta_max)

    def noise(self) -> simulate.NoiseModel:
        return simulate.NoiseModel(self.noise_depol, self.noise_readout)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--theta-min", type=float, default=math.pi / 50)
    sub.add_argument("--theta-max", type=float, default=math.pi / 2)
    sub.add_argument("--points", type=int, default=25)


def _run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--shots", type=int, default=20000)
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticipative",
        description="Guessing games with leaked wrong answers on four qubit states",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    curves = commands.add_parser(
        "curves", help="write analytic success curves as CSV"
    )
    _grid_flags(curves)
    _run_flags(curves)
    curves.add_argument("--output", default=None)

    sim = commands.add_parser(
        "simulate", help="write analytic plus simulated success curves as CSV"
    )
    _grid_flags(sim)
    _run_flags(sim)
    sim.add_argument("--noise-depol", type=float, default=0.0)
    sim.add_argument("--noise-readout", type=float, default=0.023)
    sim.add_argument("--output", default=None)

    solve = commands.add_parser(
        "solve", help="solve the anticipative problem at one angle"
    )
    solve.add_argument("--theta", type=float, default=math.pi / 2)
    solve.add_argument("--k", type=int, choices=(1, 2), default=1)

    ver = commands.add_parser("verify", help="run the self-check suite")
    ver.add_argument("--tol", type=float, default=1e-12)
    ver.add_argument("--points", type=int, default=25)
    ver.add_argument("--seed", type=int, default=2026)
    ver.add_argument(
        "--inject-fault",
        dest="fault",
        choices=verify.FAULTS,
        default=None,
        help="deliberately break an internal quantity to exercise failure paths",
    )

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on its first call, not at import."""
    return build_parser()


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**vars(args))
    try:
        if cfg.command in ("curves", "simulate", "verify"):
            cfg.grid()
        if cfg.command == "simulate":
            cfg.noise()
            simulate.check_distinct_thetas(cfg.grid())
        if cfg.command in ("curves", "simulate") and cfg.shots < 1:
            raise ValueError(f"shots must be >= 1, got {cfg.shots}")
        if cfg.command == "solve":
            task.check_theta(cfg.theta)
        if cfg.seed < 0:
            raise ValueError(f"seed must be >= 0, got {cfg.seed}")
        if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {cfg.tol!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def emit_curves(cfg: RunConfig) -> list[str]:
    """Build the CSV lines for ``curves`` or ``simulate``.

    One row per (theta, kind, k) in grid order; the empirical and stderr
    columns stay empty unless the command simulates.  All numbers carry 12
    significant digits, so reruns with one configuration are byte-stable.
    """
    grid = cfg.grid()
    estimates = None
    if cfg.command == "simulate":
        plan = simulate.plan_experiment(grid, shots=cfg.shots, seed=cfg.seed)
        estimates = simulate.simulate_curves(plan, cfg.noise())
    lines = [CSV_HEADER]
    for theta in grid:
        for kind in task.KINDS:
            for k in task.K_VALUES:
                analytic = task.closed_form(task.Scenario(kind, k), theta)
                empirical = stderr = ""
                if estimates is not None:
                    est = estimates[(float(theta), kind, k)]
                    empirical = _fmt(est.value)
                    stderr = _fmt(est.stderr)
                lines.append(
                    f"{_fmt(theta)},{kind},{k},{_fmt(analytic)},"
                    f"{empirical},{stderr},{cfg.shots},{cfg.seed}"
                )
    return lines


def _write_lines(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_solve(cfg: RunConfig) -> list[str]:
    aux = solver.build_auxiliary(cfg.theta, cfg.k)
    best, winners = solver.lambda_argmax(aux)
    m_dir, n_dir = task.anticipative_directions(cfg.theta)
    lines = [
        f"theta = {_fmt(cfg.theta)}",
        f"k = {cfg.k}",
        f"C = {_fmt(aux.normalization)}",
        f"Lambda = {_fmt(best)}",
        f"maximizers = {len(winners)}",
        f"success = {_fmt(solver.anticipative_success(aux))}",
        f"direction m = [{', '.join(_fmt(v) for v in m_dir)}]",
        f"direction n = [{', '.join(_fmt(v) for v in n_dir)}]",
        f"cos(omega) = {_fmt(float(m_dir @ n_dir))}",
    ]
    return lines


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.command in ("curves", "simulate"):
        try:
            _write_lines(emit_curves(cfg), cfg.output)
        except OSError as exc:
            print(f"error: cannot write {cfg.output}: {exc.strerror}", file=sys.stderr)
            return 2
        return 0
    if cfg.command == "solve":
        _write_lines(run_solve(cfg), None)
        return 0
    report = verify.run_verification(
        tol=cfg.tol, points=cfg.points, seed=cfg.seed, fault=cfg.fault
    )
    _write_lines(report.lines(), None)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
