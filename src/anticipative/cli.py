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
from functools import lru_cache

from . import simulate, solver, task, verify

CSV_HEADER = "theta,kind,k,analytic,empirical,stderr,shots,seed"


class ConfigError(ValueError):
    pass


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


def _grid(args: argparse.Namespace):
    return task.theta_grid(args.points, args.theta_min, args.theta_max)


def _noise(args: argparse.Namespace) -> simulate.NoiseModel:
    return simulate.NoiseModel(args.noise_depol, args.noise_readout)


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Return the parsed arguments once valid; ConfigError names the first fault."""
    try:
        if args.command == "verify":
            task.theta_grid(args.points)
        elif args.command != "solve":
            grid = _grid(args)
        if args.command == "simulate":
            _noise(args)
            simulate.check_distinct_thetas(grid)
        if args.command in ("curves", "simulate") and args.shots < 1:
            raise ValueError(f"shots must be >= 1, got {args.shots}")
        if args.command == "solve":
            task.check_theta(args.theta)
        else:
            task.check_count("seed", args.seed, 0)
        if args.command == "verify":
            verify.check_tol(args.tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return args


def emit_curves(args: argparse.Namespace) -> list[str]:
    """Build the CSV lines for ``curves`` or ``simulate``.

    One row per (theta, kind, k) in grid order, the analytic values from one
    closed-form call per scenario; the empirical and stderr columns stay
    empty unless the command simulates.  All numbers carry 12 significant
    digits, so reruns with one configuration are byte-stable.
    """
    grid = _grid(args)
    estimates = None
    if args.command == "simulate":
        plan = simulate.plan_experiment(grid, shots=args.shots, seed=args.seed)
        estimates = simulate.simulate_curves(plan, _noise(args))
    analytic = [task.closed_form(s, grid).tolist() for s in task.SCENARIOS]
    lines = [CSV_HEADER]
    for i, theta in enumerate(grid):
        for s, values in zip(task.SCENARIOS, analytic):
            empirical = stderr = ""
            if estimates is not None:
                est = estimates[(float(theta), s.kind, s.k)]
                empirical = _fmt(est.value)
                stderr = _fmt(est.stderr)
            lines.append(
                f"{_fmt(theta)},{s.kind},{s.k},{_fmt(values[i])},"
                f"{empirical},{stderr},{args.shots},{args.seed}"
            )
    return lines


def _write_lines(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_solve(args: argparse.Namespace) -> list[str]:
    aux = solver.build_auxiliary(args.theta, args.k)
    best, winners = solver.lambda_argmax(aux)
    m_dir, n_dir = task.anticipative_directions(args.theta)
    lines = [
        f"theta = {_fmt(args.theta)}",
        f"k = {args.k}",
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
        config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command in ("curves", "simulate"):
        try:
            _write_lines(emit_curves(args), args.output)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
        return 0
    if args.command == "solve":
        _write_lines(run_solve(args), None)
        return 0
    report = verify.run_verification(
        tol=args.tol, points=args.points, seed=args.seed, fault=args.fault
    )
    _write_lines(report.lines(), None)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
