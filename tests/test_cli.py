"""CLI: parsing, validation, CSV schema, exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticipative import cli
from anticipative.cli import (
    CSV_HEADER,
    ConfigError,
    build_parser,
    config_from_args,
    main,
)
from anticipative.verify import FAULTS


#: ``solve`` stdout, byte for byte, per (--theta, --k).
SOLVE_PINS = {
    ("0.8", "1"): (
        "theta = 0.8\n"
        "k = 1\n"
        "C = 64\n"
        "Lambda = 0.00505577212094\n"
        "maximizers = 4\n"
        "success = 0.64713883148\n"
        "direction m = [0.978377794995, -0.206825748544, 0]\n"
        "direction n = [0.978377794995, 0.206825748544, 0]\n"
        "cos(omega) = 0.914446219478\n"
    ),
    ("1.0", "1"): (
        "theta = 1\n"
        "k = 1\n"
        "C = 64\n"
        "Lambda = 0.00497326192363\n"
        "maximizers = 4\n"
        "success = 0.636577526225\n"
        "direction m = [0.964659925854, -0.263498059673, 0]\n"
        "direction n = [0.964659925854, 0.263498059673, 0]\n"
        "cos(omega) = 0.861137545097\n"
    ),
    ("1.5707963267948966", "1"): (
        "theta = 1.57079632679\n"
        "k = 1\n"
        "C = 64\n"
        "Lambda = 0.00466294118501\n"
        "maximizers = 8\n"
        "success = 0.596856471681\n"
        "direction m = [0.894427191, -0.4472135955, 0]\n"
        "direction n = [0.894427191, 0.4472135955, 0]\n"
        "cos(omega) = 0.6\n"
    ),
    ("0.8", "2"): (
        "theta = 0.8\n"
        "k = 2\n"
        "C = 1024\n"
        "Lambda = 0.000397365965892\n"
        "maximizers = 4\n"
        "success = 0.813805498147\n"
        "direction m = [0.978377794995, -0.206825748544, 0]\n"
        "direction n = [0.978377794995, 0.206825748544, 0]\n"
        "cos(omega) = 0.914446219478\n"
    ),
    ("1.0", "2"): (
        "theta = 1\n"
        "k = 2\n"
        "C = 1024\n"
        "Lambda = 0.00039220907856\n"
        "maximizers = 4\n"
        "success = 0.803244192891\n"
        "direction m = [0.964659925854, -0.263498059673, 0]\n"
        "direction n = [0.964659925854, 0.263498059673, 0]\n"
        "cos(omega) = 0.861137545097\n"
    ),
    ("1.5707963267948966", "2"): (
        "theta = 1.57079632679\n"
        "k = 2\n"
        "C = 1024\n"
        "Lambda = 0.000372814032396\n"
        "maximizers = 8\n"
        "success = 0.763523138347\n"
        "direction m = [0.894427191, -0.4472135955, 0]\n"
        "direction n = [0.894427191, 0.4472135955, 0]\n"
        "cos(omega) = 0.6\n"
    ),
}

#: ``verify`` stdout at its defaults.
VERIFY_PIN = (
    "PASS  closed-form equivalence: max |pipeline - closed form| = 1.110e-16 over 25 angles x 6 scenarios\n"
    "PASS  born tables: max table deviation = 2.776e-17\n"
    "PASS  enumeration oracle: max |brute force - closed form| = 1.776e-15 over 25 angles, k in (1, 2)\n"
    "PASS  optimality certificates: max certificate residual = 4.337e-19, max dual gap = 0.000e+00 at 5 angles, k in (1, 2)\n"
    "PASS  povm reduction: max reduction deviation = 1.110e-16\n"
    "PASS  ordering chain: smallest anticipative advantage on the grid = 4.109e-05\n"
    "PASS  native decomposition: identity holds at 104 angles (100 random, seed 2026)\n"
    "PASS  simulator consistency: max |exact path - closed form| = 1.110e-16, smoke test max deviation = 0.71 sigma (seed 2026)\n"
    "PASS  overall (8/8 checks, tolerance 1e-12)\n"
)

#: ``verify --points 3 --inject-fault aux-lambda`` stdout.
VERIFY_AUX_LAMBDA_PIN = (
    "PASS  closed-form equivalence: max |pipeline - closed form| = 1.110e-16 over 3 angles x 6 scenarios\n"
    "PASS  born tables: max table deviation = 2.776e-17\n"
    "PASS  enumeration oracle: max |brute force - closed form| = 1.776e-15 over 3 angles, k in (1, 2)\n"
    "FAIL  optimality certificates: max certificate residual = 0.000e+00, max dual gap = 1.301e-03 at 3 angles, k in (1, 2) (fault injected: aux-lambda)\n"
    "PASS  povm reduction: max reduction deviation = 1.110e-16\n"
    "PASS  ordering chain: smallest anticipative advantage on the grid = 4.109e-05\n"
    "PASS  native decomposition: identity holds at 104 angles (100 random, seed 2026)\n"
    "PASS  simulator consistency: max |exact path - closed form| = 1.110e-16, smoke test max deviation = 0.71 sigma (seed 2026)\n"
    "FAIL  overall (7/8 checks, tolerance 1e-12)\n"
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_curves_defaults(self):
        args = build_parser().parse_args(["curves"])
        cfg = config_from_args(args)
        assert cfg.command == "curves"
        assert cfg.theta_min == pytest.approx(math.pi / 50)
        assert cfg.theta_max == pytest.approx(math.pi / 2)
        assert cfg.points == 25
        assert cfg.shots == 20000
        assert cfg.seed == 0
        assert cfg.output is None

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        cfg = config_from_args(args)
        assert cfg.noise_depol == 0.0
        assert cfg.noise_readout == 0.023

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        cfg = config_from_args(args)
        assert cfg.theta == pytest.approx(math.pi / 2)
        assert cfg.k == 1

    def test_bad_grid_rejected(self):
        args = build_parser().parse_args(["curves", "--points", "0"])
        with pytest.raises(ConfigError):
            config_from_args(args)

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCurves:
    def test_row_count_and_schema(self, capsys):
        code, out, _ = run_cli(["curves"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 25 * 2 * 3
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0.0628318530718,standard,0,0.5,,,20000,0"
        assert lines[-1] == "1.57079632679,anticipative,2,0.763523138347,,,20000,0"

    def test_byte_stability(self, capsys):
        _, first, _ = run_cli(["curves", "--points", "3"], capsys)
        _, again, _ = run_cli(["curves", "--points", "3"], capsys)
        assert first == again

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "curves.csv"
        code, out, _ = run_cli(
            ["curves", "--points", "2", "--output", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 3

    def test_grid_flags(self, capsys):
        code, out, _ = run_cli(
            ["curves", "--points", "1", "--theta-min", "1.0", "--theta-max", "1.0"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[1].startswith("1,standard,0,0.5")


class TestSimulate:
    def test_estimates_track_analytic_columns(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate",
                "--points",
                "1",
                "--theta-min",
                "1.0",
                "--theta-max",
                "1.0",
                "--shots",
                "5000",
                "--seed",
                "3",
                "--noise-readout",
                "0",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for row in rows:
            analytic = float(row["analytic"])
            empirical = float(row["empirical"])
            stderr = float(row["stderr"])
            assert stderr > 0.0
            assert abs(empirical - analytic) <= 5.0 * stderr
            assert row["shots"] == "5000"
            assert row["seed"] == "3"

    def test_default_noise_biases_low(self, capsys):
        # the default readout error must show up in the estimates
        code, out, _ = run_cli(
            ["simulate", "--points", "1", "--shots", "20000", "--theta-min", "1.4"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        k2 = [r for r in rows if r["k"] == "2"]
        assert all(float(r["empirical"]) < float(r["analytic"]) for r in k2)

    def test_noiseless_readout_rows_pinned(self, capsys):
        # the deep benchmark's noise: depolarizing only, so no flip is drawn
        code, out, err = run_cli(
            ["simulate", "--noise-depol", "0.05", "--noise-readout", "0"]
            + ["--points", "3", "--shots", "2000", "--seed", "11"],
            capsys,
        )
        assert code == 0
        assert err == ""
        assert out == (
            "theta,kind,k,analytic,empirical,stderr,shots,seed\n"
            "0.0628318530718,standard,0,0.5,0.486625,0.00395143256756,2000,11\n"
            "0.0628318530718,standard,1,0.666502227369,0.6489375,0.00377340712332,2000,11\n"
            "0.0628318530718,standard,2,0.833168894036,0.815604166667,0.00306588088874,2000,11\n"
            "0.0628318530718,anticipative,0,0.499969173342,0.4871875,0.00395154906211,2000,11\n"
            "0.0628318530718,anticipative,1,0.66654331437,0.649791666667,0.00377129335074,2000,11\n"
            "0.0628318530718,anticipative,2,0.833209981036,0.816458333333,0.00306037296812,2000,11\n"
            "0.816814089933,standard,0,0.5,0.485875,0.00395126945088,2000,11\n"
            "0.816814089933,standard,1,0.640378925494,0.62325,0.0038308732482,2000,11\n"
            "0.816814089933,standard,2,0.807045592161,0.789916666667,0.00322052331141,2000,11\n"
            "0.816814089933,anticipative,0,0.495246285457,0.4815,0.00395014042472,2000,11\n"
            "0.816814089933,anticipative,1,0.646330522657,0.629583333333,0.00381778862467,2000,11\n"
            "0.816814089933,anticipative,2,0.812997189324,0.79625,0.00318429679737,2000,11\n"
            "1.57079632679,standard,0,0.5,0.4881875,0.00395174379897,2000,11\n"
            "1.57079632679,standard,1,0.583333333333,0.572354166667,0.00391124080828,2000,11\n"
            "1.57079632679,standard,2,0.75,0.739020833333,0.00347193247012,2000,11\n"
            "1.57079632679,anticipative,0,0.487170824513,0.4756875,0.00394817127244,2000,11\n"
            "1.57079632679,anticipative,1,0.596856471681,0.584895833333,0.00389545165452,2000,11\n"
            "1.57079632679,anticipative,2,0.763523138347,0.7515625,0.00341610440226,2000,11\n"
        )

    def test_single_shot_rows_pinned(self, capsys):
        # One shot per run still pools 8 per (theta, kind): 4 states x 2 bases.
        code, out, err = run_cli(
            ["simulate", "--shots", "1", "--points", "1"]
            + ["--theta-min", "1.0", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert err == ""
        assert out == (
            "theta,kind,k,analytic,empirical,stderr,shots,seed\n"
            "1,standard,0,0.5,0.5,0.176776695297,1,3\n"
            "1,standard,1,0.628358525489,0.625,0.17116329922,1,3\n"
            "1,standard,2,0.795025192156,0.791666666667,0.143583841168,1,3\n"
            "1,anticipative,0,0.493224107066,0.5,0.176776695297,1,3\n"
            "1,anticipative,1,0.636577526225,0.666666666667,0.166666666667,1,3\n"
            "1,anticipative,2,0.803244192891,0.833333333333,0.131761569174,1,3\n"
        )

    def test_noisy_rows_pinned(self, capsys):
        # depolarizing and readout noise together, through the whole sampler
        code, out, err = run_cli(
            ["simulate", "--noise-depol", "0.1", "--noise-readout", "0.05"]
            + ["--points", "3", "--shots", "2000", "--seed", "11"],
            capsys,
        )
        assert code == 0
        assert err == ""
        assert out == (
            "theta,kind,k,analytic,empirical,stderr,shots,seed\n"
            "0.0628318530718,standard,0,0.5,0.4510625,0.00393386833389,2000,11\n"
            "0.0628318530718,standard,1,0.666502227369,0.6015625,0.00387044133945,2000,11\n"
            "0.0628318530718,standard,2,0.833168894036,0.768229166667,0.00333591361314,2000,11\n"
            "0.0628318530718,anticipative,0,0.499969173342,0.454125,0.00393617425598,2000,11\n"
            "0.0628318530718,anticipative,1,0.66654331437,0.6048125,0.00386502215262,2000,11\n"
            "0.0628318530718,anticipative,2,0.833209981036,0.771479166667,0.00331944142577,2000,11\n"
            "0.816814089933,standard,0,0.5,0.452625,0.00393506360634,2000,11\n"
            "0.816814089933,standard,1,0.640378925494,0.581208333333,0.00390036221553,2000,11\n"
            "0.816814089933,standard,2,0.807045592161,0.747875,0.00343291043044,2000,11\n"
            "0.816814089933,anticipative,0,0.495246285457,0.446375,0.0039300473866,2000,11\n"
            "0.816814089933,anticipative,1,0.646330522657,0.584833333333,0.00389553675342,2000,11\n"
            "0.816814089933,anticipative,2,0.812997189324,0.7515,0.00341639201132,2000,11\n"
            "1.57079632679,standard,0,0.5,0.453375,0.00393562343676,2000,11\n"
            "1.57079632679,standard,1,0.583333333333,0.53725,0.00394186216702,2000,11\n"
            "1.57079632679,standard,2,0.75,0.703916666667,0.00360917228267,2000,11\n"
            "1.57079632679,anticipative,0,0.487170824513,0.4446875,0.00392858536359,2000,11\n"
            "1.57079632679,anticipative,1,0.596856471681,0.549875,0.00393313237426,2000,11\n"
            "1.57079632679,anticipative,2,0.763523138347,0.716541666667,0.00356291406889,2000,11\n"
        )

    def test_repeated_angle_exits_2(self, capsys):
        argv = ["simulate", "--points", "2", "--theta-min", "0.3", "--theta-max", "0.3"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: theta 0.3 is repeated: the runs of one angle are pooled "
            "into one estimate, so each angle must appear once\n"
        )

    def test_repeated_angle_still_allowed_in_curves(self, capsys):
        argv = ["curves", "--points", "2", "--theta-min", "0.3", "--theta-max", "0.3"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 12 and rows[:6] == rows[6:]

    def test_bad_noise_exits_2(self, capsys):
        code, _, err = run_cli(["simulate", "--noise-depol", "1.5"], capsys)
        assert code == 2
        assert "error:" in err


class TestSolve:
    def test_right_angle_output(self, capsys):
        code, out, _ = run_cli(["solve"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "C = 64" in lines
        assert "maximizers = 8" in lines
        assert "success = 0.596856471681" in lines
        assert "cos(omega) = 0.6" in lines

    def test_generic_angle_output(self, capsys):
        code, out, _ = run_cli(["solve", "--theta", "1.0", "--k", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "C = 1024" in lines
        assert "maximizers = 4" in lines
        assert "success = 0.803244192891" in lines

    @pytest.mark.parametrize("theta, k", list(SOLVE_PINS))
    def test_output_pinned(self, theta, k, capsys):
        code, out, _ = run_cli(["solve", "--theta", theta, "--k", k], capsys)
        assert code == 0
        assert out == SOLVE_PINS[theta, k]

    def test_bad_theta_exits_2(self, capsys):
        code, _, err = run_cli(["solve", "--theta", "2.0"], capsys)
        assert code == 2
        assert "error:" in err

    def test_bad_k_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--k", "3"])


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(["verify", "--points", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[-1].startswith("PASS  overall")

    def test_impossible_tolerance_exits_1(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--points", "3", "--tol", "1e-30"], capsys
        )
        assert code == 1
        assert "FAIL" in out

    def test_fault_injection_exits_1(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--points", "3", "--inject-fault", "aux-normalization"],
            capsys,
        )
        assert code == 1
        assert any(
            line.startswith("FAIL  optimality certificates")
            for line in out.splitlines()
        )

    def test_default_output_pinned(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert out == VERIFY_PIN

    def test_aux_lambda_fault_output_pinned(self, capsys):
        # Only the optimality certificates fail: the planted maximum is
        # caught by the dual half of the certificate alone.
        code, out, _ = run_cli(
            ["verify", "--points", "3", "--inject-fault", "aux-lambda"], capsys
        )
        assert code == 1
        assert out == VERIFY_AUX_LAMBDA_PIN
        failed = [line.split(":")[0] for line in out.splitlines() if "FAIL" in line]
        assert failed == [
            "FAIL  optimality certificates",
            "FAIL  overall (7/8 checks, tolerance 1e-12)",
        ]

    def test_unknown_fault_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--inject-fault", "gremlins"])

    def test_bad_points_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--points", "0"], capsys)
        assert code == 2
        assert "error:" in err

    def test_bad_tol_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--tol", "-1"], capsys)
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1"],
        ["verify", "--tol", "nan"],
        ["curves", "--output", "<tmp dir>"],
        ["verify", "--tol", "inf"],
        ["verify", "--tol=-inf"],
    ],
)
def test_invalid_input_exits_2_with_one_line(argv, tmp_path, capsys):
    argv = [str(tmp_path) if arg == "<tmp dir>" else arg for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


#: Small valid values and invalid ones (zero, negative, non-finite, out of
#: range, a directory as output file) for each command's flags.
_SEED = st.sampled_from(["0", "7", "-1"])
_GRID = {
    "--theta-min": st.sampled_from(["0.1", "0.3", "0", "-1", "nan", "inf", "2"]),
    "--theta-max": st.sampled_from(["1.2", "1.5", "0", "-1", "nan", "inf", "2"]),
    "--seed": _SEED,
}
_POINTS = st.sampled_from(["1", "2", "3", "0", "-1", "nan"])
_SHOTS = st.one_of(st.integers(1, 50).map(str), st.sampled_from(["0", "-1", "nan"]))
_OUTPUT = st.just(str(Path(__file__).parent))
_NOISE = st.sampled_from(["0", "0.05", "0.5", "-1", "nan", "inf", "2"])
_FLAGS = {
    "curves": ({"--points": _POINTS}, {**_GRID, "--shots": _SHOTS, "--output": _OUTPUT}),
    "simulate": (
        {"--points": _POINTS, "--shots": _SHOTS},
        {
            **_GRID,
            "--noise-depol": _NOISE,
            "--noise-readout": _NOISE,
            "--output": _OUTPUT,
        },
    ),
    "solve": (
        {},
        {
            "--theta": st.sampled_from(["0.3", "1.2", "0", "-1", "nan", "inf", "2"]),
            "--k": st.sampled_from(["1", "2", "0", "3", "nan"]),
        },
    ),
    "verify": (
        {"--points": _POINTS},
        {
            "--seed": _SEED,
            "--tol": st.sampled_from(["1e-12", "1e-9", "0", "-1", "nan", "inf"]),
            "--inject-fault": st.sampled_from(FAULTS + ("gremlins",)),
        },
    ),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    flags = draw(st.fixed_dictionaries(required, optional=optional))
    return [command] + [f"{flag}={value}" for flag, value in flags.items()]


@settings(max_examples=60, deadline=None)
@given(invocations())
def test_every_invocation_exits_0_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    errors = err.getvalue()
    assert "Traceback" not in errors
    if code == 1:
        # exit 1 means a verification failed, which only an injected fault causes
        assert argv[0] == "verify", argv
        assert any(arg.startswith("--inject-fault=") for arg in argv), argv
    else:
        assert code in (0, 2), argv
    if code == 2:
        assert sum("error:" in line for line in errors.splitlines()) == 1, errors


def _main_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a bad command line or --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_as_a_fresh_one(monkeypatch):
    # main builds its parser once per process; a rejected command line and
    # --help on that parser must not change what the later calls print.
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    fresh_main = "import sys; from anticipative.cli import main; sys.exit(main())"
    cli._parser.cache_clear()
    codes = []
    for argv in (
        ["solve", "--k", "3"],
        ["--help"],
        ["verify", "--points", "3"],
        ["solve", "--theta", "0.7", "--k", "2"],
    ):
        fresh = subprocess.run(
            [sys.executable, "-c", fresh_main, *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        expected = (fresh.returncode, fresh.stdout, fresh.stderr)
        assert _main_in_process(argv) == expected, argv
        codes.append(fresh.returncode)
    assert codes == [2, 0, 0, 0]
    assert cli._parser.cache_info().misses == 1
