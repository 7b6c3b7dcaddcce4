"""End-to-end tests of the command-line surface: report content,
format switches, exit codes, and byte-level determinism."""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest
from conftest import put_nan_legs

from wenzl_lab import channel as channel_module
from wenzl_lab import cli
from wenzl_lab.errors import InvariantViolation
from wenzl_lab.qnum import admissible_triples
from wenzl_lab.vertex import EquivariantIsometry


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> dict:
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------------------
# report content
# ---------------------------------------------------------------------------

def test_theta_example(capsys):
    report = run_json(capsys, "theta", "--n", "3", "--k", "2", "--l", "2", "--m", "2")
    assert report["schema"] == "wenzl-lab/1"
    assert report["command"] == "theta"
    assert report["theta_closed"] == pytest.approx(56.0 / 3.0, rel=1e-12)
    assert report["theta_trace"] == pytest.approx(56.0 / 3.0, rel=1e-7)
    assert report["rel_err"] < 1e-7
    assert report["config"]["n"] == 3
    assert report["config"]["seed"] is None  # theta draws nothing, so it takes no --seed


def test_dims_example(capsys):
    report = run_json(capsys, "dims", "--n", "3", "--max-k", "5")
    assert report["dims"] == [1, 3, 8, 21, 55, 144]


def test_choi_example_above_threshold(capsys):
    report = run_json(
        capsys,
        "choi", "--n", "3", "--k", "0", "--l", "1", "--m", "1",
        "--d", "2", "--scale", "1.6", "--samples", "20",
    )
    assert report["threshold"] == pytest.approx(1.5, rel=1e-12)
    assert report["witness_value"] < 0.0


def test_jw_verify_report(capsys):
    report = run_json(capsys, "jw-verify", "--n", "3", "--k", "4")
    assert report["ok"] is True
    assert report["dim"] == 55
    assert report["idempotence"] <= 1e-9
    assert report["cap_annihilation"] <= 1e-9


def test_isometry_report(capsys):
    report = run_json(capsys, "isometry", "--n", "3", "--k", "2", "--l", "1", "--m", "1")
    assert report["scale"] == pytest.approx(1.0, rel=1e-9)
    assert report["orthonormality_residual"] <= 1e-9


def test_isometry_report_never_lifts_to_the_ambient_space(capsys, monkeypatch):
    # the Gram is formed from `legs`; criterion 3 checks the lift itself
    def refuse(self, x):
        raise AssertionError("the isometry report lifted alpha")

    monkeypatch.setattr(EquivariantIsometry, "lift", refuse)
    report = run_json(capsys, "isometry", "--n", "4", "--k", "2", "--l", "2", "--m", "2")
    assert report["orthonormality_residual"] <= 1e-9


def test_max_schmidt_report(capsys):
    report = run_json(
        capsys, "max-schmidt", "--n", "3", "--k", "1", "--l", "1", "--m", "2"
    )
    assert report["value"] == pytest.approx(math.sqrt(3.0 / 8.0), rel=1e-6)
    assert report["converged"] is True
    assert report["value_squared"] == pytest.approx(report["value"] ** 2, rel=1e-12)


def test_saturation_report(capsys):
    report = run_json(
        capsys, "saturation", "--n", "4", "--k", "2", "--l", "2", "--m", "2"
    )
    assert report["plateau_ok"] is True
    assert report["family_size"] == 2
    assert report["lambda_expected"] == pytest.approx(2.0 / 7.0, rel=1e-12)


def test_channel_report_brackets(capsys):
    report = run_json(capsys, "channel", "--n", "3", "--k", "0", "--l", "1", "--m", "1")
    assert report["norm_1_to_inf"] == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert report["in_printed_bracket"] is False
    assert report["in_sharp_bracket"] is True
    assert report["converged"] is True


def test_moe_report(capsys):
    report = run_json(
        capsys,
        "moe", "--n", "4", "--k", "2", "--l", "2", "--m", "2", "--samples", "30",
    )
    assert report["lower"] == pytest.approx(math.log(3.5), rel=1e-12)
    assert report["upper"] >= report["lower"] - 1e-8
    assert report["coarse_lower"] <= report["lower"] + 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ("channel", "--n", "4", "--k", "1", "--l", "2", "--m", "1"),
        ("moe", "--n", "4", "--k", "2", "--l", "2", "--m", "2", "--samples", "30"),
    ],
    ids=["channel", "moe"],
)
def test_direction_only_labels_the_report(capsys, argv):
    # a complementary pair shares the S1 -> Sinf norm and the MOE
    first = run_json(capsys, *argv, "--direction", "first")
    last = run_json(capsys, *argv, "--direction", "last")
    assert (first.pop("direction"), last.pop("direction")) == ("trace-first-l", "trace-last-m")
    assert first == last


def test_log_base_two_scales_entropies(capsys):
    nats = run_json(capsys, "schmidt", "--n", "3", "--k", "0", "--l", "1", "--m", "1")
    bits = run_json(
        capsys,
        "schmidt", "--n", "3", "--k", "0", "--l", "1", "--m", "1", "--log-base", "2",
    )
    assert nats["entropy"] == pytest.approx(math.log(3.0), rel=1e-12)
    assert bits["entropy"] == pytest.approx(math.log2(3.0), rel=1e-12)
    assert bits["log_base"] == "2"


# ---------------------------------------------------------------------------
# golden command set
# ---------------------------------------------------------------------------

# Captured from the CLI before the report dataclasses became the payload
# schema.  Values are compared to 1e-9 relative (1e-12 absolute near 0),
# never byte for byte: the last bits can differ across BLAS builds.
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text()
)


def _cell_kind(text: str) -> str:
    if re.fullmatch(r"-?\d+", text):
        return "int"
    try:
        float(text)
    except ValueError:
        return "str"
    return "float"


def _assert_matches(got, want, path: str) -> None:
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: key set differs"
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), f"{path}: {got} != {want}"
    elif isinstance(want, str) and _cell_kind(want) == "float":
        assert _cell_kind(got) == "float", f"{path}: {got!r} is not a float cell"
        assert math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-12), path
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


# a signed zero token, such as a pure state's entropy printed as -0.0
SIGNED_ZERO = re.compile(r"-0\.0(?!\d)")


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['argv'][0]}-n{c['argv'][2]}" for c in GOLDEN])
def test_golden_command(capsys, case):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert SIGNED_ZERO.findall(out) == []
    if "csv" in case["argv"]:
        header, *rows = list(csv.reader(io.StringIO(out)))
        got = {"header": header, "rows": rows}
    else:
        got = json.loads(out)
    _assert_matches(got, case["stdout"], case["argv"][0])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_prints_no_signed_zero(capsys):
    """Its 12 highest-weight MOE floors and 9 pure-output entropies print as 0.0."""
    code, out, _ = run_cli(
        capsys, "sweep", "--n-min", "3", "--n-max", "5", "--max-l", "2", "--max-m", "2",
        "--seed", "0",
    )
    assert code == 0
    assert SIGNED_ZERO.findall(out) == []
    rows = json.loads(out)["rows"]
    assert sum(row["moe_lower"] == 0.0 for row in rows) == 12
    assert sum(row["moe_upper"] == 0.0 for row in rows) == 9


def test_sweep_mass_column(capsys):
    report = run_json(
        capsys,
        "sweep", "--n-min", "3", "--n-max", "5", "--max-l", "1", "--max-m", "1",
        "--samples", "10", "--restarts", "4",
    )
    assert report["row_count"] == 6  # per rank: k in {0, 2} for (l, m) = (1, 1)
    masses = {row["n"]: row["mass"] for row in report["rows"] if row["k"] == 0}
    assert masses[3] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert masses[4] == pytest.approx(1.0 / 2.0, rel=1e-12)
    assert masses[5] == pytest.approx(3.0 / 5.0, rel=1e-12)
    highest = [row for row in report["rows"] if row["k"] == 2]
    assert all(row["mass"] is None for row in highest)


def test_sweep_marks_capped_rows_skipped(capsys):
    report = run_json(
        capsys,
        "sweep", "--n-min", "3", "--n-max", "3", "--max-l", "2", "--max-m", "2",
        "--samples", "5", "--restarts", "2", "--max-dim", "9",
    )
    skipped = [row for row in report["rows"] if row["skipped"]]
    live = [row for row in report["rows"] if not row["skipped"]]
    assert skipped and live
    assert all("cap" in row["skip_reason"] for row in skipped)
    assert all(row["l"] + row["m"] <= 2 for row in live)


def test_sweep_marks_rank_two_rows_skipped(capsys):
    report = run_json(
        capsys,
        "sweep", "--n-min", "2", "--n-max", "3", "--max-l", "1", "--max-m", "1",
        "--samples", "5", "--restarts", "2",
    )
    by_rank = {n: [row for row in report["rows"] if row["n"] == n] for n in (2, 3)}
    assert len(by_rank[2]) == len(by_rank[3]) == 2
    assert all(row["skipped"] for row in by_rank[2])
    assert all("rank >= 3" in row["skip_reason"] for row in by_rank[2])
    assert not any(row["skipped"] for row in by_rank[3])
    assert report["skipped_count"] == 2


@pytest.mark.parametrize("command", ["channel", "moe"])
def test_rank_two_channel_commands_exit_4(capsys, command):
    code, out, err = run_cli(capsys, command, "--n", "2", "--k", "2", "--l", "1", "--m", "1")
    assert code == 4
    assert out == ""
    assert "rank >= 3" in err


RANK_TWO_WEIGHTED = [
    t for l in range(1, 6) for m in range(1, 6) for t in admissible_triples(l, m) if t.r >= 1
]


@pytest.mark.parametrize("command", ["schmidt", "max-schmidt"])
def test_rank_two_closed_form_commands_exit_4(capsys, command):
    # at N = 2, [k+1]/theta is not the largest Schmidt value once r >= 1
    # (at (3, 2, 3) it is 1.2 against an optimum of 0.6), so both refuse
    assert len(RANK_TWO_WEIGHTED) == 55
    assert sum(t.r < min(t.l, t.m) for t in RANK_TWO_WEIGHTED) == 30
    for t in RANK_TWO_WEIGHTED:
        triple = ["--n", "2", "--k", str(t.k), "--l", str(t.l), "--m", str(t.m)]
        code, out, err = run_cli(capsys, command, *triple)
        assert (code, out) == (4, ""), t
        assert "rank >= 3" in err


@pytest.mark.parametrize(
    "argv", [["saturation"], ["choi", "--d", "1", "--scale", "1.0"]], ids=["saturation", "choi"]
)
def test_highest_weight_witness_meets_the_cap_first(capsys, argv):
    # the witness family is read from the isometry, so at r = 0 the
    # N^(l+m) = 81 cap refuses (exit 3) before the family does (exit 4)
    triple = [*argv, "--n", "3", "--k", "4", "--l", "2", "--m", "2"]
    code, out, err = run_cli(capsys, *triple, "--max-dim", "80")
    assert (code, out) == (3, "")
    assert "cap" in err
    code, out, err = run_cli(capsys, *triple, "--max-dim", "81")
    assert (code, out) == (4, "")
    assert "r >= 1" in err


def test_sweep_rows_ordered_deterministically(capsys):
    report = run_json(
        capsys,
        "sweep", "--n-min", "3", "--n-max", "4", "--max-l", "2", "--max-m", "2",
        "--samples", "5", "--restarts", "2",
    )
    keys = [(r["n"], r["l"], r["m"], r["k"]) for r in report["rows"]]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# formats and streams
# ---------------------------------------------------------------------------

def test_csv_output_is_flat_table(capsys):
    code, out, _ = run_cli(
        capsys, "theta", "--n", "3", "--k", "2", "--l", "2", "--m", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["theta_closed"]) == pytest.approx(56.0 / 3.0, rel=1e-12)
    assert rows[0]["triple.r"] == "1"


def test_csv_list_cell_parses_to_the_json_list(capsys):
    argv = ["schmidt", "--n", "4", "--k", "2", "--l", "2", "--m", "2"]
    report = run_json(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert len(report["coefficients"]) > 1
    assert json.loads(row["coefficients"]) == report["coefficients"]


def test_sweep_csv_one_line_per_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n-min", "3", "--n-max", "3", "--max-l", "1", "--max-m", "1",
        "--samples", "5", "--restarts", "2", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert {row["k"] for row in rows} == {"0", "2"}


def test_wall_time_goes_to_stderr_only(capsys):
    code, out, err = run_cli(capsys, "dims", "--n", "3", "--max-k", "3")
    assert code == 0
    assert "wall_time_s" in err
    assert "wall_time" not in out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeated_runs_byte_identical(capsys):
    argv = ["moe", "--n", "3", "--k", "1", "--l", "1", "--m", "2",
            "--samples", "40", "--seed", "11"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_console_entry_byte_identical_subprocess():
    cmd = [
        sys.executable, "-m", "wenzl_lab.cli",
        "choi", "--n", "3", "--k", "0", "--l", "1", "--m", "1",
        "--d", "2", "--scale", "1.5", "--samples", "25", "--seed", "3",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert b"wall_time_s" in first.stderr


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_4_on_inadmissible_triple(capsys):
    code, out, err = run_cli(capsys, "theta", "--n", "3", "--k", "1", "--l", "1", "--m", "1")
    assert code == 4
    assert out == ""
    assert "parity" in err


TRIPLE = ["--n", "3", "--k", "1", "--l", "1", "--m", "2"]
CHOI = ["choi", "--n", "3", "--k", "0", "--l", "1", "--m", "1"]
BAD_FLAGS = [
    ("command", ["bogus", "--n", "3"]),
    ("--n", ["dims", "--n", "1", "--max-k", "3"]),
    ("--max-k", ["dims", "--n", "3"]),  # missing
    ("--d", [*CHOI, "--d", "0", "--scale", "1.0"]),
    ("--restarts", ["max-schmidt", *TRIPLE, "--restarts", "0"]),
    ("--samples", ["moe", *TRIPLE, "--samples", "0"]),
    ("--max-dim", ["theta", *TRIPLE, "--max-dim", "0"]),
    ("--k", ["theta", "--n", "3", "--k", "-1", "--l", "1", "--m", "2"]),
    ("--max-k", ["dims", "--n", "3", "--max-k", "-1"]),
    ("--n-min", ["sweep", "--n-min", "1"]),
    ("--n-max", ["sweep", "--n-min", "4", "--n-max", "3"]),
    ("--max-l", ["sweep", "--max-l", "0"]),
    ("--scale", [*CHOI, "--d", "1", "--scale", "inf"]),
    # theta takes no --seed, so it refuses the flag whatever its value
    ("--seed", ["theta", *TRIPLE, "--seed", "abc"]),
    ("--seed", ["theta", *TRIPLE, "--seed", "-1"]),
    ("--seed", ["max-schmidt", *TRIPLE, "--seed", "abc"]),
    ("--seed", ["max-schmidt", *TRIPLE, "--seed", "-1"]),
    ("--format", ["theta", *TRIPLE, "--format", "xml"]),
    ("--direction", ["channel", *TRIPLE, "--direction", "up"]),
]


@pytest.mark.parametrize("flag, argv", BAD_FLAGS, ids=["_".join(argv) for _, argv in BAD_FLAGS])
def test_exit_4_on_bad_flags(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert flag in err


# the seven flags every command used to take, with a value each parses back to
FORMERLY_COMMON = {
    "--seed": "1", "--restarts": "2", "--tol": "0.5", "--max-dim": "99",
    "--samples": "3", "--format": "csv", "--log-base": "2",
}
OPTIMIZER = {"--seed", "--restarts", "--tol"}
# which of them each command's runner reads; --format is taken by all
TAKES = {
    "dims": set(),
    "theta": {"--max-dim"},
    "jw-verify": {"--max-dim"},
    "isometry": {"--max-dim"},
    "schmidt": {"--max-dim", "--log-base"},
    "max-schmidt": {"--max-dim", *OPTIMIZER},
    "saturation": {"--max-dim"},
    "channel": {"--max-dim", *OPTIMIZER},
    "moe": {"--max-dim", *OPTIMIZER, "--samples", "--log-base"},
    "choi": {"--max-dim", "--seed", "--samples"},
    "sweep": {"--max-dim", *OPTIMIZER, "--samples", "--log-base"},
}
REQUIRED = {
    "dims": ["--n", "3", "--max-k", "2"],
    "jw-verify": ["--n", "3", "--k", "2"],
    "choi": [*CHOI[1:], "--d", "1", "--scale", "1.0"],
    "sweep": [],
}


@pytest.mark.parametrize("flag", FORMERLY_COMMON)
@pytest.mark.parametrize("command", TAKES)
def test_command_takes_only_the_flags_it_reads(capsys, command, flag):
    argv = [command, *REQUIRED.get(command, TRIPLE), flag, FORMERLY_COMMON[flag]]
    if flag in TAKES[command] | {"--format"}:
        args = cli.build_parser().parse_args(argv)
        assert str(getattr(args, flag[2:].replace("-", "_"))) == FORMERLY_COMMON[flag]
        return
    with pytest.raises(cli._UsageError, match="unrecognized arguments"):
        cli.build_parser().parse_args(argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "abc"])
def test_exit_4_on_bad_tol(capsys, tol):
    code, out, err = run_cli(
        capsys, "max-schmidt", "--n", "3", "--k", "1", "--l", "1", "--m", "2", "--tol", tol
    )
    assert code == 4
    assert out == ""
    assert "tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["channel", "--n", "3", "--k", "1", "--l", "1", "--m", "2"],
        ["moe", "--n", "3", "--k", "1", "--l", "1", "--m", "2", "--samples", "4"],
        ["sweep", "--n-min", "3", "--n-max", "3", "--max-l", "1", "--max-m", "1",
         "--samples", "4"],
    ],
)
def test_tol_flag_reaches_optimizer(capsys, monkeypatch, argv):
    seen = []
    real = channel_module.max_schmidt_optimizer

    def recording(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(channel_module, "max_schmidt_optimizer", recording)
    report = run_json(capsys, *argv, "--tol", "1e-6")
    assert report["config"]["tol"] == 1e-6
    assert seen and all(tol == 1e-6 for tol in seen)


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_exit_4_on_non_finite_scale(capsys, scale):
    code, out, err = run_cli(
        capsys, "choi", "--n", "3", "--k", "0", "--l", "1", "--m", "1",
        "--d", "2", "--scale", scale,
    )
    assert code == 4
    assert out == ""
    assert "scale" in err


@pytest.mark.parametrize("scale", ["1e308", "-1e308"])
def test_exit_4_on_finite_scale_that_overflows_the_form(capsys, scale):
    code, out, err = run_cli(
        capsys, "choi", "--n", "3", "--k", "0", "--l", "1", "--m", "1",
        "--d", "2", f"--scale={scale}",
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and "scale" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_exit_2_on_non_finite_report_value(capsys, monkeypatch, fmt, bad):
    monkeypatch.setitem(cli._RUNNERS, "dims", lambda args: {"dims": [1.0, bad]})
    code, out, err = run_cli(capsys, "dims", "--n", "3", "--max-k", "2", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_exit_3_on_memory_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 2.9 GiB")

    monkeypatch.setitem(cli._RUNNERS, "dims", exhausted)
    code, out, err = run_cli(capsys, "dims", "--n", "3", "--max-k", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("dimension cap: ")


def test_exit_3_on_dimension_cap(capsys):
    code, out, err = run_cli(capsys, "theta", "--n", "3", "--k", "2", "--l", "9", "--m", "9")
    assert code == 3
    assert out == ""
    assert "cap" in err.lower()


def test_exit_3_on_a_level_whose_dimension_has_too_many_digits(capsys):
    # 3^10000 has 4,772 digits, past Python's int-to-str limit
    code, out, err = run_cli(capsys, "jw-verify", "--n", "3", "--k", "10000")
    assert code == 3
    assert out == ""
    assert err.startswith("dimension cap: ")


def test_exit_2_on_invariant_violation(capsys, monkeypatch):
    def boom(args):
        raise InvariantViolation("deliberately violated for the exit-code test")

    monkeypatch.setitem(cli._RUNNERS, "dims", boom)
    code, out, err = run_cli(capsys, "dims", "--n", "3", "--max-k", "2")
    assert code == 2
    assert out == ""
    assert "invariant" in err.lower()


TRIPLE_222 = ["--n", "3", "--k", "2", "--l", "2", "--m", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n-min", "3", "--n-max", "3", "--max-l", "2", "--max-m", "2"],
        ["choi", *TRIPLE_222, "--d", "1", "--scale", "1.0"],
        ["schmidt", *TRIPLE_222],
        ["saturation", *TRIPLE_222],
        ["moe", *TRIPLE_222],
    ],
    ids=lambda argv: argv[0],
)
def test_exit_2_on_nan_legs(capsys, monkeypatch, argv):
    # a corrupted cache is an invariant violation, not a usage error (exit 4)
    put_nan_legs(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "legs hold a NaN" in err


def test_help_exits_zero(capsys):
    assert set(cli._RUNNERS) == {case["argv"][0] for case in GOLDEN}
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    top = capsys.readouterr().out
    for command in cli._RUNNERS:
        assert command in top
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: wenzl-lab {command}")
