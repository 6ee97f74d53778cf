"""End-to-end CLI behaviour: formats, exit codes, overrides, help text."""

import contextlib
import csv
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from drplane.altproj import ap_iterate
from drplane.cli import COMMANDS, SUBCOMMANDS, build_parser, main, parse_direct
from drplane.closedform import closed_form_trace
from drplane.cycling import DoubletonProblem
from drplane.dynamics import Outcome, classify, iterate, reconstruct_x, trace_csv_header
from drplane.errors import PreconditionError
from drplane.geometry import TiePolicy
from drplane.problems import load_problem
from drplane.scalars import encode_scalar, format_scalar

FIXTURES = Path(__file__).resolve().parent.parent / "problems"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_column(text, name):
    rows = list(csv.DictReader(io.StringIO(text)))
    return [r[name] for r in rows]


def table_column(text, name):
    # cells can be empty (k at n=0), so slice on the header's column starts
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("outcome:")]
    header = lines[0]
    starts = [
        i for i, ch in enumerate(header) if ch != " " and (i == 0 or header[i - 1] == " ")
    ]
    j = header.split().index(name)
    lo = starts[j]
    hi = starts[j + 1] if j + 1 < len(starts) else None
    return [ln[lo:hi].strip() for ln in lines[1:]]


CANONICAL = (
    "float_wide", "halfspace_divergent", "halfspace_fixed",
    "r2_beatty", "rational_cycle", "surd_aperiodic",
)

# sha256 over exit code, stdout and stderr of one subcommand on the six
# canonical problems, in the order above.  CLI output is byte-identical across
# refactors unless a change says otherwise and records new digests here.
GOLDEN = {
    ("run", "csv"):
        "c9e526dee2b26ef4c13fad32da04cecc2f833669418b968417661a4a7c16101d",
    ("run", "json"):
        "5f93b503eebe4d9b7c590637950e9caf53559bdc7b8936de9917a546a8a62eb5",
    ("run", "table"):
        "a5a5400716d0f4bf81167c90e5682c6ba16636395fcaeb376e2d179b0fccd3d6",
    ("closed-form", "csv"):
        "950338f9da58122bfb9000bb273223e1e726a04a4669505ea6d769935be7536b",
    ("closed-form", "json"):
        "92bb0208036a6e442b0fb2bf9fc87baeb93d7116d0886be095fdef76a42216b5",
    ("closed-form", "table"):
        "faa5a85fe49bca11e8e3970c9ad1dcd9077d994342effd93b8d5b081043ca84a",
    ("verify", ""):
        "99e648e053d8f589e04815bb774fe9019fa1b2a0a30fc188463aca13fb4a8051",
    ("cycle", ""):
        "c307f3955a61bebda3e4a8123688b629925e23ca4e100bf861b19e024b49b6d5",
    ("map", "csv"):
        "d617e69070dae93d309465462f10d71c7f1901a87453f61304431326887e235c",
    ("map", "json"):
        "e608f42dbd5597d13dee07767177e14ea05ab595137da7d496c94d0609ef35ad",
    ("map", "table"):
        "8acc6e8e69dd22a03009f376279f6670d7d130f3891ccff9d7966f8c0a198b03",
    ("beatty", "csv"):
        "6e8bb4b94d9e84b0a789e3c18bc3f907f9130c5f0f29df601817153685ca0fbb",
    ("beatty", "json"):
        "789a38b88f06e67405c53989ba0bf709448bee56030f62242b52fd75742e9515",
    ("beatty", "table"):
        "1872681051d0c1c5a0921f064c576576d110cc4e006f5d0a235c7f586db84e87",
}


def golden_invocations(command, fmt):
    fmt_args = ["--format", fmt] if fmt else []
    if command == "beatty":
        yield ["beatty", "--horizon", "40"] + fmt_args
        return
    for name in CANONICAL:
        # long enough for the divergent run to be detected and the float
        # doubleton to close its cycle
        if command == "cycle":
            horizon = "5000"
        else:
            horizon = "1100" if name == "halfspace_divergent" else "120"
        problem = str(FIXTURES / f"{name}.json")
        yield [command, "--problem", problem, "--horizon", horizon] + fmt_args


# a boundary orbit under the non-default tie policy departs the formula, so
# verify exits 1
TIE_MISMATCH = {
    "normal": [1], "points": [[-1], [2]], "x0": ["1/2"],
    "backend": "rational", "tie_policy": "lower_inner",
}


def write_problem(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestRun:
    def test_table_orbit(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "9", "--format", "table",
        )
        assert code == 0
        assert table_column(out, "x_1") == [
            "0", "-1", "1", "0", "-1", "1", "0", "-1", "1", "0"
        ]
        assert out.strip().endswith("outcome: HorizonReached")

    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "25", "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 26 + 1  # header + horizon+1 rows

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "3", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "dr"
        assert report["outcome"] == "horizon"
        assert [r["x"] for r in report["records"]] == [["0"], ["-1"], ["1"], ["0"]]

    def test_divergence_outcome_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "halfspace_divergent.json"),
            "--horizon", "2500", "--format", "table",
        )
        assert code == 0
        assert out.strip().endswith("outcome: DivergenceDetected")

    def test_fixed_point_outcome_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "halfspace_fixed.json"),
            "--format", "table",
        )
        assert code == 0
        assert "outcome: FixedPointReached" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "4", "--format", "csv", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert len(target.read_text().strip().splitlines()) == 6

    def test_backend_downgrade(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "2", "--format", "csv", "--backend", "f64",
        )
        assert code == 0
        assert csv_column(out, "x_1") == ["0.0", "-1.0", "1.0"]

    def test_backend_upgrade_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "float_wide.json"),
            "--backend", "rational",
        )
        assert code == 2
        assert "cannot convert" in err


class TestCycle:
    def test_rational_cycle_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--problem", str(FIXTURES / "rational_cycle.json"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "cycle"
        assert (report["preperiod"], report["period"]) == (0, 3)
        assert report["states"] == [["0"], ["-1"], ["1"]]
        assert report["rational"] is True
        assert report["relation"] == [2, 1]

    def test_surd_no_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--problem", str(FIXTURES / "surd_aperiodic.json"),
            "--horizon", "5000",
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "no_cycle"
        assert report["horizon"] == 5000
        assert report["rational"] is False
        assert report["relation"] is None

    def test_float_rationality_unavailable(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--problem", str(FIXTURES / "float_wide.json"),
            "--horizon", "2000",
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "cycle"
        assert report["approximate"] is True
        assert report["rational"] == "unavailable"
        assert report["relation"] is None

    def test_float_heuristic_rationality(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--problem", str(FIXTURES / "float_wide.json"),
            "--horizon", "2000", "--heuristic-rationality",
        )
        assert code == 0
        report = json.loads(out)
        assert report["rational"] is True
        assert report["relation"] == [37, 10]

    def test_float_heuristic_nonfinite_ratio_exits_2(self, capsys, tmp_path):
        # d_A(b1)/d_A(b2) overflows to inf, which has no rational guess
        path = write_problem(
            tmp_path, "huge.json",
            {"normal": [1.0], "points": [[-1e308], [1e-11]], "x0": [0.0],
             "backend": "f64"},
        )
        code, out, err = run_cli(
            capsys, "cycle", "--problem", path, "--horizon", "10",
            "--heuristic-rationality",
        )
        assert code == 2 and out == ""
        assert "non-finite" in err

    def test_tie_policy_override(self, capsys, tmp_path):
        path = write_problem(
            tmp_path, "sym.json",
            {"normal": [1], "points": [[-1], [1]], "x0": [0], "backend": "rational"},
        )
        code, out, _ = run_cli(capsys, "cycle", "--problem", path)
        assert json.loads(out)["states"] == [["0"], ["1"]]
        code, out, _ = run_cli(
            capsys, "cycle", "--problem", path, "--tie-policy", "lower_inner",
        )
        assert json.loads(out)["states"] == [["0"], ["-1"]]

    def test_non_doubleton_rejected(self, capsys, tmp_path):
        path = write_problem(
            tmp_path, "triple.json",
            {"normal": [1], "points": [[-1], [1], [2]], "x0": [0],
             "backend": "rational"},
        )
        code, _, err = run_cli(capsys, "cycle", "--problem", path)
        assert code == 2
        assert "requires a doubleton" in err


class TestClosedForm:
    def test_matches_run_output(self, capsys):
        args = ["--problem", str(FIXTURES / "surd_aperiodic.json"),
                "--horizon", "40", "--format", "csv"]
        code_r, out_run, _ = run_cli(capsys, "run", *args)
        code_c, out_cf, _ = run_cli(capsys, "closed-form", *args)
        assert code_r == code_c == 0
        assert out_cf == out_run

    def test_json_method_tag(self, capsys):
        code, out, _ = run_cli(
            capsys, "closed-form", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["method"] == "closed_form"

    def test_inapplicable_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "closed-form",
            "--problem", str(FIXTURES / "halfspace_divergent.json"),
        )
        assert code == 2 and "error:" in err

    def test_fallback_iterate(self, capsys):
        code, out, _ = run_cli(
            capsys, "closed-form",
            "--problem", str(FIXTURES / "halfspace_divergent.json"),
            "--horizon", "5", "--format", "json", "--fallback-iterate",
        )
        assert code == 0
        assert json.loads(out)["method"] == "dr"


class TestVerify:
    def test_rational_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "1000",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_surd_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--problem", str(FIXTURES / "surd_aperiodic.json"),
            "--horizon", "1000",
        )
        assert code == 0
        assert json.loads(out)["checked"] == 1000

    def test_float_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--problem", str(FIXTURES / "float_wide.json"),
            "--horizon", "1000",
        )
        assert code == 0

    def test_mismatch_exits_1(self, capsys, tmp_path):
        path = write_problem(tmp_path, "tie.json", TIE_MISMATCH)
        code, out, _ = run_cli(capsys, "verify", "--problem", path)
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["first_mismatch"]["n"] == 2

    def test_shifted_window_exits_2(self, capsys, tmp_path):
        path = write_problem(
            tmp_path, "shifted.json",
            {"normal": [0, 1], "points": [[0, -1], [3, "1/2"]], "x0": [0, 0],
             "backend": "rational"},
        )
        code, _, err = run_cli(capsys, "verify", "--problem", path)
        assert code == 2
        assert "error:" in err

    def test_shifted_window_fallback(self, capsys, tmp_path):
        path = write_problem(
            tmp_path, "shifted.json",
            {"normal": [0, 1], "points": [[0, -1], [3, "1/2"]], "x0": [0, 0],
             "backend": "rational"},
        )
        code, out, _ = run_cli(
            capsys, "verify", "--problem", path, "--horizon", "50",
            "--fallback-iterate",
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is None and report["checked"] == 0
        assert "note" in report


class TestMapAndBeatty:
    def test_map_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "5", "--format", "csv",
        )
        assert code == 0
        assert csv_column(out, "x_1") == ["0", "0", "-1", "0", "-1", "0"]

    def test_map_json_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "--problem", str(FIXTURES / "r2_beatty.json"),
            "--horizon", "4", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["method"] == "map"

    def test_beatty_csv(self, capsys):
        code, out, _ = run_cli(capsys, "beatty", "--horizon", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "n,u,v,w", "0,0,0,0", "1,0,1,0", "2,1,1,1", "3,0,2,1", "4,1,2,2"
        ]

    def test_beatty_json(self, capsys):
        code, out, _ = run_cli(capsys, "beatty", "--horizon", "2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["records"][2] == {"n": 2, "u": 1, "v": 1, "w": 1}


class TestBadInput:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--problem", "/no/such/file.json")
        assert code == 2 and "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "run", "--problem", str(path))
        assert code == 2 and "invalid JSON" in err

    def test_backend_value_mismatch(self, capsys, tmp_path):
        path = write_problem(
            tmp_path, "mixed.json",
            {"normal": [1], "points": [[-1], [2.5]], "x0": [0],
             "backend": "rational"},
        )
        code, _, err = run_cli(capsys, "run", "--problem", str(path))
        assert code == 2

    @pytest.mark.parametrize("command, data, shown", [
        ("run", {"normal": [float("nan")], "points": [[-1.0], [2.0]], "x0": [0.0]}, "nan"),
        ("cycle", {"normal": [1.0], "points": [[-1.0], [2.0]], "x0": [float("nan")]}, "nan"),
        ("run", {"normal": [1.0], "points": [[-1.0], [float("inf")]], "x0": [0.0]}, "inf"),
    ])
    def test_nonfinite_f64_scalar_exits_2(self, capsys, tmp_path, command, data, shown):
        # json reads NaN and Infinity literals; f64 problems must reject them
        path = write_problem(tmp_path, "nonfinite.json", {**data, "backend": "f64"})
        code, out, err = run_cli(capsys, command, "--problem", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"{shown} is not a finite f64 value" in err

    def test_f64_offset_overflow_exits_2_at_load(self, capsys, tmp_path):
        # <b1,u> is about 0.98e308, but its first two products sum past the f64 range
        data = {"normal": [1.0, 1.0, 1.0], "x0": [0.0, 0.0, 0.0], "backend": "f64",
                "points": [[1.7e308, 1.7e308, -1.7e308], [-1.0, 0.0, 0.0]]}
        path = write_problem(tmp_path, "offset.json", data)
        for command in ("run", "cycle"):
            code, out, err = run_cli(capsys, command, "--problem", path)
            assert code == 2 and out == ""
            assert err.startswith("error: point: its offset <point,u> = inf is not finite")

    def test_downgrade_out_of_f64_range_exits_2(self, capsys, tmp_path):
        path = write_problem(
            tmp_path, "huge.json",
            {"normal": [1], "points": [[-1], ["1e400"]], "x0": [0], "backend": "rational"},
        )
        code, out, err = run_cli(capsys, "run", "--problem", path, "--backend", "f64")
        assert code == 2 and out == ""
        assert f"error: 1{'0' * 400} is not a finite f64 value" in err

    # every squared distance of the first step overflows to inf, and the
    # window constant |b1 - b2|^2 / (2*(beta1 - beta2)) is inf/-inf, NaN
    OVERFLOW = {"normal": [1.0], "points": [[-1e308], [1.5e308]], "x0": [1.7e308]}
    # the distance to b1 overflows, never the nearest one; only the window does
    FAR_B1 = {"normal": [1.0], "points": [[-1e308], [1e-11]], "x0": [0.0]}

    @pytest.mark.parametrize("data, argv", [
        (OVERFLOW, ("run", "--horizon", "1", "--format", "csv")),
        (OVERFLOW, ("run", "--horizon", "1", "--format", "json")),
        (OVERFLOW, ("run", "--horizon", "2")),
        (OVERFLOW, ("map", "--horizon", "2")),
        (OVERFLOW, ("cycle",)),
        (FAR_B1, ("cycle",)),
        (FAR_B1, ("closed-form",)),
        (FAR_B1, ("verify",)),
    ])
    def test_f64_overflow_exits_2(self, capsys, tmp_path, data, argv):
        path = write_problem(tmp_path, "overflow.json", {**data, "backend": "f64"})
        code, out, err = run_cli(capsys, argv[0], "--problem", path, *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "non-finite" in err

    @pytest.mark.parametrize("argv", [("run",), ("closed-form", "--fallback-iterate")])
    def test_f64_far_point_iterates(self, capsys, tmp_path, argv):
        # a distance that overflows is no error while the nearest is finite,
        # and a window constant that overflows is a failed precondition
        path = write_problem(tmp_path, "far.json", {**self.FAR_B1, "backend": "f64"})
        code, out, _ = run_cli(capsys, *argv, "--problem", path, "--horizon", "3",
                               "--format", "csv")
        assert code == 0
        assert csv_column(out, "x_1") == ["0.0", "1e-11", "2e-11", "3e-11"]

    def test_bad_horizon(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", str(FIXTURES / "rational_cycle.json"),
            "--horizon", "0",
        )
        assert code == 2 and "horizon" in err


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN))
def test_golden_output(capsys, command, fmt):
    digest = hashlib.sha256()
    for argv in golden_invocations(command, fmt):
        code, out, err = run_cli(capsys, *argv)
        digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == GOLDEN[command, fmt]


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN))
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, command, fmt):
    invocations = list(golden_invocations(command, fmt))
    if command == "verify":
        mismatch = write_problem(tmp_path, "tie.json", TIE_MISMATCH)
        invocations.append(["verify", "--problem", mismatch])
    for i, argv in enumerate(invocations):
        target = tmp_path / f"out{i}"
        code, out, err = run_cli(capsys, *argv)
        # same exit code and stderr, nothing on stdout, and no file on a refusal
        assert run_cli(capsys, *argv, "--out", str(target)) == (code, "", err)
        if code == 2:
            assert out == "" and not target.exists()
        else:
            assert target.read_bytes() == out.encode()


def test_refusal_writes_no_out_file(capsys, tmp_path):
    target = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys, "closed-form", "--problem", str(FIXTURES / "halfspace_fixed.json"),
        "--out", str(target),
    )
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not target.exists()


def test_out_in_a_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "trace.csv"
    with pytest.raises(OSError) as exc:
        open(target, "w")
    code, out, err = run_cli(
        capsys, "run", "--problem", str(FIXTURES / "rational_cycle.json"),
        "--out", str(target),
    )
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")


# The same digests with an override of the problem file: --backend f64
# downgrades each problem, --tie-policy replaces its policy.  closed-form and
# verify run with --fallback-iterate, so every problem produces output.
OVERRIDES = {
    "backend": ["--backend", "f64"],
    "tie-policy": ["--tie-policy", "lowest_index"],
}
OVERRIDE_GOLDEN = {
    ("backend", "run", "csv"):
        "bdda8ad5cd2837ee69fdacde112b53a9fe25503956bbc2dd7a012ed87c9b1650",
    ("backend", "run", "json"):
        "d07b84487e85d7df33a7ca0add448321ee58369f37b68b72e54fceb4a52b9a6f",
    ("backend", "map", "csv"):
        "b63dbecb009d3eeda9861615f7a672b7d782c0e5fff8319545d17feb1a1b85c5",
    ("backend", "map", "json"):
        "f801fc60a833e1e1aa34c3b759517e68b3416a07c2c44e4f11ec5a65507b53fa",
    ("backend", "cycle", ""):
        "0eb211bb0abe55fcf90dcdc9cc442aacd67e8eeddea34e7862223471ce5d1ea4",
    ("backend", "closed-form", "csv"):
        "1b230778c85e277435b1188b4e856a39b519dae07f2a8ce0cb5fc25bbdad2052",
    ("backend", "verify", ""):
        "15c7a945f3fbf5a67708132a4f5e2e289478ffdaf0eeac48506dead67e989f7a",
    ("tie-policy", "run", "csv"):
        "c9e526dee2b26ef4c13fad32da04cecc2f833669418b968417661a4a7c16101d",
    ("tie-policy", "run", "json"):
        "5f93b503eebe4d9b7c590637950e9caf53559bdc7b8936de9917a546a8a62eb5",
    ("tie-policy", "map", "csv"):
        "d617e69070dae93d309465462f10d71c7f1901a87453f61304431326887e235c",
    ("tie-policy", "map", "json"):
        "e608f42dbd5597d13dee07767177e14ea05ab595137da7d496c94d0609ef35ad",
    ("tie-policy", "cycle", ""):
        "c307f3955a61bebda3e4a8123688b629925e23ca4e100bf861b19e024b49b6d5",
    ("tie-policy", "closed-form", "csv"):
        "83b0135764919b74df35e52a3b1b7b646e623f85cc29465542d2b45857044f1b",
    ("tie-policy", "verify", ""):
        "91890da1257bbc13773b9d761fe70177d58b17e54d07f06b8215ada92a374710",
}


@pytest.mark.parametrize("override, command, fmt", sorted(OVERRIDE_GOLDEN))
def test_override_golden_output(capsys, override, command, fmt):
    extra = list(OVERRIDES[override])
    if command in ("closed-form", "verify"):
        extra.append("--fallback-iterate")
    digest = hashlib.sha256()
    for argv in golden_invocations(command, fmt):
        code, out, err = run_cli(capsys, *argv, *extra)
        digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == OVERRIDE_GOLDEN[override, command, fmt]


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
@pytest.mark.parametrize("command", ["run", "map"])
def test_tie_policy_override_reaches_the_trace(capsys, tmp_path, command, fmt):
    # a tie override changes no output on the canonical problems at the
    # golden horizons, so the digests above would not see a dropped one.  On
    # {-1, 1} from x0 = 0 the projections tie and the policy picks each
    # selector: an override must give the bytes of a file that declares it,
    # and not those of the file's own policy
    sym = {"normal": [1], "points": [[-1], [1]], "x0": [0], "backend": "rational"}
    for policy in ("higher_inner", "lower_inner"):
        write_problem(tmp_path, f"{policy}.json", {**sym, "tie_policy": policy})

    def trace(declared, *override):
        path = str(tmp_path / f"{declared}.json")
        argv = [command, "--problem", path, "--horizon", "6", "--format", fmt]
        return run_cli(capsys, *argv, *override)

    overridden = trace("higher_inner", "--tie-policy", "lower_inner")
    assert overridden == trace("lower_inner")
    assert overridden != trace("higher_inner")
    assert overridden[0] == 0


# Sets of m != 2 points, which problems/ does not hold (its doubletons are
# pinned by the tests that load it).  Each is strictly straddling and off the
# hyperplane, and every selector word below visits at least three points.
M_POINT_PROBLEMS = {
    # R_A x0 = 0 is the midpoint of -1 and 1, and the orbit returns there
    # every other step, so the tie policy decides half the selectors
    "line_m3_tie": {
        "normal": [1], "points": [[-1], [1], ["5/2"]], "x0": [0], "backend": "rational",
    },
    # <x_n,u> = 0 on every odd step, where points 2 and 3 (offsets -5/9 and
    # 5/9) are exactly equidistant from R_A x_n
    "tilted_m5_tie": {
        "normal": ["2/3", "1/3", "2/3"],
        "points": [["1/3", 1, 0], ["-11/27", "17/27", "-20/27"], [-4, 4, 1],
                   ["-28/9", "40/9", "17/9"], [5, 4, "-4/3"]],
        "x0": [0, 0, -4], "backend": "rational",
    },
    "surd_plane_m3": {
        "normal": [{"a": "0", "b": "1/2"}, {"a": "0", "b": "1/2"}],
        "points": [[0, -1], [2, {"a": "0", "b": "1"}], [-1, {"a": "-1/3", "b": "1/2"}]],
        "x0": ["1/3", {"a": "0", "b": "1"}], "backend": "surd", "surd_d": 2,
    },
    "f64_plane_m4": {
        "normal": [0.6, 0.8],
        "points": [[-1.0, -0.25], [1.0, 0.5], [0.3, 0.2], [-0.5, 1.0]],
        "x0": [3.0, -2.0], "backend": "f64",
    },
}

# sha256 over exit code, stdout and stderr of one subcommand on each problem
# above under each tie policy, problems in the order above and policies in
# TiePolicy order.
M_POINT_GOLDEN = {
    ("run", "csv"):
        "aa73f61f6ac02b734578c943013281341d0b79bf22d2a35c293f9803d37102bb",
    ("run", "json"):
        "23e371b71e67411b9aa56a1b6650c775b74dc3bba3d592ac3832ecb489fc6e56",
    ("map", "csv"):
        "68979750a8e3ab5c76dfdd9c7529bc550f23fdd5f7b23c7d37d2af17f256f5d4",
    ("map", "json"):
        "de5165a4e3a5294a0f639762a672d55ab6ec8546698368989077559b70df0be5",
}


@pytest.mark.parametrize("command, fmt", sorted(M_POINT_GOLDEN))
def test_m_point_golden_output(capsys, tmp_path, command, fmt):
    horizon = "200" if command == "run" else "40"
    digest = hashlib.sha256()
    for name, data in M_POINT_PROBLEMS.items():
        problem = write_problem(tmp_path, f"{name}.json", data)
        for policy in TiePolicy:
            code, out, err = run_cli(
                capsys, command, "--problem", problem, "--horizon", horizon,
                "--tie-policy", policy.value, "--format", fmt,
            )
            digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == M_POINT_GOLDEN[command, fmt]


def seeded_m_point_wires(seed, count):
    """Straddling, disjoint problems of m = 3..6 points on axis normals in
    dimensions 1-3: rational and f64 (dyadic, so their orbits revisit
    states), under random tie policies."""
    rng = random.Random(seed)
    wires = []
    while len(wires) < count:
        dim, m = rng.randint(1, 3), rng.randint(3, 6)
        axis = rng.randrange(dim)
        normal = [0] * dim
        normal[axis] = rng.choice((-1, 1))
        pts = {tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4))) for _ in range(dim))
               for _ in range(m)}
        offsets = [normal[axis] * p[axis] for p in pts]
        if len(pts) < m or 0 in offsets or min(offsets) > 0 or max(offsets) < 0:
            continue
        x0 = [Fraction(rng.randint(-12, 12), 4) for _ in range(dim)]
        f64 = len(wires) % 2
        enc = float if f64 else str
        wires.append({
            "normal": [enc(c) for c in normal],
            "points": [[enc(c) for c in p] for p in sorted(pts)],
            "x0": [enc(c) for c in x0],
            "backend": "f64" if f64 else "rational",
            "tie_policy": rng.choice([t.value for t in TiePolicy]),
        })
    return wires


def reference_run(command, p, horizon):
    """(method, RunResult) of a run, or of a closed-form --fallback-iterate
    invocation, from the library."""
    if command == "closed-form":
        try:
            return "closed_form", closed_form_trace(DoubletonProblem.from_problem(p), horizon)
        except PreconditionError:
            pass
    return "dr", iterate(p.hyperplane, p.points, p.x0, horizon)


def reference_trace(command, p, horizon):
    """(method, outcome, extra items, records) of a CLI trace invocation from
    the library, each record (n, k, inner, x) with its iterate rebuilt."""
    A, B = p.hyperplane, p.points
    if command == "map":
        trace = ap_iterate(A, B, p.x0, horizon)
        records = [(n, k, A.inner(x), x) for n, (x, k) in enumerate(zip(trace.points, trace.selectors))]
        return "map", Outcome.HORIZON, {}, records
    method, result = reference_run(command, p, horizon)
    records = [(r.n, r.selector_k, r.inner, reconstruct_x(result, A, B, n))
               for n, r in enumerate(result.trace)]
    extra = {}
    if result.fixed_at is not None:
        extra["fixed_at"] = result.fixed_at
    if result.shadow_limit is not None:
        extra["shadow_limit"] = [encode_scalar(c) for c in result.shadow_limit]
    return method, result.outcome, extra, records


def reference_json(command, path, horizon):
    """json.dumps(..., indent=2) of a CLI json invocation's report, built
    record by record from the library's trace: a reference that shares no
    code with the CLI's per-state JSON fragments."""
    p = load_problem(path)
    A, B = p.hyperplane, p.points
    method, outcome, extra, records = reference_trace(command, p, horizon)
    cls = classify(A, B)
    counts = [0] * B.m
    encoded = []
    for n, k, inner, x in records:
        if k is not None:
            counts[k - 1] += 1
        encoded.append({"n": n, "k": k, "inner": encode_scalar(inner), "counts": list(counts),
                        "x": [encode_scalar(c) for c in x]})
    report = {
        "method": method,
        "outcome": outcome.value,
        "classification": {"kind": cls.kind.value, "intersects": cls.intersects},
        "records": encoded,
        **extra,
    }
    return json.dumps(report, indent=2) + "\n"


def reference_csv(command, path, horizon):
    """csv.writer's text of a CLI csv invocation's cells, each record's cells
    formatted on their own from the library's trace: the writer that the
    CLI's line renderer must match byte for byte."""
    p = load_problem(path)
    A, B = p.hyperplane, p.points
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(trace_csv_header(B.m, A.dim))
    counts = [0] * B.m
    for n, k, inner, x in reference_trace(command, p, horizon)[3]:
        if k is not None:
            counts[k - 1] += 1
        # csv.writer writes k = None (row 0, plane entries of map) as ""
        writer.writerow([n, k, format_scalar(inner), *counts, *map(format_scalar, x)])
    return buf.getvalue()


# an f64 set whose coordinates print as -0.0, 1e-05 and 1e+16
F64_TEXTS = {
    "normal": [0.0, 0.0, 1.0], "points": [[1e16, 1e-05, -1.0], [1e16, -0.0, 2.0]],
    "x0": [-0.0, 0.5, 0.25], "backend": "f64",
}


def test_json_text_is_json_dumps_of_the_report(capsys, tmp_path):
    # the CLI renders JSON records from per-state fragments; its bytes must
    # be those of json.dumps over the report dict, on the canonical problems
    # (fixed_at on halfspace_fixed, shadow_limit on halfspace_divergent,
    # {"a", "b"} offsets on the surd ones), the m-point sets above, seeded
    # rational and f64 m-point sets, which revisit states, and F64_TEXTS
    problems = [FIXTURES / f"{name}.json" for name in CANONICAL]
    for name, data in M_POINT_PROBLEMS.items():
        problems.append(write_problem(tmp_path, f"{name}.json", data))
    for i, data in enumerate(seeded_m_point_wires("json renderer", 12)):
        problems.append(write_problem(tmp_path, f"seeded_{i}.json", data))
    problems.append(write_problem(tmp_path, "f64_texts.json", F64_TEXTS))
    seen, values = set(), set()
    for path in map(str, problems):
        horizon = 1100 if "halfspace_divergent" in path else 150
        for command in ("run", "map", "closed-form"):
            argv = [command, "--problem", path, "--horizon", str(horizon), "--format", "json"]
            if command == "closed-form":
                argv.append("--fallback-iterate")
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert out == reference_json(command, path, horizon), (command, path)
            seen.update(k for k in ("fixed_at", "shadow_limit") if k in json.loads(out))
            values.update(line.strip().rstrip(",") for line in out.splitlines())
    assert seen == {"fixed_at", "shadow_limit"}
    assert {"-0.0", "1e-05", "1e+16"} <= values


def test_csv_text_is_csv_writer_of_the_cells(tmp_path):
    # the CLI joins each CSV line's cells unquoted; its bytes must be those
    # of csv.writer over cells formatted record by record, on the canonical
    # problems, the m-point sets above under every tie policy, seeded
    # rational and f64 m-point sets, and F64_TEXTS
    problems = [FIXTURES / f"{name}.json" for name in CANONICAL]
    for name, data in M_POINT_PROBLEMS.items():
        for policy in TiePolicy:
            wire = dict(data, tie_policy=policy.value)
            problems.append(write_problem(tmp_path, f"{name}_{policy.value}.json", wire))
    for i, data in enumerate(seeded_m_point_wires("csv renderer", 12)):
        problems.append(write_problem(tmp_path, f"seeded_{i}.json", data))
    problems.append(write_problem(tmp_path, "f64_texts.json", F64_TEXTS))
    out_path, cells = tmp_path / "out.csv", set()
    for path in map(str, problems):
        horizon = 1100 if "halfspace_divergent" in path else 150
        for command in ("run", "map", "closed-form"):
            argv = [command, "--problem", path, "--horizon", str(horizon), "--format", "csv",
                    "--out", str(out_path)]
            if command == "closed-form":
                argv.append("--fallback-iterate")
            assert main(argv) == 0
            text = out_path.read_bytes().decode()
            assert text == reference_csv(command, path, horizon), (command, path)
            assert text.split("\r\n")[1].startswith("0,,")
            cells.update(c for line in text.split("\r\n") for c in line.split(","))
    assert {"-0.0", "1e-05", "1e+16"} <= cells


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "drplane", "beatty", "--horizon", "2",
         "--format", "csv"],
        capture_output=True, text=True, cwd=str(FIXTURES.parent),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,u,v,w")


def help_text(capsys, argv):
    """What ``drplane <argv> --help`` prints, with all whitespace removed,
    so that argparse's wrapping at any width and version drops out."""
    with pytest.raises(SystemExit) as exit:
        main([*argv, "--help"])
    assert exit.value.code == 0
    return "".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("columns", [None, "50", "200"])
def test_help_lists_every_option_of_the_table(monkeypatch, capsys, columns):
    # each subcommand's help, and each of its options' flag and help text,
    # as SUBCOMMANDS gives them
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert sorted(SUBCOMMANDS) == sorted(COMMANDS)
    top = help_text(capsys, [])
    for name, (summary, options) in SUBCOMMANDS.items():
        assert name in top and "".join(summary.split()) in top
        text = help_text(capsys, [name])
        for flag, _, _, _, opt_help in options:
            assert flag in text and "".join((opt_help or "").split()) in text, (name, flag)


def argparse_vars(parser, argv):
    """vars() of parser.parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


FLAGS = sorted({opt[0] for _, options in SUBCOMMANDS.values() for opt in options})
CHOICES = sorted({c for _, options in SUBCOMMANDS.values() for opt in options
                  if isinstance(opt[2], tuple) for c in opt[2]})
ARG_VALUES = ["5", "0", "-5", "+7", "1_000", "x", "", "\u0665", *CHOICES, "xml",
              "-problem.json", str(FIXTURES / "rational_cycle.json")]
OPTION_TOKENS = [*FLAGS, "--hor", "--p", "--f"]
PARSER = build_parser()


@st.composite
def command_lines(draw):
    # half the lines use only the subcommand's own options, each with a
    # value unless it is a flag, so that many of them parse; the rest mix
    # in abbreviations, --opt=value, help, "--" and stray values
    command = draw(st.sampled_from([*SUBCOMMANDS, "bogus"]))
    own = SUBCOMMANDS.get(command, SUBCOMMANDS["run"])[1]
    value = st.sampled_from(ARG_VALUES)
    option = st.sampled_from(OPTION_TOKENS)
    piece = st.sampled_from(own).flatmap(
        lambda opt: st.just((opt[0],)) if opt[2] is bool else st.tuples(st.just(opt[0]), value)
    )
    if not draw(st.booleans()):
        piece |= st.one_of(
            st.tuples(option, value),
            st.tuples(option),
            st.builds(lambda o, v: (f"{o}={v}",), option, value),
            st.tuples(st.sampled_from(["-h", "--help", "--"])),
            st.tuples(value),
        )
    pieces = draw(st.lists(piece, max_size=6))
    if draw(st.booleans()):
        pieces.insert(0, ("--problem", str(FIXTURES / "rational_cycle.json")))
    return [command, *(token for p in pieces for token in p)]


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_direct_parse_is_argparse_or_defers(argv):
    # the direct parser returns argparse's namespace or None, and None
    # wherever argparse exits
    direct = parse_direct(argv)
    assert direct is None or vars(direct) == argparse_vars(PARSER, argv)


def readme_command_lines():
    """The argv of each drplane line in README's CLI example block."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("drplane ")]


def test_documented_and_golden_lines_skip_argparse():
    lines = readme_command_lines()
    assert len(lines) >= 8
    lines += [argv for key in GOLDEN for argv in golden_invocations(*key)]
    for argv in lines:
        direct = parse_direct(argv)
        assert direct is not None, argv
        assert vars(direct) == argparse_vars(PARSER, argv)


def test_direct_parse_reads_sys_argv(monkeypatch):
    argv = ["beatty", "--horizon", "3", "--format", "csv"]
    monkeypatch.setattr(sys, "argv", ["drplane", *argv])
    assert parse_direct() == parse_direct(argv)
    assert vars(parse_direct(argv)) == {"command": "beatty", "horizon": 3, "fmt": "csv", "out": None}


def test_abbreviated_and_equals_forms_print_the_same_bytes(capsys):
    problem = str(FIXTURES / "rational_cycle.json")
    outputs = {
        run_cli(capsys, "run", horizon, *value, "--problem", problem, "--format", "csv")
        for horizon, *value in (["--horizon", "5"], ["--hor", "5"], ["--horizon=5"])
    }
    assert len(outputs) == 1
    ((code, out, _),) = outputs
    assert code == 0 and len(out.splitlines()) == 7
