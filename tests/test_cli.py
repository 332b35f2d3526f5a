import contextlib
import gc
import io
import json
import math
import random
import re
import time
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from srq1 import cli
from srq1.cli import COMMANDS, parse_angle, parse_range, run_cli
from srq1.errors import DomainError
from srq1.figures import FIGURE_SCANS
from srq1.io import ScanResult, format_number, serialize, write_csv, write_json

from oracles import bench_module


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------- parsing ----------

def test_parse_angle_symbolic():
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle("0.75") == 0.75
    from srq1.errors import DomainError
    with pytest.raises(DomainError):
        parse_angle("one")


def test_parse_range():
    grid = parse_range("0:pi:181")
    assert len(grid) == 181
    assert grid[0] == 0.0 and grid[-1] == math.pi
    assert grid[90] == math.pi / 2  # snapped exactly
    assert parse_range("0.3").tolist() == [0.3]
    from srq1.errors import DomainError
    with pytest.raises(DomainError):
        parse_range("0:1:1")
    with pytest.raises(DomainError):
        parse_range("0:1:2:3")


# ---------- serialization ----------

def test_format_number():
    assert format_number(math.inf) == "inf"
    assert format_number(-math.inf) == "-inf"
    assert format_number(float("nan")) == "nan"
    assert format_number("ambiguous") == "ambiguous"
    assert format_number(0.123456789123) == "0.123456789"


def test_csv_empty_rows_is_metadata_only():
    result = ScanResult(metadata={"quantity": "none"}, columns=[], rows=[])
    assert write_csv(result) == "# quantity=none\n"


def test_csv_rows_and_header():
    result = ScanResult(metadata={"a": 1}, columns=["x", "y"],
                        rows=[[1.0, 2.0], [3.0, math.inf], [5.0, 6.0]])
    lines = write_csv(result).splitlines()
    assert lines[0] == "# a=1"
    assert lines[1] == "x,y"
    assert len(lines) == 5
    assert lines[3] == "3,inf"


def test_json_structure():
    result = ScanResult(metadata={"a": 1}, columns=["x"], rows=[[math.inf], ["ambiguous"]])
    doc = json.loads(write_json(result))
    assert doc["rows"] == [["inf"], ["ambiguous"]]
    assert doc["metadata"]["a"] == "1"


def test_serialize_unknown_format():
    with pytest.raises(ValueError):
        serialize(ScanResult(), "xml")


# ---------- subcommands ----------

def test_table1_csv():
    code, out, _ = run(["table1", "--format", "csv"])
    assert code == 0
    cols, rows = csv_rows(out)
    assert cols == ["beta", "f_b", "f_e", "k_minus", "k_plus"]
    assert len(rows) == 11
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-8)


def test_table1_json_has_11_rows():
    code, out, _ = run(["table1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 11


def test_crossover_json():
    code, out, _ = run(["crossover"])
    assert code == 0
    doc = json.loads(out)
    beta0, gamma0 = doc["rows"][0]
    assert 0.81999 <= beta0 <= 0.82000
    assert 1.74709 <= gamma0 <= 1.74711


def test_scan_density_zero_in_orbit_plane():
    code, out, _ = run(["scan", "--quantity", "p", "--particle", "boson",
                        "--s", "3", "--beta", "0.9", "--theta", "0:pi:181"])
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 181
    mid = rows[90]
    assert float(mid[0]) == pytest.approx(math.pi / 2, abs=1e-8)
    assert mid[1] == "0"


def test_scan_power_inf_sentinel():
    code, out, _ = run(["scan", "--quantity", "power", "--particle", "electron",
                        "--beta", "0:1:3"])
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[-1][1] == "inf"


def test_scan_q_local_ambiguous_sentinel():
    code, out, _ = run(["scan", "--quantity", "q_local", "--particle", "electron",
                        "--s", "2", "--beta", "1", "--theta", "0:pi:5",
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    cells = [row[1] for row in doc["rows"]]
    assert cells.count("ambiguous") == 1
    assert doc["rows"][2][1] == "ambiguous"  # the pi/2 grid point


def test_scan_p_beta_one_flags_metadata():
    code, out, _ = run(["scan", "--quantity", "p", "--particle", "electron",
                        "--s", "2", "--beta", "1", "--theta", "0:pi:5"])
    assert code == 0
    assert any(line.startswith("# ambiguous=") for line in out.splitlines())


def test_freq_deg_unit():
    code, out, _ = run(["freq", "--particle", "electron", "--beta", "0.5",
                        "--theta", "0:90:4", "--angle-unit", "deg"])
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[-1][0]) == 90.0
    assert float(rows[0][1]) > 0


def test_maxima_subcommand():
    code, out, _ = run(["maxima", "--particle", "electron", "--s", "0",
                        "--beta", "0.6:0.9:2"])
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][1] == "false" and rows[1][1] == "true"


def test_polarization_subcommand():
    code, out, _ = run(["polarization", "--particle", "boson", "--beta", "0"])
    assert code == 0
    cols, rows = csv_rows(out)
    assert cols == ["beta", "q_right", "q_left", "q_sigma", "q_pi"]
    assert float(rows[0][3]) == pytest.approx(0.75, abs=1e-8)


def test_limits_subcommand():
    code, out, _ = run(["limits", "--s", "0", "--theta", "0:pi:21"])
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 21
    assert float(rows[10][1]) == pytest.approx(2.0 / (2 * math.e - 3), rel=1e-8)


# ---------- exit codes and determinism ----------

def test_exit_code_usage_error():
    code, _, err = run(["scan", "--no-such-flag"])
    assert code == 1
    assert err


def test_exit_code_domain_error():
    code, _, err = run(["scan", "--quantity", "p", "--particle", "boson",
                        "--beta", "1.5", "--theta", "0:pi:5"])
    assert code == 1
    assert "domain error" in err


def test_exit_code_convergence_error():
    code, _, err = run(["scan", "--quantity", "q_halfplane", "--particle",
                        "electron", "--s", "2", "--beta", "0.9",
                        "--abs-tol", "1e-300", "--rel-tol", "1e-300",
                        "--max-depth", "10"])
    assert code == 2
    assert "convergence error" in err


# Scans whose integrals cannot meet their tolerance: the message is that of
# the first integral to fail when each is evaluated on its own in the order
# betas in grid order; within a beta f_1, f_2, f_3, then the width's weighted
# pieces and its plain pieces; electron before boson in ratio, boson before
# electron in table1.  An f_2 up to x = 1/sqrt2 fails with its power series'
# bound, a width piece with its quadrature's.
_UNREACHABLE = ["--abs-tol", "1e-300", "--rel-tol", "1e-300", "--max-depth", "10"]


def _series_error(bound, tol):
    return f"power series error bound {bound} exceeds tolerance {tol}"


FIRST_FAILURE = [
    ([*q, "--particle", p, *s, "--beta", "0.2:0.95:4", *_UNREACHABLE], _series_error(bound, tol))
    for p, bound, tol in (("boson", "3.988e-14", "1.982e-300"),
                          ("electron", "4.041e-14", "2.000e-300"))
    for q, s in ((["scan", "--quantity", "power"], []),
                 (["scan", "--quantity", "q_halfplane"], ["--s", "2"]),
                 (["polarization"], []),
                 (["scan", "--quantity", "eff_angle"], ["--s", "3"]))
] + [
    (["scan", "--quantity", "ratio", "--particle", p, "--beta", "0.2:0.95:4", *_UNREACHABLE],
     _series_error("4.041e-14", "2.000e-300")) for p in ("boson", "electron")
] + [
    (["table1", *_UNREACHABLE], _series_error("3.952e-14", "2.000e-300")),
    (["scan", "--quantity", "ratio", "--beta", "0.95:0.2:4", *_UNREACHABLE],
     _series_error("4.808e-14", "1.710e-300")),
    (["scan", "--quantity", "eff_angle", "--s", "0", "--beta", "0.95:0.2:4", *_UNREACHABLE],
     _series_error("5.271e-14", "1.459e-300")),
    # the beta = 1 profile's f_2, f_3 need no integral: beta 1 of 4 fails in its
    # first weighted width piece, and betas 2 to 4 in their f_2, which run first
    (["scan", "--quantity", "eff_angle", "--particle", "electron", "--s", "3",
      "--beta", "1:0.9:4", *_UNREACHABLE],
     "quadrature did not converge at max_depth=10: residual error bound 8.576e-16 exceeds "
     "tolerance 1.000e-300"),
]


@pytest.mark.parametrize("argv, message", FIRST_FAILURE,
                         ids=[" ".join(a) for a, _ in FIRST_FAILURE])
def test_first_failing_integral_is_reported(argv, message):
    assert run(argv) == (2, "", f"convergence error: {message}\n")


@pytest.mark.parametrize("particle, beta", [("boson", "0.2"), ("electron", "0.45"),
                                            ("electron", "0.5"), ("electron", "0.95")])
def test_an_unreachable_tolerance_ends_where_the_series_serves(particle, beta):
    # at the default max_depth a tolerance below rounding once ran without
    # bound; the series' bound refuses it at once
    argv = ["scan", "--quantity", "power", "--particle", particle, "--beta", beta,
            "--abs-tol", "1e-300", "--rel-tol", "1e-300"]
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert re.fullmatch(r"convergence error: power series error bound \d\.\d{3}e-14 exceeds "
                        r"tolerance \d\.\d{3}e-300\n", err)


def test_widths_next_to_beta_one_converge_at_depth_ten():
    # their f_2, f_3 settle at max_depth 10 on the graded s-form pieces
    argv = ["scan", "--quantity", "eff_angle", "--particle", "electron", "--s", "3",
            "--beta", "0.999998:0.9999999:4", "--abs-tol", "1e-10", "--rel-tol", "1e-10",
            "--max-depth", "10"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    columns, rows = csv_rows(out)
    assert columns == ["beta", "delta"] and "# zeta=-1\n" in out
    rms_width = bench_module("oracle").rms_width
    want = [rms_width("electron", 3, -1, beta) for beta in parse_range(argv[8])]
    assert [float(delta) for _, delta in rows] == pytest.approx(want, rel=1e-8, abs=0.0)


def test_determinism_byte_identical():
    argv = ["scan", "--quantity", "p", "--particle", "electron", "--s", "1",
            "--beta", "0.95", "--theta", "0:pi:91"]
    _, out1, _ = run(argv)
    _, out2, _ = run(argv)
    assert out1 == out2


def test_version_exits_zero():
    code, out, _ = run(["--version"])
    assert code == 0
    assert out == "srq1, version 0.1.0\n"


# exit codes of edge argv, as recorded before the parser was replaced
_POWER = ["scan", "--quantity", "power"]
CONTRACT = [
    ([], 1),
    (["--help"], 0),
    (["scan"], 1),                        # --quantity is required
    (["nosuch"], 1),
    (["sc"], 1),                          # no abbreviated subcommands
    (["scan", "--quant", "power"], 1),    # nor options
    (_POWER + ["--beta"], 1),             # an option without its value
    (_POWER + ["extra"], 1),
    (_POWER + ["--abs-tol", "x"], 1),
    (_POWER + ["--beta=0.5"], 0),
    (_POWER + ["--format", "json", "--format", "csv"], 0),
    (["scan", "--quantity", "q_halfplane", "--particle", "electron", "--s", "-1",
      "--beta", "0.5"], 0),
    (_POWER + ["--particle", "electron", "--zeta", "+1", "--beta", "0.5"], 0),
    # an infinite tolerance would let every integral stop at its first panel
    (_POWER + ["--particle", "electron", "--beta", "0.999999", "--abs-tol", "inf",
               "--rel-tol", "inf"], 1),
    # and so would a huge finite one
    (_POWER + ["--particle", "electron", "--beta", "0.999999", "--abs-tol", "1e300",
               "--rel-tol", "1e300"], 1),
]


@pytest.mark.parametrize("argv, code", CONTRACT, ids=[" ".join(a) or "<none>" for a, _ in CONTRACT])
def test_cli_contract(argv, code):
    got, out, err = run(argv)
    assert got == code
    if code:
        assert out == "" and err
    else:
        assert out and err == ""


# The exact bytes of the parser's own messages.  argv goes to the parser of
# the subcommand it names; the top-level parser's usage shows where that
# parser leaves a token unrecognized, as where the top level dispatched.
_TOP_USAGE = "usage: srq1 [--version] [--help] COMMAND ...\n"
_SCAN_USAGE = (
    "usage: srq1 scan --quantity\n"
    "                 {freq,p,q_local,q_halfplane,power,ratio,max_angle,eff_angle,table1,limits}\n"
    "                 [--particle {boson,electron}] [--zeta {+1,-1,1}]\n"
    "                 [--s {0,1,-1,2,3}] [--beta BETA] [--theta THETA]\n"
    "                 [--format {csv,json}] [--angle-unit {rad,deg}]\n"
    "                 [--abs-tol ABS_TOL] [--rel-tol REL_TOL]\n"
    "                 [--max-depth MAX_DEPTH] [--help]\n")
_SCAN_HELP = _SCAN_USAGE + """
Evaluate one quantity over a beta grid (--beta, 0 if absent) or a theta grid
(--theta, 0:pi:181 if absent).

options:
  --quantity {freq,p,q_local,q_halfplane,power,ratio,max_angle,eff_angle,table1,limits}
  --particle {boson,electron}
                        [default: boson]
  --zeta {+1,-1,1}      Electron spin along (+1) or against (-1) the field.
                        [default: -1]
  --s {0,1,-1,2,3}      [default: 0]
  --beta BETA           Speed value or range a:b:n.
  --theta THETA         Angle value or range a:b:n.
  --format {csv,json}   [default: csv]
  --angle-unit {rad,deg}
                        [default: rad]
  --abs-tol ABS_TOL     [default: 1e-10]
  --rel-tol REL_TOL     [default: 1e-10]
  --max-depth MAX_DEPTH
                        [default: 60]
  --help                Show this message and exit.
"""
PARSER_BYTES = [
    ([], 1, "", _TOP_USAGE + "srq1: error: the following arguments are required: COMMAND\n"),
    (["nosuch"], 1, "", _TOP_USAGE + "srq1: error: argument COMMAND: invalid choice: 'nosuch' "
     "(choose from 'table1', 'crossover', 'freq', 'scan', 'maxima', 'polarization', "
     "'limits')\n"),
    (["scan"], 1, "", _SCAN_USAGE
     + "srq1 scan: error: the following arguments are required: --quantity\n"),
    (["scan", "--quantity", "nosuch"], 1, "", _SCAN_USAGE
     + "srq1 scan: error: argument --quantity: invalid choice: 'nosuch' (choose from 'freq', "
     "'p', 'q_local', 'q_halfplane', 'power', 'ratio', 'max_angle', 'eff_angle', 'table1', "
     "'limits')\n"),
    (_POWER + ["extra"], 1, "", _TOP_USAGE + "srq1: error: unrecognized arguments: extra\n"),
    (["table1", "--beta", "0.5"], 1, "",
     _TOP_USAGE + "srq1: error: unrecognized arguments: --beta=0.5\n"),
    (["maxima", "--s", "2", "--beta", "0.5"], 1, "",
     "usage: srq1 maxima --particle {boson,electron} --s {0,1,3} [--zeta {+1,-1,1}]\n"
     "                   --beta BETA [--format {csv,json}] [--angle-unit {rad,deg}]\n"
     "                   [--abs-tol ABS_TOL] [--rel-tol REL_TOL]\n"
     "                   [--max-depth MAX_DEPTH] [--help]\n"
     "srq1 maxima: error: argument --s: invalid choice: '2' (choose from '0', '1', '3')\n"),
    (["scan", "--help"], 0, _SCAN_HELP, ""),
    (["--version"], 0, "srq1, version 0.1.0\n", ""),
    # argv that the fast reader leaves to the parser
    (_POWER + ["--max-depth", "2.5"], 1, "", _SCAN_USAGE
     + "srq1 scan: error: argument --max-depth: invalid int value: '2.5'\n"),
    (_POWER + ["--format", "xml", "--format", "csv"], 1, "", _SCAN_USAGE
     + "srq1 scan: error: argument --format: invalid choice: 'xml' (choose from 'csv', "
     "'json')\n"),
    (_POWER + ["--beta"], 1, "", _SCAN_USAGE
     + "srq1 scan: error: argument --beta: expected one argument\n"),
    (["freq", "--particle", "boson", "--beta", "0.5", "--zeta", "1"], 1, "",
     _TOP_USAGE + "srq1: error: unrecognized arguments: --zeta=1\n"),
]


@pytest.mark.parametrize("argv, code, out, err", PARSER_BYTES,
                         ids=[" ".join(a) or "<none>" for a, *_ in PARSER_BYTES])
def test_parser_messages_byte_for_byte(monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    assert run(argv) == (code, out, err)


def test_repeated_option_last_wins():
    assert run(_POWER + ["--format", "json", "--format", "csv"]) == run(_POWER)
    assert run(_POWER + ["--beta=0.5"]) == run(_POWER + ["--beta", "0.5"])
    assert (run(["scan", "--quantity=power", "--beta=0.5", "--beta=0.6"])
            == run(_POWER + ["--beta", "0.6"]))


# ---------- figure regeneration ----------

# the bytes of each figure scan are pinned in golden_outputs.json
def test_every_figure_scan_runs():
    assert set(FIGURE_SCANS) == set(range(1, 17))
    for fig, scans in FIGURE_SCANS.items():
        for argv in scans:
            code, out, _ = run(argv)
            assert code == 0, (fig, argv)
            _, rows = csv_rows(out)
            assert rows, (fig, argv)
            for row in rows:
                for cell in row[1:]:
                    # every value is finite or an explicit sentinel
                    if cell in ("inf", "ambiguous", "none", "true", "false"):
                        continue
                    assert math.isfinite(float(cell)), (fig, argv, row)


# ---------- golden outputs of the subcommands ----------

_TOLERANCES = "# abs_tol=1e-10\n# rel_tol=1e-10\n# max_depth=60\n"
GOLDEN = {
    "freq --particle electron --beta 0.5 --theta 0:pi/2:3":
        "# quantity=freq\n# version=0.1.0\n" + _TOLERANCES
        + "# angle_unit=rad\n# particle=electron\n# beta=0.5\n# units=m0*c^2/hbar\n"
        "theta,omega\n0,0.144337567\n0.785398163,0.149154177\n1.57079633,0.154700538\n",
    "polarization --particle electron --zeta 1 --beta 0:0.9:3":
        "# quantity=q_halfplane\n# version=0.1.0\n" + _TOLERANCES
        + "# angle_unit=rad\n# particle=electron\n# zeta=1\n"
        "beta,q_right,q_left,q_sigma,q_pi\n"
        "0,0.875,0.125,0.25,0.75\n"
        "0.45,0.875310969,0.124689031,0.25040774,0.74959226\n"
        "0.9,0.889886903,0.110113097,0.270184726,0.729815274\n",
    "limits --s 1 --theta 0:pi:3":
        "# quantity=limits\n# version=0.1.0\n" + _TOLERANCES
        + "# angle_unit=rad\n# particle=electron\n# zeta=-1\n# s=1\n"
        "# units=dimensionless\n"
        "theta,p_bar\n0,0.278905275\n1.57079633,0.410414067\n3.14159265,0\n",
    "maxima --particle electron --s 0 --beta 0.6:0.9:3 --angle-unit deg":
        "# quantity=max_angle\n# version=0.1.0\n" + _TOLERANCES
        + "# angle_unit=deg\n# particle=electron\n# zeta=-1\n# s=0\n"
        "beta,exists,theta_max,p_max\n"
        "0.6,false,none,none\n"
        "0.75,true,33.8869319,0.532180525\n"
        "0.9,true,71.6545435,0.534446272\n",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_subcommand_golden_output(argv):
    code, out, _ = run(argv.split())
    assert code == 0
    assert out == GOLDEN[argv]


def test_boson_ignores_zeta():
    # the boson has no spin: zeta must not swap its linear components
    for argv in (["--quantity", "p", "--s", "2", "--beta", "0.9", "--theta", "0:pi:7"],
                 ["--quantity", "q_local", "--s", "3", "--beta", "0.9", "--theta", "0:pi:7"],
                 ["--quantity", "q_halfplane", "--s", "2", "--beta", "0:0.9:3"],
                 ["--quantity", "power", "--beta", "0:0.9:3"]):
        rows = [csv_rows(run(["scan", "--particle", "boson", "--zeta", zeta] + argv)[1])
                for zeta in ("1", "-1")]
        assert rows[0] == rows[1], argv


def test_run_cli_keeps_no_reference_to_its_streams():
    refs = []
    for argv in (["table1"], ["scan", "--quantity", "p", "--beta", "2"],
                 ["scan", "--no-such-flag"], ["--help"], ["--version"], ["scan", "--help"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            run_cli(argv)
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


# ---------- input validation at the boundary ----------

def assert_rejected(argv, message):
    code, out, err = run(argv)
    assert code == 1, argv
    assert out == "", argv
    assert message in err, (argv, err)


def test_only_pi_and_half_pi_are_symbolic():
    for token in ("pi/4", "2pi"):
        with pytest.raises(DomainError):
            parse_angle(token)
        assert_rejected(["scan", "--quantity", "p", "--theta", f"0:{token}:5"],
                        "cannot parse")


def test_non_finite_values_rejected():
    for token in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(DomainError):
            parse_angle(token)
        assert_rejected(["scan", "--quantity", "p", "--theta", token], "finite")
        assert_rejected(["scan", "--quantity", "power", "--beta", f"0:{token}:3"], "finite")


def test_theta_outside_zero_pi_rejected():
    assert_rejected(["scan", "--quantity", "p", "--theta", "0:3.2:3"], "theta")
    assert_rejected(["scan", "--quantity", "q_local", "--theta", "0:190:3",
                     "--angle-unit", "deg"], "theta")
    assert_rejected(["limits", "--s", "0", "--theta", "-0.1"], "theta")
    assert_rejected(["freq", "--particle", "boson", "--beta", "0.5", "--theta", "0:4:3"],
                    "theta")
    # the endpoint 180 deg converts to pi exactly
    assert run(["scan", "--quantity", "p", "--theta", "0:180:3", "--angle-unit", "deg"])[0] == 0


def test_theta_scans_take_a_single_beta():
    for quantity in ("p", "q_local", "freq"):
        assert_rejected(["scan", "--quantity", quantity, "--beta", "0:1:5"], "single beta")
    assert_rejected(["freq", "--particle", "electron", "--beta", "0:0.5:2"], "single beta")


def test_grid_size_capped_before_building():
    # 1000001 points would be accepted by the arithmetic; the cap stops it
    # before any list is built
    with pytest.raises(DomainError, match="at most 1000000"):
        parse_range("0:pi:1000001")
    assert_rejected(["scan", "--quantity", "p", "--theta", "0:pi:1000001"], "at most")


def test_beta_scan_rejects_theta():
    # a beta scan has no theta axis, so an explicit --theta would be ignored
    assert_rejected(_POWER + ["--theta", "0:1:3"], "does not read --theta")
    assert_rejected(["scan", "--quantity", "eff_angle", "--theta", "0:pi:181"],
                    "does not read --theta")
    # the default beta of scan is 0
    _, rows = csv_rows(run(_POWER)[1])
    assert [r[0] for r in rows] == ["0"]


def test_scan_without_beta_rejects_beta():
    assert_rejected(["scan", "--quantity", "limits", "--beta", "0.5"], "does not read --beta")
    assert_rejected(["scan", "--quantity", "table1", "--beta", "0.5"], "does not read --beta")
    assert_rejected(["scan", "--quantity", "table1", "--theta", "0:1:3"],
                    "does not read --theta")
    # the default theta grid of scan is 0:pi:181
    _, rows = csv_rows(run(["scan", "--quantity", "limits"])[1])
    assert len(rows) == 181


def test_scan_limits_labels_electron():
    # the limit profile is the electron's whatever --particle says
    for particle in ("boson", "electron"):
        out = run(["scan", "--quantity", "limits", "--particle", particle,
                   "--theta", "0:pi:3"])[1]
        assert "# particle=electron\n" in out
        assert out == run(["limits", "--s", "0", "--theta", "0:pi:3"])[1]


def test_scan_table1_labels_the_angle_unit():
    code, out, _ = run(["scan", "--quantity", "table1", "--angle-unit", "deg"])
    assert code == 0
    assert "# angle_unit=deg\n" in out
    assert "# angle_unit=rad\n" in run(["scan", "--quantity", "table1"])[1]


# ---------- fuzzing the argv ----------

_SUBCOMMANDS = ["table1", "crossover", "freq", "scan", "maxima", "polarization", "limits"]
_JUNK = ["", "x", "--bogus", "-h", "--quant", "nosuch", "1:2", "0:1:x", "1e999", "-0.5"]
_points = st.sampled_from(["0", "0.5", "0.9", "0.999999", "1", "1.5", "-1", "pi", "pi/2",
                           "nan", "inf", "-inf", "90", "180", "200", "3.2"])
_grids = st.builds(lambda a, b, n: f"{a}:{b}:{n}", _points, _points, st.integers(-1, 50))
_CHOICES = {
    "--quantity": ["freq", "p", "q_local", "q_halfplane", "power", "ratio", "max_angle",
                   "eff_angle", "table1", "limits", "crossover", "polarization"],
    "--particle": ["boson", "electron"], "--zeta": ["+1", "-1", "1", "0"],
    "--s": ["0", "1", "-1", "2", "3", "4"], "--format": ["csv", "json", "xml"],
    "--angle-unit": ["rad", "deg"], "--abs-tol": ["1e-10", "1e-6", "0", "-1", "nan"],
    "--rel-tol": ["1e-10", "1e-6", "0", "-1"], "--max-depth": ["10", "60", "9", "2.5"],
}


def _option(name):
    # mostly a value of the option's own kind, sometimes any token
    own = (st.one_of(_points, _grids) if name in ("--beta", "--theta")
           else st.sampled_from(_CHOICES[name]))
    any_token = st.one_of(_points, st.sampled_from(_JUNK + _SUBCOMMANDS))
    value = st.sampled_from([own] * 7 + [any_token]).flatmap(lambda strategy: strategy)
    return st.tuples(st.just(name), value)


_REQUIRED = {"scan": ["--quantity"], "freq": ["--particle", "--beta"], "limits": ["--s"],
             "maxima": ["--particle", "--s", "--beta"], "polarization": ["--particle", "--beta"]}
_more = st.lists(st.sampled_from([*_CHOICES, "--beta", "--theta"]).flatmap(_option), max_size=3)


def _call(command):
    # the subcommand's required options first, so that most calls get past the parser
    return st.builds(lambda required, more, junk:
                     [command] + [t for pair in list(required) + more for t in pair] + junk,
                     st.tuples(*map(_option, _REQUIRED.get(command, []))), _more,
                     st.sampled_from([[]] * 20 + [[token] for token in _JUNK]))


_argv = st.sampled_from(_SUBCOMMANDS * 6 + _JUNK).flatmap(_call)


@settings(max_examples=300, deadline=None)
@given(argv=_argv)
def test_fuzz_run_cli(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv)
    assert code in (0, 1, 2), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code:
        assert out == "", argv
        return
    cells = (json.loads(out)["rows"] if out.startswith("{") else csv_rows(out)[1])
    for row in cells:
        for cell in row:
            if isinstance(cell, bool) or cell in ("inf", "ambiguous", "none", "true", "false"):
                continue
            assert math.isfinite(float(cell)), (argv, row)


# ---------- the contract on invalid argv ----------

# valid calls that take little work; each fuzzed argv is one of them with one
# fault added
_VALID = [
    ["table1"], ["crossover"],
    ["scan", "--quantity", "power", "--beta", "0.5"],
    ["scan", "--quantity", "eff_angle", "--particle", "electron", "--beta", "0.3"],
    ["scan", "--quantity", "p", "--beta", "0.5", "--theta", "0:pi:5"],
    ["scan", "--quantity", "q_local", "--particle", "electron", "--s", "2", "--beta", "1",
     "--theta", "0:pi:5"],
    ["scan", "--quantity", "limits", "--theta", "0:1:3"],
    ["freq", "--particle", "boson", "--beta", "0.5", "--theta", "0:90:3", "--angle-unit", "deg"],
    ["maxima", "--particle", "boson", "--s", "0", "--beta", "0.5"],
    ["polarization", "--particle", "electron", "--beta", "0.5"],
    ["limits", "--s", "0", "--theta", "0:1:3"],
]
# values that no beta or theta option accepts (1_0 is left out: Python's
# int and float read it as 10)
_BAD_GRID = ["nan", "inf", "-inf", "", "0x1p-1", "1e999", "-4", "200", "x", "pi/3", "0:1:1",
             "0:1:0", "0:1:-3", "0:1:x", "0:1:2.5", "0:1:", ":1:3", "0:nan:3", "inf:1:3",
             "0:1:1000001", "0:1:2:3"]
_BAD_OPTION = {
    "--abs-tol": ["nan", "inf", "-inf", "0", "-1e-10", "", "0x1p-1", "x", "1e300", "0.5"],
    "--rel-tol": ["nan", "inf", "-inf", "0", "-1e-10", "", "0x1p-1", "x", "1e300", "0.5"],
    "--max-depth": ["9", "2.5", "nan", "inf", "", "0x10", "-1"],
    "--particle": ["muon", "", "Boson", "nan"], "--s": ["4", "-2", "", "nan", "0x1p-1"],
    "--zeta": ["0", "2", "", "inf"], "--format": ["xml", ""], "--angle-unit": ["grad", ""],
    "--quantity": ["nosuch", "", "crossover", "polarization"],
    "--beta": _BAD_GRID, "--theta": _BAD_GRID,
}
_OPTIONS_OF = {command.name: command.options.split() for command in COMMANDS}
# options that the call's quantity or subcommand does not read
_NOT_READ = {
    "table1": ["--beta", "0.5"], "crossover": ["--theta", "1"],
    "power": ["--theta", "0:1:3"], "eff_angle": ["--theta", "1"],
    "p": ["--beta", "0:1:3"], "q_local": ["--beta", "0.5:0.6:2"], "limits": ["--beta", "0.5"],
    "freq": ["--s", "0"], "maxima": ["--theta", "0:1:3"], "polarization": ["--s", "0"],
}


def _invalid_argv(rng):
    argv = list(rng.choice(_VALID))
    fault = rng.randrange(8)
    if fault > 3:  # half of the calls: a bad value of one of its options, which the last sets
        option = rng.choice(_OPTIONS_OF[argv[0]])
        return argv + [option, rng.choice(_BAD_OPTION[option])]
    if fault == 1:  # an option the call does not read
        return argv + _NOT_READ[argv[2] if argv[0] == "scan" else argv[0]]
    if fault == 2:  # a stray positional
        argv.insert(rng.choice([i for i in range(1, len(argv) + 1)
                                if not argv[i - 1].startswith("--")]),
                    rng.choice(["extra", "0.5", "scan", "", "nan", "-"]))
        return argv
    if fault == 3:  # an unknown subcommand
        return [rng.choice(["", "sc", "nosuch", "SCAN", "--scan", "nan"])] + argv[1:]
    # a required option left out
    required = [i for i, t in enumerate(argv) if t in ("--quantity", "--particle", "--beta")
                and not (argv[0] == "scan" and t != "--quantity")]
    if not required:
        return argv + ["--format", "yaml"]
    i = rng.choice(required)
    return argv[:i] + argv[i + 2:]


def test_invalid_argv_exit_with_a_message_only():
    rng = random.Random(11)
    dashed = [_POWER + ["--beta", "--"], _POWER + ["--abs-tol", "--"]]
    for argv in [*(_invalid_argv(rng) for _ in range(300)), *dashed]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv)
        assert code in (1, 2) and out == "", argv
        assert err and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("command", COMMANDS, ids=[command.name for command in COMMANDS])
def test_an_option_value_dashes_is_named(command):
    # argparse reads the value "--" as no value at all; each option of each
    # subcommand refuses it with one line, wherever it stands
    valid = next(argv for argv in _VALID if argv[0] == command.name)
    for option in command.options.split():
        for argv in (valid + [option, "--"], [valid[0], f"{option}=--", *valid[1:]]):
            assert run(argv) == (1, "", f"domain error: option {option} needs a value, "
                                        "got '--'\n"), argv


# ---------- the argv reader against argparse ----------

def _key(args):
    # floats by repr, so that nan equals nan and 1 differs from 1.0
    return {k: (type(v), repr(v) if isinstance(v, float) else v) for k, v in args.items()}


def _read_as_argparse(argv):
    """True if the reader takes argv; then assert that its namespace is the
    one the subcommand's argparse parser gives."""
    argv = cli._joined(argv)
    try:
        args = cli._read(argv)
    except DomainError:  # a value "--", which argparse would read as no value
        assert any(token.partition("=")[2] == "--" for token in argv[1:]), argv
        return False
    if args is None:
        return False
    namespace, rest = cli._SUBPARSERS[argv[0]].parse_known_args(argv[1:])
    assert rest == [] and _key(args) == _key(vars(namespace)), argv
    return True


def test_reader_agrees_with_argparse_on_invalid_argv():
    rng = random.Random(11)
    taken = sum(_read_as_argparse(_invalid_argv(rng)) for _ in range(1000))
    assert 0 < taken < 1000  # options a call does not read pass the parser


@seed(28)
@settings(max_examples=500, deadline=None, database=None)
@given(argv=_argv)
def test_reader_agrees_with_argparse_on_fuzzed_argv(argv):
    _read_as_argparse(argv)


def test_workload_and_edge_argv_take_the_reader():
    workloads = bench_module("workloads")
    edges = bench_module("compare_outputs", "scripts")
    src = Path(__file__).resolve().parents[1] / "src"
    argvs = [argv for name in workloads.WORKLOADS for s in (0, 1)
             for argv in getattr(workloads, name)(s, src)]
    argvs += [argv for argv in edges.EDGE_ARGV if argv not in edges.PARSER_ERRORS]
    assert all(_read_as_argparse(argv) for argv in argvs)
    # argparse drops a value "--", and reads --beta=-- as no value at all
    assert not any(_read_as_argparse(argv)
                   for argv in [*edges.PARSER_ERRORS, _POWER + ["--beta", "--"]])
