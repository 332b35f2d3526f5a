"""The improve-only check of scripts/compare_outputs.py on synthetic records."""

import contextlib
import io
import json
import math

import pytest

from srq1.analysis import PARTICLES
from srq1.cli import run_cli
from srq1.quadrature import DEFAULT_CONFIG

from oracles import bench_module

compare_outputs = bench_module("compare_outputs", "scripts")
HALF_PI = math.pi / 2

ARGV = {key: ["scan", "--quantity", "freq", "--particle", "boson", "--beta", "0.5",
              "--theta", theta]
        for key, theta in (("closer", "0:pi:5"), ("farther", "0:pi:7"), ("exit", "0.3"))}


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(argv) == 0
    return out.getvalue()


def _nudged(text, row):
    """text with the value of one data row 1e-6 (relative) off its oracle."""
    lines = text.split("\n")
    i = lines.index("theta,omega") + 1 + row
    theta, value = lines[i].split(",")
    lines[i] = f"{theta},{float(value) * (1 + 1e-6):.9g}"
    return "\n".join(lines)


def _record(tmp_path, name, entries):
    """A record as ``record --text`` writes it: key -> (argv, exit, stdout)."""
    texts = tmp_path / name
    texts.mkdir()
    doc = {"root": "synthetic", "texts": str(texts), "entries": {}}
    for key, (argv, code, text) in entries.items():
        compare_outputs._text_path(texts, key).write_text(text)
        doc["entries"][key] = {"argv": argv, "exit": code,
                               "stdout": compare_outputs._digest(text.encode()),
                               "stderr": compare_outputs._digest(b"")}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _pair(tmp_path, keys):
    """Records of the invocations ``keys``: one cell moved toward the oracle
    ("closer"), one away ("farther"), and one exit code changed ("exit")."""
    exact = {key: _stdout(argv) for key, argv in ARGV.items()}
    before = {**exact, "closer": _nudged(exact["closer"], 1)}
    after = {**exact, "farther": _nudged(exact["farther"], 3)}
    codes = {"exit": 1}
    return (_record(tmp_path, "before", {k: (ARGV[k], 0, before[k]) for k in keys}),
            _record(tmp_path, "after", {k: (ARGV[k], codes.get(k, 0), after[k]) for k in keys}))


def _diff(*args, **kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = compare_outputs.diff(*args, **kwargs)
    return code, out.getvalue()


def test_oracle_diff_names_each_changed_cell_and_fails_on_farther_and_exit(tmp_path):
    code, out = _diff(*_pair(tmp_path, ("closer", "farther", "exit")), oracle=True)
    assert code == 1
    lines = out.splitlines()
    cells = [line for line in lines if ": omega at " in line]
    assert len(cells) == 2
    assert cells[0].startswith("closer: omega at 0.7853981633974483: ")
    assert ", closer: " in cells[0] and "oracle " in cells[0] and " -> " in cells[0]
    assert cells[1].startswith("farther: omega at 1.5707963267948966: ")
    assert ", farther: " in cells[1]
    assert "exit: exit differ: " + str(ARGV["exit"]) in lines
    assert lines[-1] == ("2 changed cells checked against the oracle; 2 invocations "
                         "farther, not comparable or changed in exit code, stderr or argv")


def test_oracle_diff_passes_a_change_toward_the_oracle(tmp_path):
    a, b = _pair(tmp_path, ("closer",))
    assert _diff(a, b, oracle=True)[0] == 0
    assert _diff(a, b)[0] == 1  # the byte-identity diff still reports it


MAXIMA = ["maxima", "--particle", "electron", "--s", "0", "--beta", "0.6:0.9:3"]


def _maxima_edit(text, beta, cells):
    """A maxima table with the exists, theta_max and p_max cells of one row
    replaced: a callable of the old cells, or the new cells."""
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{beta},"))
    old = lines[i].split(",")[1:]
    lines[i] = ",".join([beta, *(cells(old) if callable(cells) else cells)])
    return "\n".join(lines)


def _maxima_pair(tmp_path, before, after):
    """Records of MAXIMA whose stdouts are the exact table edited by before
    and by after, each a list of (beta, cells) edits."""
    exact = _stdout(MAXIMA)
    texts = []
    for edits in (before, after):
        text = exact
        for beta, cells in edits:
            text = _maxima_edit(text, beta, cells)
        texts.append(text)
    return (_record(tmp_path, "before", {"maxima": (MAXIMA, 0, texts[0])}),
            _record(tmp_path, "after", {"maxima": (MAXIMA, 0, texts[1])}))


def _scaled(column, factor):
    return lambda old: [f"{float(c) * factor:.9g}" if i == column else c
                        for i, c in enumerate(old)]


def test_oracle_diff_judges_theta_max_and_p_max_against_the_root(tmp_path):
    # theta_max 1e-6 off the root before, at it after: closer; p_max at the
    # oracle before, 1e-6 off after: farther
    code, out = _diff(*_maxima_pair(tmp_path, [("0.75", _scaled(1, 1 + 1e-6))],
                                    [("0.9", _scaled(2, 1 + 1e-6))]), oracle=True)
    assert code == 1
    cells = [line for line in out.splitlines() if line.startswith("maxima: ")
             and " at " in line]
    assert len(cells) == 2
    assert cells[0].startswith("maxima: theta_max at 0.75: ") and ", closer: " in cells[0]
    assert "oracle 0.59143853462336" in cells[0]
    assert cells[1].startswith("maxima: p_max at 0.9: ") and ", farther: " in cells[1]


def test_oracle_diff_reports_each_exists_flip_with_the_oracle_margin(tmp_path):
    # a maximum reported where p has none (beta = 0.6) and one missed (0.75),
    # both mended: each flip agrees with the existence rule on the oracle
    a, b = _maxima_pair(tmp_path, [("0.6", ["true", "0.5", "0.5"]),
                                   ("0.75", ["false", "none", "none"])], [])
    code, out = _diff(a, b, oracle=True)
    flips = [line for line in out.splitlines() if ": exists at " in line]
    assert code == 0
    assert flips[0].startswith("maxima: exists at 0.6: true -> false, oracle margin none ")
    assert flips[1].startswith("maxima: exists at 0.75: false -> true, oracle margin 1.10e-02 ")
    assert all(", agrees: " in line for line in flips)
    # the reverse flips are refused by the checks of the new table
    code, out = _diff(b, a, oracle=True)
    assert code == 1 and "maxima: check fails: " in out


POLARIZATION = ["polarization", "--particle", "electron", "--beta", "0.95"]


def test_oracle_diff_leaves_an_identity_of_printed_cells_out_of_the_count(tmp_path):
    # q_left = 0.0980433779 is 4.8e-11 from the oracle, and 0.098043378 (=
    # 1 - q_right) 1.5e-10: the move to the first is closer, while the printed
    # q_right + q_left moves from 1 to 1 - 1e-10, which q_right's rounding sets
    exact = _stdout(POLARIZATION)
    assert "\n0.95,0.901956622,0.0980433779," in exact
    before = exact.replace("0.0980433779", "0.098043378")
    code, out = _diff(_record(tmp_path, "before", {"pol": (POLARIZATION, 0, before)}),
                      _record(tmp_path, "after", {"pol": (POLARIZATION, 0, exact)}),
                      oracle=True)
    assert code == 0
    lines = out.splitlines()
    assert [line.split(": ")[1] for line in lines if line.startswith("pol: q")] == [
        "q_right + q_left at 0.95", "q_left at 0.95"]
    assert ", identity, not judged against the oracle: " in lines[1]
    assert ", closer: " in lines[2]
    assert lines[-1].startswith("1 changed cells checked against the oracle; 0 invocations ")


TIE = ["scan", "--quantity", "p", "--particle", "boson", "--s", "1", "--beta", "0.999999",
       "--theta", "2.049417967569301"]


def _tie_pair(tmp_path, printed):
    """Records of TIE, in a directory of their own, whose p cells print
    printed[0], then printed[1]."""
    tmp_path.mkdir()
    exact = _stdout(TIE)
    return [_record(tmp_path, name, {"tie": (TIE, 0, exact.replace("0.0190261746", p))})
            for name, p in zip(("before", "after"), printed)]


def test_oracle_diff_breaks_a_rounding_tie_at_40_digits(tmp_path):
    # p = 0.019026174550000004 lies 4e-18 above the rounding boundary, closer
    # than the oracle's f_k resolve it; at 40 digits the upper print is nearer
    assert "\n2.04941797,0.0190261746\n" in _stdout(TIE)
    up = ("0.0190261745", "0.0190261746")
    code, out = _diff(*_tie_pair(tmp_path / "up", up), oracle=True)
    assert code == 0 and "tie: p (40 digits) at 2.049417967569301: " in out
    assert "oracle 0.019026174550000004, " in out and ", closer: " in out
    code, out = _diff(*_tie_pair(tmp_path / "down", up[::-1]), oracle=True)
    assert code == 1 and ", farther: " in out


def test_density_mp_is_the_program_density():
    # the tie-break's 40-digit density against the program's, to 1e-13,
    # off the electron's double limit
    for kind, zetas in (("boson", (-1,)), ("electron", (1, -1))):
        for zeta in zetas:
            for s in (0, 1, -1, 2, 3):
                for beta in (0.0, 0.7, 0.999999, 1.0):
                    for theta in (0.3, HALF_PI, 2.5):
                        if kind == "electron" and beta == 1.0 and theta == HALF_PI:
                            continue
                        want = float(compare_outputs.density_mp(kind, s, zeta, beta, theta))
                        got = PARTICLES[kind].density(s, zeta, beta, theta, DEFAULT_CONFIG)
                        assert got == pytest.approx(want, rel=1e-13, abs=1e-40), (
                            kind, zeta, s, beta, theta)
