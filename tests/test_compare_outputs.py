"""The improve-only check of scripts/compare_outputs.py on synthetic records."""

import contextlib
import io
import json

from srq1.cli import run_cli

from oracles import bench_module

compare_outputs = bench_module("compare_outputs", "scripts")

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
