#!/usr/bin/env python3
"""Byte-identity gate: digests of every benchmark invocation, and their diff.

``record`` runs each argv of seeds 0 and 1 of the three workloads of
``bench/workloads.py`` (370 invocations), plus the 223 fixed ``EDGE_ARGV``,
in a fresh ``srq1`` process each and writes, per invocation, the sha256 of
its stdout and of its stderr and its exit code to a JSON file.  ``diff``
compares two such files and exits 1 if any invocation differs.  ``--root``
names the checkout whose ``src/`` is run (default: this one), so one copy
of this script records two trees:

    python3 scripts/compare_outputs.py record before.json --root ../parent
    python3 scripts/compare_outputs.py record after.json
    python3 scripts/compare_outputs.py diff before.json after.json

The argv lists come from this checkout's ``bench/workloads.py``, which is
only imported; the figures workload reads ``FIGURE_SCANS`` from the
``--root`` tree's sources.

The improve-only check: ``record --text`` also keeps each stdout, under
``.bench_out/<record name>/``, and ``diff --oracle`` reads the two stdouts of
every invocation whose stdout differs.  It runs the ``check_all`` of
``bench/checks.py`` on each, with ``checks.close`` replaced by a recorder
(nothing in ``bench/`` changes), and prints every cell that changed with its
abscissa, both printed values, the oracle value, both relative errors, and
whether the change is closer, equal or farther.  It exits 1 if any cell is
farther or cannot be compared, or if any exit code, stderr or argv changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is

import checks  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1)

_UNREACHABLE = ["--abs-tol", "1e-300", "--rel-tol", "1e-300", "--max-depth", "10"]
_BETA_SCANS = [["scan", "--quantity", q, "--particle", p, *args]
               for p in ("boson", "electron")
               for q, args in (("eff_angle", ["--s", "3", "--zeta", "1"]),
                               ("power", ["--zeta", "1"]),
                               ("q_halfplane", ["--s", "2", "--zeta", "1"]),
                               ("ratio", ["--zeta", "1"]))]
_BETA_SCANS += [["polarization", "--particle", p, "--zeta", "1"] for p in ("boson", "electron")]
# Edge calls beside the workloads: beta grids through 0 and through 1 (the
# electron's beta = 1 width uses its limit profile), one-point grids, grids
# whose quadratures cannot converge, and a shallow crossover.
EDGE_ARGV = (
    [[*a, "--beta", "0:1:6"] for a in _BETA_SCANS]
    + [[*a, "--beta", "1:0.9:4"] for a in _BETA_SCANS]
    + [[*a, "--beta", b] for a, b in zip(_BETA_SCANS, ("0", "1", "0.5", "1") * 3)]
    + [[*a, "--beta", "0.2:0.95:4", *_UNREACHABLE] for a in _BETA_SCANS]
    + [["table1", *_UNREACHABLE], ["crossover", "--max-depth", "10"],
       ["scan", "--quantity", "eff_angle", "--particle", "electron", "--s", "3",
        "--beta", "0.999998:0.9999999:4", "--abs-tol", "1e-10", "--rel-tol", "1e-10",
        "--max-depth", "10"]]
)
# Theta scans of the angular densities next to and at beta = 1 (the limit
# profile), the frequency, one point, and electron and boson maxima.
_S = ("0", "1", "-1", "2", "3")
_THETA = ["--theta", "0:pi:100001"]
EDGE_ARGV += (
    [["scan", "--quantity", "p", "--particle", "electron", "--s", s, "--zeta", z,
      "--beta", "1", *_THETA] for s in _S for z in ("1", "-1")]
    + [["limits", "--s", s, *_THETA] for s in _S]
    + [["scan", "--quantity", "p", "--particle", p, "--s", s, "--beta", "0.999999", *_THETA]
       for p in ("boson", "electron") for s in _S]
    + [["scan", "--quantity", "p", "--particle", "boson", "--s", s, "--beta", "1", *_THETA]
       for s in _S]
    + [["scan", "--quantity", "freq", "--particle", p, "--beta", b, *_THETA]
       for p in ("boson", "electron") for b in ("0.5", "0.999999", "1")]
    + [["scan", "--quantity", "p", "--particle", "electron", "--s", "0", "--beta", "0.9",
        "--theta", "0.3"]]
    + [["maxima", "--particle", p, "--s", s, "--beta", "0.5:0.999:40"]
       for p in ("boson", "electron") for s in ("0", "1", "3")]
)
# maxima over grids that put the electron's beta = 1 limit rows beside body
# rows in one lockstep chunk, rows next to beta = 1, one-point grids, degrees
# as JSON, and grids whose normalizations cannot converge: at the first beta,
# and at a later one, after a beta = 1 row (which needs none).
_MAXIMA = ([["maxima", "--particle", "boson", "--s", s] for s in ("0", "1", "3")]
           + [["maxima", "--particle", "electron", "--s", s, "--zeta", z]
              for s in ("0", "1", "3") for z in ("1", "-1")])
EDGE_ARGV += (
    [[*a, "--beta", b] for a in _MAXIMA
     for b in ("0:1:6", "1:0.9:4", "1", "0", "0.999999999:1:3")]
    + [[*a, "--beta", "0.2:0.95:4", *_UNREACHABLE] for a in _MAXIMA]
    + [[*_MAXIMA[4], "--beta", "0.75:0.995:25", "--angle-unit", "deg", "--format", "json"],
       [*_MAXIMA[3], "--beta", "1:0.9:4", *_UNREACHABLE],
       [*_MAXIMA[6], "--beta", "0.99999999999999:0.9:3", *_UNREACHABLE]]
)
# RMS widths of every s next to and at beta = 1, where the electron's widths
# shrink to about 1/gamma around the orbit plane.
EDGE_ARGV += [
    ["scan", "--quantity", "eff_angle", "--particle", p, "--s", s, *z, "--beta", b]
    for p, z in (("boson", []), ("electron", ["--zeta", "1"]), ("electron", ["--zeta", "-1"]))
    for s in _S for b in ("0.999999:0.999999999999:5", "0.9:1:3")
]
# q_local at beta = 1 on theta within 1e-8 of pi/2, where sin^2(theta) rounds
# to 1, and on a 100 001-point grid, whose rows next to pi/2 lie in the same
# regime.
_Q_LOCAL = [
    ["scan", "--quantity", "q_local", "--particle", "electron", "--s", s, "--zeta", z,
     "--beta", "1", *theta]
    for ss, theta in ((("1", "-1", "2", "3"), ["--theta", "1.5707963267:1.5707963269:9"]),
                      (("1", "2"), _THETA))
    for s in ss for z in ("1", "-1")
]
EDGE_ARGV += _Q_LOCAL
# JSON twins of theta tables whose cells are exact zeros (limits), 0, 1 or
# "ambiguous" (the q_local scans above), and a degree grid of whole numbers.
EDGE_ARGV += (
    [["limits", "--s", s, *_THETA, "--format", "json"] for s in _S]
    + [[*a, "--format", "json"] for a in _Q_LOCAL]
    + [["scan", "--quantity", "p", "--particle", "electron", "--s", "0", "--beta", "0.9",
        "--theta", "0:180:181", "--angle-unit", "deg", "--format", "json"]]
)
# The electron's f_2, f_3 on both sides of the switch of their quadrature form
# at x0 = 0.9 (beta about 0.998614), and at x0 next to 1.
EDGE_ARGV += [
    [*a, "--beta", b] for a in _BETA_SCANS if "electron" in a and "eff_angle" not in a
    for b in ("0.9985:0.9988:7", *(repr(1.0 - 10.0 ** -p) for p in (15, 13, 11, 9)))
]
_MAIN = "import sys; from srq1.cli import main; sys.exit(main(sys.argv[1:]))"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invocations(src: Path):
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, argv in enumerate(getattr(workloads, name)(seed, src)):
                yield f"{name}/{seed}/{i}", argv
    for i, argv in enumerate(EDGE_ARGV):
        yield f"edge/{i}", argv


def _text_path(texts: Path, key: str) -> Path:
    return texts / (key.replace("/", "_") + ".out")


def record(out: Path, root: Path, text: bool = False) -> None:
    src = root.resolve() / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    texts = ROOT / ".bench_out" / out.stem if text else None
    if texts:
        texts.mkdir(parents=True, exist_ok=True)

    def run(item):
        key, argv = item
        done = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=env,
                              capture_output=True, check=False)
        if texts:
            _text_path(texts, key).write_bytes(done.stdout)
        return key, {"argv": argv, "exit": done.returncode,
                     "stdout": _digest(done.stdout), "stderr": _digest(done.stderr)}

    with ThreadPoolExecutor(2) as pool:  # two srq1 processes at a time
        entries = dict(pool.map(run, _invocations(src)))
    doc = {"root": str(root), "entries": entries}
    if texts:
        doc["texts"] = str(texts)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(entries)} invocations recorded in {out}")


def _cells(argv, text, cache):
    """The verdict of ``checks.check_all`` on one output read as exit 0, and every
    (name, printed, reference, abscissa) that its checks compared, with
    ``checks.close`` recording instead of raising."""
    seen = []

    def recorder(name, printed, ref, *_, where=None, **__):
        printed = np.asarray(printed, dtype=float)
        ref = np.broadcast_to(np.asarray(ref, dtype=float), printed.shape)
        where = np.arange(printed.size) if where is None else np.asarray(where, dtype=float)
        seen.append((name, printed.ravel(), ref.ravel(), where.ravel()))

    close, checks.close = checks.close, recorder
    try:
        (verdict,) = checks.check_all([argv], [0], [text], cache)
    finally:
        checks.close = close
    return verdict, seen


def _error(printed, ref):
    """|printed - ref|, 0 where both are the same infinity, inf where nan."""
    with np.errstate(invalid="ignore"):
        err = np.abs(printed - ref)
    same_inf = np.isinf(printed) & (printed == ref)
    return np.where(same_inf, 0.0, np.where(np.isnan(err), np.inf, err))


def _relative(err, ref):
    return err / abs(ref) if ref != 0.0 else err


def _oracle_diff(key, argv, texts, cache) -> tuple[int, int]:
    """Print each cell of one invocation whose printed value changed; return
    (number of changed cells, number that are farther or not comparable)."""
    (va, ca), (vb, cb) = (_cells(argv, text, cache) for text in texts)
    if not vb.ok and (va.ok or va.message != vb.message):
        print(f"{key}: check fails: {vb.message}: {argv}")
        return 0, 1
    if [(c[0], c[1].size) for c in ca] != [(c[0], c[1].size) for c in cb]:
        print(f"{key}: cells not comparable ({va.message or 'ok'} -> "
              f"{vb.message or 'ok'}): {argv}")
        return 0, 1
    changed = bad = 0
    for (name, pa, ra, wa), (_, pb, rb, _) in zip(ca, cb):
        moved = ~((pa == pb) | (np.isnan(pa) & np.isnan(pb)))
        ea, eb = _error(pa, ra), _error(pb, rb)
        for i in np.flatnonzero(moved):
            verdict = "closer" if eb[i] < ea[i] else "equal" if eb[i] == ea[i] else "farther"
            changed += 1
            bad += verdict == "farther"
            print(f"{key}: {name} at {float(wa[i])!r}: {pa[i]:.9g} -> {pb[i]:.9g}, "
                  f"oracle {float(rb[i])!r}, error {_relative(ea[i], ra[i]):.2e} -> "
                  f"{_relative(eb[i], rb[i]):.2e}, {verdict}: {argv}")
    if not changed:
        print(f"{key}: stdout changed outside the checked cells: {argv}")
        return 0, 1
    return changed, bad


def diff(a: Path, b: Path, oracle: bool = False) -> int:
    """Without ``oracle`` exit 1 if any invocation differs; with it, only if a
    changed cell is farther from the oracle or an exit code, a stderr or an
    argv changed (see the module docstring)."""
    docs = [json.loads(p.read_text()) for p in (a, b)]
    ea, eb = (d["entries"] for d in docs)
    if oracle and not all("texts" in d for d in docs):
        raise SystemExit("diff --oracle needs two records made with record --text")
    cache = checks.oracle.Cache()
    changed = failures = cells = 0
    for key in sorted(ea.keys() | eb.keys()):
        x, y = ea.get(key), eb.get(key)
        fields = ["missing"] if x is None or y is None else [
            f for f in ("argv", "exit", "stdout", "stderr") if x[f] != y[f]]
        if not fields:
            continue
        changed += 1
        print(f"{key}: {', '.join(fields)} differ: {(x or y)['argv']}")
        bad = not oracle or fields != ["stdout"]
        if oracle and fields[0] == "stdout":  # present on both sides, same argv and exit
            texts = [_text_path(Path(d["texts"]), key).read_text() for d in docs]
            n, farther = _oracle_diff(key, x["argv"], texts, cache)
            cells += n
            bad = bad or farther > 0
        failures += bad
    print(f"{changed} of {len(ea.keys() | eb.keys())} invocations differ")
    if oracle:
        print(f"{cells} changed cells checked against the oracle; "
              f"{failures} invocations farther, not comparable or changed in "
              "exit code, stderr or argv")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="record the digests of one tree")
    rec.add_argument("out", type=Path)
    rec.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is run")
    rec.add_argument("--text", action="store_true",
                     help="also keep each stdout under .bench_out/<record name>/")
    dif = commands.add_parser("diff", help="compare two records")
    dif.add_argument("a", type=Path)
    dif.add_argument("b", type=Path)
    dif.add_argument("--oracle", action="store_true",
                     help="pass changed stdouts whose every changed cell is no farther "
                          "from bench/oracle.py")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.out, args.root, args.text)
        return 0
    return diff(args.a, args.b, args.oracle)


if __name__ == "__main__":
    sys.exit(main())
