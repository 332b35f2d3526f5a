#!/usr/bin/env python3
"""Byte-identity gate: digests of every benchmark invocation, and their diff.

``record`` runs each argv of seeds 0 and 1 of the three workloads of
``bench/workloads.py`` (370 invocations), plus the 43 fixed ``EDGE_ARGV``,
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


def record(out: Path, root: Path) -> None:
    src = root.resolve() / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(item):
        key, argv = item
        done = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=env,
                              capture_output=True, check=False)
        return key, {"argv": argv, "exit": done.returncode,
                     "stdout": _digest(done.stdout), "stderr": _digest(done.stderr)}

    with ThreadPoolExecutor(2) as pool:  # two srq1 processes at a time
        entries = dict(pool.map(run, _invocations(src)))
    out.write_text(json.dumps({"root": str(root), "entries": entries}, indent=1) + "\n")
    print(f"{len(entries)} invocations recorded in {out}")


def diff(a: Path, b: Path) -> int:
    ea, eb = (json.loads(p.read_text())["entries"] for p in (a, b))
    changed = 0
    for key in sorted(ea.keys() | eb.keys()):
        x, y = ea.get(key), eb.get(key)
        fields = ["missing"] if x is None or y is None else [
            f for f in ("argv", "exit", "stdout", "stderr") if x[f] != y[f]]
        if fields:
            changed += 1
            print(f"{key}: {', '.join(fields)} differ: {(x or y)['argv']}")
    print(f"{changed} of {len(ea.keys() | eb.keys())} invocations differ")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="record the digests of one tree")
    rec.add_argument("out", type=Path)
    rec.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is run")
    dif = commands.add_parser("diff", help="compare two records")
    dif.add_argument("a", type=Path)
    dif.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.out, args.root)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
