"""Byte identity of the CLI: every invocation of ``scripts/compare_outputs.py``
keeps its recorded exit code and the sha256 of its stdout and stderr.

``golden_outputs.json`` holds, per invocation key, the argv, the exit code
and both digests, for the workload argv of seeds 0 and 1 and the fixed edge
argv of ``compare_outputs._invocations``.  Each invocation runs in this
process through ``srq1.cli.main``; its digests equal those that
``compare_outputs.py record`` takes of a fresh ``srq1`` process.  The
digests depend on the numpy loops of the machine they were recorded on: a
lone complex value, for example, takes another multiply loop on AVX-512, and
its last bit can differ.  A change that alters output on purpose records the
file again,

    PYTHONPATH=src python3 tests/test_golden_outputs.py

and lists each changed key in CHANGES.md with its ``diff --oracle`` verdict.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

from srq1 import cli

from oracles import bench_module

_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _run(argv):
    """The golden entry of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def _record():
    """key -> golden entry of every invocation; argparse wraps its usage text
    at the 80 columns of a process without a terminal."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        invocations = bench_module("compare_outputs", "scripts")._invocations(_ROOT / "src")
        return {key: _run(argv) for key, argv in invocations}


def test_every_invocation_keeps_its_golden_output():
    golden = json.loads(GOLDEN.read_text())
    got = _record()
    assert got.keys() == golden.keys()
    changed = [f"{key}: {' '.join(golden[key]['argv'])}" for key in golden
               if got[key] != golden[key]]
    assert not changed, "\n".join(changed)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n")
