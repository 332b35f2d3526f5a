#!/usr/bin/env python3
"""srq1 benchmark: three CLI workloads, checked against an independent oracle.

    python3 bench/run.py --workload {figures,theta_grid,beta_sweep}
                         --seed N --seconds S --trace {0,1}
    python3 bench/run.py --make-digests

Run from the root of a source checkout (``src/srq1`` is imported from
there).  A closed loop with one client: a separate workload process
(``runner.py``) makes one ``srq1.cli.run_cli`` call at a time, pass after
pass over the seeded invocation list, for ``--seconds``.  This process then
checks every output outside the timed region and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` (times at the reference speed of
``calibrate.py``), the per-layer metrics of a traced run with ``--trace 1``.
Diagnostics go to the lines before it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 7

_IMPORT = ("import json, time; t = [time.perf_counter()]; {imports}; "
           "print(json.dumps([b - a for a, b in zip(t, t[1:])]))")
_ONE = "import srq1.cli; t.append(time.perf_counter())"
_STAGED = ("import numpy; t.append(time.perf_counter()); "
           "import click; t.append(time.perf_counter()); " + _ONE)


def _python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def setup_times(staged: bool):
    """Wall time of ``import srq1.cli`` in fresh interpreters, median of
    SETUP_REPEATS after one import that fills the bytecode cache: one value,
    or one per stage (numpy, click, srq1.cli)."""
    code = _IMPORT.format(imports=_STAGED if staged else _ONE)
    _python(code)
    runs = [_python(code) for _ in range(SETUP_REPEATS)]
    medians = [statistics.median(stage) for stage in zip(*runs)]
    return medians if staged else medians[0]


def run_workload(argvs, seconds, trace, tag):
    """Run the workload process; returns its result and first-pass outputs."""
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    (work / "outputs").mkdir(parents=True)
    job = {"src": str(SRC), "argv": argvs, "seconds": seconds, "trace": trace,
           "out_dir": str(work / "outputs"),
           "spans_path": str(OUT / f"spans_{tag.split('-')[0]}.npz")}
    (work / "job.json").write_text(json.dumps(job))
    subprocess.run([sys.executable, str(BENCH / "runner.py"), str(work / "job.json"),
                    str(work / "result.json")], cwd=ROOT, timeout=seconds * 3 + 120,
                   check=True)
    result = json.loads((work / "result.json").read_text())
    texts = [(work / "outputs" / f"{i}.out").read_text() for i in range(len(argvs))]
    shutil.rmtree(work)
    return result, texts


def _scaled(part):
    """Each pass's call latencies at the reference speed."""
    return [calibrate.scale(lat, sl) for lat, sl in zip(part["latencies"], part["slices"])]


def _median_pass(part):
    return statistics.median(sum(lat) for lat in _scaled(part))


def _report_failures(argvs, verdicts):
    for i, v in enumerate(verdicts):
        if not v.ok:
            cause = f" [cause: {v.cause}]" if v.cause else ""
            print(f"FAILED {' '.join(argvs[i])}: {v.message}{cause}")


def _report_digests(argvs, digests):
    if not DIGESTS.exists():
        return
    recorded = json.loads(DIGESTS.read_text())
    keys = [" ".join(a) for a in argvs]
    compared = [(k, d) for k, d in zip(keys, digests) if k in recorded]
    if not compared:
        return
    changed = [k for k, d in compared if recorded[k] != d]
    print(f"digests: {len(changed)} of {len(compared)} recorded outputs changed "
          f"bytes since bench/digests.json was made (information, not a failure)")
    for k in changed:
        print(f"  changed: {k}")


def make_digests():
    """Record the sha256 of every figures invocation, table1 and crossover."""
    argvs = workloads.figures(0, SRC) + [["table1"], ["crossover"]]
    result, _ = run_workload(argvs, 0, False, "digests")
    digests = dict(sorted(zip((" ".join(a) for a in argvs), result["digests"])))
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "srq1" / "cli.py").is_file():
        print(f"no srq1 sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.make_digests:
        make_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    argvs = workloads.GENERATORS[args.workload](args.seed, SRC)
    setup = setup_times(staged=bool(args.trace))
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    result, texts = run_workload(argvs, args.seconds, bool(args.trace), tag)

    t0 = time.perf_counter()
    verdicts = checks.check_all(argvs, result["exit_codes"], texts)
    check_s = time.perf_counter() - t0

    parts = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    passes = sum(len(p["latencies"]) for p in parts)
    bad_first = [i for i, v in enumerate(verdicts) if not v.ok]
    # a later pass that does not repeat the first one byte for byte fails
    repeats = [i for p in parts for i in p["mismatches"] if verdicts[i].ok]
    attempted = passes * len(argvs)
    failed = passes * len(bad_first) + len(repeats)
    unexplained = [i for i in bad_first if verdicts[i].cause is None]
    correct = not unexplained and not repeats

    raw_pass = statistics.median(sum(lat) for lat in result["untraced"]["latencies"])
    # the machine's speed over the run, as slice time over the reference
    speed = (sum(t for sl in result["untraced"]["slices"] for _, t in sl)
             / sum(n for sl in result["untraced"]["slices"] for n, _ in sl)
             / calibrate.REFERENCE_S)
    print(f"workload={args.workload} seed={args.seed} invocations/pass={len(argvs)} "
          f"passes={passes} check_s={check_s:.1f} unscaled_pass_s={raw_pass:.4f} "
          f"unscaled_setup_s={setup} "
          f"slice_time/reference={speed:.3f}")
    _report_failures(argvs, verdicts)
    for i in sorted(set(repeats)):
        print(f"FAILED {' '.join(argvs[i])}: output differs between passes")
    _report_digests(argvs, result["digests"])

    untraced = result["untraced"]
    if args.trace:
        metrics = {
            "setup.import_numpy_s": (setup[0], "s"),
            "setup.import_click_s": (setup[1], "s"),
            "setup.import_srq1_s": (setup[2], "s"),
            "trace.overhead": (_median_pass(result["traced"]) / _median_pass(untraced),
                               "ratio"),
        }
        units = {"calls": "count", "points": "count", "limit_points": "count",
                 "profile_calls": "count", "panels": "count", "rows": "count",
                 "bytes": "B", "convergence_errors": "count",
                 "quad_per_call": "ratio", "panels_per_call": "ratio",
                 "us_per_row": "us", "us_per_point": "us"}
        for name, value in result["layers"].items():
            metrics[name] = (value, units.get(name.split(".", 1)[1], "s"))
    else:
        lat = _scaled(untraced)
        rows = sum(v.rows for v in verdicts) * len(lat)
        # each invocation's median over the passes, then the median over the
        # invocations: a burst of machine noise in some passes moves it less
        # than the median of all latencies pooled
        per_call = [statistics.median(p[i] for p in lat) for i in range(len(argvs))]
        metrics = {
            # set-up runs just before the workload: scaled by its speed
            "setup_s": (setup / speed, "s"),
            "pass_s": (_median_pass(untraced), "s"),
            "rows_per_s": (rows / sum(map(sum, lat)), "rows/s"),
            "call_ms_p50": (1e3 * statistics.median(per_call), "ms"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
