"""Workload process: runs a list of srq1 CLI invocations pass after pass.

One process, no threads, one ``srq1.cli.run_cli`` call at a time with its
stdout captured, as ``scripts/figure_data.py`` runs them.  Started by
``run.py`` as

    python3 bench/runner.py <job.json> <result.json>

The job names the invocations, the run length, where the first pass's
outputs go and whether a traced part follows the untraced one.  The result
holds per-call latencies, a digest of every output of the first pass (each
later pass must repeat it byte for byte), the indices that did not, and the
process's peak resident memory.  Nothing is written to stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate


# One capture buffer for every call: click caches each stream it writes to
# and keeps it alive, so a fresh StringIO per call would keep every output
# (11 MB per theta_grid pass) and inflate the peak memory measured.
_BUF = io.StringIO()


def _run_one(run_cli, argv):
    _BUF.seek(0)
    _BUF.truncate()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(_BUF):
        code = run_cli(argv)
    data = _BUF.getvalue().encode()
    return time.perf_counter() - t0, code, data


def _passes(run_cli, argvs, seconds, first, out_dir):
    """Whole passes until ``seconds`` have gone by, at least one.

    ``first`` holds (exit code, digest) per invocation once the first pass
    has written its outputs to ``out_dir``; later passes are compared to it.
    After each call, untimed, calibration slices sample the machine's speed;
    ``slices`` holds (number, total time) of those after each call.
    """
    latencies, slices, mismatches = [], [], []
    start = time.perf_counter()
    while True:
        lat, sl = [], []
        for i, argv in enumerate(argvs):
            dt, code, data = _run_one(run_cli, argv)
            lat.append(dt)
            sl.append(calibrate.slices_for(dt))
            key = (code, hashlib.sha256(data).hexdigest())
            if first[i] is None:
                first[i] = key
                (out_dir / f"{i}.out").write_bytes(data)
            elif key != first[i]:
                mismatches.append(i)
        latencies.append(lat)
        slices.append(sl)
        if time.perf_counter() - start >= seconds:
            return {"latencies": latencies, "slices": slices, "mismatches": mismatches}


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from srq1.cli import run_cli

    argvs = job["argv"]
    out_dir = Path(job["out_dir"])
    first = [None] * len(argvs)
    result = {}
    if job["trace"]:
        import trace_layers

        # half the time untraced, as the base of the tracing overhead
        result["untraced"] = _passes(run_cli, argvs, job["seconds"] / 2, first, out_dir)
        tracer = trace_layers.Tracer()
        with tracer.installed():
            result["traced"] = _passes(tracer.wrap_root(run_cli), argvs,
                                       job["seconds"] / 2, first, out_dir)
        result["layers"] = tracer.summary(len(result["traced"]["latencies"]))
        tracer.save(job["spans_path"])
    else:
        result["untraced"] = _passes(run_cli, argvs, job["seconds"], first, out_dir)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["exit_codes"] = [code for code, _ in first]
    result["digests"] = [digest for _, digest in first]
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
