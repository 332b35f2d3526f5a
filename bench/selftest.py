#!/usr/bin/env python3
"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py [--seed N]

Runs one pass of every workload and asserts that

* every invocation passes its checks, except the fixed fault-band
  invocations of beta_sweep, each of which fails with the ``integrals.f_e``
  boundary-expansion cause named;
* in every output that passes, moving the largest value of the last column
  by 1e-7 relative (re-printed with 9 significant digits) is rejected.  The
  one exception is a circular half-plane fraction q_-1 = 1/2 - f_1/f_0 below
  a tenth of its terms (beta near 1): its tolerance is held to those terms,
  and such outputs are counted as skipped.

Exit code 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run
import workloads

PERTURBATION = 1e-7


def perturbed(text, fmt, cancelling=False):
    """The output with its largest last-column value moved by 1e-7 relative,
    or None when that column holds no nonzero number, or, for a cancelling
    half-plane fraction, none above a tenth of its terms."""
    out = checks.parse_output(text, fmt)
    col = len(out.columns) - 1
    best, best_row = 0.0, None
    for i, row in enumerate(out.rows):
        try:
            v = float(row[col])
        except ValueError:
            continue
        if abs(v) > abs(best) and v != float("inf"):
            best, best_row = v, i
    if best_row is None:
        return None
    if cancelling and abs(best) < 0.1 * (1 - abs(best)):
        # q_-1 = 1/2 - f_1/f_0 near beta = 1: its tolerance is set by the
        # terms of the difference, so 1e-7 of its own size is below it
        return None
    cell = f"{best * (1 + PERTURBATION):.9g}"
    if fmt == "json":
        doc = json.loads(text)
        doc["rows"][best_row][col] = float(cell)
        return json.dumps(doc, indent=2) + "\n"
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[header + 1 + best_row].split(",")
    cells[col] = cell
    lines[header + 1 + best_row] = ",".join(cells)
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    fault = {" ".join(a) for a in workloads.fault_band()}
    problems = []
    for name in workloads.WORKLOADS:
        argvs = workloads.GENERATORS[name](args.seed, run.SRC)
        result, texts = run.run_workload(argvs, 0, False, f"selftest-{name}")
        verdicts = checks.check_all(argvs, result["exit_codes"], texts)
        n_perturbed = n_skipped = 0
        for argv, code, text, v in zip(argvs, result["exit_codes"], texts, verdicts):
            key = " ".join(argv)
            if key in fault:
                if v.ok or not v.cause or "integrals.f_e" not in v.cause:
                    problems.append(f"fault-band invocation not reported with its "
                                    f"cause: {key}: {v}")
                continue
            if not v.ok:
                problems.append(f"fails at this commit: {key}: {v.message}")
                continue
            call = checks.parse_argv(argv)
            bad = perturbed(text, call.fmt,
                            cancelling=call.quantity == "q_halfplane" and call.s in (1, -1))
            if bad is None:
                n_skipped += 1
                continue
            n_perturbed += 1
            if checks.check_all([argv], [code], [bad])[0].ok:
                problems.append(f"1e-7 perturbation not rejected: {key}")
        print(f"{name}: {len(argvs)} invocations checked, {n_perturbed} perturbed "
              f"outputs tried, {n_skipped} without a value above its tolerance to perturb")
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
