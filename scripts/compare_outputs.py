#!/usr/bin/env python3
"""Byte-identity gate: digests of every benchmark invocation, and their diff.

``record`` runs each argv of seeds 0 and 1 of the three workloads of
``bench/workloads.py`` (370 invocations), plus the 266 fixed ``EDGE_ARGV``,
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
whether the change is closer, equal or farther.  A maxima table is judged
row by row instead: a changed theta_max against ``max_angle_mp``, a root of
dp/dtheta at 40 digits, p_max against the oracle's p at that root, and an
exists cell that flipped against the existence rule applied to the oracle.
A p cell whose two prints lie equally far from the oracle within the
oracle's own resolution (its f_k come from scipy's quad at a relative
tolerance of 1e-13) is judged against the 40-digit ``density_mp`` instead.
It exits 1 if any cell is farther or cannot be compared, or if any exit
code, stderr or argv changed.
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
import mpmath as mp  # noqa: E402
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
# electron's beta = 1 width integrates its beta = 1 profile), one-point grids, grids
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
# Theta scans of the angular densities next to and at beta = 1, the
# frequency, one point, and electron and boson maxima.
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
# maxima over grids that put the electron's beta = 1 rows, which take no
# slope, beside rows that do in one lockstep chunk, rows next to beta = 1,
# one-point grids, degrees as JSON, and grids whose normalizations cannot
# converge: at the first beta, and at a later one, after a beta = 1 row (which
# needs none).
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
# The electron's f_2, f_3 on both sides of x0 = 0.9 (beta about 0.998614),
# and at x0 next to 1.
EDGE_ARGV += [
    [*a, "--beta", b] for a in _BETA_SCANS if "electron" in a and "eff_angle" not in a
    for b in ("0.9985:0.9988:7", *(repr(1.0 - 10.0 ** -p) for p in (15, 13, 11, 9)))
]
# maxima whose last refinement level mixes brackets collapsed to a few ulps
# (interior maxima, evaluated on their distinct angles) with brackets that
# close on theta = 0: grids longer than GRID_CHUNK, and one grid in degrees as
# JSON.
EDGE_ARGV += (
    [[*a, "--beta", "0.5:0.995:1500"] for a in (_MAXIMA[0], _MAXIMA[4])]
    + [[*_MAXIMA[8], "--beta", "0.5:0.99:12", "--angle-unit", "deg", "--format", "json"]]
)
# argv as the parser sees it: options written as --name=value tokens, a
# repeated option (the last wins), the electron's --zeta +1, a negative beta
# (parsed, then refused by the domain check), and calls that only the
# argparse parser places: an invalid int, an invalid first and a valid last
# occurrence, an option without its value, and an option of another
# subcommand.
PARSER_ERRORS = [
    ["scan", "--quantity", "power", "--max-depth", "2.5"],
    ["scan", "--quantity", "power", "--format", "xml", "--format", "csv"],
    ["scan", "--quantity", "power", "--beta"],
    ["freq", "--particle", "boson", "--beta", "0.5", "--zeta", "1"],
]
EDGE_ARGV += [
    ["scan", "--quantity=power", "--particle=electron", "--zeta=1", "--beta=0.2:0.9:4"],
    ["maxima", "--particle=boson", "--s=1", "--beta=0.5:0.9:3", "--format=json"],
    ["scan", "--quantity", "p", "--beta", "0.3", "--theta", "0:pi:7", "--beta", "0.6"],
    ["scan", "--quantity", "power", "--particle", "electron", "--zeta", "+1",
     "--beta", "0.5:0.9:3"],
    ["scan", "--quantity", "power", "--beta=-0.5"],
    *PARSER_ERRORS,
]
# The electron's beta scans where the s-form's [0, 1] is first cut in two, at
# x0 = 1/sqrt2 (beta about 0.985171), and in three, at x0 = 1/sqrt(1 + 1/64)
# (beta about 0.9999925).
EDGE_ARGV += [
    [*a, "--beta", b] for a in _BETA_SCANS if "electron" in a
    for b in ("0.9845:0.986:7", "0.985171:0.985174:4", "0.99999:0.999995:6")
]
# maxima next to beta = 1: a beta whose maximum stands at the existence
# threshold, 1e-12 above p(pi/2), and grids on 1 - beta from 1e-3 to 1e-6.
EDGE_ARGV += (
    [[*_MAXIMA[3], "--beta", "0.999994277255237"]]
    + [[*a, "--beta", "0.999:0.999999:4"] for a in _MAXIMA if "-1" in a or "boson" in a]
)
# q_1 within 1e-7 of pi/2 at 1 - beta = 2.8e-15, where 1 - beta^2 sin^2(theta)
# cancels, and the circular components on their dark half (s cos(theta) < 0)
# at 1 - beta = 1e-9, where phi_0/2 - (1 + x)|cos(theta)| cancels.
EDGE_ARGV += (
    [["scan", "--quantity", "q_local", "--particle", "electron", "--s", "1", "--zeta", "1",
      "--beta", "0.9999999999999972", "--theta", "1.5707963:1.5707964:33"]]
    + [["scan", "--quantity", q, "--particle", p, "--s", s, "--beta", "0.999999999",
        "--theta", theta]
       for q in ("p", "q_local") for p in ("boson", "electron")
       for s, theta in (("1", "1.62:3.09:200"), ("-1", "0.05:1.52:200"))]
)
_MAIN = "import sys; from srq1.cli import main; sys.exit(main(sys.argv[1:]))"
# the relative resolution of the oracle's densities, whose f_k it takes from
# scipy's quad at a relative tolerance of 1e-13
_RESOLUTION = 1e-13


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


def _judge(key, name, where, pa, pb, ra, rb, argv) -> bool:
    """Print one changed cell, printed pa -> pb, against its oracle values
    ra and rb on each side; True if farther."""
    ea, eb = _error(np.array([pa, pb], dtype=float), np.array([ra, rb], dtype=float))
    verdict = "closer" if eb < ea else "equal" if eb == ea else "farther"
    print(f"{key}: {name} at {float(where)!r}: {pa:.9g} -> {pb:.9g}, oracle {float(rb)!r}, "
          f"error {_relative(ea, ra):.2e} -> {_relative(eb, rb):.2e}, {verdict}: {argv}")
    return verdict == "farther"


def _p_mp(kind, s, zeta, beta, w):
    """p_s up to its normalization at w = cos(theta)^2 (s = 0, 3) or cos(theta)
    (s = 1), at mpmath's working precision, written afresh from the
    documented densities: r^2 = (A - B beta^2) + B beta^2 cos^2, x = (sqrt A
    - r)/(sqrt A + r) and x0 the same at cos = 1; straight = 1 - a x and bent
    = (1 + x)^2 cos^2/straight, phi_2, phi_3 = straight, bent (swapped for
    the electron's zeta = +1), phi_1 = phi_0/2 + (1 + x) cos; p_s = (1 + x)^3
    e^-x phi_s/D(x).  (A, B, a, D) is (3, 2, 1, 1) for the boson and (1, 1,
    x0, 1 - x) for the electron."""
    electron = kind == "electron"
    A, B = (1, 1) if electron else (3, 2)
    b2 = mp.mpf(beta) ** 2  # exact at 40 digits
    cos2 = w * w if s == 1 else w

    def deform(r2):
        r = mp.sqrt(r2)
        return (mp.sqrt(A) - r) / (mp.sqrt(A) + r)

    x = deform((A - B * b2) + B * b2 * cos2)
    straight = 1 - (deform(A - B * b2) if electron else 1) * x
    bent = (1 + x) ** 2 * cos2 / straight
    if s == 3:
        phi = straight if electron and zeta == 1 else bent
    else:
        phi = straight + bent if s == 0 else (straight + bent) / 2 + (1 + x) * w
    p = (1 + x) ** 3 * mp.exp(-x) * phi
    return p / (1 - x) if electron else p


def _f0_mp(kind, x):
    """f_2 + f_3 at x (at least 40 digits) in the s-form of ``integrals``, by
    mp.quad on [0, 1] cut at w0 8^k, w0 = sqrt(1 - x^2)/x, the width of the
    integrands' layer at s = 0."""
    om = (1 - x) * (1 + x)
    cuts, w = [mp.mpf(0)], mp.sqrt(om) / x if 0 < x < 1 else mp.mpf(1)
    while w < 1:
        cuts.append(w)
        w *= 8
    family = "e" if kind == "electron" else "b"
    return sum(mp.quad(checks.oracle._s_integrand(family, k, x, om, mp.exp, mp.sqrt),
                       cuts + [mp.mpf(1)]) for k in (2, 3))


def density_mp(kind, s, zeta, beta, theta):
    """p_s at 40 digits: ``_p_mp`` over (1 + x0)^2 f_0(x0), with s = -1 at
    -cos(theta) and s = 2 as the electron's s = 3 of -zeta or the boson's
    p_0 - p_3; cos(theta) snaps to 0 at pi/2 as the program's does."""
    with mp.workdps(40):
        cos = mp.mpf(0) if theta == checks.HALF_PI else mp.cos(mp.mpf(theta))

        def p(s, zeta):
            return _p_mp(kind, abs(s), zeta, beta, s * cos if s in (1, -1) else cos * cos)

        if s != 2:
            value = p(s, zeta)
        else:
            value = p(3, -zeta) if kind == "electron" else p(0, zeta) - p(3, zeta)
        A, B = (1, 1) if kind == "electron" else (3, 2)
        r0 = mp.sqrt(A - B * mp.mpf(beta) ** 2)
        x0 = (mp.sqrt(A) - r0) / (mp.sqrt(A) + r0)
        return value / ((1 + x0) ** 2 * _f0_mp(kind, x0))


def max_angle_mp(kind, s, zeta, beta, theta):
    """(theta_max, margin) at 40 digits from a start theta next to the
    maximum of p_s: the root of dp/dtheta in (0, pi/2), and by how much p
    there exceeds the larger of p(0) and p(pi/2), relative; None where no
    interior maximum is bracketed.  The root is taken in w of ``_p_mp``, in
    which the stationary point at pi/2 is no root, on a bracket grown about
    the start until dp/dw falls across it, to 30 digits."""
    with mp.workdps(40):
        def dp(w):
            return mp.diff(lambda v: _p_mp(kind, s, zeta, beta, v), w)

        cos = abs(mp.cos(mp.mpf(theta)))
        lo = hi = max(cos if s == 1 else cos * cos, mp.mpf(10) ** -30)
        for _ in range(120):
            lo, hi = lo / 2, min(2 * hi, mp.mpf(1))
            if dp(lo) > 0 > dp(hi):
                break
        else:
            return None
        # Illinois regula falsi to 30 digits in w
        f_lo, f_hi, side = dp(lo), dp(hi), 0
        while hi - lo > mp.mpf(10) ** -30 * hi:
            w = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            f_w = dp(w)
            if f_w == 0:
                break
            if f_w > 0:
                lo, f_lo, f_hi = w, f_w, f_hi / 2 if side > 0 else f_hi
                side = 1
            else:
                hi, f_hi, f_lo = w, f_w, f_lo / 2 if side < 0 else f_lo
                side = -1
        else:
            w = lo if abs(f_lo) < abs(f_hi) else hi
        ends = max(_p_mp(kind, s, zeta, beta, mp.mpf(v)) for v in (0, 1))
        margin = _p_mp(kind, s, zeta, beta, w) / ends - 1
        return float(mp.acos(w if s == 1 else mp.sqrt(w))), float(margin)


def _maxima_diff(key, argv, texts, cache) -> tuple[int, int]:
    """``_oracle_diff`` of a maxima table, row by row: a changed theta_max or
    p_max cell against the root of ``max_angle_mp`` and p there, an exists
    cell that flipped with the margin of the oracle's maximum over both
    endpoint values (farther if the flip disagrees with the existence rule,
    p_max above both endpoint values by 1e-12, applied to the oracle)."""
    call = checks.parse_argv(argv)
    zeta = call.zeta if call.particle == "electron" else None
    tables = [checks.parse_output(text, call.fmt).rows for text in texts]
    changed = bad = 0
    # the betas the program was given, not their 9-digit print
    for beta, (_, ea, ta, pa), (_, eb, tb, pb) in zip(checks.value_grid(call.beta).tolist(),
                                                      *tables):
        if (ea, ta, pa) == (eb, tb, pb):
            continue
        start = float(ta if ea == "true" else tb)
        if call.unit == "deg":
            start = np.radians(start)
        root = max_angle_mp(call.particle, call.s, zeta, beta, start)
        changed += 1
        if ea != eb:
            ends = max(checks.oracle.density(call.particle, call.s, zeta, beta,
                                             np.array([0.0, checks.HALF_PI]), cache)[0])
            agrees = (eb == "true") == (root is not None and root[1] * ends > 1e-12)
            bad += not agrees
            print(f"{key}: exists at {beta!r}: {ea} -> {eb}, oracle margin "
                  f"{'none' if root is None else f'{root[1]:.2e}'} over the endpoint "
                  f"values, {'agrees' if agrees else 'disagrees'}: {argv}")
            continue
        if root is None:
            print(f"{key}: no interior maximum bracketed at {beta!r}: {argv}")
            bad += 1
            continue
        if ta != tb:
            ref = np.degrees(root[0]) if call.unit == "deg" else root[0]
            bad += _judge(key, "theta_max", beta, float(ta), float(tb), ref, ref, argv)
        if pa != pb:
            ref = checks.oracle.density(call.particle, call.s, zeta, beta,
                                        np.array([root[0]]), cache)[0][0]
            bad += _judge(key, "p_max", beta, float(pa), float(pb), ref, ref, argv)
    return changed, bad


def _unresolved(pa, pb, ref) -> bool:
    """True if printed values pa and pb lie equally far from the oracle
    value ref to within the oracle's own resolution: its densities carry
    f_k from scipy's quad at a relative tolerance of 1e-13."""
    with np.errstate(invalid="ignore"):
        return bool(abs(abs(pa - ref) - abs(pb - ref)) <= _RESOLUTION * abs(ref))


def _tie_break(argv, theta):
    """The 40-digit ``density_mp`` of a p cell that ``_unresolved`` holds, or
    None at the electron's double-limit point, where its formula is 0/0."""
    call = checks.parse_argv(argv)
    beta = float(checks.value_grid(call.beta)[0])
    if call.particle == "electron" and beta == 1.0 and theta == checks.HALF_PI:
        return None
    return float(density_mp(call.particle, call.s, call.zeta, beta, float(theta)))


def _oracle_diff(key, argv, texts, cache) -> tuple[int, int]:
    """Print each cell of one invocation whose printed value changed; return
    (number of changed cells, number that are farther or not comparable)."""
    (va, ca), (vb, cb) = (_cells(argv, text, cache) for text in texts)
    if not vb.ok and (va.ok or va.message != vb.message):
        print(f"{key}: check fails: {vb.message}: {argv}")
        return 0, 1
    if checks.parse_argv(argv).quantity == "max_angle":
        changed, bad = _maxima_diff(key, argv, texts, cache)
    elif [(c[0], c[1].size) for c in ca] != [(c[0], c[1].size) for c in cb]:
        print(f"{key}: cells not comparable ({va.message or 'ok'} -> "
              f"{vb.message or 'ok'}): {argv}")
        return 0, 1
    else:
        changed = bad = 0
        for (name, pa, ra, wa), (_, pb, rb, _) in zip(ca, cb):
            moved = ~((pa == pb) | (np.isnan(pa) & np.isnan(pb)))
            for i in np.flatnonzero(moved):
                changed += 1
                label, refs = name, (ra[i], rb[i])
                tie = _tie_break(argv, wa[i]) if name == "p" and _unresolved(
                    pa[i], pb[i], rb[i]) else None
                if tie is not None:
                    label, refs = "p (40 digits)", (tie, tie)
                bad += _judge(key, label, wa[i], pa[i], pb[i], *refs, argv)
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
