"""Seeded invocation lists for the three workloads.

Each workload is a fixed design whose concrete values come from the seed:
the same seed gives the same argv lists, and every seed gives a pass of the
same length and shape, so the work per pass and the share of failing
invocations do not depend on the seed.  The program sees only the argv.
"""

from __future__ import annotations

import random
import runpy
from pathlib import Path

WORKLOADS = ("figures", "theta_grid", "beta_sweep")

# 1 - beta of the fixed electron invocations inside the band where
# integrals.f_e uses its truncated boundary expansion (1 - x0 < 1e-6)
FAULT_BAND = (2e-15, 6e-14)


def _num(v: float) -> str:
    """A float as text that parses back to the same float."""
    return repr(float(v))


# ---------------------------------------------------------------- figures

def figures(seed: int, src: Path) -> list[list[str]]:
    """Every invocation of ``srq1.figures.FIGURE_SCANS`` (read as data, not
    imported), in an order shuffled by the seed."""
    scans = runpy.run_path(str(src / "srq1" / "figures.py"))["FIGURE_SCANS"]
    argvs = [list(a) for _, group in sorted(scans.items()) for a in group]
    random.Random(seed).shuffle(argvs)
    return argvs


# ---------------------------------------------------------------- theta_grid

# One group per grid-size stratum; the strata split [1e3, 1e5] evenly in
# log(n), and the calls of a group share beta and the grid so that paired
# properties (p_2 + p_3 = p_0, p_2(zeta) = p_3(-zeta), ...) can be checked.
# The cheapest per point (freq) get the largest grids, which keeps a pass
# near 4 s and so gives several passes per run.
# Each entry: quantity, particle, list of (zeta, s), beta ("seed", 0.0 or
# 1.0), range ("half", "seed" for full or half, or "full_odd": [0, pi] with
# odd n, so pi/2 is a grid point and int p_0 sin = 1 can be checked), unit,
# stratum.
_THETA_GROUPS = [
    ("p", "boson", [(None, s) for s in (0, 1, -1, 2, 3)], "seed", "full_odd", "rad", 0),
    ("p", "electron", [(-1, 0), (-1, 2), (-1, 3), (1, 2), (1, 3)], "seed", "seed", "deg", 0),
    ("p", "electron", [(-1, 0), (-1, 1), (-1, -1)], 1.0, "half", "rad", 1),
    ("q_local", "boson", [(None, 3), (None, -1)], 0.0, "seed", "rad", 2),
    ("q_local", "electron", [(-1, 2), (1, 3)], "seed", "seed", "rad", 3),
    ("q_local", "electron", [(1, 1)], 1.0, "full_odd", "rad", 4),
    ("limits", "electron", [(-1, 0), (1, -1)], 1.0, "full_odd", "rad", 5),
    ("q_local", "boson", [(None, 1)], "seed", "seed", "rad", 6),
    ("p", "electron", [(1, 1)], "seed", "seed", "rad", 7),
    ("freq", "boson", [(None, 0)], "seed", "seed", "deg", 8),
    ("freq", "electron", [(1, 0)], "seed", "seed", "deg", 9),
]
_N_STRATA = 10
_N_MIN, _N_MAX = 1_000, 100_000


def _grid_size(rng, stratum):
    # near the log-centre of the stratum: the seed moves n by about 1%, so
    # the work per pass hardly depends on it
    u = (stratum + 0.45 + 0.1 * rng.random()) / _N_STRATA
    return int(round(_N_MIN * (_N_MAX / _N_MIN) ** u))


def theta_grid(seed: int, src: Path = None) -> list[list[str]]:
    rng = random.Random(seed)
    argvs = []
    for quantity, particle, members, beta, span, unit, stratum in _THETA_GROUPS:
        n = _grid_size(rng, stratum)
        if span == "seed":
            span = rng.choice(("full", "half"))
        if span == "full_odd":
            span, n = "full", n | 1
        end = {"full": "pi", "half": "pi/2"}[span]
        if unit == "deg":
            end = {"pi": "180", "pi/2": "90"}[end]
        if beta == "seed":
            # 1 - beta log-uniform on [1e-3, 1]
            beta = 1.0 - 10.0 ** (-3.0 * rng.random())
        for zeta, s in members:
            argv = ["limits"] if quantity == "limits" else [
                "scan", "--quantity", quantity, "--particle", particle]
            if zeta is not None:
                argv += ["--zeta", str(zeta)]
            if quantity != "freq":
                argv += ["--s", str(s)]
            if quantity != "limits":
                argv += ["--beta", _num(beta)]
            argv += ["--theta", f"0:{end}:{n}", "--angle-unit", unit]
            argvs.append(argv)
    # half CSV, half JSON, alternating through the pass
    for i, argv in enumerate(argvs):
        argv += ["--format", "json" if i % 2 else "csv"]
    return argvs


# ---------------------------------------------------------------- beta_sweep

# beta ranges, one per decade of 1 - beta down to 1e-6: equal weight per
# decade puts most betas close to x = 1
_REGIMES = [(0.0, 0.9), (0.9, 0.99), (0.99, 0.999), (0.999, 0.9999),
            (0.9999, 0.99999), (0.99999, 0.999999)]
_N_PER_RANGE = 16
_N_SINGLE = 8            # single betas with 1e-12 <= 1 - beta < 1e-6
_SINGLE_QUANTITIES = ("power", "q_halfplane", "eff_angle", "ratio", "polarization")


def _electron(quantity, zeta, s, beta):
    if quantity == "polarization":
        return ["polarization", "--particle", "electron", "--zeta", str(zeta),
                "--beta", beta]
    argv = ["scan", "--quantity", quantity, "--particle", "electron",
            "--zeta", str(zeta), "--beta", beta]
    if quantity in ("q_halfplane", "eff_angle"):
        argv += ["--s", str(s)]
    return argv


def fault_band() -> list[list[str]]:
    """Fixed electron invocations with 1 - beta in [1e-15, 1.25e-13]."""
    argvs = []
    for d in FAULT_BAND:
        beta = _num(1.0 - d)
        argvs += [_electron("power", -1, 0, beta),
                  _electron("q_halfplane", -1, 2, beta),
                  _electron("ratio", 1, 0, beta),
                  _electron("polarization", -1, 0, beta)]
    return argvs


def beta_sweep(seed: int, src: Path = None) -> list[list[str]]:
    rng = random.Random(seed)
    argvs = [["table1"], ["crossover"]] + fault_band()
    s_cycle = (1, -1, 2, 3)
    for r, (lo, hi) in enumerate(_REGIMES):
        width = hi - lo
        a = lo + width * 0.3 * rng.random()
        b = hi - width * 0.3 * rng.random()
        rng_text = f"{_num(a)}:{_num(b)}:{_N_PER_RANGE}"
        zeta = (-1, 1)[r % 2]
        s = s_cycle[r % 4]
        argvs += [
            ["scan", "--quantity", "ratio", "--zeta", "-1", "--beta", rng_text],
            ["scan", "--quantity", "ratio", "--zeta", "1", "--beta", rng_text],
            ["polarization", "--particle", "electron", "--zeta", str(zeta),
             "--beta", rng_text],
            ["polarization", "--particle", "boson", "--beta", rng_text],
            ["scan", "--quantity", "power", "--particle", "electron",
             "--zeta", str(zeta), "--beta", rng_text],
            ["scan", "--quantity", "power", "--particle", "boson", "--beta", rng_text],
            ["scan", "--quantity", "q_halfplane", "--particle", "electron",
             "--zeta", str(-zeta), "--s", str(s), "--beta", rng_text],
            ["scan", "--quantity", "q_halfplane", "--particle", "boson",
             "--s", str(s_cycle[(r + 1) % 4]), "--beta", rng_text],
            ["scan", "--quantity", "eff_angle", "--particle", ("boson", "electron")[r % 2],
             "--zeta", str(zeta), "--s", str((0, 1, -1, 2, 3)[r % 5]), "--beta", rng_text],
        ]
    for i in range(_N_SINGLE):
        # 1 - beta log-uniform inside stratum i of [1e-12, 1e-6]
        d = 10.0 ** (-6.0 - 6.0 * (i + rng.random()) / _N_SINGLE)
        beta = _num(1.0 - d)
        zeta = (-1, 1)[i % 2]
        for k in range(4):
            quantity = _SINGLE_QUANTITIES[(i + k) % len(_SINGLE_QUANTITIES)]
            argvs.append(_electron(quantity, zeta, s_cycle[(i + k) % 4], beta))
    return argvs


GENERATORS = {"figures": figures, "theta_grid": theta_grid, "beta_sweep": beta_sweep}
