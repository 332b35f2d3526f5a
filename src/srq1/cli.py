"""Command-line surface: grid scans and reference tables as CSV/JSON.

``scan --quantity Q`` evaluates one quantity of a single table over a beta
or theta grid; the subcommands table1, crossover, freq, maxima,
polarization and limits are aliases into the same table.

Inputs: a value is a finite number or one of the symbolic angles ``pi`` and
``pi/2``; a range ``a:b:n`` is n evenly spaced values, 2 <= n <= 1000000
(e.g. ``0:pi:181``).  Angles are radians unless --angle-unit deg is given.
beta must lie in [0, 1] and theta, after unit conversion, in [0, pi]; the
theta scans p, q_local and freq take a single beta.  Exit codes: 0 success,
1 domain/usage error, 2 convergence failure.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import click

from . import __version__, analysis, electron, kinematics
from .errors import ConvergenceError, DomainError
from .family import HALF_PI
from .io import ScanResult, serialize
from .quadrature import QuadratureConfig

_SYMBOLIC = {"pi": math.pi, "pi/2": math.pi / 2}
MAX_GRID = 10**6


def parse_angle(token: str) -> float:
    token = token.strip().lower()
    if token in _SYMBOLIC:
        return _SYMBOLIC[token]
    try:
        value = float(token)
    except ValueError:
        raise DomainError(f"cannot parse angle or number {token!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"value must be finite, got {token!r}")
    return value


def parse_range(text: str) -> list[float]:
    """``a:b:n`` -> n evenly spaced values; a bare number -> one value.

    Grid points landing within 1e-12 of pi/2 or pi are snapped exactly, so
    symbolic endpoints hit the special angles exactly.
    """
    parts = text.split(":")
    if len(parts) == 1:
        return [parse_angle(parts[0])]
    if len(parts) != 3:
        raise DomainError(f"range must be 'a:b:n' or a single value, got {text!r}")
    a, b = parse_angle(parts[0]), parse_angle(parts[1])
    try:
        n = int(parts[2])
    except ValueError:
        raise DomainError(f"grid size must be an integer, got {parts[2]!r}") from None
    if n < 2:
        raise DomainError(f"grid size must be >= 2 for a range, got {n}")
    if n > MAX_GRID:
        raise DomainError(f"grid size must be at most {MAX_GRID}, got {n}")
    step = (b - a) / (n - 1)
    grid = [a + i * step for i in range(n)]
    grid[-1] = b
    for i, v in enumerate(grid):
        for exact in (math.pi / 2, math.pi):
            if abs(v - exact) < 1e-12:
                grid[i] = exact
    return grid


# ---------------------------------------------------------------- quantities
# An evaluator takes the parsed call ``c`` (particle, api, zeta, s, betas,
# beta, thetas in radians, angle, cfg, extra metadata) and returns the rows.

def _p(c):
    profile = c.api.profile(c.s, c.zeta, c.beta, c.cfg)
    if c.api.family.at_double_limit(c.beta, HALF_PI) and HALF_PI in c.thetas:
        c.extra["ambiguous"] = ("beta=1,theta=pi/2: double limit; "
                                "fixed-beta theta-limit reported")
    return [[c.angle(t), float(profile(t))] for t in c.thetas]


def _q_local(c):
    local, s, zeta, beta = c.api.q_local, c.s, c.zeta, c.beta
    ambiguous = c.api.family.at_double_limit
    return [[c.angle(t), "ambiguous" if ambiguous(beta, t) else local(s, zeta, beta, t)]
            for t in c.thetas]


def _freq(c):
    spec = kinematics.ParticleSpec(c.particle, c.zeta if c.api.family.spin else None)
    state = kinematics.state_from_beta(spec, 1, c.beta)
    return [[c.angle(t), kinematics.photon_frequency(
        spec, state, kinematics.PhotonRequest(1, t))] for t in c.thetas]


def _max_angle(c):
    reports = [analysis.max_angle(c.particle, c.s, c.zeta, b, c.cfg) for b in c.betas]
    return [[r.beta, r.exists, "none" if r.theta_max is None else c.angle(r.theta_max),
             "none" if r.p_max is None else r.p_max] for r in reports]


def _polarization(c):
    qs = [c.api.fractions(c.zeta, b, c.cfg) for b in c.betas]
    return [[b, q[1], q[-1], q[2], q[3]] for b, q in zip(c.betas, qs)]


class Quantity(NamedTuple):
    axis: str | None   # the grid the rows run over: "beta", "theta" or none
    single_beta: bool  # a theta scan at one beta
    columns: tuple
    # metadata after the common keys: "key" takes the call's value, and
    # "key=value" a constant (which may replace a common key)
    keys: tuple
    rows: Callable     # the evaluator


_SCAN = ("particle", "zeta", "s")
QUANTITIES = {
    "freq": Quantity("theta", True, ("theta", "omega"),
                     _SCAN + ("beta", "units=m0*c^2/hbar"), _freq),
    "p": Quantity("theta", True, ("theta", "p"), _SCAN + ("beta",), _p),
    "q_local": Quantity("theta", True, ("theta", "q"), _SCAN + ("beta",), _q_local),
    "q_halfplane": Quantity("beta", False, ("beta", "q"), _SCAN, lambda c: [
        [b, c.api.q_halfplane(c.s, c.zeta, b, c.cfg)] for b in c.betas]),
    "power": Quantity("beta", False, ("beta", "power", "shape"), _SCAN + ("units=Q0",),
                      lambda c: [[b, *c.api.power(c.zeta, b, c.cfg)] for b in c.betas]),
    "ratio": Quantity("beta", False, ("beta", "k"), _SCAN, lambda c: [
        [b, analysis.power_ratio(c.zeta, b, c.cfg)] for b in c.betas]),
    "max_angle": Quantity("beta", False, ("beta", "exists", "theta_max", "p_max"),
                          _SCAN, _max_angle),
    "eff_angle": Quantity("beta", False, ("beta", "delta"), _SCAN + ("definition_id=rms",),
                          lambda c: [[b, c.angle(analysis.effective_angle(
                              c.particle, c.s, c.zeta, b, c.cfg).delta)] for b in c.betas]),
    "table1": Quantity(None, False, ("beta", "f_b", "f_e", "k_minus", "k_plus"),
                       ("angle_unit=rad", "units=dimensionless"), lambda c: [
                           [r.beta, r.f_b, r.f_e, r.k_minus, r.k_plus]
                           for r in analysis.table1(c.cfg)]),
    "limits": Quantity("theta", False, ("theta", "p_bar"), _SCAN + ("units=dimensionless",),
                       lambda c: [[c.angle(t), electron.ultrarelativistic_density(
                           c.s, c.zeta, t)] for t in c.thetas]),
    # reached only through their subcommands
    "crossover": Quantity(None, False, ("beta0", "gamma0"), (),
                          lambda c: [list(analysis.crossover_beta(c.cfg))]),
    "polarization": Quantity("beta", False, ("beta", "q_right", "q_left", "q_sigma", "q_pi"),
                             ("quantity=q_halfplane", "particle", "zeta"), _polarization),
}
SCAN_QUANTITIES = tuple(q for q in QUANTITIES if q not in ("crossover", "polarization"))


def _emit(quantity, fmt="csv", particle="boson", zeta="-1", s="0", beta=None, theta=None,
          angle_unit="rad", abs_tol=1e-10, rel_tol=1e-10, max_depth=60, keys=None):
    """Validate one call, evaluate ``quantity`` and write it to stdout;
    ``keys`` replaces the metadata keys of its table entry."""
    try:
        cfg = QuadratureConfig(abs_tol=abs_tol, rel_tol=rel_tol, max_depth=max_depth)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    q = QUANTITIES[quantity]
    api = analysis.PARTICLES[particle]
    betas = [] if beta is None else parse_range(beta)
    thetas = [] if theta is None else parse_range(theta)
    if angle_unit == "deg":
        thetas = [math.radians(t) for t in thetas]
    if q.single_beta and len(betas) != 1:
        raise DomainError(f"this theta scan takes a single beta, got {len(betas)} values")
    for b in betas if q.axis == "beta" or q.single_beta else ():
        api.family.check(b)
    for t in thetas if q.axis == "theta" else ():
        api.family.check(0.0, t)  # beta = 0 is always in the domain
    c = SimpleNamespace(particle=particle, api=api,
                        zeta=int(zeta), s=int(s), betas=betas,
                        beta=betas[0] if betas else None, thetas=thetas, cfg=cfg,
                        angle=math.degrees if angle_unit == "deg" else (lambda t: t),
                        extra={})
    rows = q.rows(c)
    md = {"quantity": quantity, "version": __version__, "abs_tol": cfg.abs_tol,
          "rel_tol": cfg.rel_tol, "max_depth": cfg.max_depth, "angle_unit": angle_unit}
    for key in q.keys if keys is None else keys:
        key, eq, value = key.partition("=")
        md[key] = value if eq else getattr(c, key)
    md.update(c.extra)
    sys.stdout.write(serialize(ScanResult(md, list(q.columns), rows), fmt))


# ---------------------------------------------------------------- commands

@click.group()
@click.version_option(__version__)
def cli():
    """Synchrotron radiation of n = 1 bosons and electrons."""


def _command(name, quantity, doc, *options, **fixed):
    """Subcommand ``name``: evaluates ``quantity`` (the --quantity option if
    None) with the options' values and the ``fixed`` arguments of _emit."""
    def command(**kwargs):
        _emit(quantity or kwargs.pop("quantity"), **fixed, **kwargs)

    for opt in reversed(options):
        command = opt(command)
    cli.command(name, help=doc)(command)


def _choice(*decls, choices, **kwargs):
    return click.option(*decls, type=click.Choice(choices), **kwargs)


_FORMATS = ["csv", "json"]
_PARTICLES = ["boson", "electron"]
_S = ["0", "1", "-1", "2", "3"]
_format = _choice("--format", "fmt", choices=_FORMATS, default="csv", show_default=True)
_particle = _choice("--particle", choices=_PARTICLES, required=True)
_zeta = _choice("--zeta", choices=["+1", "-1", "1"], default="-1", show_default=True,
                help="Electron spin along (+1) or against (-1) the field.")
_angle_unit = _choice("--angle-unit", choices=["rad", "deg"], default="rad",
                      show_default=True)
_betas = click.option("--beta", required=True, help="Speed value or range a:b:n.")
_QUAD = (click.option("--abs-tol", type=float, default=1e-10, show_default=True),
         click.option("--rel-tol", type=float, default=1e-10, show_default=True),
         click.option("--max-depth", type=int, default=60, show_default=True))

_command("table1", "table1", "Shape factors and power ratios on beta = 0.0 ... 1.0.",
         _format, *_QUAD)
_command("crossover", "crossover",
         "Speed where the spin-flip channel starts to outradiate the boson.",
         _choice("--format", "fmt", choices=_FORMATS, default="json", show_default=True),
         *_QUAD)
_command("freq", "freq", "Emitted photon frequency over an angle grid (units m0*c^2/hbar).",
         _particle, click.option("--beta", required=True, help="Speed, single value in [0, 1]."),
         click.option("--theta", default="0:pi/2:91", show_default=True,
                      help="Angle range a:b:n (symbolic pi, pi/2 allowed)."),
         _format, _angle_unit, keys=("particle", "beta", "units=m0*c^2/hbar"))
_command("scan", None, "Evaluate one quantity over a beta or theta grid.",
         _choice("--quantity", choices=SCAN_QUANTITIES, required=True),
         _choice("--particle", choices=_PARTICLES, default="boson", show_default=True),
         _zeta, _choice("--s", choices=_S, default="0", show_default=True),
         click.option("--beta", default="0", show_default=True,
                      help="Speed value or range a:b:n."),
         click.option("--theta", default="0:pi:181", show_default=True,
                      help="Angle value or range a:b:n."),
         _format, _angle_unit, *_QUAD)
_command("maxima", "max_angle", "Interior maxima of the angular density over a beta grid.",
         _particle, _choice("--s", choices=["0", "1", "3"], required=True), _zeta, _betas,
         _format, _angle_unit, *_QUAD)
_command("polarization", "polarization",
         "Half-plane polarization fractions q_s(beta) for all components.",
         _particle, _zeta, _betas, _format, *_QUAD)
_command("limits", "limits", "Ultrarelativistic electron density profile over an angle grid.",
         _choice("--s", choices=_S, required=True), _zeta,
         click.option("--theta", default="0:pi:181", show_default=True),
         _format, _angle_unit, particle="electron")


def run_cli(argv) -> int:
    """Dispatch argv; returns the process exit code (0/1/2).

    Output and error text are written straight to ``sys.stdout`` and
    ``sys.stderr`` as they are at the call, so no reference to either is
    kept (only click's own --help and --version text goes through click).
    """
    try:
        cli.main(args=list(argv), prog_name="srq1", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        sys.stderr.write(exc.format_message() + "\n")
        if exc.ctx is not None:
            sys.stderr.write(exc.ctx.get_usage() + "\n")
        return 1
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 1
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence error: {exc}\n")
        return 2
    return 0


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
