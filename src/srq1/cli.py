"""Command-line surface: grid scans and reference tables as CSV/JSON.

``scan --quantity Q`` evaluates one quantity of the QUANTITIES table over a
beta or theta grid; the other subcommands are aliases into the same table.
One argparse parser is built, at import, from the COMMANDS table, and beside
it a table of each subcommand's actions: valid argv is read straight from that
table, and anything else goes to argparse, which prints every help, usage and
error text.  A theta
scan (p, q_local, freq, limits) is one array evaluation of the whole grid,
handed to the writers as one (theta, value) float array; a q_local grid
through the double-limit point names that cell a text cell, "ambiguous".
A beta scan of floats (q_halfplane, polarization, power, ratio, eff_angle
and table1) is the one array of its quantity's table, which raises its
error before any row is returned, handed to them as it is; maxima, with its
flag and "none" cells, as a list of rows.  Every value equals that of a
one-point call bit for bit (see ``family``); p is the profile that maxima
and eff_angle read.

Inputs: a value is a finite number or one of the symbolic angles ``pi`` and
``pi/2``; a range ``a:b:n`` is n evenly spaced values, 2 <= n <= 1000000.
Angles are radians unless --angle-unit deg is given.  beta must lie in
[0, 1] and theta, after unit conversion, in [0, pi]; the theta scans p,
q_local and freq take a single beta, and a --beta or --theta that the
quantity does not read is an error.  Exit codes: 0 success, 1 domain/usage
error, 2 convergence failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, electron, kinematics
from .errors import ConvergenceError, DomainError
from .family import HALF_PI
from .io import ScanResult, serialize
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

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


def parse_range(text: str) -> np.ndarray:
    """``a:b:n`` -> n evenly spaced values; a bare number -> one value; as a
    float64 array.

    Grid points landing within 1e-12 of pi/2 or pi are snapped exactly, so
    symbolic endpoints hit the special angles exactly.
    """
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([parse_angle(parts[0])])
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
    grid = a + np.arange(n) * step
    grid[-1] = b
    for exact in (math.pi / 2, math.pi):
        grid[np.abs(grid - exact) < 1e-12] = exact
    return grid


# ---------------------------------------------------------------- quantities
# An evaluator takes the parsed call ``c`` (particle, api, zeta, s, betas,
# beta, thetas: an array in radians, angles: the theta column, angle: the
# unit conversion of one angle, cfg, extra metadata, texts: the text cells of
# the rows) and returns the rows.

def _theta_rows(c, values):
    """The (theta, value) rows of a float array of values, as an (n, 2) array."""
    return np.column_stack((c.angles, values))


def _p(c):
    if c.api.family.at_double_limit(c.beta, c.thetas):
        c.extra["ambiguous"] = ("beta=1,theta=pi/2: double limit; "
                                "fixed-beta theta-limit reported")
    return _theta_rows(c, c.api.density(c.s, c.zeta, c.beta, c.thetas, c.cfg))


def _q_local(c):
    if not c.api.family.at_double_limit(c.beta, c.thetas):
        return _theta_rows(c, c.api.q_local(c.s, c.zeta, c.beta, c.thetas))
    # the double-limit point has no value: its cell is a nan placeholder,
    # written as the text "ambiguous"
    valued = c.thetas != HALF_PI
    values = np.full(len(c.thetas), math.nan)
    values[valued] = c.api.q_local(c.s, c.zeta, c.beta, c.thetas[valued])
    c.texts.update({2 * i + 1: "ambiguous" for i in np.flatnonzero(~valued).tolist()})
    return _theta_rows(c, values)


def _freq(c):
    spec = kinematics.ParticleSpec(c.particle, c.zeta if c.api.family.spin else None)
    state = kinematics.state_from_beta(spec, 1, c.beta)
    return _theta_rows(c, kinematics.photon_frequency(
        spec, state, kinematics.PhotonRequest(1, c.thetas)))


def _max_angle(c):
    reports = analysis.max_angle_scan(c.particle, c.s, c.zeta, c.betas, c.cfg)
    return [[r.beta, r.exists, "none" if r.theta_max is None else c.angle(r.theta_max),
             "none" if r.p_max is None else r.p_max] for r in reports]


def _polarization(c):
    return c.api.family.half_plane_fractions_rows(c.zeta, c.betas, c.cfg)


def _eff_angle(c):
    table = analysis.effective_angle_rows(c.particle, c.s, c.zeta, c.betas, c.cfg)
    table[:, 1] = c.angle(table[:, 1])
    return table


class Quantity(NamedTuple):
    reads: str         # its grids: "beta", "theta", "theta beta" (one beta) or ""
    columns: tuple
    # metadata after the common keys: "key" takes the call's value, and
    # "key=value" a constant (which may replace a common key)
    keys: tuple
    rows: Callable     # the evaluator


_SCAN = ("particle", "zeta", "s")
QUANTITIES = {
    "freq": Quantity("theta beta", ("theta", "omega"),
                     _SCAN + ("beta", "units=m0*c^2/hbar"), _freq),
    "p": Quantity("theta beta", ("theta", "p"), _SCAN + ("beta",), _p),
    "q_local": Quantity("theta beta", ("theta", "q"), _SCAN + ("beta",), _q_local),
    "q_halfplane": Quantity("beta", ("beta", "q"), _SCAN, lambda c:
                            c.api.family.half_plane_fraction_rows(c.s, c.zeta, c.betas, c.cfg)),
    "power": Quantity("beta", ("beta", "power", "shape"), _SCAN + ("units=Q0",),
                      lambda c: c.api.family.power_rows(c.zeta, c.betas, c.cfg)),
    "ratio": Quantity("beta", ("beta", "k"), _SCAN,
                      lambda c: analysis.power_ratio_rows(c.zeta, c.betas, c.cfg)),
    "max_angle": Quantity("beta", ("beta", "exists", "theta_max", "p_max"), _SCAN, _max_angle),
    "eff_angle": Quantity("beta", ("beta", "delta"), _SCAN + ("definition_id=rms",), _eff_angle),
    "table1": Quantity("", ("beta", "f_b", "f_e", "k_minus", "k_plus"),
                       ("units=dimensionless",), lambda c: analysis.table1_rows(c.cfg)),
    "limits": Quantity("theta", ("theta", "p_bar"),
                       ("particle=electron", "zeta", "s", "units=dimensionless"),
                       lambda c: _theta_rows(c, electron.ultrarelativistic_density(
                           c.s, c.zeta, c.thetas))),
    # reached only through their subcommands
    "crossover": Quantity("", ("beta0", "gamma0"), (),
                          lambda c: [list(analysis.crossover_beta(c.cfg))]),
    "polarization": Quantity("beta", ("beta", "q_right", "q_left", "q_sigma", "q_pi"),
                             ("quantity=q_halfplane", "particle", "zeta"), _polarization),
}


def _emit(quantity, fmt="csv", particle="boson", zeta="-1", s="0", beta=None, theta=None,
          angle_unit="rad", abs_tol=DEFAULT_CONFIG.abs_tol, rel_tol=DEFAULT_CONFIG.rel_tol,
          max_depth=DEFAULT_CONFIG.max_depth, keys=None):
    """Validate one call, evaluate ``quantity`` and write it to stdout;
    ``keys`` replaces the metadata keys of its table entry."""
    cfg = QuadratureConfig(abs_tol=abs_tol, rel_tol=rel_tol, max_depth=max_depth)
    q = QUANTITIES[quantity]
    api = analysis.PARTICLES[particle]
    reads_beta, reads_theta = "beta" in q.reads, "theta" in q.reads
    for option, value, read in (("--beta", beta, reads_beta), ("--theta", theta, reads_theta)):
        if value is not None and not read:
            raise DomainError(f"quantity {quantity} does not read {option}")
    betas = parse_range("0" if beta is None else beta).tolist() if reads_beta else []
    thetas = parse_range("0:pi:181" if theta is None else theta) if reads_theta else np.empty(0)
    if angle_unit == "deg":
        thetas = np.radians(thetas)
    if reads_theta and reads_beta and len(betas) != 1:
        raise DomainError(f"this theta scan takes a single beta, got {len(betas)} values")
    api.family.check_betas(betas)
    api.family.check(0.0, thetas)  # beta = 0 is always in the domain
    deg = angle_unit == "deg"
    c = SimpleNamespace(particle=particle, api=api, zeta=int(zeta), s=int(s), betas=betas,
                        beta=betas[0] if betas else None, thetas=thetas, cfg=cfg, extra={},
                        texts={},
                        angles=np.degrees(thetas) if deg else thetas,
                        angle=np.degrees if deg else (lambda t: t))
    rows = q.rows(c)
    md = {"quantity": quantity, "version": __version__, "abs_tol": cfg.abs_tol,
          "rel_tol": cfg.rel_tol, "max_depth": cfg.max_depth, "angle_unit": angle_unit}
    for key in q.keys if keys is None else keys:
        key, eq, value = key.partition("=")
        md[key] = value if eq else getattr(c, key)
    md.update(c.extra)
    sys.stdout.write(serialize(ScanResult(md, list(q.columns), rows, c.texts), fmt))


# ---------------------------------------------------------------- commands
# argparse keywords of each option; every option takes one value
_OPTIONS = {
    "--quantity": {"choices": [q for q in QUANTITIES if q not in ("crossover", "polarization")]},
    "--particle": {"choices": ("boson", "electron")},
    "--zeta": {"choices": ("+1", "-1", "1"), "default": "-1",
               "help": "Electron spin along (+1) or against (-1) the field."},
    "--s": {"choices": ("0", "1", "-1", "2", "3")},
    "--beta": {"help": "Speed value or range a:b:n."},
    "--theta": {"default": "0:pi:181", "help": "Angle value or range a:b:n."},
    "--format": {"choices": ("csv", "json"), "default": "csv", "dest": "fmt"},
    "--angle-unit": {"choices": ("rad", "deg"), "default": "rad"},
    "--abs-tol": {"type": float, "default": DEFAULT_CONFIG.abs_tol},
    "--rel-tol": {"type": float, "default": DEFAULT_CONFIG.rel_tol},
    "--max-depth": {"type": int, "default": DEFAULT_CONFIG.max_depth},
}


class Command(NamedTuple):
    name: str
    quantity: str | None  # None: the --quantity option
    help: str
    options: str          # its option names; one left without a default is required
    own: dict = {}        # option -> keywords that replace those of _OPTIONS
    defaults: dict = {}   # option defaults and fixed arguments of _emit, by dest


_QUAD = " --abs-tol --rel-tol --max-depth"
COMMANDS = (
    Command("table1", "table1", "Shape factors and power ratios on beta = 0.0 ... 1.0.",
            "--format" + _QUAD),
    Command("crossover", "crossover", "Speed where the spin-flip channel overtakes the boson.",
            "--format" + _QUAD, {}, {"fmt": "json"}),
    Command("freq", "freq", "Emitted photon frequency over an angle grid (units m0*c^2/hbar).",
            "--particle --beta --theta --format --angle-unit",
            {}, {"theta": "0:pi/2:91", "keys": ("particle", "beta", "units=m0*c^2/hbar")}),
    Command("scan", None, "Evaluate one quantity over a beta grid (--beta, 0 if absent) or "
            "a theta grid (--theta, 0:pi:181 if absent).",
            "--quantity --particle --zeta --s --beta --theta --format --angle-unit" + _QUAD,
            {}, {"particle": "boson", "s": "0", "beta": None, "theta": None}),
    Command("maxima", "max_angle", "Interior maxima of the angular density over a beta grid.",
            "--particle --s --zeta --beta --format --angle-unit" + _QUAD,
            {"--s": {"choices": ("0", "1", "3")}}),
    Command("polarization", "polarization",
            "Half-plane polarization fractions q_s(beta) for all components.",
            "--particle --zeta --beta --format" + _QUAD),
    Command("limits", "limits", "Ultrarelativistic electron density profile over an angle grid.",
            "--s --zeta --theta --format --angle-unit"),
)


def _build_parser():
    """The srq1 parser, with one subparser per row of COMMANDS; the map from
    each subcommand's name to its subparser; and the map from that name to
    the table ``_read`` reads argv with: the subcommand's actions by option
    string, the namespace of an argv without options (as argparse fills it),
    and the dests that argv must set."""
    top = argparse.ArgumentParser(prog="srq1", description=__doc__.splitlines()[0],
                                  add_help=False, allow_abbrev=False)
    top.add_argument("--version", action="version", version=f"srq1, version {__version__}")
    commands = top.add_subparsers(title="commands", metavar="COMMAND", required=True)
    tables = {}
    for command in COMMANDS:
        sub = commands.add_parser(command.name, help=command.help, description=command.help,
                                  add_help=False, allow_abbrev=False)
        actions = [sub.add_argument(o, **{**_OPTIONS[o], **command.own.get(o, {})})
                   for o in command.options.split()]
        sub.set_defaults(command=command, **command.defaults)  # replaces option defaults
        for action in actions:
            action.required = action.default is None and action.dest not in command.defaults
            if action.default is not None:
                action.help = f"{action.help or ''} [default: %(default)s]"
        dests = [action.dest for action in actions] + [*command.defaults, "command"]
        tables[command.name] = ({action.option_strings[0]: action for action in actions},
                                {dest: sub.get_default(dest) for dest in dests},
                                {action.dest for action in actions if action.required})
    for parser in (top, *commands.choices.values()):
        parser.add_argument("--help", action="help", help="Show this message and exit.")
    return top, commands.choices, tables


_PARSER, _SUBPARSERS, _TABLES = _build_parser()


def _joined(argv):
    """argv with each option of _OPTIONS and the token after it joined into
    one --name=value token: an option's value is the next token, even one
    like -inf."""
    tokens = iter(argv)
    return [t if t not in _OPTIONS or (value := next(tokens, None)) is None
            else f"{t}={value}" for t in tokens]


def _read(argv):
    """The namespace of argv as a dict, read from the table of the subcommand
    argv[0] names, or None unless every later token is --name=value for an
    option of that subcommand and sets every required one.  Each occurrence's
    value goes through the action's type and choices, in order, as argparse
    takes it, and the last occurrence wins; a value that the type or choices
    refuse gives None.  A value "--", which argparse would read as no value
    at all, raises DomainError."""
    table = _TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    options, defaults, required = table
    args, seen = defaults.copy(), set()
    for token in argv[1:]:
        name, eq, value = token.partition("=")
        action = options.get(name)
        if action is None or not eq:
            return None
        if value == "--":
            raise DomainError(f"option {name} needs a value, got '--'")
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        if action.choices is not None and value not in action.choices:
            return None
        args[action.dest] = value
        seen.add(action.dest)
    return args if required <= seen else None


def _parse(argv):
    """The namespace of argv as a dict.  Valid argv is read from the actions'
    table (``_read``); anything else goes to argparse: to the subparser of the
    subcommand argv[0] names, which the top-level parser would hand the same
    tokens.  Argv that names no subcommand, or that has a token the subparser
    leaves unrecognized, goes to the top-level parser, which prints its own
    usage."""
    args = _read(argv)
    if args is not None:
        return args
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            return vars(args)
    return vars(_PARSER.parse_args(argv))


def run_cli(argv) -> int:
    """Dispatch argv; returns the exit code (0/1/2).  All text goes to sys.stdout
    and sys.stderr as they are at the call, so no reference to either is kept."""
    try:
        args = _parse(_joined(argv))
        _emit(args.pop("command").quantity or args.pop("quantity"), **args)
    except SystemExit as exc:  # argparse: --help or --version (0), or a usage error
        return 1 if exc.code else 0
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
