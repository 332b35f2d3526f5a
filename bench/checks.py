"""Checks of srq1 CLI outputs: against the oracle, and against properties
the method must have whatever its numerics.

A checker works from the argv the generator produced and reconstructs the
exact floats the program was given (the documented ``a:b:n`` grid, the
``pi``/``pi/2`` tokens, the degree conversion); it never reads the 9-digit
values printed back as inputs.  A printed cell passes when it lies within
half a unit of its 9th significant digit, plus ``RTOL`` times the
reference's magnitude, plus, for the circular components s = +-1 whose
value phi_0/2 +- (1 + x) cos (or 1/2 +- f_1/f_0) cancels on one side,
``RTOL_TERMS`` times the magnitude of the terms being summed: no evaluation
of such a difference is accurate to better than a fraction of its terms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracle

# between the ~1e-9 that srq1 reaches wherever its branches are sound and
# the >= 2.5e-7 error of the truncated boundary expansion of f_e
RTOL = 2e-8
# srq1's quadrature tolerance is 1e-10; cancelling sums keep ~1e-12 of their terms
RTOL_TERMS = 2e-9
# where integrals.f_e switches to its boundary expansion (srq1 docs)
BOUNDARY_EPS = 1e-6
FAULT_CAUSE = ("integrals.f_e boundary expansion: for 1 - x < 1e-6 only the "
               "(1-x)ln(1-x) term is kept (here 1 - x0 = {:.2e})")
HALF_PI = math.pi / 2


class CheckError(Exception):
    """An output that is wrong; ``cause`` names a known fault if one applies."""

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


# ---------------------------------------------------------------- parsing

@dataclass
class Output:
    metadata: dict
    columns: list
    rows: list = field(default_factory=list)

    def column(self, name):
        if name not in self.columns:
            raise CheckError(f"column {name!r} missing from {self.columns}")
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def numbers(self, name):
        """A column as floats; any non-numeric cell is an error."""
        cells = self.column(name)
        try:
            return np.array([float(c) for c in cells], dtype=float)
        except ValueError:
            bad = next(c for c in cells if not _is_number(c))
            raise CheckError(f"column {name!r} holds non-numeric cell {bad!r}") from None


def _is_number(c):
    try:
        float(c)
    except ValueError:
        return False
    return True


def parse_output(text: str, fmt: str) -> Output:
    """CSV or JSON output; cells come back as text, as CSV prints them."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [[_json_text(v) for v in row] for row in doc["rows"]]
        return Output(dict(doc["metadata"]), list(doc["columns"]), rows)
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError("CSV output does not end with a newline")
    lines = lines[:-1]
    md = {}
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        md[key] = value
        i += 1
    if i == len(lines):
        raise CheckError("CSV output has no header")
    columns = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1:]]
    if any(len(r) != len(columns) for r in rows):
        raise CheckError("CSV row with the wrong number of cells")
    return Output(md, columns, rows)


def _json_text(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v) if isinstance(v, str) else repr(float(v))


# ---------------------------------------------------------------- invocations

@dataclass
class Call:
    command: str
    quantity: str
    particle: str
    zeta: int
    s: int
    beta: str
    theta: str
    fmt: str
    unit: str


_COMMAND_QUANTITY = {"maxima": "max_angle", "polarization": "polarization",
                     "limits": "limits", "table1": "table1", "crossover": "crossover"}


def parse_argv(argv) -> Call:
    """The invocation with the CLI's defaults filled in."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    return Call(
        command=command,
        quantity=opts["--quantity"] if command == "scan" else _COMMAND_QUANTITY[command],
        particle=opts.get("--particle", "electron" if command == "limits" else "boson"),
        zeta=int(opts.get("--zeta", "-1")),
        s=int(opts.get("--s", "0")),
        beta=opts.get("--beta", "0"),
        theta=opts.get("--theta", "0:pi:181"),
        fmt=opts.get("--format", "json" if command == "crossover" else "csv"),
        unit=opts.get("--angle-unit", "rad"),
    )


def _token(text):
    t = text.strip().lower()
    if t == "pi":
        return math.pi
    if t == "pi/2":
        return HALF_PI
    return float(t)


def value_grid(text) -> np.ndarray:
    """The floats of ``a:b:n`` (n evenly spaced values a + i (b - a)/(n - 1),
    the last one exactly b, values within 1e-12 of pi/2 or pi snapped onto
    them) or of a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([_token(parts[0])])
    a, b, n = _token(parts[0]), _token(parts[1]), int(parts[2])
    step = (b - a) / (n - 1)
    grid = a + np.arange(n, dtype=float) * step
    grid[-1] = b
    for exact in (HALF_PI, math.pi):
        grid[np.abs(grid - exact) < 1e-12] = exact
    return grid


def theta_grid(call):
    """(theta in radians as evaluated, theta as printed back)."""
    grid = value_grid(call.theta)
    if call.unit == "deg":
        rad = np.radians(grid)
        return rad, np.degrees(rad)
    return grid, grid


# ---------------------------------------------------------------- comparisons

def round_tol(printed):
    """Half a unit of the 9th significant digit of each printed value."""
    a = np.abs(printed)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(np.where(a > 0, a, 1.0)))
    return np.where(a > 0, 0.5 * 10.0 ** (e - 8) * (1 + 1e-9), 0.0)


def close(name, printed, ref, terms=None, rtol=RTOL, where=None, extra=0.0):
    """Every printed value within rounding + rtol |ref| (+ RTOL_TERMS times
    the magnitude ``terms`` of a cancelling sum) of the reference."""
    printed = np.asarray(printed, dtype=float)
    ref = np.broadcast_to(np.asarray(ref, dtype=float), printed.shape)
    both_inf = np.isinf(printed) & np.isinf(ref) & (np.sign(printed) == np.sign(ref))
    allowed = round_tol(printed) + rtol * np.abs(ref) + extra
    if terms is not None:
        allowed = allowed + RTOL_TERMS * np.abs(terms)
    with np.errstate(invalid="ignore"):
        err = np.where(both_inf, 0.0, np.abs(printed - ref))
        bad = ~(err <= allowed)
    if bad.any():
        i = int(np.argmax(bad))
        at = f" at {float(where[i])!r}" if where is not None else f" at row {i}"
        denom = abs(float(ref[i])) or 1.0
        raise CheckError(f"{name}{at}: printed {float(printed[i])!r}, reference "
                         f"{float(ref[i])!r}, relative error {err[i] / denom:.2e}; "
                         f"{int(bad.sum())} of {bad.size} cells out of tolerance")


def _expect(out, quantity, columns):
    if out.metadata.get("quantity") != quantity:
        raise CheckError(f"metadata quantity={out.metadata.get('quantity')!r}, "
                         f"expected {quantity!r}")
    if out.columns != columns:
        raise CheckError(f"columns {out.columns}, expected {columns}")


def _rows(out, n):
    if len(out.rows) != n:
        raise CheckError(f"{len(out.rows)} rows, expected {n}")


def _fault_cause(betas):
    """The f_e fault when some electron beta has 1 - x0 inside its band."""
    for b in np.atleast_1d(betas):
        one_minus = float(oracle.electron_x0_mp(float(b))[1])
        if 0.0 < one_minus < BOUNDARY_EPS:
            return FAULT_CAUSE.format(one_minus)
    return None


# ---------------------------------------------------------------- theta scans

def _theta_column(call, out, n):
    _rows(out, n)
    rad, printed_angle = theta_grid(call)
    close("theta", out.numbers("theta"), printed_angle, rtol=1e-15)
    return rad


def _normalization(rad, p):
    """int p_0 sin(theta) dtheta = 1 over [0, pi] (odd n: trapezoid at h
    and 2h give the rule's own error estimate)."""
    if not (rad[0] == 0.0 and rad[-1] == math.pi and len(rad) % 2 == 1):
        return
    f = p * np.sin(rad)
    t_h = np.trapezoid(f, rad)
    t_2h = np.trapezoid(f[::2], rad[::2])
    if abs(t_h - 1.0) > 2.0 * abs(t_h - t_2h) / 3.0 + 1e-7:
        raise CheckError(f"int p_0 sin(theta) dtheta = {t_h!r}, not 1 "
                         f"(rule error estimate {abs(t_h - t_2h) / 3:.1e})")


def check_p(call, out, cache):
    _expect(out, "p", ["theta", "p"])
    rad = _theta_column(call, out, len(value_grid(call.theta)))
    beta = float(value_grid(call.beta)[0])
    ref, scale = oracle.density(call.particle, call.s, call.zeta, beta, rad, cache)
    p = out.numbers("p")
    close("p", p, ref, scale, where=rad)
    ambiguous = call.particle == "electron" and beta == 1.0 and bool((rad == HALF_PI).any())
    if ("ambiguous" in out.metadata) != ambiguous:
        raise CheckError(f"'ambiguous' metadata {'missing' if ambiguous else 'present'}"
                         f" (beta={beta!r})")
    if call.s == 0:
        _normalization(rad, p)
    return p


def check_q_local(call, out, cache):
    _expect(out, "q_local", ["theta", "q"])
    rad = _theta_column(call, out, len(value_grid(call.theta)))
    beta = float(value_grid(call.beta)[0])
    cells = out.column("q")
    marked = np.array([c == "ambiguous" for c in cells])
    expected = (rad == HALF_PI) & (call.particle == "electron") & (beta == 1.0)
    if (marked != expected).any():
        i = int(np.argmax(marked != expected))
        raise CheckError(f"'ambiguous' cell {'missing' if expected[i] else 'present'} "
                         f"at theta={rad[i]!r}, beta={beta!r}")
    if call.particle == "boson":
        ref, scale = oracle.boson_q_local(call.s, beta, rad)
    else:
        ref, scale = oracle.electron_q_local(call.s, call.zeta, beta, rad)
    keep = ~marked
    q = np.array([float(c) for c, m in zip(cells, marked) if not m])
    close("q", q, ref[keep], scale[keep], where=rad[keep])
    return None


def check_freq(call, out, cache):
    _expect(out, "freq", ["theta", "omega"])
    rad = _theta_column(call, out, len(value_grid(call.theta)))
    beta = float(value_grid(call.beta)[0])
    close("omega", out.numbers("omega"), oracle.frequency(call.particle, beta, rad),
          where=rad)


def check_limits(call, out, cache):
    _expect(out, "limits", ["theta", "p_bar"])
    rad = _theta_column(call, out, len(value_grid(call.theta)))
    ref, scale = oracle.limit_density(call.s, rad)
    p = out.numbers("p_bar")
    close("p_bar", p, ref, scale, where=rad)
    if call.s == 0:
        _normalization(rad, p)
    return p


# ---------------------------------------------------------------- beta scans

def _beta_column(out, betas):
    _rows(out, len(betas))
    close("beta", out.numbers("beta"), betas, rtol=1e-15)


def _with_cause(check, betas, electron=True):
    try:
        check()
    except CheckError as exc:
        cause = _fault_cause(betas) if electron else None
        raise CheckError(str(exc), cause) from None


def check_q_halfplane(call, out, cache):
    _expect(out, "q_halfplane", ["beta", "q"])
    betas = value_grid(call.beta)
    _beta_column(out, betas)
    ref, scale = _halfplane(call, cache, betas, call.s)
    _with_cause(lambda: close("q", out.numbers("q"), ref, scale, where=betas), betas,
                call.particle == "electron")


def _halfplane(call, cache, betas, s):
    """Reference q_s and the scale of its terms at each beta."""
    ref, scale = [], []
    for b in betas:
        if call.particle == "boson":
            obj = cache.boson(b)
            q = obj.q_halfplane(s)
        else:
            obj = cache.electron(b)
            q = obj.q_halfplane(s, call.zeta)
        ref.append(float(q))
        scale.append(float(oracle.halfplane_scale(obj, s)))
    return ref, scale


def check_power(call, out, cache):
    _expect(out, "power", ["beta", "power", "shape"])
    betas = value_grid(call.beta)
    _beta_column(out, betas)
    if call.particle == "boson":
        objs = [cache.boson(b) for b in betas]
        power = [float(o.power()) for o in objs]
    else:
        objs = [cache.electron(b) for b in betas]
        power = [float(o.power(call.zeta)) for o in objs]
    shape = [float(o.shape()) for o in objs]

    def both():
        close("shape", out.numbers("shape"), shape, where=betas)
        close("power", out.numbers("power"), power, where=betas)

    _with_cause(both, betas, call.particle == "electron")


def check_ratio(call, out, cache):
    _expect(out, "ratio", ["beta", "k"])
    betas = value_grid(call.beta)
    _beta_column(out, betas)
    ref = [float(oracle.ratio(call.zeta, cache.electron(b), cache.boson(b))) for b in betas]
    _with_cause(lambda: close("k", out.numbers("k"), ref, where=betas), betas)
    return out.numbers("k")


_POLARIZATION_COLUMNS = ["beta", "q_right", "q_left", "q_sigma", "q_pi"]


def check_polarization(call, out, cache):
    _expect(out, "q_halfplane", _POLARIZATION_COLUMNS)
    betas = value_grid(call.beta)
    _beta_column(out, betas)
    q = {c: out.numbers(c) for c in _POLARIZATION_COLUMNS[1:]}
    # properties first: they hold whatever the integrals are
    for a, b in (("q_right", "q_left"), ("q_sigma", "q_pi")):
        close(f"{a} + {b}", q[a] + q[b], 1.0, extra=round_tol(q[a]) + round_tol(q[b]),
              rtol=1e-12, where=betas)

    def refs():
        for col, s in zip(_POLARIZATION_COLUMNS[1:], (1, -1, 2, 3)):
            ref, scale = _halfplane(call, cache, betas, s)
            close(col, q[col], ref, scale, where=betas)

    _with_cause(refs, betas, call.particle == "electron")


def check_eff_angle(call, out, cache):
    _expect(out, "eff_angle", ["beta", "delta"])
    betas = value_grid(call.beta)
    _beta_column(out, betas)
    ref = np.array([oracle.rms_width(call.particle, call.s, call.zeta, float(b))
                    for b in betas])
    if call.unit == "deg":
        ref = np.degrees(ref)
    close("delta", out.numbers("delta"), ref, where=betas)


def check_max_angle(call, out, cache):
    _expect(out, "max_angle", ["beta", "exists", "theta_max", "p_max"])
    betas = value_grid(call.beta)
    _beta_column(out, betas)
    for row, beta in zip(out.rows, betas):
        _, exists, theta_max, p_max = row
        e = cache.electron(float(beta)) if call.particle == "electron" else None
        b = cache.boson(float(beta)) if e is None else None

        def p(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            if e is not None:
                return oracle.electron_density(call.s, call.zeta, e, t)[0]
            return oracle.boson_density(call.s, b, t)[0]

        t_star, p_star = _oracle_max(p)
        ends = float(max(p(0.0)[0], p(HALF_PI)[0]))
        if exists == "true":
            t, v = float(theta_max), float(p_max)
            if call.unit == "deg":
                t = math.radians(t)
            if not 0.0 < t < HALF_PI:
                raise CheckError(f"theta_max={theta_max} outside (0, pi/2) at beta={beta!r}")
            if v < ends * (1 - RTOL):
                raise CheckError(f"p_max={p_max} below an endpoint value {ends!r} "
                                 f"at beta={beta!r}")
            close("p_max", [v], [p_star], where=[beta])
            close("p at theta_max", [v], p(t), where=[beta])
            if abs(t - t_star) > 1e-6:
                raise CheckError(f"theta_max={t!r}, reference {t_star!r} at beta={beta!r}")
        elif exists == "false":
            if theta_max != "none" or p_max != "none":
                raise CheckError(f"no maximum but theta_max={theta_max}, p_max={p_max}")
            if p_star > ends * (1 + 1e-9):
                raise CheckError(f"interior maximum {p_star!r} at {t_star!r} above the "
                                 f"endpoints {ends!r} reported missing at beta={beta!r}")
        else:
            raise CheckError(f"exists={exists!r}")


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _oracle_max(p):
    """Largest value of p on [0, pi/2]: a fine grid, then golden section."""
    grid = np.linspace(0.0, HALF_PI, 20001)
    vals = p(grid)
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    for _ in range(80):
        c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        if p(c)[0] > p(d)[0]:
            b = d
        else:
            a = c
    t = 0.5 * (a + b)
    best = float(p(t)[0])
    if vals[i] > best:
        return float(grid[i]), float(vals[i])
    return t, best


def check_table1(call, out, cache):
    _expect(out, "table1", ["beta", "f_b", "f_e", "k_minus", "k_plus"])
    betas = np.array([i / 10.0 for i in range(11)])
    _beta_column(out, betas)
    e = [cache.electron(b) for b in betas]
    bo = [cache.boson(b) for b in betas]
    close("f_b", out.numbers("f_b"), [float(o.shape()) for o in bo], where=betas)
    close("f_e", out.numbers("f_e"), [float(o.shape()) for o in e], where=betas)
    k_minus, k_plus = out.numbers("k_minus"), out.numbers("k_plus")
    close("k_minus", k_minus, [float(oracle.ratio(-1, a, b)) for a, b in zip(e, bo)],
          where=betas)
    x0 = np.array([o.x0 for o in e])
    close("k_plus = x0 k_minus", k_plus, x0 * k_minus, rtol=1e-12,
          extra=round_tol(k_plus) + x0 * round_tol(k_minus), where=betas)


def check_crossover(call, out, cache):
    _expect(out, "crossover", ["beta0", "gamma0"])
    _rows(out, 1)
    beta0, gamma0 = float(out.rows[0][0]), float(out.rows[0][1])
    ref = crossover_beta()
    # srq1 bisects to an interval of 1e-8 and reports its midpoint
    close("beta0", [beta0], [ref], rtol=0.0, extra=5e-9)
    g = oracle.gamma(ref)
    close("gamma0", [gamma0], [g], rtol=0.0, extra=g ** 3 * ref * 5e-9)


def crossover_beta():
    """k(+1; beta) = 1 by the secant method on the oracle's ratio."""
    def f(b):
        return float(oracle.ratio(1, oracle.Electron(b), oracle.Boson(b))) - 1.0

    a, b = 0.80, 0.84
    fa, fb = f(a), f(b)
    for _ in range(60):
        if fb == fa or abs(b - a) < 1e-15:
            break
        a, fa, b = b, fb, b - fb * (b - a) / (fb - fa)
        fb = f(b)
    return b


CHECKS = {"p": check_p, "q_local": check_q_local, "freq": check_freq,
          "limits": check_limits, "q_halfplane": check_q_halfplane,
          "power": check_power, "ratio": check_ratio,
          "polarization": check_polarization, "eff_angle": check_eff_angle,
          "max_angle": check_max_angle, "table1": check_table1,
          "crossover": check_crossover}


# ---------------------------------------------------------------- one run

@dataclass
class Verdict:
    ok: bool
    rows: int
    message: str = ""
    cause: str | None = None


def check_all(argvs, exit_codes, texts, cache=None) -> list[Verdict]:
    """Check each invocation, then the properties that pair invocations."""
    cache = cache or oracle.Cache()
    verdicts, values, calls = [], {}, []
    for i, (argv, code, text) in enumerate(zip(argvs, exit_codes, texts)):
        call = parse_argv(argv)
        calls.append(call)
        if code != 0:
            verdicts.append(Verdict(False, 0, f"exit code {code}"))
            continue
        try:
            out = parse_output(text, call.fmt)
        except (CheckError, ValueError, KeyError) as exc:
            verdicts.append(Verdict(False, 0, f"unreadable output: {exc}"))
            continue
        try:
            values[i] = CHECKS[call.quantity](call, out, cache)
            verdicts.append(Verdict(True, len(out.rows)))
        except CheckError as exc:
            verdicts.append(Verdict(False, len(out.rows), str(exc), exc.cause))
        except (ValueError, KeyError, IndexError) as exc:
            verdicts.append(Verdict(False, len(out.rows), f"unreadable output: {exc!r}"))
    for i, message in pair_checks(calls, values).items():
        if verdicts[i].ok:
            verdicts[i] = Verdict(False, verdicts[i].rows, message)
    return verdicts


def pair_checks(calls, values) -> dict:
    """p_2 + p_3 = p_0, p_1 + p_-1 = p_0, p_2(zeta) = p_3(-zeta) on invocations
    sharing a particle, beta and grid; k(+1) = x0 k(-1) on ratio pairs."""
    groups = {}
    for i, call in enumerate(calls):
        if i in values and values[i] is not None and call.quantity in ("p", "ratio"):
            key = (call.quantity, call.particle, call.beta, call.theta, call.unit)
            groups.setdefault(key, {})[(call.zeta, call.s)] = (i, values[i])
    failures = {}
    for (quantity, particle, beta, _, _), members in groups.items():
        try:
            if quantity == "ratio":
                if (1, 0) in members and (-1, 0) in members:
                    x0 = np.array([oracle.electron_x0(float(b)) for b in value_grid(beta)])
                    k_plus, k_minus = members[(1, 0)][1], members[(-1, 0)][1]
                    close("k(+1) = x0 k(-1)", k_plus, x0 * k_minus, rtol=1e-12,
                          extra=round_tol(k_plus) + x0 * round_tol(k_minus))
                continue
            zetas = (None,) if particle == "boson" else (-1, 1)
            for zeta in zetas:
                z = -1 if zeta is None else zeta
                got = {s: members[(z, s)][1] for s in (0, 1, -1, 2, 3) if (z, s) in members}
                for a, b in ((2, 3), (1, -1)):
                    if a in got and b in got and 0 in got:
                        _sum_equal(f"p_{a} + p_{b} = p_0", got[a], got[b], got[0])
            if particle == "electron":
                for s in (2, 3):
                    if (1, s) in members and (-1, 5 - s) in members:
                        a, b = members[(1, s)][1], members[(-1, 5 - s)][1]
                        close(f"p_{s}(+1) = p_{5 - s}(-1)", a, b, rtol=1e-12,
                              extra=round_tol(b))
        except CheckError as exc:
            last = max(i for i, _ in members.values())
            failures[last] = str(exc)
    return failures


def _sum_equal(name, a, b, total):
    close(name, a + b, total, rtol=1e-12,
          extra=round_tol(a) + round_tol(b) + round_tol(total) + 1e-15 * total)
