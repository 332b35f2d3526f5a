import contextlib
import io
import math
import re
import time

import mpmath
import numpy as np
import pytest

from srq1 import analysis, cli, integrals, quadrature
from srq1.family import GRID_CHUNK
from srq1.figures import FIGURE_SCANS
from srq1.errors import ConvergenceError, DomainError
from srq1.quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_adaptive

from oracles import bench_module, count_profile_values, midpoint_riemann


def test_constant():
    assert quad_adaptive(lambda t: np.ones_like(t), 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_quadratic():
    assert quad_adaptive(lambda t: t**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_reversed_interval():
    assert quad_adaptive(lambda t: t, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)


def test_boson_integrand_vs_riemann():
    x = 0.26

    def g(t):
        u = 1 - x**2 * t**2
        return (1 - x * t**2) * (1 + x * t**2) ** 2 / u**4 * np.exp(-x * (1 - t**2) / u)

    assert quad_adaptive(g, 0.0, 1.0) == pytest.approx(
        midpoint_riemann(g, 0.0, 1.0), abs=1e-8)


def _outcome(f, a, b, cfg=DEFAULT_CONFIG):
    """The float.hex of quad_adaptive, or its error's message, estimate and
    error estimate."""
    try:
        return quad_adaptive(f, a, b, cfg).hex()
    except ConvergenceError as exc:
        return str(exc), exc.estimate.hex(), exc.error_bound.hex()
    except DomainError as exc:
        return str(exc)


def test_deterministic():
    # 50 periods of sin^2 are more than one fixed rule resolves: the same
    # ConvergenceError, to the bit, at every call
    g = lambda t: np.sin(50 * t) ** 2 / (1 + t)
    assert _outcome(g, 0.0, math.pi) == _outcome(g, 0.0, math.pi)
    assert isinstance(_outcome(g, 0.0, math.pi), tuple)


def test_convergence_error_carries_estimate():
    # a peak of width 1e-7 at t = 0, which no fixed rule on [0, 1] resolves
    g = lambda t: 1.0 / np.sqrt(t**2 + 1e-14)
    with pytest.raises(ConvergenceError) as exc_info:
        quad_adaptive(g, 0.0, 1.0)
    err = exc_info.value
    assert err.estimate is not None and math.isfinite(err.estimate)
    assert err.error_bound > 0
    assert str(err) == (f"Gauss-Legendre error estimate {err.error_bound:.3e} exceeds "
                        f"tolerance {1e-10 * err.estimate:.3e}")


def test_a_tolerance_below_rounding_is_never_met():
    # the 40- and 30-point sums of a constant differ by an ulp at most; a
    # piece's error estimate is still at least 50 eps times its integral of |f|
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    for sign in (1.0, -1.0):
        with pytest.raises(ConvergenceError) as exc_info:
            quad_adaptive(lambda t: np.full_like(t, sign), 0.0, 1.0, cfg)
        assert exc_info.value.estimate == sign
        assert exc_info.value.error_bound == pytest.approx(50.0 * math.ulp(1.0), rel=1e-12, abs=0.0)


def test_an_unreachable_tolerance_fails_at_once():
    # one evaluation of the rule and no refinement, whatever the tolerance
    calls = []

    def g(t):
        calls.append(t.shape)
        return np.exp(t) * np.cos(3.0 * t)

    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        quad_adaptive(g, 0.0, 1.0, cfg)
    assert time.perf_counter() - start < 0.1
    assert calls == [(1, 70)]


def test_nan_integrand_raises_at_once_naming_its_interval():
    start = time.perf_counter()
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match=r"\[-0\.5, 1\.0\]"):
        quad_adaptive(lambda t: np.log(t + 1e-2), -0.5, 1.0)
    assert time.perf_counter() - start < 0.1


def test_nan_member_leaves_the_finite_member_of_its_batch_alone():
    g = lambda t: np.exp(t) * np.cos(3.0 * t)
    t, half = quadrature.nodes(np.array([0.0, -0.5]), np.array([1.0, 1.0]))
    with np.errstate(invalid="ignore"):
        y = np.stack((g(t[0]), np.log(t[1] + 1e-2)))
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    (finite, failed), (finite_err, failed_err) = quadrature.sums(y, half)
    assert quadrature.settled(finite, finite_err, cfg, 0.0, 1.0).hex() == _outcome(
        g, 0.0, 1.0, cfg)
    assert isinstance(quadrature.settled(failed, failed_err, cfg, -0.5, 1.0), DomainError)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-3)
    # a fixed rule has nothing to bisect, so no depth is taken
    with pytest.raises(TypeError):
        QuadratureConfig(max_depth=60)
    # an infinite tolerance would accept every integral
    with pytest.raises(DomainError, match="abs_tol must be finite, got inf"):
        QuadratureConfig(abs_tol=math.inf)
    with pytest.raises(DomainError, match="rel_tol must be finite, got inf"):
        QuadratureConfig(rel_tol=math.inf)
    # nor may a finite one that most integrals meet
    for tol in (1e300, 0.5):
        for name in ("abs_tol", "rel_tol"):
            with pytest.raises(DomainError, match=re.escape(f"{name} must be at most 0.001, "
                                                            f"got {tol}") + "$"):
                QuadratureConfig(**{name: tol})
    assert QuadratureConfig(abs_tol=1e-3, rel_tol=1e-3).rel_tol == 1e-3


def _gauss_legendre_mp(n):
    """The n-point Gauss-Legendre nodes and weights at 40 digits: the roots of
    P_n from numpy's nodes by mpmath's findroot, and w = 2 (1 - x^2) /
    (n P_{n-1}(x))^2."""
    nodes = [mpmath.findroot(lambda z: mpmath.legendre(n, z), mpmath.mpf(x))
             for x in np.polynomial.legendre.leggauss(n)[0]]
    return nodes, [2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2 for x in nodes]


def _ulps(doubles, exact):
    return [float(abs(d - e) / mpmath.mpf(math.ulp(float(e)))) for d, e in zip(doubles, exact)]


def test_gauss_legendre_constants_against_40_digit_mpmath():
    # leggauss takes the nodes to within an ulp.  Its weights come from P_n'
    # at the nodes before their last Newton step: the outermost of each rule
    # are off by 3641 (n = 40) and 1400 (n = 30) ulps, 7.0e-13 and 3.0e-13
    # relative, and from the fifth node inward they are within 44 ulps
    weights = quadrature._WEIGHTS
    rules = ((40, slice(0, 40), weights[:40, 0], 3641, 7.0e-13),
             (30, slice(40, 70), -weights[40:, 1], 1400, 3.1e-13))
    with mpmath.workdps(40):
        for n, cols, w, worst, relative in rules:
            x_mp, w_mp = _gauss_legendre_mp(n)
            assert max(_ulps(quadrature._NODES[cols], x_mp)) <= 1.0, n
            ulps = _ulps(w, w_mp)
            assert max(ulps) <= worst, n
            assert max(ulps[4:-4]) <= 44, n
            assert max(float(abs(d / e - 1)) for d, e in zip(w, w_mp)) <= relative, n
    # the value column holds the n = 40 rule alone
    assert not weights[40:, 0].any()
    # both rules integrate t^k over [-1, 1] up to their degree, 2n - 1, to
    # the weights' error: within 6.3e-15 (n = 40) and 4.8e-15 (n = 30)
    for n, cols, w, *_ in rules:
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ quadrature._NODES[cols] ** k - exact) <= 7e-15, (n, k)


# --- the reduction: each piece's sums do not depend on the other pieces -----

def _in_node_order(y, half):
    """The (value, error) of each row of y as the rule defines them, summed
    term by term in node order in Python floats."""
    out = []
    for row, h in zip(y.tolist(), half[:, 0].tolist()):
        value = diff = size = 0.0
        for v, (w, d) in zip(row, quadrature._WEIGHTS.tolist()):
            value += v * w
            diff += v * d
            size += abs(v) * w
        out.append((h * value, max(abs(h * diff), 50.0 * math.ulp(1.0) * (abs(h) * size))))
    return out


def test_pair_reduction_equals_separate_dots():
    # the value and difference columns of a (2, 70) @ (70, 2) product are the
    # separate 70-term dots of each row, summed in node order
    rng = np.random.default_rng(5)
    for _ in range(2000):
        y = rng.standard_normal((2, 70)) * 10.0 ** rng.uniform(-150, 150, (2, 70))
        half = rng.uniform(-3.0, 3.0, (2, 1))
        got = np.column_stack(quadrature.sums(y, half)).tolist()
        assert [[v.hex() for v in row] for row in got] == [
            [v.hex() for v in row] for row in _in_node_order(y, half)]


def test_lone_panel_is_reduced_as_a_dot():
    # quad_adaptive is the rule on one piece: its value is the half width
    # times the 40-term dot of the node values, summed in node order
    rng = np.random.default_rng(9)
    for _ in range(500):
        c = rng.standard_normal(4)
        a, b = sorted(rng.uniform(-3.0, 3.0, 2))
        f = lambda t: c[0] + c[1] * t + c[2] * np.sin(c[3] * t)  # noqa: E731
        t, half = quadrature.nodes(np.array([a]), np.array([b]))
        ((value, _),) = _in_node_order(f(t), half)
        assert quad_adaptive(f, a, b, QuadratureConfig(1e-3, 1e-3)).hex() == value.hex()


def test_row_reduction_equals_separate_dots():
    # every row of the (pieces, 70) reduction has the bits of that row reduced
    # alone, on prefixes and on gathered rows, for the row counts a chunk of
    # GRID_CHUNK widths can reach (a weighted and a plain row per piece, most
    # pieces next to beta = 1), so that each width keeps the bits of its
    # one-beta call
    n_max = 2 * len(analysis._width_pieces(np.nextafter(1.0, 0.0))) * GRID_CHUNK
    rng = np.random.default_rng(8)
    y = rng.standard_normal((n_max, 70)) * 10.0 ** rng.uniform(-150, 150, (n_max, 70))
    half = rng.uniform(1e-9, 1.0, (n_max, 1))
    alone = np.array([np.column_stack(quadrature.sums(y[i:i + 1], half[i:i + 1]))[0]
                      for i in range(n_max)])
    order = rng.permutation(n_max)
    sizes = [*range(1, 130), *sorted(rng.integers(130, n_max, 40)), n_max]
    for n in sizes:
        assert np.array_equal(np.column_stack(quadrature.sums(y[:n], half[:n])), alone[:n]), n
        rows = order[:n]
        assert np.array_equal(np.column_stack(quadrature.sums(y[rows], half[rows])),
                              alone[rows]), n


def test_batch_matches_reference_member_by_member():
    # easy and hard integrals mixed, with reversed and empty intervals, members
    # that meet the tolerance, fail it, or are not finite: each member of one
    # batch has the float.hex, or the error message, estimate and error
    # estimate, of quad_adaptive on its own
    funcs = [lambda t: np.exp(t) * np.cos(3.0 * t), lambda t: t * t,
             lambda t: 1.0 / np.sqrt(t * t + 1e-10), lambda t: np.sin(50 * t) ** 2 / (1 + t),
             lambda t: np.sqrt(np.where(t > 0.5, t - 0.5, np.nan))]
    intervals = [(0.0, 1.0), (2.0, -1.0), (0.5, 0.5), (0.0, math.pi)]
    members = [(f, ab) for f in funcs for ab in intervals]
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    lo, hi = np.array([ab for _, ab in members]).T
    t, half = quadrature.nodes(lo, hi)
    y = np.stack([f(row) for (f, _), row in zip(members, t)])
    got = []
    for (_, (a, b)), value, error in zip(members, *quadrature.sums(y, half)):
        result = quadrature.settled(value, error, cfg, a, b)
        got.append(result.hex() if isinstance(result, float) else
                   (str(result), result.estimate.hex(), result.error_bound.hex())
                   if isinstance(result, ConvergenceError) else str(result))
    assert got == [_outcome(f, a, b, cfg) for f, (a, b) in members]
    assert got[2] == (0.0).hex()  # the empty interval
    assert sum(isinstance(v, tuple) for v in got) >= 4
    assert got[-4] == "integrand is not finite on [0.0, 1.0]"


# --- the work of the widths: one profile call per chunk of betas ----------

def _quadrature_work(monkeypatch, argvs):
    """Node arrays and profile values of the widths' rule over one pass of
    argvs: one node call per chunk of betas, every node one profile value."""
    work = {"calls": 0, "pieces": 0, "values": 0}
    real = quadrature.nodes

    def counted(lo, hi):
        t, half = real(lo, hi)
        work["calls"] += 1
        work["pieces"] += len(t)
        work["values"] += t.size
        return t, half

    monkeypatch.setattr(quadrature, "nodes", counted)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            cli.run_cli(argv)
    return work


def test_beta_sweep_quadrature_work_is_pinned(monkeypatch):
    # one pass of the beta_sweep benchmark workload (seed 3), which no
    # bookkeeping change may move: 70 profile values per width piece, shared
    # by its weighted and plain integral (18 240 GK15 values, 1 216 panels,
    # with the adaptive rule)
    work = _quadrature_work(monkeypatch, bench_module("workloads").beta_sweep(3))
    assert work == {"calls": 13, "pieces": 402, "values": 28140}


def test_f_k_work_is_pinned(monkeypatch):
    # the f_k forms over one seed-3 pass of the beta_sweep workload and over
    # the FIGURE_SCANS: per form its calls and the x it evaluates, one call
    # per GRID_CHUNK of a table.  The x are the distinct x that each form
    # evaluated when f_k were taken pair by pair (an f_2, f_3 pair then took
    # two series or closed-form columns), so no x is skipped.
    work = {}

    def counted(form):
        def run(kernel, x, cfg):
            calls, xs = work.get(form.__name__, (0, 0))
            work[form.__name__] = (calls + 1, xs + len(x))
            return form(kernel, x, cfg)
        return run

    groups = tuple(tuple((ab, counted(form)) for ab, form in group) for group in integrals._GROUPS)
    monkeypatch.setattr(integrals, "_GROUPS", groups)
    passes = {"beta_sweep": bench_module("workloads").beta_sweep(3),
              "figures": [argv for _, group in sorted(FIGURE_SCANS.items()) for argv in group]}
    done = {}
    for name, argvs in passes.items():
        work.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                cli.run_cli(argv)
        done[name] = dict(work)
    assert done == {
        "beta_sweep": {"_f1_step": (40, 400), "_series": (77, 756), "_closed_form": (62, 392),
                       "_at_one": (1, 1)},
        "figures": {"_f1_below": (4, 18), "_f1_step": (4, 782), "_series": (44, 1056),
                    "_closed_form": (14, 18), "_at_one": (3, 3)}}


def test_figures_quadrature_work_is_pinned(monkeypatch):
    # one pass of the figures benchmark workload (seed 3): the widths' profile
    # values (10 560 GK15 values, 704 panels, with the adaptive rule)
    work = _quadrature_work(monkeypatch, [argv for _, group in sorted(FIGURE_SCANS.items())
                                          for argv in group])
    assert work == {"calls": 8, "pieces": 288, "values": 20160}


def test_figure_10_maxima_work_is_pinned(monkeypatch):
    # the p_s values that each maxima call of figure 10 reads from its
    # profile, which no bookkeeping change may move: per beta p(0), p(pi/2),
    # the 361-point scan, the slopes at both bracket ends, one slope per
    # step of the root finder (4 to 7 a beta; twice for a step that one
    # beta takes alone) and p_max; the 12 of s = 3's 25 betas without an
    # interior maximum take no step.  63 321, 63 324 and 67 631 when seven
    # finer 361-point scans refined each bracket.
    values = count_profile_values(monkeypatch)
    work = {}
    for argv in FIGURE_SCANS[10]:
        values[0] = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run_cli(argv) == 0
        work[argv[argv.index("--s") + 1]] = values[0]
    assert work == {"0": 9276, "1": 9282, "3": 9208}
