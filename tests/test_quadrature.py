import contextlib
import heapq
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


def test_deterministic():
    g = lambda t: np.sin(50 * t) ** 2 / (1 + t)
    assert quad_adaptive(g, 0.0, math.pi) == quad_adaptive(g, 0.0, math.pi)


def test_convergence_error_carries_estimate():
    cfg = QuadratureConfig(max_depth=10)
    g = lambda t: 1.0 / np.sqrt(t**2 + 1e-14)
    with pytest.raises(ConvergenceError) as exc_info:
        quad_adaptive(g, 0.0, 1.0, cfg)
    err = exc_info.value
    assert err.estimate is not None and math.isfinite(err.estimate)
    assert err.error_bound > 0


def test_a_tolerance_below_rounding_is_never_met():
    # the Kronrod and Gauss sums of a constant differ by an ulp at most; each
    # panel's error is still at least 50 eps times its integral of |f|
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_depth=10)
    for sign in (1.0, -1.0):
        with pytest.raises(ConvergenceError) as exc_info:
            quad_adaptive(lambda t: np.full_like(t, sign), 0.0, 1.0, cfg)
        assert exc_info.value.estimate == sign
        assert exc_info.value.error_bound == pytest.approx(50.0 * math.ulp(1.0), rel=1e-12, abs=0.0)


def test_nan_integrand_raises_at_once_naming_its_interval():
    start = time.perf_counter()
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match=r"\[-0\.5, 1\.0\]"):
        quad_adaptive(lambda t: np.log(t + 1e-2), -0.5, 1.0)
    assert time.perf_counter() - start < 0.1


def test_nan_member_leaves_the_finite_member_of_its_batch_alone():
    g = lambda t: np.exp(t) * np.cos(30.0 * t)

    def f(rows, t):
        with np.errstate(invalid="ignore"):
            return np.where(np.array(rows)[:, None] == 0, g(t), np.log(t + 1e-2))

    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    finite, failed = quadrature.quad_batch(f, [(0.0, 1.0), (-0.5, 1.0)], cfg)
    assert finite.hex() == quad_adaptive(g, 0.0, 1.0, cfg).hex()
    assert isinstance(failed, DomainError)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadratureConfig(max_depth=5)
    # an infinite tolerance would accept every first panel
    with pytest.raises(DomainError, match="abs_tol must be finite, got inf"):
        QuadratureConfig(abs_tol=math.inf)
    with pytest.raises(DomainError, match="rel_tol must be finite, got inf"):
        QuadratureConfig(rel_tol=math.inf)
    # nor may a finite one that most first panels meet
    for tol in (1e300, 0.5):
        for name in ("abs_tol", "rel_tol"):
            with pytest.raises(DomainError, match=re.escape(f"{name} must be at most 0.001, "
                                                            f"got {tol}") + "$"):
                QuadratureConfig(**{name: tol})
    assert QuadratureConfig(abs_tol=1e-3, rel_tol=1e-3).rel_tol == 1e-3


def test_gauss_kronrod_constants_are_exact_to_their_digits():
    # the 15-point Kronrod rule integrates t^k over [-1, 1] exactly for
    # k <= 22, and the embedded 7-point Gauss rule for k <= 13: at 30 digits
    # the decimals must do so to 1e-25, and each double must be the nearest
    with mpmath.workdps(30):
        nodes = [mpmath.mpf(v) for v in quadrature._XGK]
        nodes = [-x for x in nodes[:-1]] + nodes[::-1]
        for weights, nmax, doubles in ((quadrature._WGK, 22, quadrature._KRONROD_W),
                                       (quadrature._WG, 13, quadrature._GAUSS_W[1::2])):
            w = [mpmath.mpf(v) for v in weights]
            w = w + w[-2::-1]
            rule = nodes if len(w) == 15 else nodes[1::2]
            for k in range(nmax + 1):
                exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
                sum_k = mpmath.fsum(wi * x**k for wi, x in zip(w, rule))
                assert abs(sum_k - exact) < 1e-25, (len(w), k)
            assert doubles.tolist() == [float(v) for v in w]
        assert quadrature._NODES.tolist() == [float(x) for x in nodes]


# --- the lockstep batch against the sequential loop it replaced -----------

def _gk15_reference(f, a, b):
    half = 0.5 * (b - a)
    y = f(0.5 * (a + b) + half * quadrature._NODES)
    kronrod = half * float(quadrature._KRONROD_W @ y)
    gauss = half * float(quadrature._GAUSS_W @ y)
    rounding = 50.0 * math.ulp(1.0) * (half * float(quadrature._KRONROD_W @ np.abs(y)))
    return kronrod, max(abs(kronrod - gauss), rounding)


def _quad_reference(f, a, b, cfg=DEFAULT_CONFIG):
    # the adaptive loop with one 15-node call per panel, one integral at a time
    if b == a:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    span = b - a
    whole, err0 = _gk15_reference(f, a, b)
    heap = [(-err0, a, b, whole, 0)]
    total = whole
    total_err = err0
    frozen_err = 0.0
    while heap:
        if not total_err < math.inf:
            raise DomainError(f"integrand is not finite on [{a}, {b}]")
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= tol or frozen_err > tol:
            break
        neg_err, lo, hi, est, depth = heapq.heappop(heap)
        if -neg_err <= 0.0:
            break
        width = hi - lo
        if depth >= cfg.max_depth or width <= 1e-15 * span:
            frozen_err += -neg_err
            continue
        mid = 0.5 * (lo + hi)
        left_est, left_err = _gk15_reference(f, lo, mid)
        right_est, right_err = _gk15_reference(f, mid, hi)
        total += left_est + right_est - est
        total_err += left_err + right_err + neg_err
        heapq.heappush(heap, (-left_err, lo, mid, left_est, depth + 1))
        heapq.heappush(heap, (-right_err, mid, hi, right_est, depth + 1))
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
    if total_err > tol and frozen_err > 0.0:
        raise ConvergenceError(
            f"quadrature did not converge at max_depth={cfg.max_depth}: "
            f"residual error bound {total_err:.3e} exceeds tolerance {tol:.3e}",
            estimate=sign * total,
            error_bound=total_err,
        )
    return sign * total


def _recorded(f):
    calls = []

    def g(t):
        calls.append(np.array(t))
        return f(t)

    return g, calls


def _hex(value):
    if isinstance(value, ConvergenceError):
        return str(value), value.estimate.hex(), value.error_bound.hex()
    if isinstance(value, DomainError):
        return str(value)
    return value.hex()


def _outcome(quad, f, a, b, cfg):
    try:
        return quad(f, a, b, cfg).hex()
    except (ConvergenceError, DomainError) as exc:
        return _hex(exc)


def assert_same_as_reference(f, a, b, cfg=DEFAULT_CONFIG):
    """Same float.hex (or the same ConvergenceError) as the sequential loop,
    from the same nodes in the same order: one panel, then the two halves of
    a bisection per call."""
    f_new, new = _recorded(f)
    f_ref, ref = _recorded(f)
    assert _outcome(quad_adaptive, f_new, a, b, cfg) == _outcome(_quad_reference, f_ref, a, b, cfg)
    assert [t.shape for t in new] == [(1, 15)] + [(2, 15)] * (len(new) - 1)
    assert len(ref) == 2 * len(new) - 1
    assert new[0].tobytes() == ref[0].tobytes()
    for i, t in enumerate(new[1:]):
        assert t.tobytes() == np.concatenate(ref[2 * i + 1:2 * i + 3]).tobytes()
    return len(ref)  # GK15 panels


def _member(f, i):
    """Integral i of a batch integrand f(rows, t), as a function of 15 nodes."""
    return lambda t: f(np.full(1, i), np.reshape(t, (1, 15)))[0]


def assert_batch_matches_reference(f, intervals, cfg=DEFAULT_CONFIG):
    """Every member of ``quad_batch`` has the float.hex, or the error message,
    estimate and bound, of the sequential loop on its own."""
    got = [_hex(v) for v in quadrature.quad_batch(f, intervals, cfg)]
    want = [_outcome(_quad_reference, _member(f, i), a, b, cfg)
            for i, (a, b) in enumerate(intervals)]
    assert got == want
    return got


def _kernel_integrand(kernel, k, x):
    om = (1.0 - x) * (1.0 + x)
    return lambda s: integrals._s_integrand(kernel.electron, x, om, k == 3, s)


def test_paired_bisection_matches_reference_on_f2_f3():
    # the s-form serves x above SERIES_X only
    rng = np.random.default_rng(2024)
    xs = [math.nextafter(integrals.SERIES_X, 1.0), 0.8, 0.99, 1.0 - 1e-6,
          *rng.uniform(integrals.SERIES_X, 1.0 - 1e-6, 12)]
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for k in (2, 3):
            for x in xs:
                for lo, hi in integrals._s_pieces(float(x)):
                    assert_same_as_reference(_kernel_integrand(kernel, k, float(x)), lo, hi)


def test_paired_bisection_pins_the_panel_count():
    # electron f_2 at 1 - x = 1e-6: the GK15 panels of each of its five pieces
    g = _kernel_integrand(integrals.ELECTRON_KERNEL, 2, 1.0 - 1e-6)
    panels = [assert_same_as_reference(g, lo, hi) for lo, hi in integrals._s_pieces(1.0 - 1e-6)]
    assert panels == [1, 1, 3, 3, 1]


def test_paired_bisection_matches_reference_on_effective_angle(monkeypatch):
    batches = []

    def capture(f, intervals, cfg=DEFAULT_CONFIG):
        batches.append((f, intervals, cfg))
        return quadrature.quad_batch(f, intervals, cfg)

    monkeypatch.setattr(analysis, "quad_batch", capture)
    # 1 - 1e-6 grades [0, pi/2] down to pieces of about 1/gamma = 1.4e-3
    betas = [0.0, 0.6, 0.95, 1.0 - 1e-6, 1.0]
    for kind, zetas in (("boson", (None,)), ("electron", (1, -1))):
        for zeta in zetas:
            for s in (0, 1, 2, 3):
                analysis.effective_angle_rows(kind, s, zeta, betas)
    assert len(batches) == 3 * 4
    # the weighted pieces of each beta, then its plain pieces
    pieces = [analysis._width_pieces(b) * 2 for b in betas]
    assert [len(p) for p in pieces] == [6, 6, 6, 12, 6]
    for f, intervals, cfg in batches:
        assert intervals == [piece for p in pieces for piece in p]
        assert_batch_matches_reference(f, intervals, cfg)


def test_paired_bisection_matches_reference_reversed():
    assert_same_as_reference(lambda t: np.exp(t) * np.cos(30.0 * t), 2.0, -1.0)


def _hard_integrands():
    for eps in (1e-10, 1e-14, 1e-20):
        yield lambda t, eps=eps: 1.0 / np.sqrt(t * t + eps)
        yield lambda t, eps=eps: np.log(t + eps)


def test_paired_bisection_matches_reference_on_convergence_errors():
    failures = 0
    for max_depth in (10, 14, 20):
        cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_depth=max_depth)
        for f in _hard_integrands():
            try:
                quad_adaptive(f, 0.0, 1.0, cfg)
            except ConvergenceError:
                failures += 1
            assert_same_as_reference(f, 0.0, 1.0, cfg)
    assert failures >= 6


def _sqrt_past_half(t):
    with np.errstate(invalid="ignore"):
        return np.sqrt(t - 0.5)  # nan below t = 1/2


def test_batch_matches_reference_member_by_member():
    # easy and hard integrals mixed, with reversed and empty intervals, members
    # settled by their first panel, members that bisect, end in a
    # ConvergenceError, or are not finite on their first panel: each member
    # keeps its own heap, so the batch changes no bit of any result
    funcs = [lambda t: np.exp(t) * np.cos(30.0 * t), lambda t: t * t,
             *_hard_integrands(), lambda t: np.sin(50 * t) ** 2 / (1 + t), _sqrt_past_half]
    intervals = [(0.0, 1.0), (2.0, -1.0), (0.5, 0.5), (0.0, math.pi)]
    members = [(f, ab) for f in funcs for ab in intervals if f is funcs[0] or ab[0] == 0.0]

    def f(rows, t):
        out = np.empty_like(t)
        for i in np.unique(rows):
            mine = rows == i
            out[mine] = members[i][0](t[mine])
        return out

    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_depth=14)
    got = assert_batch_matches_reference(f, [ab for _, ab in members], cfg)
    assert 3 <= sum(isinstance(v, tuple) for v in got) < len(got) - 3
    assert got[2] == (0.0).hex()  # the empty interval
    assert got[-2:] == ["integrand is not finite on [0.0, 1.0]",
                        f"integrand is not finite on [0.0, {math.pi}]"]
    # the GK15 panels of each converged member run alone: some are settled by
    # their first panel, some bisect
    panels = []
    for (g, (a, b)), value in zip(members, got):
        if isinstance(value, str) and value.lstrip("-").startswith("0x") and b != a:
            g, calls = _recorded(g)
            _quad_reference(g, a, b, cfg)
            panels.append(len(calls))
    assert panels.count(1) >= 2 and max(panels) > 1
    # a batch of one is the sequential loop as well
    for i, (g, ab) in enumerate(members):
        assert [_hex(v) for v in quadrature.quad_batch(lambda rows, t: g(t), [ab], cfg)] == [got[i]]


def test_f_values_batch_matches_one_quadrature_per_pair():
    # the s-form serves x above SERIES_X only
    rng = np.random.default_rng(3)
    xs = [math.nextafter(integrals.SERIES_X, 1.0), 0.8, 0.99, 1.0 - 2e-6,
          *rng.uniform(integrals.SERIES_X, 0.999, 6)]
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for cfg in (DEFAULT_CONFIG, QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_depth=10)):
            ks = [k for x in xs for k in (1, 2, 3)]
            got = integrals.f_values(kernel, ks, [x for x in xs for _ in (1, 2, 3)], cfg)
            for k, x, value in zip(ks, [x for x in xs for _ in (1, 2, 3)], got):
                if k == 1:
                    want = kernel.f1(x).hex()
                else:
                    # the pieces, added from s = 0 up, and the first failing one
                    want = _outcome(lambda f, a, b, cfg, x=x: sum(
                        _quad_reference(f, lo, hi, cfg) for lo, hi in integrals._s_pieces(x)),
                        _kernel_integrand(kernel, k, x), 0.0, 1.0, cfg)
                assert _hex(value) == want, (k, x)


def _quadrature_work(monkeypatch, argvs):
    """Integrand calls, GK15 panel rows and integrals of one pass of argvs,
    after checking that no f_2, f_3 pair up to SERIES_X reaches the s-form."""
    work = {"calls": 0, "rows": 0, "integrals": 0}
    s_form = integrals._s_form

    def counted(f, intervals, cfg=DEFAULT_CONFIG):
        def g(rows, t):
            work["calls"] += 1
            work["rows"] += len(t)
            return f(rows, t)

        work["integrals"] += len(intervals)
        return quadrature.quad_batch(g, intervals, cfg)

    def checked_s_form(kernel, ks, xs, cfg):
        assert min(xs) > integrals.SERIES_X
        return s_form(kernel, ks, xs, cfg)

    monkeypatch.setattr(integrals, "quad_batch", counted)
    monkeypatch.setattr(analysis, "quad_batch", counted)
    monkeypatch.setattr(integrals, "_s_form", checked_s_form)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            cli.run_cli(argv)
    return work


def test_beta_sweep_quadrature_work_is_pinned(monkeypatch):
    # one pass of the beta_sweep benchmark workload (seed 3), which no
    # bookkeeping change may move; 240 calls, 6 080 rows and 4 220 integrals
    # when the s-form served f_2, f_3 at every x
    work = _quadrature_work(monkeypatch, bench_module("workloads").beta_sweep(3))
    assert work == {"calls": 163, "rows": 4568, "integrals": 2708}


def test_figures_quadrature_work_is_pinned(monkeypatch):
    # one pass of the figures benchmark workload (seed 3): the widths, and the
    # f_2, f_3 above x = 1/sqrt2; 76 calls, 2 952 rows and 2 764 integrals
    # when the s-form served f_2, f_3 at every x
    work = _quadrature_work(monkeypatch, [argv for _, group in sorted(FIGURE_SCANS.items())
                                          for argv in group])
    assert work == {"calls": 44, "rows": 824, "integrals": 652}


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


def test_pair_reduction_equals_separate_dots():
    # the (2, 15) @ (15, 2) product must add up each column in the order of a
    # 15-term dot product; a BLAS whose kernels differ fails here
    rng = np.random.default_rng(5)
    for _ in range(4000):
        y = rng.standard_normal(30) * 10.0 ** rng.uniform(-300, 300, 30)
        dots = [float(w @ half) for half in (y[:15], y[15:])
                for w in (quadrature._KRONROD_W, quadrature._GAUSS_W)]
        assert (y.reshape(2, 15) @ quadrature._WEIGHTS).ravel().tolist() == dots
        lo, mid, hi = sorted(rng.uniform(-3.0, 3.0, 3))
        panels = quadrature._panels(lambda rows, t: y.reshape(2, 15), np.zeros(2, int),
                                    [0.5 * (lo + mid), 0.5 * (mid - lo),
                                     0.5 * (mid + hi), 0.5 * (hi - mid)])
        ref = (_gk15_reference(lambda t: y[:15], lo, mid)
               + _gk15_reference(lambda t: y[15:], mid, hi))
        got = panels.ravel().tolist()
        assert [v.hex() for v in got] == [v.hex() for v in ref]


def test_row_reduction_equals_separate_dots():
    # every row of an (n, 15) @ (15, 2) product, n >= 2, is the pair of 15-term
    # dots, on prefixes and on gathered rows, for the n a batch of GRID_CHUNK
    # betas can reach: every n of the f_k batches (two integrals per beta, two
    # halves per bisection), and a sample up to the width batches (a weighted
    # and a plain integral per piece, most pieces next to beta = 1)
    n_fk = 4 * GRID_CHUNK
    n_max = 4 * len(analysis._width_pieces(np.nextafter(1.0, 0.0))) * GRID_CHUNK
    rng = np.random.default_rng(8)
    y = rng.standard_normal((n_max, 15)) * 10.0 ** rng.uniform(-300, 300, (n_max, 15))
    dots = np.array([[float(w @ row) for w in (quadrature._KRONROD_W, quadrature._GAUSS_W)]
                     for row in y])
    order = rng.permutation(n_max)
    sizes = [*range(2, n_fk + 1), *sorted(rng.integers(n_fk + 1, n_max, 55)), n_max]
    for n in sizes:
        assert np.array_equal(y[:n] @ quadrature._WEIGHTS, dots[:n]), n
        rows = order[:n]
        assert np.array_equal(y[rows] @ quadrature._WEIGHTS, dots[rows]), n


def test_lone_panel_is_reduced_as_a_dot():
    # a (1, 15) product is a matrix-vector one that differs from the dots in
    # the last bit, so the engine reduces a lone panel by the dots themselves
    rng = np.random.default_rng(9)
    for _ in range(2000):
        y = rng.standard_normal(15) * 10.0 ** rng.uniform(-300, 300, 15)
        a, b = sorted(rng.uniform(-3.0, 3.0, 2))
        ((k, err),) = quadrature._panels(lambda rows, t: y.reshape(1, 15), np.zeros(1, int),
                                         [0.5 * (a + b), 0.5 * (b - a)]).tolist()
        assert (k.hex(), err.hex()) == tuple(
            v.hex() for v in _gk15_reference(lambda t: y, a, b))
