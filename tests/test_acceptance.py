"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines for
passing criteria as well.  Criterion 6 (pointwise ultrarelativistic limit
for the linear components) fails honestly: the finite-beta densities
approach their limit profiles only at O(1/gamma) for s = 2, 3, which at
beta = 0.999999 leaves a ~5e-3 deviation, above the 1e-3 bound.
"""

import math
import time

import numpy as np

from srq1 import boson, electron
from srq1.analysis import crossover_beta, max_angle, table1
from srq1.integrals import f_b, f_e

import oracles
import series

HALF_PI = math.pi / 2
E = math.e

# golden reference values: beta -> (f_b, f_e, k_minus, k_plus)
REFERENCE_TABLE1 = {
    0.0: (1.00000, 1.00000, 3.37500, 0.00000),
    0.1: (1.00167, 1.00002, 3.37783, 0.00849),
    0.2: (1.00673, 1.01016, 3.38651, 0.03456),
    0.3: (1.01532, 1.02333, 3.40164, 0.08019),
    0.4: (1.02769, 1.04272, 3.42438, 0.14917),
    0.5: (1.04423, 1.06948, 3.45661, 0.24817),
    0.6: (1.06550, 1.10543, 3.50147, 0.38905),
    0.7: (1.09533, 1.15920, 3.56422, 0.59438),
    0.8: (1.12581, 1.21899, 3.65435, 0.91359),
    0.9: (1.16774, 1.31125, 3.78977, 1.48887),
    1.0: (1.22085, 1.34454, 3.71695, 3.71695),
}

# cells where the reference table disagrees with both this implementation
# and the exact-series oracle (apparent misprints); these are
# checked against the oracle instead
FLAGGED_CELLS = {(0.1, "f_e"), (0.7, "f_b"), (0.7, "f_e")}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_table1():
    start = time.perf_counter()
    rows = table1()
    worst = 0.0
    failures = []
    flagged_report = []
    for r in rows:
        ref = REFERENCE_TABLE1[round(r.beta, 1)]
        for name, value, target in zip(("f_b", "f_e", "k_minus", "k_plus"),
                                       (r.f_b, r.f_e, r.k_minus, r.k_plus), ref):
            if (round(r.beta, 1), name) in FLAGGED_CELLS:
                oracle = (oracles.shape_b_oracle(r.beta) if name == "f_b"
                          else oracles.shape_e_oracle(r.beta))
                dev = abs(value - oracle)
                flagged_report.append(
                    f"{name}({r.beta})={value:.7f} vs printed {target} "
                    f"(oracle dev {dev:.1e})")
                if dev > 1e-7:
                    failures.append((r.beta, name, dev))
                continue
            dev = abs(value - target)
            worst = max(worst, dev)
            if dev > 1.5e-5:
                failures.append((r.beta, name, dev))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(1, ok, f"table rows worst dev {worst:.2e} (limit 1.5e-5), "
                  f"{len(FLAGGED_CELLS)} flagged cells vs oracle "
                  f"[{'; '.join(flagged_report)}], {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_2_crossover():
    start = time.perf_counter()
    beta0, gamma0 = crossover_beta()
    elapsed = time.perf_counter() - start
    ok = 0.81999 <= beta0 <= 0.82000 and 1.74709 <= gamma0 <= 1.74711 and elapsed < 5.0
    report(2, ok, f"beta0={beta0:.7f}, gamma0={gamma0:.7f}, {elapsed:.1f}s")
    assert 0.81999 <= beta0 <= 0.82000
    assert 1.74709 <= gamma0 <= 1.74711
    assert elapsed < 5.0


def test_criterion_3_boundary_constants():
    checks = []
    checks.append(abs(boson.xbar0(1.0) - (2.0 - math.sqrt(3.0))) <= 1e-12)
    target = 2.0 - 3.0 / E
    # x = 1 exactly and the boundary-series path just below it
    for k in (1, 2, 3):
        checks.append(abs(f_e(k, 1.0) - target) <= 1e-6)
        checks.append(abs(f_e(k, 1.0 - 1e-9) - target) <= 1e-6)
    checks.append(abs(boson.half_plane_fraction_b(2, 0.0) - 0.75) <= 1e-8)
    checks.append(abs(electron.half_plane_fraction_e(2, -1, 0.0) - 0.75) <= 1e-8)
    for g in (1, -1):
        checks.append(abs(boson.half_plane_fraction_b(g, 0.0) - (4 + 3 * g) / 8) <= 1e-8)
        checks.append(abs(electron.half_plane_fraction_e(g, -1, 0.0) - (4 + 3 * g) / 8) <= 1e-8)
        checks.append(abs(electron.half_plane_fraction_e(g, -1, 1.0) - (1 + g) / 2) <= 1e-6)
    checks.append(abs(electron.half_plane_fraction_e(2, -1, 1.0) - 0.5) <= 1e-6)
    ok = all(checks)
    report(3, ok, f"{sum(checks)}/{len(checks)} boundary constants within tolerance")
    assert ok


def test_criterion_4_normalization_and_half_plane():
    worst = 0.0
    for beta in (0.0, 0.5, 0.9, 0.99):
        profiles = [(boson.density_profile_b(s, beta), "boson", s,
                     boson.half_plane_fraction_b(s, beta))
                    for s in (0, 1, -1, 2, 3)]
        for zeta in (1, -1):
            profiles += [(electron.density_profile_e(s, zeta, beta), "electron", s,
                          electron.half_plane_fraction_e(s, zeta, beta))
                         for s in (0, 1, -1, 2, 3)]
        for profile, kind, s, q in profiles:
            if s == 0:
                total = oracles.midpoint_riemann(
                    lambda t: profile(t) * np.sin(t), 0.0, math.pi)
                worst = max(worst, abs(total - 1.0))
            half = 2.0 * oracles.midpoint_riemann(
                lambda t: profile(t) * np.sin(t), 0.0, HALF_PI)
            worst = max(worst, abs(half - q))
    ok = worst <= 1e-8
    report(4, ok, f"normalization/half-plane worst dev {worst:.2e} (limit 1e-8)")
    assert ok


def test_criterion_5_spin_structure():
    betas = np.linspace(0.0, 1.0, 50)
    thetas = np.linspace(0.0, math.pi, 50)
    for beta in betas:
        b = float(beta)
        p2p = electron.density_profile_e(2, 1, b)(thetas)
        p3m = electron.density_profile_e(3, -1, b)(thetas)
        p2m = electron.density_profile_e(2, -1, b)(thetas)
        p3p = electron.density_profile_e(3, 1, b)(thetas)
        assert np.array_equal(p2p, p3m), b
        assert np.array_equal(p2m, p3p), b
    worst = 0.0
    for beta in betas[1:-1]:
        b = float(beta)
        ratio = electron.total_power_e(1, b).power / electron.total_power_e(-1, b).power
        worst = max(worst, abs(ratio - electron.x0(b)))
    ok = worst <= 1e-12
    report(5, ok, f"p2(zeta)=p3(-zeta) bitwise on 50x50 grid; "
                  f"power ratio dev {worst:.2e} (limit 1e-12)")
    assert ok


def test_criterion_6_pointwise_limit():
    # honest red for s = 2, 3: convergence to the limit profile is O(1/gamma)
    beta = 0.999999
    thetas = np.linspace(0.0, HALF_PI - 0.1, 400)
    devs = {}
    for s in (0, 2, 3):
        profile = electron.density_profile_e(s, -1, beta)
        vals = profile(thetas)
        bars = np.array([electron.ultrarelativistic_density(s, -1, float(t))
                         for t in thetas])
        devs[s] = float(np.max(np.abs(vals - bars)))
    ok = all(d < 1e-3 for d in devs.values())
    report(6, ok, "pointwise limit max devs " +
           ", ".join(f"s={s}: {d:.1e}" for s, d in devs.items()) +
           " (limit 1e-3; s=2,3 converge only at O(1/gamma))")
    assert ok, devs


def test_criterion_6_double_limit_gap():
    beta = 1.0 - 1e-7
    p2 = float(electron.density_profile_e(2, -1, beta)(HALF_PI))
    bar = electron.ultrarelativistic_density(2, -1, HALF_PI)
    ratio = p2 / bar
    ok = abs(ratio - 2.0) <= 0.02
    report(6, ok, f"double-limit gap ratio {ratio:.5f} (target 2 within 1%)")
    assert ok


def test_criterion_7_asymptotic_exponents():
    start = time.perf_counter()
    targets = {0: -2.0, 1: -2.0 / 3.0, 3: -0.5}
    gammas = np.array([20.0, 40.0, 80.0])
    slopes = {}
    for s, target in targets.items():
        deficits = []
        for gamma in gammas:
            beta = math.sqrt(1.0 - 1.0 / gamma**2)
            rep = max_angle("electron", s, -1, beta)
            assert rep.exists, (s, gamma)
            deficits.append(HALF_PI - rep.theta_max)
        slope = float(np.polyfit(np.log(gammas), np.log(deficits), 1)[0])
        slopes[s] = slope
    elapsed = time.perf_counter() - start
    ok = all(abs(slopes[s] - t) <= 0.15 * abs(t) for s, t in targets.items()) \
        and elapsed < 30.0
    report(7, ok, "slopes " + ", ".join(
        f"s={s}: {slopes[s]:.3f} (target {t:.3f})" for s, t in targets.items())
        + f", {elapsed:.1f}s")
    for s, t in targets.items():
        assert abs(slopes[s] - t) <= 0.15 * abs(t), (s, slopes[s])
    assert elapsed < 30.0


def test_criterion_8_oracle_equivalence():
    worst = 0.0
    for x in (0.05, 0.1, 0.2, 0.26, 0.5, 0.9):
        for fam, name in ((f_b, "boson"), (f_e, "electron")):
            for k in (2, 3):
                want = series.yform(name, k, x)
                worst = max(worst, abs(float((fam(k, x) - want) / want)))
    ok = worst <= 1e-15
    report(8, ok, f"integral vs 40-digit y-form worst relative dev {worst:.2e} (limit 1e-15)")
    assert ok


def test_criterion_9_monotonicity_thresholds():
    results = []
    for s, b2_absent, b2_present in ((0, 0.45, 0.55), (1, 0.45, 0.55),
                                     (3, 0.70, 0.80)):
        absent = max_angle("electron", s, -1, math.sqrt(b2_absent)).exists
        present = max_angle("electron", s, -1, math.sqrt(b2_present)).exists
        results.append((s, not absent, present))
    ok = all(a and p for _, a, p in results)
    report(9, ok, "; ".join(
        f"s={s}: absent below={'yes' if a else 'NO'}, present above={'yes' if p else 'NO'}"
        for s, a, p in results))
    assert ok, results


def test_criterion_10_polarization_trends():
    betas = [i / 10 for i in range(1, 10)]
    q1b = [boson.half_plane_fraction_b(1, b) for b in betas]
    q1e = [electron.half_plane_fraction_e(1, -1, b) for b in betas]
    q2b = [boson.half_plane_fraction_b(2, b) for b in betas]
    q2e = [electron.half_plane_fraction_e(2, -1, b) for b in betas]
    inc = lambda seq: all(b > a for a, b in zip(seq, seq[1:]))
    dec = lambda seq: all(b < a for a, b in zip(seq, seq[1:]))
    ok = inc(q1b) and inc(q1e) and dec(q2b) and dec(q2e)
    report(10, ok, f"q1 increasing: boson={inc(q1b)}, electron={inc(q1e)}; "
                   f"q2 decreasing: boson={dec(q2b)}, electron={dec(q2e)}")
    assert ok
