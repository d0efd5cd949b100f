"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Units throughout: l = 1, hbar = 2m = 1 (mass = 0.5)
unless a criterion says otherwise.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from pointspec import (
    BoxGeometry,
    FdConfig,
    build_image_terms,
    eigenbasis,
    fd_spectrum,
    find_negative_roots,
    find_positive_roots,
    gaussian_prefactor,
    halfline_image_kernel,
    image_heat_kernel,
    images_needed,
    make_u2,
    reflection_coefficient,
    residuals_and_norms,
    spectral_heat_kernel,
    spectral_levels_needed,
    spectrum,
    theta3,
    twist_angle,
    wall_from_length,
    zero_mode_condition,
    zero_mode_exists,
)
from pointspec.halfline import bound_state, spectral_kernel_by_quadrature
from helpers import fingerprint_pair, haar_point, scale_invariant_point

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)
DIRICHLET = make_u2(0.0, -1.0, 0.0)


def _report(num, ok, detail, budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s < {budget:.0f}s]" if budget is not None else ""
    print(f"{status} criterion {num}: {detail}{timing}")
    assert ok, f"criterion {num}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_dirichlet_golden_spectrum():
    t0 = time.perf_counter()
    spec = spectrum(DIRICHLET, G1, 10)
    worst = max(
        abs(lv.energy - (n * math.pi) ** 2) / (n * math.pi) ** 2
        for n, lv in enumerate(spec.levels, start=1)
    )
    dt = time.perf_counter() - t0
    _report(1, worst < 1e-12, f"10 Dirichlet levels match (n pi)^2, worst rel {worst:.2e}",
            budget=1.0, elapsed=dt)


def test_criterion_2_mixed_wall_spectrum_and_modes():
    worst_e = 0.0
    worst_d = 0.0
    xs = np.linspace(0.0, 1.0, 20001)
    for p, ref_kind in ((make_u2(math.pi / 2, 1j, 0.0), "sin"),
                        (make_u2(math.pi / 2, -1j, 0.0), "cos")):
        for n, (lv, (m,)) in enumerate(eigenbasis(p, G1, 8)):
            expect = ((n + 0.5) * math.pi) ** 2
            worst_e = max(worst_e, abs(lv.energy - expect) / expect)
            k = (n + 0.5) * math.pi
            if ref_kind == "sin":
                ref_vals = math.sqrt(2.0) * np.sin(k * xs)
            else:
                ref_vals = math.sqrt(2.0) * np.cos(k * xs)
            # pointwise difference avoids the sqrt(eps) cancellation floor
            # that an inner-product distance formula would hit
            dist2 = np.trapezoid(np.abs(m.psi(xs) - ref_vals) ** 2, xs)
            worst_d = max(worst_d, math.sqrt(max(0.0, float(dist2))))
    ok = worst_e < 1e-12 and worst_d < 1e-10
    _report(2, ok, "half-integer ladders and wall eigenfunctions reproduced "
            f"(worst rel {worst_e:.2e}, worst L2 dist {worst_d:.2e})")


def test_criterion_3_scale_invariant_spectrum_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(50):
        p = scale_invariant_point(rng)
        theta = twist_angle(p)
        for k, _mult in find_positive_roots(p, G1, 40.0):
            u = k * G1.l
            dev = min(
                abs(u - (theta + 2 * n * math.pi)) for n in range(0, 8)
            )
            dev = min(dev, min(abs(u - (2 * n * math.pi - theta)) for n in range(1, 8)))
            worst = max(worst, dev)
    # degenerate poles: doubly degenerate ladders, zero mode at Im(beta) = -1
    p_plus = make_u2(math.pi / 2, 0.0, 1j)
    p_minus = make_u2(math.pi / 2, 0.0, -1j)
    all_double = all(
        lv.multiplicity == 2
        for q in (p_plus, p_minus)
        for lv in spectrum(q, G1, 5).levels
        if lv.sector == "positive"
    )
    has_zero = zero_mode_exists(p_minus, G1)
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and all_double and has_zero
    _report(3, ok, f"50 random twist ladders match (worst |dev| {worst:.2e}), "
            f"poles doubly degenerate ({all_double}), zero mode at Im(beta)=-1 ({has_zero})",
            budget=10.0, elapsed=dt)


def test_criterion_4_zero_mode_law():
    xi, a_r, b_r, lam = 0.3, 0.85, 0.1, 1.0
    ts = np.linspace(-0.1, 0.1, 101)
    flags = []
    worst_resid = 0.0
    for t in ts:
        b_i = t - math.sin(xi) + (a_r - math.cos(xi)) / (2 * lam)
        a_i = math.sqrt(1.0 - a_r**2 - b_r**2 - b_i**2)
        p = make_u2(xi, complex(a_r, a_i), complex(b_r, b_i), 1.0)
        assert abs(zero_mode_condition(p, G1) - t) < 1e-14
        flag = zero_mode_exists(p, G1)
        flags.append(flag)
        if flag:
            basis = eigenbasis(p, G1, 3)
            i = next(i for i, lv in enumerate(basis.levels) if lv.sector == "zero")
            worst_resid = max(worst_resid, float(residuals_and_norms(basis[i:i + 1], p, G1)[0].max()))
    turn_ons = sum(1 for a, b in zip(flags, flags[1:]) if not a and b)
    ok = turn_ons == 1 and sum(flags) >= 1 and worst_resid < 1e-9
    _report(4, ok, f"existence flag turns on exactly once ({turn_ons}), "
            f"zero-mode residual {worst_resid:.2e} when present")


def test_criterion_5_bound_state_count():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    max_count = 0
    for _ in range(10_000):
        p = haar_point(rng)
        g = BoxGeometry(l=float(np.exp(rng.uniform(-1.0, 1.0))))
        roots = find_negative_roots(p, g)
        max_count = max(max_count, sum(m for _, m in roots))
    p = make_u2(math.pi / 2, 1.0, 0.0, 1.0)
    g10 = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)
    pair = find_negative_roots(p, g10)
    kappas = [k for k, _ in pair]
    energies = [lv.energy for lv in spectrum(p, g10, 2).levels]
    sym_ok = (
        len(kappas) == 2
        and all(abs(k - 1.0) < 1e-3 for k in kappas)
        and all(abs(e + 1.0) < 2e-3 for e in energies)
    )
    dt = time.perf_counter() - t0
    ok = max_count <= 2 and sym_ok
    _report(5, ok, f"10^4 random points never exceed two bound states (max {max_count}); "
            f"symmetric well pinches kappa = {kappas}", budget=60.0, elapsed=dt)


def test_criterion_6_fingerprint_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(161803)
    worst = 0.0
    for _ in range(1000):
        p1, p2 = fingerprint_pair(rng)
        g = BoxGeometry(l=1.0)
        r1 = find_positive_roots(p1, g, 50.0 / g.l)
        r2 = find_positive_roots(p2, g, 50.0 / g.l)
        assert len(r1) == len(r2)
        assert [m for _, m in r1] == [m for _, m in r2]
        worst = max(
            worst, max(abs(a - b) for (a, _), (b, _) in zip(r1, r2)) if r1 else 0.0
        )
        assert worst <= 1e-10 / g.l
        assert find_negative_roots(p1, g) == find_negative_roots(p2, g)
        assert zero_mode_exists(p1, g) == zero_mode_exists(p2, g)
    dt = time.perf_counter() - t0
    _report(6, worst <= 1e-10, "10^3 fingerprint pairs give identical spectra "
            f"(worst root gap {worst:.2e})", budget=120.0, elapsed=dt)


def _kernel_family_worst(p, times):
    worst = 0.0
    for theta_hat in times:
        tau = theta_hat * 2.0 * G1.mass * G1.l**2 / G1.hbar
        pref = gaussian_prefactor(G1, tau)
        n_img = images_needed(G1, tau)
        terms = build_image_terms(p, G1, n_img)
        basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, tau))
        for a in np.linspace(0.0, 1.0, 5):
            for b in np.linspace(0.0, 1.0, 5):
                sv = spectral_heat_kernel(basis, G1, a, b, tau, tol=1e-9)
                iv = image_heat_kernel(terms, a, b, tau, n_img)
                worst = max(worst, abs(sv - iv) / pref)
    return worst


def test_criterion_7_poisson_image_equality():
    t0 = time.perf_counter()
    times = (0.02, 0.1, 0.5, 2.0)
    cases = [
        DIRICHLET,
        make_u2(0.0, 1.0, 0.0),
        make_u2(math.pi / 2, 1j, 0.0),
        make_u2(math.pi / 2, -1j, 0.0),
    ]
    rng = np.random.default_rng(577215)
    cases += [scale_invariant_point(rng, beta_im_margin=0.05) for _ in range(20)]
    worst = max(_kernel_family_worst(p, times) for p in cases)
    dt = time.perf_counter() - t0
    _report(7, worst < 1e-8, "spectral and image kernels agree on all 24 families "
            f"(worst {worst:.2e} of the prefactor)", budget=120.0, elapsed=dt)


def test_criterion_8_theta_reduction():
    worst = 0.0
    for theta in (0.0, math.pi / 3, math.pi):
        p = make_u2(math.pi / 2, 0.0, complex(-math.sin(theta), -math.cos(theta)))
        for theta_hat in (0.1, 0.4):
            tau = theta_hat * 2.0 * G1.mass * G1.l**2 / G1.hbar
            n_img = images_needed(G1, tau, tol=1e-15)
            terms = build_image_terms(p, G1, n_img)
            for a in (0.0, 0.37, 0.71):
                img = image_heat_kernel(terms, a, a, tau, n_img, tol=1e-14)
                ref = gaussian_prefactor(G1, tau) * theta3(
                    -theta / (2 * math.pi),
                    1j * G1.mass * G1.l**2 / (2 * math.pi * G1.hbar * tau),
                )
                worst = max(worst, abs(img - ref))
    _report(8, worst < 1e-12, f"coincident-point kernels equal the theta series "
            f"(worst {worst:.2e})")


def test_criterion_9_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(141421)
    cfg = FdConfig(n_points=4000)
    worst = 0.0
    for _ in range(25):
        p = haar_point(rng, L0=1.0)
        spec = spectrum(p, G1, 5)
        exact = []
        for lv in spec.levels:
            exact.extend([lv.energy] * lv.multiplicity)
        exact = exact[:5]
        fd = fd_spectrum(p, G1, cfg, 5)
        for e_fd, e_tr in zip(fd, exact):
            rel = abs(e_fd - e_tr) / max(abs(e_tr), G1.energy_scale)
            worst = max(worst, rel)
    exact0 = math.pi**2
    e_n = abs(fd_spectrum(DIRICHLET, G1, FdConfig(n_points=500), 1)[0] - exact0)
    e_2n = abs(fd_spectrum(DIRICHLET, G1, FdConfig(n_points=1000), 1)[0] - exact0)
    ratio = e_n / e_2n
    dt = time.perf_counter() - t0
    ok = worst < 5e-3 and 3.2 <= ratio <= 4.8
    _report(9, ok, f"25 random spectra match the finite-difference oracle "
            f"(worst rel {worst:.2e}; Richardson ratio {ratio:.2f})",
            budget=300.0, elapsed=dt)


def test_criterion_10_halfline():
    rng = np.random.default_rng(693147)
    worst_r = max(
        abs(abs(reflection_coefficient(
            wall_from_length(float(np.tan(rng.uniform(-1.5, 1.5)))),
            float(rng.uniform(1e-3, 30.0)),
        )) - 1.0)
        for _ in range(1000)
    )
    w = wall_from_length(1.0)
    energy, psi = bound_state(w)
    norm, _ = quad(lambda x: abs(psi(x)) ** 2, 0.0, 80.0)
    bound_ok = energy == -0.5 and abs(norm - 1.0) < 1e-10
    worst_k = 0.0
    for case in ("dirichlet", "neumann"):
        wall = wall_from_length(0.0 if case == "dirichlet" else float("inf"))
        for a, b, tau in [(0.3, 0.9, 0.4), (0.1, 0.2, 0.15), (1.1, 1.4, 0.8)]:
            direct = spectral_kernel_by_quadrature(wall, a, b, tau)
            image = halfline_image_kernel(case, a, b, tau)
            worst_k = max(worst_k, abs(direct - image))
    ok = worst_r < 1e-12 and bound_ok and worst_k < 1e-6
    _report(10, ok, f"|R| unimodular (worst dev {worst_r:.2e}), bound state exact, "
            f"wall kernels match spectral integrals (worst {worst_k:.2e})")
