import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pointspec import (
    BoxGeometry,
    ConstraintError,
    find_negative_roots,
    find_positive_roots,
    make_u2,
    negative_condition,
    positive_condition,
    spectra,
    spectral_fingerprint,
    spectrum,
    zero_mode_condition,
    zero_mode_exists,
)
from helpers import fingerprint_pair, haar_point

RNG = np.random.default_rng(20240812)

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)  # units with hbar = 2m = 1

DIRICHLET = make_u2(0.0, -1.0, 0.0)
NEUMANN = make_u2(0.0, 1.0, 0.0)

# frozen by 40-digit evaluation of the hyperbolic condition
NEG_COND_SYMMETRIC_AT_1 = 9.079985952496970307118303e-05
NEG_COND_NEUMANN_AT_1 = -2.350402387287602913764764


class TestPositiveCondition:
    def test_dirichlet_root_at_pi(self):
        assert abs(positive_condition(DIRICHLET, G1, math.pi)) < 1e-12

    def test_dirichlet_midpoint_value(self):
        assert positive_condition(DIRICHLET, G1, math.pi / 2) == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariant_reduction(self):
        # on the scale-invariant sphere the condition reduces to Im(beta) + cos(kl)
        p = make_u2(math.pi / 2, 0.0, 1j)
        assert abs(positive_condition(p, G1, math.pi)) < 1e-12

    def test_vectorized(self):
        k = np.array([0.5, 1.0, 2.0])
        vals = positive_condition(DIRICHLET, G1, k)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(2 * math.sin(1.0), abs=1e-14)


class TestNegativeCondition:
    def test_dirichlet_strictly_positive(self):
        kap = np.linspace(0.1, 20, 50)
        assert np.all(negative_condition(DIRICHLET, G1, kap) > 0)

    def test_symmetric_cancellation_value(self):
        p = make_u2(math.pi / 2, 1.0, 0.0)
        g = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)
        val = negative_condition(p, g, 1.0)
        # hyperbolic cancellation: 2cosh(10) - 2sinh(10) = 2e^-10
        assert val == pytest.approx(NEG_COND_SYMMETRIC_AT_1, abs=5e-12)

    def test_neumann_value(self):
        val = negative_condition(NEUMANN, BoxGeometry(l=1.0), 1.0)
        assert val == pytest.approx(NEG_COND_NEUMANN_AT_1, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ConstraintError):
            negative_condition(DIRICHLET, G1, 0.0)
        with pytest.raises(ConstraintError):
            negative_condition(DIRICHLET, G1, -1.0)


class TestZeroMode:
    def test_neumann_has_zero_mode(self):
        assert zero_mode_exists(NEUMANN, G1)

    def test_dirichlet_has_none(self):
        assert not zero_mode_exists(DIRICHLET, G1)
        assert zero_mode_condition(DIRICHLET, G1) == pytest.approx(1.0, abs=1e-15)

    def test_scale_invariant_pole(self):
        p = make_u2(math.pi / 2, 0.0, -1j)
        assert zero_mode_exists(p, G1)


class TestFindPositiveRoots:
    def test_dirichlet_roots(self):
        roots = find_positive_roots(DIRICHLET, G1, 10.0)
        ks = [k for k, _ in roots]
        assert np.allclose(ks, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-12)
        assert all(m == 1 for _, m in roots)

    def test_half_integer_ladder(self):
        # theta = pi/2 slice of the scale-invariant sphere
        p = make_u2(math.pi / 2, 0.0, -1.0)
        roots = find_positive_roots(p, G1, 10.0)
        ks = [k for k, _ in roots]
        assert np.allclose(ks, [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2], atol=1e-12)

    def test_degenerate_pole_multiplicity(self):
        p = make_u2(math.pi / 2, 0.0, 1j)
        roots = find_positive_roots(p, G1, 10.0)
        assert [(round(k / math.pi), m) for k, m in roots] == [(1, 2), (3, 2)]
        assert np.allclose([k for k, _ in roots], [math.pi, 3 * math.pi], atol=1e-10)

    def test_kmax_validation(self):
        with pytest.raises(ConstraintError):
            find_positive_roots(DIRICHLET, G1, -1.0)


class TestFindNegativeRoots:
    def test_dirichlet_empty(self):
        assert find_negative_roots(DIRICHLET, G1) == []

    def test_neumann_empty(self):
        assert find_negative_roots(NEUMANN, BoxGeometry(l=1.0)) == []

    def test_symmetric_pinch_pair(self):
        p = make_u2(math.pi / 2, 1.0, 0.0)
        g = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)
        roots = find_negative_roots(p, g)
        assert len(roots) == 2
        # frozen 40-digit roots of the same condition
        assert roots[0][0] == pytest.approx(0.99990912171523255094, abs=1e-10)
        assert roots[1][0] == pytest.approx(1.0000907216367819733, abs=1e-10)

    def test_count_bound_random(self):
        for _ in range(2000):
            p = haar_point(RNG)
            g = BoxGeometry(l=float(np.exp(RNG.uniform(-1, 1))))
            roots = find_negative_roots(p, g)
            assert sum(m for _, m in roots) <= 2


class TestSpectrum:
    def test_dirichlet_energies(self):
        spec = spectrum(DIRICHLET, G1, 6)
        expect = [(n * math.pi) ** 2 for n in range(1, 7)]
        assert np.allclose(spec.energies(), expect, rtol=1e-12)

    def test_mixed_wall_energies(self):
        for p in (make_u2(math.pi / 2, 1j, 0.0), make_u2(math.pi / 2, -1j, 0.0)):
            spec = spectrum(p, G1, 5)
            expect = [((n + 0.5) * math.pi) ** 2 for n in range(5)]
            assert np.allclose(spec.energies(), expect, rtol=1e-12)

    def test_degenerate_ladder_with_zero_mode(self):
        p = make_u2(math.pi / 2, 0.0, -1j)
        spec = spectrum(p, G1, 4)
        assert spec.levels[0].sector == "zero"
        pos = spec.levels[1:]
        assert np.allclose(
            [lv.energy for lv in pos],
            [(2 * math.pi) ** 2, (4 * math.pi) ** 2, (6 * math.pi) ** 2],
            rtol=1e-10,
        )
        assert all(lv.multiplicity == 2 for lv in pos)

    def test_negative_levels_sorted_first(self):
        p = make_u2(math.pi / 2, 1.0, 0.0)
        g = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)
        spec = spectrum(p, g, 4)
        assert [lv.sector for lv in spec.levels] == ["negative"] * 2 + ["positive"] * 2
        assert spec.levels[0].energy < spec.levels[1].energy < 0

    def test_levels_validation(self):
        with pytest.raises(ConstraintError):
            spectrum(DIRICHLET, G1, 0)


class TestSpectra:
    # two bound states; the Neumann-Neumann zero mode; the Im beta = -1 pole,
    # whose double levels need a larger k_max than the first guess; the
    # Im beta = +1 pole; Dirichlet
    POINTS = (
        make_u2(math.pi / 2, 1.0, 0.0, 0.2),
        NEUMANN,
        make_u2(math.pi / 2, 0.0, -1j),
        make_u2(math.pi / 2, 0.0, 1j),
        DIRICHLET,
    )

    def test_batch_equals_one_at_a_time(self):
        n = 12
        alone = [spectrum(p, G1, n) for p in self.POINTS]
        assert [lv.sector for lv in alone[0].levels[:2]] == ["negative"] * 2
        assert alone[1].levels[0].sector == "zero"
        n_pos = n - 1  # the pole's zero mode takes one level
        assert alone[2].k_max > (n_pos + 2) * math.pi / G1.l * 1.25
        for order in (list(range(5)), [3, 0, 4, 2, 1]):
            batch = spectra([self.POINTS[i] for i in order], G1, n)
            assert [(s.levels, s.k_max) for s in batch] == [
                (alone[i].levels, alone[i].k_max) for i in order
            ]

    def test_batch_warns_on_tangential_negative_root(self):
        # the doubly degenerate negative level of the eigenstate CLI test
        kappa, e = 2.0, math.exp(2.0)
        X = np.array([[1.0, 1.0], [e, 1.0 / e]])
        Y = np.array([[1.0, -1.0], [-e, 1.0 / e]])
        U = (X - 1j * kappa * Y) @ np.linalg.inv(X + 1j * kappa * Y)
        xi = cmath.phase(np.linalg.det(U)) / 2.0 % math.pi
        alpha, beta = U[0] * cmath.exp(-1j * xi)
        tangential = make_u2(xi, complex(alpha), complex(beta))
        with pytest.warns(RuntimeWarning, match="tangential"):
            batch = spectra([DIRICHLET, tangential, NEUMANN], BoxGeometry(l=1.0), 2)
        assert batch[1].levels[0].multiplicity == 2
        assert batch[1].levels[0].parameter == pytest.approx(kappa, rel=1e-12)


class TestFingerprint:
    def test_projection(self):
        p = make_u2(0.3, 0.6 + 0.64j, 0.48j)
        assert spectral_fingerprint(p) == (0.3, 0.6, 0.48)

    def test_diagonal_phase_pair(self):
        # U = diag(1, exp(2 i chi)) in normal form is (xi=chi, alpha=exp(-i chi))
        chi = 0.7
        p = make_u2(chi, np.exp(-1j * chi), 0.0)
        assert np.allclose(
            np.diag([1.0, np.exp(2j * chi)]),
            np.diag(np.exp(1j * p.xi) * np.array([p.alpha, p.alpha.conjugate()])),
        )
        identity = make_u2(0.0, 1.0, 0.0)
        assert spectral_fingerprint(p) != spectral_fingerprint(identity)
        chi0 = 0.0
        p0 = make_u2(chi0, np.exp(-1j * chi0), 0.0)
        assert spectral_fingerprint(p0) == spectral_fingerprint(identity)

    def test_isospectral_sphere_fingerprint(self):
        p = make_u2(0.0, 0.6 + 0.8j, 0.0)
        assert spectral_fingerprint(p) == (0.0, 0.6, 0.0)

    def test_invariance_of_spectra(self):
        for _ in range(200):
            p1, p2 = fingerprint_pair(RNG)
            g = BoxGeometry(l=1.3)
            r1 = find_positive_roots(p1, g, 30.0)
            r2 = find_positive_roots(p2, g, 30.0)
            assert r1 == r2  # bitwise: conditions depend only on the fingerprint
            assert find_negative_roots(p1, g) == find_negative_roots(p2, g)
            assert zero_mode_exists(p1, g) == zero_mode_exists(p2, g)


class TestStructuralInvariants:
    def test_asymptotic_spacing(self):
        checked = 0
        while checked < 10:
            p = haar_point(RNG, L0=1.0)
            if abs(math.cos(p.xi) + p.alpha.real) <= 0.1:
                continue
            roots = find_positive_roots(p, G1, 150.0)
            high = [k for k, _ in roots if k > 100.0]
            assert high, "expected roots beyond u=100"
            devs = [abs(k - math.pi * round(k / math.pi)) for k in high]
            assert max(devs) < 0.5
            # deviations shrink on average as k grows
            half = len(devs) // 2
            assert np.mean(devs[half:]) <= np.mean(devs[:half]) + 1e-9
            checked += 1

    def test_isospectral_sphere_positive_roots(self):
        for _ in range(100):
            v = RNG.normal(size=3)
            v /= np.linalg.norm(v)
            p = make_u2(0.0, complex(v[0], v[1]), complex(v[2], 0.0))
            g = BoxGeometry(l=float(np.exp(RNG.uniform(-0.5, 0.5))))
            roots = find_positive_roots(p, g, 20.0 / g.l)
            for k, mult in roots:
                assert mult == 1
                n = round(k * g.l / math.pi)
                assert abs(k - n * math.pi / g.l) < 1e-10 / g.l

    @pytest.mark.parametrize("branch", [+1, -1])
    def test_semi_isospectral_interlacing(self, branch):
        for _ in range(25):
            xi = float(RNG.uniform(0.05, math.pi - 0.05))
            b_i = branch * math.sin(xi)
            b_r = float(RNG.uniform(-0.3, 0.3))
            rest = 1.0 - b_i * b_i - b_r * b_r
            if rest <= 1e-3:
                continue
            phase = RNG.uniform(0, 2 * math.pi)
            alpha = math.sqrt(rest) * np.exp(1j * phase)
            p = make_u2(xi, alpha, complex(b_r, b_i))
            roots = [k for k, _ in find_positive_roots(p, G1, 40.0)]
            parity = 1 if branch == +1 else 0  # odd/even multiples of pi
            fixed, transcendental = [], []
            for k in roots:
                n = round(k / math.pi)
                if abs(k - n * math.pi) < 1e-8 and n % 2 == parity:
                    fixed.append(k)
                else:
                    transcendental.append(k)
            assert fixed and transcendental
            # strict alternation between consecutive fixed roots
            labels = [
                ("F" if k in fixed else "T") for k in sorted(roots)
            ]
            for a, b in zip(labels, labels[1:]):
                assert a != b, f"two adjacent {a} roots: interlacing violated"


# ---------------------------------------------------------------------------
# reference root finder: the scalar bracketing finder, one brentq per bracket
# ---------------------------------------------------------------------------

_REF_STEP = math.pi / 16.0
_REF_RTOL = 4 * np.finfo(float).eps
_REF_TOUCH = 1e-10
_REF_FLOOR = 1e-9


def _ref_coeffs(p):
    s, c = math.sin(p.xi), math.cos(p.xi)
    return s, c - p.alpha.real, c + p.alpha.real, p.beta.imag


def _ref_pos(u, lam, s, c1, c2, b_i):
    ul = u * lam
    return 2.0 * ul * (b_i + s * np.cos(u)) + (c1 + c2 * ul**2) * np.sin(u)


def _ref_pos_d(u, lam, s, c1, c2, b_i):
    ul = u * lam
    return (2.0 * lam * (b_i + s * np.cos(u)) - 2.0 * ul * s * np.sin(u)
            + 2.0 * c2 * lam * ul * np.sin(u) + (c1 + c2 * ul**2) * np.cos(u))


def _ref_neg(v, lam, s, c1, c2, b_i):
    vl, em = v * lam, np.exp(-v)
    em2 = em * em
    return 4.0 * vl * b_i * em + 2.0 * vl * s * (1.0 + em2) + (c1 - c2 * vl**2) * (1.0 - em2)


def _ref_neg_d(v, lam, s, c1, c2, b_i):
    vl, em = v * lam, np.exp(-v)
    em2 = em * em
    return (4.0 * lam * b_i * em * (1.0 - v) + 2.0 * lam * s * (1.0 + em2)
            - 4.0 * vl * s * em2 - 2.0 * c2 * lam * vl * (1.0 - em2)
            + (c1 - c2 * vl**2) * 2.0 * em2)


def _ref_scan(f, df, grid, lam):
    sign_d = np.sign(df(grid))
    extrema = [brentq(df, grid[i], grid[i + 1], rtol=_REF_RTOL, xtol=1e-15)
               for i in np.nonzero(sign_d[:-1] * sign_d[1:] < 0)[0]]
    breaks = np.unique(np.concatenate([[grid[0]], extrema, [grid[-1]]]))
    fb = f(breaks)
    is_ext = np.isin(breaks, extrema)
    roots = []
    consumed = np.zeros(len(breaks), dtype=bool)
    for j in range(1, len(breaks) - 1):
        if is_ext[j] and fb[j - 1] * fb[j + 1] > 0.0:
            if abs(fb[j]) <= _REF_TOUCH * max(1.0, (breaks[j] * lam) ** 2):
                roots.append((breaks[j], 2))
                consumed[j] = True
    for j in range(len(breaks) - 1):
        if consumed[j] or consumed[j + 1]:
            continue
        if fb[j] == 0.0:
            if j > 0:
                roots.append((breaks[j], 1))
            continue
        if fb[j] * fb[j + 1] < 0.0:
            roots.append((brentq(f, breaks[j], breaks[j + 1], rtol=_REF_RTOL, xtol=1e-15), 1))
    return sorted(roots)


def _ref_positive(p, g, k_max):
    lam, cs = p.L0 / g.l, _ref_coeffs(p)
    u_max = k_max * g.l
    n = max(2, int(math.ceil((u_max - _REF_FLOOR) / _REF_STEP)) + 1)
    roots = _ref_scan(lambda u: _ref_pos(u, lam, *cs), lambda u: _ref_pos_d(u, lam, *cs),
                      np.linspace(_REF_FLOOR, u_max, n), lam)
    return [(float(u) / g.l, m) for u, m in roots if u > _REF_FLOOR * (1.0 + 1e-6)]


def _ref_negative(p, g):
    lam, cs = p.L0 / g.l, _ref_coeffs(p)
    v = max(10.0, 4.0 / lam, 4.0 * lam)
    while True:
        vals = _ref_neg(np.linspace(v, 2.0 * v, 129), lam, *cs)
        if np.all(vals > 0.0) or np.all(vals < 0.0):
            v_max = 2.0 * v
            break
        v *= 2.0
    grids = [np.linspace(_REF_FLOOR, min(12.0, v_max), 768)]
    start = min(12.0, v_max)
    while start < v_max * (1.0 - 1e-12):
        stop = min(2.0 * start, v_max)
        grids.append(np.linspace(start, stop, 257))
        start = stop
    roots = []
    for grid in grids:
        for v, m in _ref_scan(lambda v: _ref_neg(v, lam, *cs),
                              lambda v: _ref_neg_d(v, lam, *cs), grid, lam):
            if v <= _REF_FLOOR * (1.0 + 1e-6):
                continue
            if roots and abs(v - roots[-1][0]) <= 1e-12 * max(1.0, v):
                continue
            roots.append((v, m))
    return [(float(v) / g.l, m) for v, m in roots]


def _ref_spectrum(p, g, n_levels):
    """[(sector, parameter, multiplicity)] of the n_levels lowest levels."""
    esc = g.hbar**2 / (2.0 * g.mass)
    levels = [(-esc * kap**2, "negative", kap, m)
              for kap, m in sorted(_ref_negative(p, g), reverse=True)]
    has_zero = zero_mode_exists(p, g)
    if has_zero:
        levels.append((0.0, "zero", None, 1))
    n_pos = max(0, n_levels - len(levels))
    k_max = (n_pos + 2) * math.pi / g.l * 1.25
    while True:
        pos = _ref_positive(p, g, k_max)
        if has_zero:
            pos = [(k, m) for k, m in pos if k * g.l >= 1e-3]
        if len(pos) >= n_pos:
            break
        k_max *= 1.6
    levels += [(esc * k**2, "positive", k, m) for k, m in pos]
    levels.sort(key=lambda lv: lv[0])
    return [lv[1:] for lv in levels[:n_levels]]


def _reference_cases():
    """(point, geometry, n_levels, ill_conditioned) of every reference case."""
    rng = np.random.default_rng(20260417)
    cases = [(haar_point(rng), BoxGeometry(l=float(np.exp(rng.uniform(-1, 1)))), 24, False)
             for _ in range(40)]
    for b_i in (1.0, -1.0):
        for L0 in (0.3, 1.0, 2.5):
            cases.append((make_u2(math.pi / 2, 0.0, complex(0.0, b_i), L0), G1, 24, False))
    for xi, alpha in ((0.0, -1.0), (0.0, 1.0), (math.pi / 2, 1j), (math.pi / 2, -1j)):
        for L0 in (0.2, 1.0, 5.0):
            cases.append((make_u2(xi, alpha, 0.0, L0), G1, 24, False))
    for _ in range(6):
        theta = float(rng.uniform(0.05, 0.95)) * math.pi
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        beta = complex(sign * math.sin(theta), -math.cos(theta))
        L0 = float(np.exp(rng.uniform(-1, 1)))
        cases.append((make_u2(math.pi / 2, 0.0, beta, L0), G1, 24, False))
    # the symmetric pinch pair: its residual cancels terms of size 2 down to 4e-9
    cases.append((make_u2(math.pi / 2, 1.0, 0.0), BoxGeometry(l=10.0, hbar=1.0, mass=0.5), 12, True))
    cases.append((haar_point(rng), BoxGeometry(l=1.3, hbar=1.0, mass=0.75), 256, False))
    return cases


def _ref_spread(sector, x, p, g):
    """How far rounding in the residual can move a root at x = k l or kappa l.

    eps times the residual's terms in absolute value, over its slope: where
    the terms cancel (a hyperbolic pinch) or the slope vanishes (a multiple
    root), any point of that width is a root to working precision.
    """
    lam, (s, c1, c2, b_i) = p.L0 / g.l, _ref_coeffs(p)
    xl = x * lam
    if sector == "positive":
        terms = (abs(2 * xl * b_i) + abs(2 * xl * s * math.cos(x))
                 + (abs(c1) + abs(c2) * xl**2) * abs(math.sin(x)))
        slope = _ref_pos_d(x, lam, s, c1, c2, b_i)
    else:
        em = math.exp(-x)
        terms = (abs(4 * xl * b_i * em) + abs(2 * xl * s) * (1 + em * em)
                 + (abs(c1) + abs(c2) * xl**2) * (1 - em * em))
        slope = _ref_neg_d(x, lam, s, c1, c2, b_i)
    return np.finfo(float).eps * terms / abs(slope)


class TestRootReference:
    """`spectrum` against the scalar finder with one brentq per bracket."""

    # the Im beta = -1 pole at L0 = 2.5 l touches zero at the kappa l floor
    @pytest.mark.filterwarnings("ignore:tangential")
    def test_levels_match_reference(self):
        eps = np.finfo(float).eps
        n_roots = n_tight = 0
        for p, g, n, ill in _reference_cases():
            ref = _ref_spectrum(p, g, n)
            got = [(lv.sector, lv.parameter, lv.multiplicity) for lv in spectrum(p, g, n).levels]
            assert [(s, m) for s, _, m in got] == [(s, m) for s, _, m in ref]
            for (sector, x, _), (_, y, _) in zip(got, ref):
                if y is None:
                    assert x is None
                    continue
                if ill or y * g.l < 10 * _REF_FLOOR:
                    # the pinch pair, and the kappa l floor, where the scaled
                    # residual has a triple zero: both finders stop within
                    # 1e-15 in k l, and neither can place such a root closer
                    # than its spread
                    spread = 2e-15 + 8 * _ref_spread(sector, y * g.l, p, g)
                    assert abs(x - y) <= 1e-12 * abs(y) + spread / g.l
                else:
                    assert abs(x - y) <= 1e-12 * abs(y)
                n_roots += 1
                n_tight += abs(x - y) <= 4 * eps * abs(y)
        assert n_roots > 1500
        assert n_tight >= 0.99 * n_roots
