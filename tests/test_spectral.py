import cmath
import math

import mpmath as mp
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
from pointspec import spectral
from pointspec.spectral import negative_search_ceiling
from pointspec.u2param import level_coefficients
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

    def test_kmax_limit(self, monkeypatch):
        # a k_max that is not finite, or below which lie more than MAX_LEVELS states, is refused
        # before the states' arrays are built
        def refuse(*args):
            raise AssertionError("the refused request built its arrays")

        with monkeypatch.context() as m:
            m.setattr(spectral, "_positive_states", refuse)
            for k_max in (math.inf, math.nan, 1e300, 1e12, (spectral.MAX_LEVELS + 3) * math.pi):
                with pytest.raises(ConstraintError):
                    find_positive_roots(DIRICHLET, G1, k_max)
        # Dirichlet states lie at k = n pi: the count decides below (MAX_LEVELS + 3) pi
        monkeypatch.setattr(spectral, "MAX_LEVELS", 3)
        assert len(find_positive_roots(DIRICHLET, G1, 3.5 * math.pi)) == 3
        with pytest.raises(ConstraintError, match="more than 3 states"):
            find_positive_roots(DIRICHLET, G1, 4.5 * math.pi)

    def test_close_pair_near_minus_pole(self):
        # two levels at k l = 0.146 and 0.163, closer than a pi/16 grid step;
        # a finite-difference spectrum at N = 20000 finds all nine
        p, g = make_u2(1.408, 0.0, -1j, 6.14), BoxGeometry(l=1.0)
        roots = find_positive_roots(p, g, 28.0)
        assert len(roots) == 9 and all(m == 1 for _, m in roots)
        ks = np.array([k for k, _ in roots])
        assert [round(k, 3) for k in ks[:2]] == [0.146, 0.163]
        # roots to rounding of the condition, whose terms grow like (k L0)^2
        assert np.all(np.abs(positive_condition(p, g, ks)) <= 1e-13 * (1 + (6.14 * ks) ** 2))


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

    @pytest.mark.parametrize("L0", [0.3, 1.0, 2.5, 4.130627095218261 / 1.8685109770505828])
    def test_minus_pole_has_none(self, L0):
        # the pencil at Im beta = -1 is -lam v tanh(v / 2) < 0 for every v > 0:
        # the zero mode is the lowest state, and no negative level lies below it
        p = make_u2(math.pi / 2, 0.0, -1j, L0)
        assert find_negative_roots(p, G1) == []
        assert [lv.sector for lv in spectrum(p, G1, 2).levels] == ["zero", "positive"]

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

    def test_levels_limit(self, monkeypatch):
        # a request over MAX_LEVELS is refused before the batch's arrays are built
        def refuse(*args):
            raise AssertionError("the refused request built its arrays")

        with monkeypatch.context() as m:
            m.setattr(spectral, "_coeffs", refuse)
            for n in (spectral.MAX_LEVELS + 1, 10**8):
                with pytest.raises(ConstraintError, match="n_levels must be from 1 to"):
                    spectrum(DIRICHLET, G1, n)
        monkeypatch.setattr(spectral, "MAX_LEVELS", 3)
        assert len(spectrum(DIRICHLET, G1, 3)) == 3
        with pytest.raises(ConstraintError):
            spectra([DIRICHLET, NEUMANN], G1, 4)

    def test_near_zero_bound_state_is_the_zero_level(self):
        # zero-mode condition +5e-10: the bound state at kappa l = 2.5e-5 is
        # the zero mode's shadow, listed once, as the zero level
        p = make_u2(0.3, 0.935336488125606, complex(0.1783341170457029, -0.30552020666133956))
        assert 0.0 < zero_mode_condition(p, G1) < 1e-9
        assert find_negative_roots(p, G1)[0][0] < 1e-3
        spec = spectrum(p, G1, 3)
        assert [lv.sector for lv in spec.levels] == ["zero", "positive", "positive"]
        assert spec.levels[1].parameter > 1.0

    @pytest.mark.parametrize("L0", [1e10, 1e50])
    def test_dirichlet_box_has_no_zero_level_at_large_L0(self, L0):
        # at U = -I the zero-mode condition is l / L0, below the tolerance
        # here, but the Dirichlet box has no state near zero energy
        p = make_u2(0.0, -1.0, 0.0, L0)
        assert zero_mode_exists(p, G1)
        spec = spectrum(p, G1, 3)
        assert [lv.sector for lv in spec.levels] == ["positive"] * 3
        assert spec.energies() == pytest.approx([(n * math.pi) ** 2 for n in (1, 2, 3)], rel=1e-12)

    @pytest.mark.parametrize("b_i", [1.0, -1.0], ids=["plus-pole", "minus-pole"])
    def test_pole_spectrum_is_the_same_at_every_L0(self, b_i):
        # the poles' spectrum does not depend on L0; cos xi = 6.1e-17 at the
        # float nearest pi/2 is an exact Neumann direction of U, not a small
        # c1 that splits the double levels once L0 / l <= 1e-5
        spec = [spectrum(make_u2(math.pi / 2, 0.0, complex(0.0, b_i), 10.0**e), G1, 8).levels
                for e in [*range(-140, 101, 10), -12, -8, -5]]
        assert all(levels == spec[0] for levels in spec)
        ladder = [lv for lv in spec[0] if lv.sector == "positive"]
        assert [lv.multiplicity for lv in ladder] == [2] * len(ladder)
        assert [lv.sector for lv in spec[0][:1]] == ["zero" if b_i < 0 else "positive"]

    def test_count_holds_down_to_the_L0_floor(self):
        # the level count stays exact at L0 / l = 1e-140 and is refused below
        spec = spectrum(make_u2(0.0, 1.0, 0.0, 1e-140), G1, 3)
        assert [lv.sector for lv in spec.levels] == ["zero", "positive", "positive"]
        assert [lv.parameter for lv in spec.levels[1:]] == pytest.approx([math.pi, 2 * math.pi], rel=1e-12)
        for L0 in (9e-141, 1e-158, 1e-200):
            with pytest.raises(ConstraintError, match="outside the supported range"):
                spectrum(make_u2(0.0, 1.0, 0.0, L0), G1, 3)
        # the negative window stays where a bracket's a * b is a float
        rng = np.random.default_rng(140)
        for lam in (1e-140, 1e100):
            for _ in range(20):
                p = haar_point(rng, L0=lam)
                assert negative_search_ceiling(p, G1) <= 32.0 * max(10.0, 4.0 / lam, 4.0 * lam)
                spectrum(p, G1, 3)


class TestSpectra:
    # two bound states; the Neumann-Neumann zero mode; the Im beta = -1 pole,
    # a zero mode under double levels; the Im beta = +1 pole; Dirichlet
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
        for order in (list(range(5)), [3, 0, 4, 2, 1]):
            batch = spectra([self.POINTS[i] for i in order], G1, n)
            assert [s.levels for s in batch] == [alone[i].levels for i in order]

    @staticmethod
    def _spy_zero_level_counts(monkeypatch):
        """The coefficient columns spectra counts the states near zero energy of, one array per _count call."""
        counted, count = [], spectral._count

        def spy(sector, x, P):
            if np.ndim(x) == 0 and x in (spectral._ZERO_SHADOW_U / math.pi, spectral._ZERO_SHADOW_U):
                counted.append(P)
            return count(sector, x, P)

        def refuse(*args):
            raise AssertionError("spectra tested a point on its own")

        monkeypatch.setattr(spectral, "_count", spy)
        monkeypatch.setattr(spectral, "zero_mode_exists", refuse)
        return counted

    def test_zero_mode_flags_are_the_scalar_test(self, monkeypatch):
        # the batch flags the points zero_mode_exists flags, here also within 1e-8 of its tolerance
        rng = np.random.default_rng(9)
        points = [haar_point(rng) for _ in range(300)] + list(self.POINTS)
        for target in rng.uniform(-1.1e-9, 1.1e-9, 300):
            p = haar_point(rng)
            s, c1, _, b_i = level_coefficients(p)
            lam = c1 / (2.0 * (target - b_i - s))
            if 1e-3 < lam < 1e3:
                points.append(make_u2(p.xi, p.alpha, p.beta, lam * G1.l))
        flagged = [p for p in points if zero_mode_exists(p, G1)]
        assert 20 < len(flagged) < len(points) - 20
        counted = self._spy_zero_level_counts(monkeypatch)
        spectra(points, G1, 1)
        want = spectral._coeffs(flagged, G1)
        assert len(counted) == 2 and all(P.tobytes() == want.tobytes() for P in counted)

    def test_zero_level_count_reads_flagged_points_only(self, monkeypatch):
        # the states near zero energy are counted for zero-mode points alone, and not at all without one
        alone = [spectrum(p, G1, 4).levels for p in self.POINTS]
        counted = self._spy_zero_level_counts(monkeypatch)
        # NEUMANN and the Im beta = -1 pole have zero modes
        assert [s.levels for s in spectra(self.POINTS, G1, 4)] == alone
        assert [P.shape[1] for P in counted] == [2, 2]
        counted.clear()
        assert [s.levels for s in spectra(self.POINTS[::4], G1, 4)] == alone[::4]
        assert counted == []

    def test_batch_tangential_negative_root(self):
        # the doubly degenerate negative level of the eigenstate CLI test
        kappa, e = 2.0, math.exp(2.0)
        X = np.array([[1.0, 1.0], [e, 1.0 / e]])
        Y = np.array([[1.0, -1.0], [-e, 1.0 / e]])
        U = (X - 1j * kappa * Y) @ np.linalg.inv(X + 1j * kappa * Y)
        xi = cmath.phase(np.linalg.det(U)) / 2.0 % math.pi
        alpha, beta = U[0] * cmath.exp(-1j * xi)
        tangential = make_u2(xi, complex(alpha), complex(beta))
        batch = spectra([DIRICHLET, tangential, NEUMANN], BoxGeometry(l=1.0), 2)
        assert batch[1].levels[0].multiplicity == 2
        assert batch[1].levels[0].parameter == pytest.approx(kappa, rel=1e-12)


class TestSpectrumRecord:
    def test_reads_as_a_tuple_of_levels(self):
        # the Im beta = -1 pole: a zero level under double levels
        spec = spectrum(make_u2(math.pi / 2, 0.0, -1j), G1, 5)
        levels = spec.levels
        assert len(spec) == len(levels) == 5 and tuple(spec) == levels
        assert [spec[i] for i in range(5)] == list(levels) and spec[-1] == levels[-1]
        with pytest.raises(IndexError):
            spec[5]
        assert levels[0] == spectral.Level("zero", None, 0.0, 1)
        assert math.isnan(spec.parameter[0]) and spec.parameters()[0] is None
        assert spec.energies() == [lv.energy for lv in levels]
        for part in (slice(2), slice(1, None), slice(None, None, -2)):
            sliced = spec[part]
            assert isinstance(sliced, spectral.Spectrum) and sliced.levels == levels[part]
            for field in ("sector", "parameter", "energy", "multiplicity"):
                assert np.array_equal(getattr(sliced, field), getattr(spec, field)[part], equal_nan=field == "parameter")

    def test_energies_keep_the_bits_of_esc_k_squared(self):
        # each energy is the Python float +-esc * k**2 of its parameter, as a
        # Level built one at a time had it
        g = BoxGeometry(l=1.3, hbar=1.1, mass=0.7)
        esc = g.hbar**2 / (2.0 * g.mass)
        rng = np.random.default_rng(26)
        specs = spectra([haar_point(rng) for _ in range(200)], g, 64)
        levels = [lv for spec in specs for lv in spec.levels]
        for lv in levels:
            if lv.sector == "zero":
                assert lv.energy == 0.0
            else:
                assert lv.energy == (-esc * lv.parameter**2 if lv.sector == "negative" else esc * lv.parameter**2)
        assert len(levels) == 200 * 64 and sum(lv.sector == "negative" for lv in levels) > 50


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


#: the Im beta = -1 pole at L0 = 2.5 l, where the reference lists a double
#: negative level at kappa l = 1.0e-9 that does not exist: the boundary
#: pencil there is -lam v tanh(v / 2) < 0 for every v > 0, so the point has
#: no bound state.  Only that reference level is dropped
_SPURIOUS_NEGATIVE_CASE = 45


class TestRootReference:
    """`spectrum` against the scalar finder with one brentq per bracket."""

    def test_levels_match_reference(self):
        eps = np.finfo(float).eps
        n_roots = n_tight = 0
        for i, (p, g, n, ill) in enumerate(_reference_cases()):
            ref = _ref_spectrum(p, g, n)
            if i == _SPURIOUS_NEGATIVE_CASE:
                assert ref[0][0] == "negative" and ref[0][1] * g.l < 10 * _REF_FLOOR
                ref = _ref_spectrum(p, g, n + 1)[1:]
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


# ---------------------------------------------------------------------------
# 50-digit reference: both level conditions, retyped from the module docstring
# ---------------------------------------------------------------------------


def _mp_conditions(p, g):
    """The terms of the positive condition in u = k l and of the negative one in v = kappa l.

    The positive condition is the sum of the four terms of
    2 k L0 (Im beta + sin xi cos kl) + [(cos xi - Re alpha) + (cos xi + Re alpha)(k L0)^2] sin kl;
    the negative one is the same with k -> -i kappa, times i.
    """
    xi, a_r, b_i, lam = (mp.mpf(v) for v in (p.xi, p.alpha.real, p.beta.imag, p.L0 / g.l))
    s, c1, c2 = mp.sin(xi), mp.cos(xi) - a_r, mp.cos(xi) + a_r

    def pos(u):
        return (2 * u * lam * b_i, 2 * u * lam * s * mp.cos(u),
                c1 * mp.sin(u), c2 * (u * lam) ** 2 * mp.sin(u))

    def neg(v):
        return (2 * v * lam * b_i, 2 * v * lam * s * mp.cosh(v),
                c1 * mp.sinh(v), -c2 * (v * lam) ** 2 * mp.sinh(v))

    return pos, neg


def _mp_errors(p, g, roots):
    """[(class, x, |x - x50|, spread)] of float roots [(sector, x = k l or kappa l)].

    x50 is the root polished at 50 digits.  Where x is off by more than
    1e-14 x + 2e-15, spread is eps times the terms of the condition over its
    slope: how far the condition's rounding alone can move a float root.  It
    is below 2e-15 except where the terms cancel or the slope nearly
    vanishes; elsewhere it is 0.
    """
    out = []
    with mp.workdps(50):
        pos, neg = _mp_conditions(p, g)
        for sector, x in roots:
            terms, x0 = pos if sector == "positive" else neg, mp.mpf(x)
            cond = lambda y: mp.fsum(terms(y))
            exact = mp.findroot(cond, (x0, x0 * (1 + mp.mpf(1e-12))), verify=False)
            assert cond(exact * (1 - mp.mpf(1e-40))) * cond(exact * (1 + mp.mpf(1e-40))) <= 0
            err, spread = float(abs(x0 - exact)), 0.0
            if err > 1e-14 * x + 2e-15:
                size = mp.fsum(abs(t) for t in terms(exact))
                spread = float(np.finfo(float).eps * size / abs(mp.diff(cond, exact)))
            cls = sector if sector == "negative" else ("first cell" if x < math.pi else "positive")
            out.append((cls, x, err, spread))
    return out


#: a point at each corner of the narrowed brackets.  The roots near zero
#: energy sit at a large L0 / l, where the conditions are well conditioned:
#: near a zero mode their terms cancel instead, and rounding alone moves a
#: root at x by about eps / x
_CORNERS = {
    # a bound state at kappa l = 1.0e-8, just above the 1e-9 floor
    "floor": make_u2(2.178124478904764, complex(0.8051412837912528, 0.33993809976932116),
                     complex(-0.3310518874361698, -0.3558008562175558), 3.9307316955765304e16),
    # a bound state at kappa l = 1.9e6, half the window ceiling 3.8e6
    "ceiling": make_u2(1.218534686493942, complex(-0.10277456983001426, -0.7942705217956251),
                       complex(-0.5410330401982224, 0.256622242638142), 4.172131665577771e-06),
    # first-cell roots at k l = 1.0e-3 and at pi - 3.3e-9
    "u = 1e-3": make_u2(1.0416131195102187, complex(-0.5336984867285886, -0.6032851883163405),
                        complex(-0.4603941089350991, 0.37316239263836365), 84260114.46350065),
    "near pi": make_u2(0.761087991000462, complex(0.4153046006334828, 0.3818395448455495),
                       complex(0.7473958584137892, -0.3508847125634315), 178237605.49693266),
}


class TestFiftyDigitReference:
    """Every listed root against the conditions polished at 50 digits."""

    @staticmethod
    def _check(errors):
        for cls, x, err, spread in errors:
            assert err <= 1e-14 * x + 2e-15 + 8.0 * spread, (cls, x, err, spread)

    def test_haar_points(self):
        rng = np.random.default_rng(1999)
        points = [haar_point(rng, L0=10.0 ** rng.uniform(-1.5, 1.5)) for _ in range(100)]
        errors = []
        for p, spec in zip(points, spectra(points, G1, 12)):
            errors += _mp_errors(p, G1, [(lv.sector, lv.parameter * G1.l)
                                         for lv in spec.levels if lv.sector != "zero"])
        self._check(errors)
        assert {cls for cls, *_ in errors} == {"first cell", "positive", "negative"}

    @pytest.mark.parametrize("corner", list(_CORNERS))
    def test_corners(self, corner):
        p = _CORNERS[corner]
        roots = [("negative", k * G1.l) for k, _ in find_negative_roots(p, G1)]
        roots += [("positive", k * G1.l) for k, _ in find_positive_roots(p, G1, math.pi / G1.l)]
        x = {"floor": min, "ceiling": max, "u = 1e-3": min, "near pi": max}[corner](r for _, r in roots)
        assert {"floor": 1e-8 < x < 2e-8, "ceiling": x > 0.49 * negative_search_ceiling(p, G1),
                "u = 1e-3": 9e-4 < x < 1.1e-3, "near pi": 0 < math.pi - x < 1e-8}[corner]
        self._check(_mp_errors(p, G1, roots))


# ---------------------------------------------------------------------------
# the refinement's pass structure
# ---------------------------------------------------------------------------

#: the most passes `_refine` takes on the scan below
_MAX_PASSES = 9


class TestRefinePasses:
    """Every bracket `_refine` gets is narrow, and each pass evaluates one residual per bracket."""

    def test_narrow_brackets_one_residual_per_pass(self, monkeypatch):
        # the 64 rows of an 8x8 scan of xi and L0 around a Haar point with a bound state
        p = haar_point(np.random.default_rng(8), L0=1.0)
        points = [make_u2(xi, p.alpha, p.beta, L0)
                  for xi in np.linspace(p.xi - 0.25, p.xi + 0.25, 8) for L0 in np.linspace(0.5, 2.0, 8)]
        refine, passes, sectors = spectral._refine, [], set()

        def counted(f, a, b, fa, fb, P):
            assert np.all(b <= 4.0 * a)
            live = [len(a)]

            def once(x, *Q, slope=False):
                # one point per live bracket: never more than the call before
                assert slope and x.shape == (len(x),) and len(x) <= live[-1]
                live.append(len(x))
                return f(x, *Q, slope=slope)

            root = refine(once, a, b, fa, fb, P)
            passes.append(len(live) - 1)
            sectors.add(f.__name__)
            return root

        monkeypatch.setattr(spectral, "_refine", counted)
        spectra(points, G1, 8)
        assert len(sectors) == 2
        assert max(passes) <= _MAX_PASSES
