import math

import numpy as np
import pytest

from pointspec import (
    INFINITE_LENGTH,
    BoxGeometry,
    ConstraintError,
    SeparatedLengths,
    SubfamilyError,
    classify,
    direction_lengths,
    make_u2,
    separated_lengths,
    to_matrix,
    twist_angle,
)
from pointspec import spectral
from helpers import haar_point, separated_point

RNG = np.random.default_rng(20240811)


class TestMakeU2:
    def test_identity_valid(self):
        p = make_u2(0.0, 1.0, 0.0, 1.0)
        assert p.alpha == 1.0 and p.beta == 0.0

    def test_minus_identity_valid(self):
        p = make_u2(0.0, -1.0, 0.0, 1.0)
        assert np.allclose(to_matrix(p), -np.eye(2))

    def test_norm_violation(self):
        with pytest.raises(ConstraintError):
            make_u2(0.0, 0.5, 0.5, 1.0)

    def test_xi_range(self):
        with pytest.raises(ConstraintError):
            make_u2(math.pi, 1.0, 0.0)
        with pytest.raises(ConstraintError):
            make_u2(-0.1, 1.0, 0.0)

    def test_l0_positive(self):
        with pytest.raises(ConstraintError):
            make_u2(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConstraintError):
            make_u2(0.0, 1.0, 0.0, -2.0)


class TestToMatrix:
    def test_identity(self):
        assert np.allclose(to_matrix(make_u2(0.0, 1.0, 0.0)), np.eye(2), atol=1e-15)

    def test_swap(self):
        # exp(i pi/2) [[0, -i], [-i, 0]] is the swap matrix
        U = to_matrix(make_u2(math.pi / 2, 0.0, -1j))
        assert np.allclose(U, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)

    def test_diag_i(self):
        U = to_matrix(make_u2(0.0, 1j, 0.0))
        assert np.allclose(U, np.diag([1j, -1j]), atol=1e-15)

    def test_unitary_everywhere(self):
        for _ in range(300):
            U = to_matrix(haar_point(RNG))
            assert np.linalg.norm(U.conj().T @ U - np.eye(2)) < 1e-12

    def test_scale_invariant_points_hermitian_pm1(self):
        for _ in range(100):
            w = RNG.normal(size=3)
            w /= np.linalg.norm(w)
            p = make_u2(math.pi / 2, complex(0, w[0]), complex(w[1], w[2]))
            U = to_matrix(p)
            assert np.linalg.norm(U - U.conj().T) < 1e-12
            ev = np.sort(np.linalg.eigvalsh(U))
            assert np.allclose(ev, [-1.0, 1.0], atol=1e-10)


class TestClassify:
    def test_scale_invariant_and_smooth(self):
        p = make_u2(math.pi / 2, 0.0, np.exp(1j * math.pi / 3))
        f = classify(p)
        assert f.scale_invariant and f.smooth_circle
        assert not f.separated

    def test_identity_flags(self):
        f = classify(make_u2(0.0, 1.0, 0.0))
        assert f.separated and f.isospectral
        assert f.semi_iso_plus and f.semi_iso_minus
        assert not f.scale_invariant

    def test_semi_iso_plus_only(self):
        # force Im(beta) = sin(xi) and check all definitions by brute force
        xi = math.pi / 4
        b_i = math.sin(xi)
        b_r = 0.15
        rest = 1.0 - b_i * b_i - b_r * b_r
        alpha = np.exp(1j * math.pi / 5) * math.sqrt(rest)
        p = make_u2(xi, alpha, complex(b_r, b_i))
        f = classify(p)
        assert f.semi_iso_plus
        assert not (
            f.semi_iso_minus or f.separated or f.scale_invariant or f.isospectral
        )
        # brute-force re-check of each defining constraint
        assert abs(p.beta) > 1e-6
        assert abs(p.xi - math.pi / 2) > 1e-6
        assert abs(math.sin(p.xi) - p.beta.imag) < 1e-15
        assert abs(math.sin(p.xi) + p.beta.imag) > 1e-6

    def test_smooth_subset_of_scale_invariant(self):
        for _ in range(200):
            f = classify(haar_point(RNG))
            assert not f.smooth_circle or f.scale_invariant

    def test_isospectral_implies_both_semi_branches(self):
        for _ in range(50):
            phi = RNG.uniform(0, 2 * math.pi)
            r = RNG.uniform(0, 1)
            alpha = complex(r * math.cos(phi), r * math.sin(phi))
            beta = complex(math.sqrt(1 - r * r), 0.0)
            f = classify(make_u2(0.0, alpha, beta))
            assert f.isospectral and f.semi_iso_plus and f.semi_iso_minus

    def test_stability_under_tol_doubling(self):
        tol = 1e-9
        kept = 0
        for _ in range(300):
            p = haar_point(RNG)
            resid = [
                abs(p.beta.real),
                abs(p.beta.imag),
                abs(p.xi - math.pi / 2),
                abs(p.alpha.real),
                abs(p.alpha.imag),
                abs(p.xi),
                abs(math.sin(p.xi) - p.beta.imag),
                abs(math.sin(p.xi) + p.beta.imag),
            ]
            if min(resid) <= 10 * tol:
                continue  # too close to a subfamily boundary
            kept += 1
            assert classify(p, tol) == classify(p, 2 * tol)
        assert kept > 250


class TestSeparatedLengths:
    def test_dirichlet_both_ends(self):
        sl = separated_lengths(make_u2(0.0, -1.0, 0.0))
        assert sl.l_plus == 0.0 and sl.l_minus == 0.0

    def test_neumann_both_ends(self):
        sl = separated_lengths(make_u2(0.0, 1.0, 0.0))
        assert math.isinf(sl.l_plus) and math.isinf(sl.l_minus)

    def test_cot_quarter_pi(self):
        sl = separated_lengths(make_u2(math.pi / 2, 1.0, 0.0, 1.0))
        assert sl.l_plus == pytest.approx(1.0, abs=1e-14)
        assert sl.l_minus == pytest.approx(1.0, abs=1e-14)

    def test_not_separated_error(self):
        with pytest.raises(SubfamilyError):
            separated_lengths(make_u2(0.0, 0.0, 1.0))

    def test_infinite_length_is_tagged(self):
        sl = separated_lengths(make_u2(0.0, 1.0, 0.0))
        assert sl.l_plus is INFINITE_LENGTH

    @pytest.mark.parametrize("c2", [1.5e-12, 2e-12, 1e-9, 1e-6])
    @pytest.mark.parametrize("xi", [0.3, 1.0])
    @pytest.mark.parametrize("L0", [1e-3, 1.0, 1e3])
    def test_direction_lengths_in_wall_order_near_a_dirichlet_wall(self, c2, xi, L0):
        # Re alpha = c2 - cos xi puts the left wall (Im alpha > 0) or the
        # right one (Im alpha < 0) a c2 away from Dirichlet: a Robin wall
        # whose length is the Dirichlet direction's, bit for bit, never 0
        a_r = c2 - math.cos(xi)
        for sign in (1.0, -1.0):
            p = make_u2(xi, complex(a_r, sign * math.sqrt((1.0 - a_r) * (1.0 + a_r))), 0.0, L0)
            near, far = direction_lengths(p)
            assert separated_lengths(p) == (SeparatedLengths(near, far) if sign > 0 else SeparatedLengths(far, near))
            assert 0.0 < near < 1e-5 * L0 and far < 0.0


def _bc_residuals(p, sl, g_l, coeffs):
    """(full boundary-condition residual, Robin-form residual) for a cubic."""
    c0, c1, c2, c3 = coeffs
    psi0, dpsi0 = c0, c1
    psil = c0 + c1 * g_l + c2 * g_l**2 + c3 * g_l**3
    dpsil = c1 + 2 * c2 * g_l + 3 * c3 * g_l**2
    U = to_matrix(p)
    Psi = np.array([psi0, psil])
    dPsi = np.array([dpsi0, -dpsil])
    full = np.linalg.norm((U - np.eye(2)) @ Psi + 1j * p.L0 * (U + np.eye(2)) @ dPsi)
    scale = math.sqrt(
        float(np.sum(np.abs(Psi) ** 2) + np.sum(np.abs(p.L0 * dPsi) ** 2))
    )

    def robin(val, dval_inward, L):
        if math.isinf(L):
            return abs(dval_inward) * p.L0
        return abs(val + L * dval_inward)

    # inward derivatives: +psi'(0) at the left wall, -psi'(l) at the right
    rb = math.hypot(robin(psi0, dpsi0, sl.l_plus), robin(psil, -dpsil, sl.l_minus))
    return full / scale, rb / scale


class TestSeparatedEquivalence:
    def test_residuals_vanish_together(self):
        """Robin form and full form agree on 1000 random smooth test functions."""
        l = 1.0
        checked = 0
        while checked < 1000:
            p = separated_point(RNG, L0=1.0)
            sl = separated_lengths(p)
            finite_p = not math.isinf(sl.l_plus)
            finite_m = not math.isinf(sl.l_minus)
            c2, c3 = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            if checked % 2 == 0:
                # project a random cubic onto the Robin constraints
                # (right wall acts on the inward derivative -psi'(l))
                row1 = (
                    [1.0, sl.l_plus, 0.0, 0.0] if finite_p else [0.0, 1.0, 0.0, 0.0]
                )
                if finite_m:
                    row2 = [
                        1.0,
                        l - sl.l_minus,
                        l**2 - 2 * sl.l_minus * l,
                        l**3 - 3 * sl.l_minus * l**2,
                    ]
                else:
                    row2 = [0.0, 1.0, 2 * l, 3 * l**2]
                A = np.array([row1[:2], row2[:2]], dtype=complex)
                if abs(np.linalg.det(A)) < 1e-6:
                    continue
                b = -np.array(
                    [
                        row1[2] * c2 + row1[3] * c3,
                        row2[2] * c2 + row2[3] * c3,
                    ]
                )
                c0, c1 = np.linalg.solve(A, b)
            else:
                c0, c1 = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            full, rb = _bc_residuals(p, sl, l, (c0, c1, c2, c3))
            assert (full < 1e-9) == (rb < 1e-9)
            if checked % 2 == 0:
                assert full < 1e-9 and rb < 1e-9
            checked += 1


class TestDirectionLengths:
    def test_eigen_angles_of_the_matrix(self):
        # 1/L = tan(theta/2) / L0 over the eigenvalues exp(i theta) of U
        for _ in range(200):
            p = haar_point(RNG)
            theta = np.angle(np.linalg.eigvals(to_matrix(p)))
            expected = np.sort(np.tan(theta / 2) / p.L0)
            got = np.sort([1.0 / L for L in direction_lengths(p)])
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_separated_points_give_their_wall_lengths(self):
        for _ in range(200):
            p = separated_point(RNG)
            sl = separated_lengths(p)
            walls = sorted((sl.l_plus, sl.l_minus))
            assert sorted(direction_lengths(p)) == pytest.approx(walls, rel=1e-9)

    def test_walls_snap(self):
        assert direction_lengths(make_u2(0.0, -1.0, 0.0)) == (0.0, 0.0)
        assert direction_lengths(make_u2(0.0, 1.0, 0.0)) == (INFINITE_LENGTH, INFINITE_LENGTH)
        # the Im beta = +1 pole: a Neumann and a Dirichlet direction
        assert sorted(direction_lengths(make_u2(math.pi / 2, 0.0, 1j))) == [0.0, INFINITE_LENGTH]

    @pytest.mark.parametrize("c2", [2e-12, 1.5e-12, 1e-9, 1e-6])
    def test_robin_bound_holds_near_a_dirichlet_direction(self, c2):
        # c2 = cos xi + Re alpha just above an exact Dirichlet direction, beta real: every
        # bound state has kappa <= kappa* = lam coth(lam l / 2), lam the largest 1/L > 0, so
        # the level count finds no state deeper than kappa*
        g = BoxGeometry(l=1.0)
        for xi in (0.3, 1.0):
            a_r = c2 - math.cos(xi)
            for L0 in (1e-3, 1.0, 1e3):
                p = make_u2(xi, a_r, math.sqrt((1.0 - a_r) * (1.0 + a_r)), L0)
                lam = max(1.0 / L for L in direction_lengths(p) if 0.0 < L < INFINITE_LENGTH)
                kappa = lam / math.tanh(0.5 * lam * g.l)
                v = np.array([kappa * g.l * (1.0 + 1e-12)])
                assert spectral._count(spectral._NEGATIVE, v, spectral._coeffs([p], g)).tolist() == [0]


class TestTwistAngle:
    def test_theta_zero(self):
        assert twist_angle(make_u2(math.pi / 2, 0.0, -1j)) == pytest.approx(0.0, abs=1e-9)

    def test_theta_half_pi(self):
        assert twist_angle(make_u2(math.pi / 2, 0.0, -1.0)) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_theta_pi(self):
        assert twist_angle(make_u2(math.pi / 2, 0.0, 1j)) == pytest.approx(
            math.pi, abs=1e-9
        )

    def test_outside_sphere(self):
        with pytest.raises(SubfamilyError):
            twist_angle(make_u2(0.0, 1.0, 0.0))
