import math

import numpy as np
import pytest
from scipy.integrate import quad

from pointspec import (
    BoxGeometry,
    ConstraintError,
    EuclideanTime,
    KernelTermList,
    SubfamilyError,
    TailBoundError,
    build_image_terms,
    eigenbasis,
    gaussian_prefactor,
    halfline_image_kernel,
    image_heat_kernel,
    image_pair_weights,
    images_needed,
    make_u2,
    scale_invariant_coefficients,
    spectral_heat_kernel,
    spectral_levels_needed,
    theta3,
)
from helpers import scale_invariant_point

RNG = np.random.default_rng(20240814)

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)
DIRICHLET = make_u2(0.0, -1.0, 0.0)
NEUMANN = make_u2(0.0, 1.0, 0.0)
PERIODIC = make_u2(math.pi / 2, 0.0, -1j)  # twist 0

# frozen 40-digit series value
THETA3_AT_I = 1.086434811213308014575316


def _tau(theta_hat, g=G1):
    """Physical Euclidean time from the dimensionless hbar tau / (2 m l^2)."""
    return theta_hat * 2.0 * g.mass * g.l**2 / g.hbar


def _kernel_pair(p, g, a, b, tau):
    n_img = images_needed(g, tau)
    terms = build_image_terms(p, g, n_img)
    n_lev = spectral_levels_needed(p, g, tau)
    sv = spectral_heat_kernel(eigenbasis(p, g, n_lev), g, a, b, tau, tol=1e-9)
    iv = image_heat_kernel(terms, a, b, tau, n_img)
    return sv, iv


class TestSpectralKernel:
    def test_matches_images_at_center(self):
        tau = _tau(0.1)
        sv, iv = _kernel_pair(DIRICHLET, G1, 0.5, 0.5, tau)
        assert abs(sv - iv) < 1e-10

    def test_long_time_projects_on_ground_state(self):
        tau = _tau(60.0)
        val = spectral_heat_kernel(eigenbasis(NEUMANN, G1, 8), G1, 0.3, 0.8, tau, tol=1e-6)
        assert val == pytest.approx(1.0, abs=1e-10)  # constant zero mode, 1/l

    def test_tail_bound_error(self):
        with pytest.raises(TailBoundError):
            spectral_heat_kernel(eigenbasis(DIRICHLET, G1, 3), G1, 0.4, 0.6, _tau(0.02))

    def test_hermitian_in_endpoints(self):
        tau = _tau(0.25)
        p = scale_invariant_point(RNG, beta_im_margin=0.1)
        basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, tau))
        for _ in range(5):
            a, b = RNG.uniform(0, 1, size=2)
            v1 = spectral_heat_kernel(basis, G1, a, b, tau)
            v2 = spectral_heat_kernel(basis, G1, b, a, tau)
            assert v1 == pytest.approx(v2.conjugate(), abs=1e-10)

    def test_real_on_time_reversal_invariant_families(self):
        tau = _tau(0.2)
        for p in (DIRICHLET, NEUMANN, make_u2(math.pi / 2, 1j, 0.0)):
            basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, tau))
            for a, b in [(0.15, 0.8), (0.4, 0.4)]:
                v = spectral_heat_kernel(basis, G1, a, b, tau)
                assert abs(v.imag) < 1e-10

    def test_real_at_coincident_points(self):
        tau = _tau(0.2)
        p = scale_invariant_point(RNG, beta_im_margin=0.1)
        basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, tau))
        v = spectral_heat_kernel(basis, G1, 0.37, 0.37, tau)
        assert abs(v.imag) < 1e-10 and v.real > 0

    def test_twisted_circle_is_genuinely_complex(self):
        # winding phases make the off-diagonal kernel complex
        theta = 1.0
        p = make_u2(math.pi / 2, 0.0, complex(-math.sin(theta), -math.cos(theta)))
        tau = _tau(0.3)
        basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, tau))
        v = spectral_heat_kernel(basis, G1, 0.2, 0.8, tau)
        assert abs(v.imag) > 1e-3

    def test_positive_semidefinite_on_grid(self):
        tau = _tau(0.3)
        p = scale_invariant_point(RNG, beta_im_margin=0.1)
        basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, tau))
        xs = np.linspace(0.05, 0.95, 7)
        K = np.array(
            [[spectral_heat_kernel(basis, G1, a, b, tau) for b in xs] for a in xs]
        )
        assert np.linalg.norm(K - K.conj().T) < 1e-10
        ev = np.linalg.eigvalsh(K)
        assert ev.min() > -1e-9 * max(1.0, ev.max())

    def test_position_validation(self):
        with pytest.raises(ConstraintError):
            spectral_heat_kernel(eigenbasis(DIRICHLET, G1, 8), G1, -0.1, 0.5, 1.0)


class TestImageKernel:
    def test_short_time_free_limit(self):
        tau = _tau(0.002)
        n_img = images_needed(G1, tau)
        terms = build_image_terms(DIRICHLET, G1, n_img)
        val = image_heat_kernel(terms, 0.5, 0.5, tau, n_img)
        assert val == pytest.approx(gaussian_prefactor(G1, tau), rel=1e-12)

    def test_dirichlet_wall_cancellation(self):
        tau = _tau(0.05)
        n_img = images_needed(G1, tau)
        terms = build_image_terms(DIRICHLET, G1, n_img)
        assert image_heat_kernel(terms, 0.0, 0.0, tau, n_img) == pytest.approx(0.0, abs=1e-13)

    def test_neumann_wall_doubling(self):
        tau = _tau(0.01)
        n_img = images_needed(G1, tau)
        terms = build_image_terms(NEUMANN, G1, n_img)
        val = image_heat_kernel(terms, 0.0, 0.0, tau, n_img)
        assert val == pytest.approx(2.0 * gaussian_prefactor(G1, tau), rel=1e-12)

    def test_tail_bound_error(self):
        terms = build_image_terms(DIRICHLET, G1, 40)
        with pytest.raises(TailBoundError):
            image_heat_kernel(terms, 0.3, 0.4, _tau(5.0), 2)

    def test_euclidean_time_wrapper(self):
        tau = EuclideanTime(_tau(0.1))
        n_img = images_needed(G1, tau)
        terms = build_image_terms(DIRICHLET, G1, n_img)
        v1 = image_heat_kernel(terms, 0.2, 0.7, tau, n_img)
        v2 = image_heat_kernel(terms, 0.2, 0.7, tau.tau, n_img)
        assert v1 == v2


ARRAY_POINTS = {
    "wall-inf-0": make_u2(math.pi / 2, -1j, 0.0),
    "sphere": make_u2(math.pi / 2, 0.6j, 0.48 + 0.64j),
    "twisted-circle": make_u2(math.pi / 2, 0.0, complex(-math.sin(1.0), -math.cos(1.0))),
    "pole-plus": make_u2(math.pi / 2, 0.0, 1j),
}


def _kernel_setup(p, tau):
    n_img = images_needed(G1, tau)
    return build_image_terms(p, G1, n_img), n_img, eigenbasis(p, G1, spectral_levels_needed(p, G1, tau))


class TestArrayKernels:
    XS = np.linspace(0.0, G1.l, 9)

    @pytest.mark.parametrize("theta_hat", [0.02, 0.5])
    @pytest.mark.parametrize("p", ARRAY_POINTS.values(), ids=ARRAY_POINTS.keys())
    def test_grid_matches_scalar_calls(self, p, theta_hat):
        tau = _tau(theta_hat)
        terms, n_img, basis = _kernel_setup(p, tau)
        tol = 1e-12 * gaussian_prefactor(G1, tau)
        s_ref = np.array([[spectral_heat_kernel(basis, G1, a, b, tau) for b in self.XS]
                          for a in self.XS])
        i_ref = np.array([[image_heat_kernel(terms, a, b, tau, n_img) for b in self.XS]
                          for a in self.XS])
        for sparse in (False, True):
            a, b = np.meshgrid(self.XS, self.XS, indexing="ij", sparse=sparse)
            s_val = spectral_heat_kernel(basis, G1, a, b, tau)
            i_val = image_heat_kernel(terms, a, b, tau, n_img)
            assert s_val.shape == i_val.shape == (9, 9)
            assert np.max(np.abs(s_val - s_ref)) <= tol
            assert np.max(np.abs(i_val - i_ref)) <= tol

    @pytest.mark.parametrize("p", ARRAY_POINTS.values(), ids=ARRAY_POINTS.keys())
    def test_grid_matrix_is_hermitian(self, p):
        tau = _tau(0.1)
        terms, n_img, basis = _kernel_setup(p, tau)
        tol = 1e-12 * gaussian_prefactor(G1, tau)
        a, b = np.meshgrid(self.XS, self.XS, indexing="ij")
        for K in (spectral_heat_kernel(basis, G1, a, b, tau),
                  image_heat_kernel(terms, a, b, tau, n_img)):
            assert np.max(np.abs(K - K.conj().T)) <= tol

    def test_broadcast_shape_and_scalar_type(self):
        p = ARRAY_POINTS["sphere"]
        tau = _tau(0.1)
        terms, n_img, basis = _kernel_setup(p, tau)
        kernels = (
            lambda a, b: spectral_heat_kernel(basis, G1, a, b, tau),
            lambda a, b: image_heat_kernel(terms, a, b, tau, n_img),
        )
        for kernel in kernels:
            assert kernel(np.full((3, 1), 0.2), np.linspace(0.1, 0.9, 4)).shape == (3, 4)
            assert kernel(0.3, np.linspace(0.1, 0.9, 5)).shape == (5,)
            assert kernel(np.array([[0.4]]), 0.6).shape == (1, 1)
            v = kernel(0.3, 0.7)
            assert type(v) is complex
            assert kernel(np.array([0.3]), np.array([0.7]))[0] == pytest.approx(v, abs=1e-15)
            with pytest.raises(ConstraintError):
                kernel(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("where", ["a", "b"])
    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, float("nan")])
    def test_one_out_of_box_entry_raises(self, where, bad):
        p = ARRAY_POINTS["twisted-circle"]
        tau = _tau(0.1)
        terms, n_img, basis = _kernel_setup(p, tau)
        good = np.full((4, 5), 0.5)
        worse = good.copy()
        worse[2, 3] = bad
        a, b = (worse, good) if where == "a" else (good, worse)
        with pytest.raises(ConstraintError):
            spectral_heat_kernel(basis, G1, a, b, tau)
        with pytest.raises(ConstraintError):
            image_heat_kernel(terms, a, b, tau, n_img)

    def test_tail_bounds_still_raise(self):
        p = ARRAY_POINTS["wall-inf-0"]
        xs = np.linspace(0.0, 1.0, 5)
        with pytest.raises(TailBoundError):
            spectral_heat_kernel(eigenbasis(p, G1, 3), G1, xs, xs, _tau(0.02))
        terms = build_image_terms(p, G1, 40)
        with pytest.raises(TailBoundError):
            image_heat_kernel(terms, xs, xs, _tau(5.0), 2)
        with pytest.raises(TailBoundError):
            image_heat_kernel(terms, xs, xs, _tau(0.1), 1)
        empty = KernelTermList((), G1)
        with pytest.raises(TailBoundError):
            image_heat_kernel(empty, xs, xs, _tau(0.1), 4)


class TestBuildImageTerms:
    def test_dirichlet_weights(self):
        terms = build_image_terms(DIRICHLET, G1, 2)
        direct = {t.shift: t.weight for t in terms.terms if t.kind == "direct"}
        mirror = {t.shift: t.weight for t in terms.terms if t.kind == "mirror"}
        assert set(direct) == {-4.0, -2.0, 0.0, 2.0, 4.0}
        assert all(w == 1.0 for w in direct.values())
        assert all(w == -1.0 for w in mirror.values())

    def test_mixed_wall_weights(self):
        # walls (inf, 0): direct (-1)^nu, mirror +(-1)^nu on the 2 nu l lattice
        p = make_u2(math.pi / 2, -1j, 0.0)
        terms = build_image_terms(p, G1, 2)
        direct = {t.shift: t.weight for t in terms.terms if t.kind == "direct"}
        mirror = {t.shift: t.weight for t in terms.terms if t.kind == "mirror"}
        for nu in (-2, -1, 0, 1, 2):
            assert direct[2.0 * nu] == (-1.0) ** nu
            assert mirror[2.0 * nu] == +((-1.0) ** nu)

    def test_antiperiodic_circle_weights(self):
        # twist pi: weights (-1)^nu on the direct family only
        p = make_u2(math.pi / 2, 0.0, 1j)
        terms = build_image_terms(p, G1, 3)
        assert all(t.kind == "direct" for t in terms.terms)
        for t in terms.terms:
            nu = round(t.shift / G1.l)
            assert t.weight == pytest.approx((-1.0) ** nu)

    def test_generic_point_unsupported(self):
        n = math.sqrt(1.0004)
        p = make_u2(0.7, (0.6 + 0.48j) / n, (0.4 + 0.5j) / n)
        with pytest.raises(SubfamilyError):
            build_image_terms(p, G1, 4)

    def test_finite_robin_walls_unsupported(self):
        p = make_u2(math.pi / 2, 1.0, 0.0)  # separated with L+- = 1
        with pytest.raises(SubfamilyError):
            build_image_terms(p, G1, 4)

    def test_weight_bound(self):
        for _ in range(10):
            p = scale_invariant_point(RNG, beta_im_margin=0.02)
            terms = build_image_terms(p, G1, 6)
            assert max(abs(t.weight) for t in terms.terms) <= 2.0 + 1e-12

    def test_separated_route_agrees_with_winding_route(self):
        # the intersection point alpha = i sits in both families; the
        # separated (inf-0 wall) terms and the winding weights must produce
        # the same kernel
        p = make_u2(math.pi / 2, 1j, 0.0)
        tau = _tau(0.15)
        n_img = images_needed(G1, tau)
        terms_sep = build_image_terms(p, G1, n_img)
        c = scale_invariant_coefficients(p, G1, +1, 0)
        theta = math.pi / 2
        from pointspec import ImageTerm, KernelTermList

        winding = []
        for nu in range(-n_img, n_img + 1):
            cn, dn = image_pair_weights(c, theta, nu)
            winding.append(ImageTerm(G1.l * cn, "direct", nu * G1.l))
            winding.append(ImageTerm(-G1.l * dn, "mirror", nu * G1.l))
        terms_wind = KernelTermList(tuple(winding), G1)
        for a, b in [(0.2, 0.9), (0.0, 0.4), (0.65, 0.65)]:
            v1 = image_heat_kernel(terms_sep, a, b, tau, n_img)
            v2 = image_heat_kernel(terms_wind, a, b, tau, n_img)
            assert v1 == pytest.approx(v2, abs=1e-13)


class TestImagePairWeights:
    def test_smooth_circle_reduction(self):
        c = scale_invariant_coefficients(
            make_u2(math.pi / 2, 0.0, complex(-math.sin(1.0), -math.cos(1.0))), G1, +1, 0
        )
        for n in (-2, 0, 3):
            cn, dn = image_pair_weights(c, 1.0, n)
            assert cn == pytest.approx(np.exp(-1j * n) / G1.l, abs=1e-12)
            assert abs(dn) < 1e-12

    def test_n_zero(self):
        p = scale_invariant_point(RNG, beta_im_margin=0.1)
        c = scale_invariant_coefficients(p, G1, +1, 0)
        cn, dn = image_pair_weights(c, 0.77, 0)
        assert cn == pytest.approx(abs(c.a_plus) ** 2 + abs(c.a_minus) ** 2)
        assert dn == pytest.approx(2 * (c.a_plus * c.a_minus.conjugate()).real)

    def test_theta_zero_constant(self):
        p = scale_invariant_point(RNG, beta_im_margin=0.1)
        c = scale_invariant_coefficients(p, G1, +1, 0)
        vals = [image_pair_weights(c, 0.0, n)[0] for n in range(-3, 4)]
        assert np.allclose(vals, vals[0])


class TestTheta3:
    def test_large_imaginary_part(self):
        assert theta3(0.3, 40j) == pytest.approx(1.0, abs=1e-15)

    def test_even_in_z(self):
        for z in (0.21, 0.5 + 0.1j):
            assert theta3(-z, 0.9j) == pytest.approx(theta3(z, 0.9j), abs=1e-14)

    def test_value_at_i(self):
        assert theta3(0.0, 1j).real == pytest.approx(THETA3_AT_I, rel=1e-14)
        assert abs(theta3(0.0, 1j).imag) < 1e-14

    def test_domain(self):
        with pytest.raises(ConstraintError):
            theta3(0.0, 1.0)


class TestHalflineImageKernel:
    def test_dirichlet_wall_zero(self):
        assert halfline_image_kernel("dirichlet", 0.0, 0.0, 0.4) == 0.0

    def test_neumann_wall_double(self):
        v = halfline_image_kernel("neumann", 0.0, 0.0, 0.4)
        assert v == pytest.approx(2 * math.sqrt(1 / (2 * math.pi * 0.4)), rel=1e-13)

    def test_far_from_wall_free(self):
        tau = 0.01
        v = halfline_image_kernel("dirichlet", 3.0, 3.0, tau)
        assert v == pytest.approx(math.sqrt(1 / (2 * math.pi * tau)), rel=1e-10)

    def test_case_validation(self):
        with pytest.raises(ConstraintError):
            halfline_image_kernel("robin", 0.1, 0.1, 0.4)


class TestPoissonIdentity:
    @pytest.mark.parametrize(
        "p",
        [
            DIRICHLET,
            NEUMANN,
            make_u2(math.pi / 2, 1j, 0.0),
            make_u2(math.pi / 2, -1j, 0.0),
        ],
        ids=["dirichlet", "neumann", "wall-0-inf", "wall-inf-0"],
    )
    def test_scale_free_walls(self, p):
        for theta_hat in (0.02, 0.5):
            tau = _tau(theta_hat)
            pref = gaussian_prefactor(G1, tau)
            for a in (0.0, 0.31, 0.9):
                sv, iv = _kernel_pair(p, G1, a, 0.62, tau)
                assert abs(sv - iv) < 1e-9 * pref

    def test_random_scale_invariant_points(self):
        for _ in range(4):
            p = scale_invariant_point(RNG, beta_im_margin=0.05)
            tau = _tau(0.1)
            pref = gaussian_prefactor(G1, tau)
            for a, b in [(0.2, 0.8), (0.55, 0.55)]:
                sv, iv = _kernel_pair(p, G1, a, b, tau)
                assert abs(sv - iv) < 1e-9 * pref


class TestSemigroup:
    @pytest.mark.parametrize(
        "p",
        [DIRICHLET, NEUMANN, PERIODIC, None],
        ids=["dirichlet", "neumann", "periodic", "generic-scale-invariant"],
    )
    def test_composition(self, p):
        if p is None:
            p = scale_invariant_point(np.random.default_rng(5), beta_im_margin=0.1)
        tau1, tau2 = _tau(0.15), _tau(0.35)
        basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, tau1))
        a, b = 0.3, 0.75

        def integrand(x):
            return spectral_heat_kernel(basis, G1, a, x, tau1) * spectral_heat_kernel(
                basis, G1, x, b, tau2
            )

        re, _ = quad(lambda x: integrand(x).real, 0.0, 1.0, limit=100)
        im, _ = quad(lambda x: integrand(x).imag, 0.0, 1.0, limit=100)
        direct = spectral_heat_kernel(basis, G1, a, b, tau1 + tau2)
        assert complex(re, im) == pytest.approx(direct, abs=1e-7)


class TestThetaReduction:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi])
    def test_coincident_points(self, theta):
        beta = complex(-math.sin(theta), -math.cos(theta))
        p = make_u2(math.pi / 2, 0.0, beta)
        tau = _tau(0.3)
        n_img = images_needed(G1, tau, tol=1e-15)
        terms = build_image_terms(p, G1, n_img)
        for a in (0.1, 0.62):
            img = image_heat_kernel(terms, a, a, tau, n_img, tol=1e-14)
            ref = gaussian_prefactor(G1, tau) * theta3(
                -theta / (2 * math.pi), 1j * G1.mass * G1.l**2 / (2 * math.pi * G1.hbar * tau)
            )
            assert abs(img - ref) < 1e-12

    def test_periodic_dual_theta_form(self):
        # same kernel through the spectral-side theta series
        tau = _tau(0.3)
        n_img = images_needed(G1, tau, tol=1e-15)
        terms = build_image_terms(PERIODIC, G1, n_img)
        img = image_heat_kernel(terms, 0.4, 0.4, tau, n_img, tol=1e-14)
        dual = theta3(0.0, 4j * math.pi * G1.hbar * tau / (2 * G1.mass * G1.l**2)) / G1.l
        assert abs(img - dual) < 1e-12
