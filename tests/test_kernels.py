import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from pointspec import (
    BoxGeometry,
    ConstraintError,
    KernelTermList,
    SubfamilyError,
    TailBoundError,
    build_image_terms,
    classify,
    eigenbasis,
    gaussian_prefactor,
    halfline_image_kernel,
    image_heat_kernel,
    image_pair_weights,
    images_needed,
    make_u2,
    scale_invariant_coefficients,
    separated_lengths,
    spectral_heat_kernel,
    spectral_levels_needed,
    theta3,
    twist_angle,
)
from helpers import degenerate_negative_point, scale_invariant_point

RNG = np.random.default_rng(20240814)

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)
DIRICHLET = make_u2(0.0, -1.0, 0.0)
NEUMANN = make_u2(0.0, 1.0, 0.0)
PERIODIC = make_u2(math.pi / 2, 0.0, -1j)  # twist 0
PLUS_POLE = make_u2(math.pi / 2, 0.0, 1j)  # twist pi

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

    def test_equals_per_mode_sum(self):
        # a double bound state, and the Im beta = -1 pole's zero mode and
        # doubly degenerate ladder: every sector, summed in the kernel's order;
        # each basis reaches far enough up for the tail bound on its own
        bases = eigenbasis(degenerate_negative_point(), BoxGeometry(l=1.0), 12), eigenbasis(PERIODIC, G1, 9)
        tau = _tau(0.1)
        a, b = np.meshgrid(self.XS, self.XS[::2], indexing="ij", sparse=True)
        assert {lv.sector for basis in bases for lv in basis.levels} == {"negative", "zero", "positive"}
        for basis in bases:
            pairs = [(lv.energy, m) for lv, modes in basis for m in modes]
            w = np.exp(-np.array([energy for energy, _ in pairs]) * tau / G1.hbar)
            terms = [w[i] * m.psi(b) * np.conj(m.psi(a)) for i, (_, m) in enumerate(pairs)]
            ref = np.sum(np.stack(terms, axis=-1), axis=-1)
            assert np.array_equal(spectral_heat_kernel(basis, G1, a, b, tau), ref)

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
        empty = KernelTermList([], [], [], G1)
        with pytest.raises(TailBoundError):
            image_heat_kernel(empty, xs, xs, _tau(0.1), 4)


class TestManyTimes:
    # one call with the times on a leading axis, against one call per time
    XS = np.linspace(0.0, G1.l, 9)
    TAUS = [_tau(th) for th in (0.02, 0.1, 0.5, 2.0)]

    @pytest.mark.parametrize("p", [ARRAY_POINTS["sphere"], PERIODIC], ids=["sphere", "pole-minus"])
    def test_equals_one_time_calls(self, p):
        images = [images_needed(G1, tau) for tau in self.TAUS]
        needs = [spectral_levels_needed(p, G1, tau) for tau in self.TAUS]
        basis = eigenbasis(p, G1, max(needs))
        if p is PERIODIC:  # the Im beta = -1 pole: every level above zero carries two modes
            assert all(len(modes) == 2 for lv, modes in basis if lv.sector == "positive")
        terms = build_image_terms(p, G1, max(images))
        a, b = np.meshgrid(self.XS, self.XS, indexing="ij", sparse=True)
        s_val = spectral_heat_kernel(basis, G1, a, b, self.TAUS, tol=1e-9, n_levels=needs)
        i_val = image_heat_kernel(terms, a, b, self.TAUS, images)
        assert s_val.shape == i_val.shape == (4, 9, 9)
        for tau, n_lev, n_img, s, i in zip(self.TAUS, needs, images, s_val, i_val):
            tol = 1e-12 * gaussian_prefactor(G1, tau)
            s_ref = spectral_heat_kernel(basis[:n_lev], G1, a, b, tau, tol=1e-9)
            i_ref = image_heat_kernel(build_image_terms(p, G1, n_img), a, b, tau, n_img)
            assert np.max(np.abs(s - s_ref)) <= tol
            assert np.max(np.abs(i - i_ref)) <= tol

    def test_shapes_and_shared_counts(self):
        p = ARRAY_POINTS["sphere"]
        # one count for every time: images for the longest, levels for the shortest
        n_img = images_needed(G1, self.TAUS[-1])
        terms = build_image_terms(p, G1, n_img)
        basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, self.TAUS[0]))
        for kernel in (lambda taus: spectral_heat_kernel(basis, G1, 0.3, 0.7, taus),
                       lambda taus: image_heat_kernel(terms, 0.3, 0.7, taus, n_img)):
            assert kernel(self.TAUS).shape == (4,)
            assert kernel(self.TAUS[1:2])[0] == kernel(self.TAUS[1])
            with pytest.raises(ConstraintError):
                kernel([])
        with pytest.raises(ConstraintError):
            spectral_heat_kernel(basis, G1, 0.3, 0.7, self.TAUS, n_levels=[len(basis)] * 3)

    def test_a_short_time_still_raises(self):
        p = ARRAY_POINTS["sphere"]
        short, long_ = _tau(0.02), _tau(2.0)
        basis = eigenbasis(p, G1, spectral_levels_needed(p, G1, short))
        spectral_heat_kernel(basis[:3], G1, self.XS, self.XS, [long_])
        with pytest.raises(TailBoundError):
            spectral_heat_kernel(basis[:3], G1, self.XS, self.XS, [long_, short])
        with pytest.raises(TailBoundError):
            spectral_heat_kernel(basis, G1, self.XS, self.XS, [long_, short], n_levels=[len(basis), 3])
        terms = build_image_terms(p, G1, 40)
        with pytest.raises(TailBoundError):
            image_heat_kernel(terms, self.XS, self.XS, [short, _tau(5.0)], [images_needed(G1, short), 2])


def _loop_terms(p, g, n_images):
    """(weight, mirror, shift) arrays from one term at a time, as the builder once made them."""
    terms = []
    if classify(p).separated:
        sl = separated_lengths(p)
        mirror_sign = -1.0 if sl.l_plus == 0.0 else 1.0
        for nu in range(-(n_images // 2), n_images // 2 + 1):
            w = (-1.0) ** nu if sl.l_plus != sl.l_minus else 1.0
            terms += [(complex(w), False, 2.0 * nu * g.l), (complex(mirror_sign * w), True, 2.0 * nu * g.l)]
    elif abs(p.beta.imag) >= 1.0 - 1e-9:
        base = -1.0 if p.beta.imag > 0.0 else 1.0
        terms = [(complex(base**nu), False, nu * g.l) for nu in range(-n_images, n_images + 1)]
    else:
        c, theta = scale_invariant_coefficients(p, g, +1, 0), twist_angle(p)
        ap, am = c.a_plus, c.a_minus
        for nu in range(-n_images, n_images + 1):
            ep, em = cmath.exp(-1j * theta * nu), cmath.exp(+1j * theta * nu)
            cn = abs(ap) ** 2 * ep + abs(am) ** 2 * em
            dn = ap * am.conjugate() * ep + am * ap.conjugate() * em
            terms += [(g.l * cn, False, nu * g.l), (-g.l * dn, True, nu * g.l)]
    return tuple(np.array(column) for column in zip(*terms))


class TestBuildImageTerms:
    def test_dirichlet_weights(self):
        # n_images = 4 builds |nu| <= 2 on the 2 nu l lattice
        terms = build_image_terms(DIRICHLET, G1, 4)
        for mirror in (False, True):
            assert terms.shift[terms.mirror == mirror].tolist() == [-4.0, -2.0, 0.0, 2.0, 4.0]
        assert np.all(terms.weight[~terms.mirror] == 1.0)
        assert np.all(terms.weight[terms.mirror] == -1.0)

    def test_mixed_wall_weights(self):
        # walls (inf, 0): direct (-1)^nu, mirror +(-1)^nu on the 2 nu l lattice
        p = make_u2(math.pi / 2, -1j, 0.0)
        terms = build_image_terms(p, G1, 4)
        nu = np.arange(-2, 3)
        for mirror in (False, True):
            assert terms.shift[terms.mirror == mirror].tolist() == (2.0 * nu).tolist()
            assert terms.weight[terms.mirror == mirror].tolist() == ((-1.0) ** nu).tolist()

    def test_antiperiodic_circle_weights(self):
        # twist pi: weights (-1)^nu on the direct family only
        p = make_u2(math.pi / 2, 0.0, 1j)
        terms = build_image_terms(p, G1, 3)
        assert not terms.mirror.any()
        nu = np.arange(-3, 4)
        assert terms.shift.tolist() == (nu * G1.l).tolist()
        assert terms.weight.tolist() == ((-1.0) ** nu).tolist()

    # the four scale-free wall pairs: (point, mirror sign, whether the weights alternate)
    WALLS = [("zero-zero", DIRICHLET, -1.0, False), ("inf-inf", NEUMANN, 1.0, False),
             ("zero-inf", make_u2(math.pi / 2, 1j, 0.0), -1.0, True),
             ("inf-zero", make_u2(math.pi / 2, -1j, 0.0), 1.0, True)]

    @pytest.mark.parametrize("name, p, mirror_sign, alternating", WALLS, ids=[w[0] for w in WALLS])
    def test_separated_lists_hold_only_the_summed_terms(self, name, p, mirror_sign, alternating):
        taus = [_tau(0.1), _tau(0.5)]
        short, long_ = (images_needed(G1, tau) for tau in taus)
        a, b = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4), indexing="ij", sparse=True)
        for n_img in (long_, long_ + 1):  # one odd count and one even
            terms = build_image_terms(p, G1, n_img)
            assert len(terms.weight) == 2 * (2 * (n_img // 2) + 1)
            # every term the cut |shift| <= n_images l keeps, and the terms beyond it
            nu = np.repeat(np.arange(-n_img, n_img + 1), 2)
            mirror = np.tile([False, True], 2 * n_img + 1)
            weight = np.where(mirror, mirror_sign, 1.0) * ((-1.0) ** nu if alternating else 1.0)
            full = KernelTermList(weight, mirror, 2.0 * nu * G1.l, G1)
            for counts in (n_img, [short, n_img]):
                assert np.array_equal(image_heat_kernel(terms, a, b, taus, counts),
                                      image_heat_kernel(full, a, b, taus, counts))

    @pytest.mark.parametrize("p", [w[1] for w in WALLS] + [PLUS_POLE, PERIODIC],
                             ids=[w[0] for w in WALLS] + ["plus-pole", "minus-pole"])
    def test_equal_the_one_term_loop(self, p):
        for n_img in range(1, 41):
            terms = build_image_terms(p, G1, n_img)
            weight, mirror, shift = _loop_terms(p, G1, n_img)
            assert (terms.weight.dtype, terms.mirror.dtype, terms.shift.dtype) == (complex, bool, float)
            assert np.array_equal(terms.weight, weight)
            assert np.array_equal(terms.mirror, mirror) and np.array_equal(terms.shift, shift)

    def test_sphere_agrees_with_the_one_term_loop(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            p = scale_invariant_point(rng, beta_im_margin=1e-3)
            for n_img in range(1, 41):
                terms = build_image_terms(p, G1, n_img)
                weight, mirror, shift = _loop_terms(p, G1, n_img)
                assert np.array_equal(terms.mirror, mirror) and np.array_equal(terms.shift, shift)
                assert np.max(np.abs(terms.weight - weight)) <= 1e-15 * np.max(np.abs(weight))

    def test_record_is_validated(self):
        terms = KernelTermList([1, 2], [0, 1], [0, 1], G1)
        assert (terms.weight.dtype, terms.mirror.dtype, terms.shift.dtype) == (complex, bool, float)
        for bad in (([1, 2], [0], [0, 1]), ([1], [0], [0, 1]), ([[1]], [[0]], [[0]]), (1, 0, 0)):
            with pytest.raises(ConstraintError):
                KernelTermList(*bad, G1)

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
            assert np.max(np.abs(terms.weight)) <= 2.0 + 1e-12

    def test_separated_route_agrees_with_winding_route(self):
        # the intersection point alpha = i sits in both families; the
        # separated (inf-0 wall) terms and the winding weights must produce
        # the same kernel
        p = make_u2(math.pi / 2, 1j, 0.0)
        tau = _tau(0.15)
        n_img = images_needed(G1, tau)
        terms_sep = build_image_terms(p, G1, n_img)
        c = scale_invariant_coefficients(p, G1, +1, 0)
        nu = np.arange(-n_img, n_img + 1)
        cn, dn = image_pair_weights(c, math.pi / 2, nu)
        terms_wind = KernelTermList(np.concatenate([G1.l * cn, -G1.l * dn]),
                                    np.repeat([False, True], len(nu)), np.tile(nu * G1.l, 2), G1)
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
