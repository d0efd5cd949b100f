import math
from dataclasses import replace

import numpy as np
import pytest

from pointspec import (
    BoxGeometry,
    ConstraintError,
    ContradictionError,
    Mode,
    RootNotFoundError,
    Spectrum,
    SubfamilyError,
    ZeroFunctionError,
    boundary_data,
    boundary_residual,
    eigenbasis,
    find_negative_roots,
    find_positive_roots,
    make_u2,
    mode_inner,
    negative_mode,
    normalize,
    probability_current,
    scale_invariant_coefficients,
    scale_invariant_mode,
    solve_coefficients,
    spectrum,
    zero_mode,
)
from pointspec import eigenstates
from helpers import haar_point, scale_invariant_point

RNG = np.random.default_rng(20240813)

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)
DIRICHLET = make_u2(0.0, -1.0, 0.0)
NEUMANN = make_u2(0.0, 1.0, 0.0)


class TestBoundaryData:
    def test_sine_mode(self):
        m = Mode("positive", math.pi, 1 / 2j, -1 / 2j)  # sin(pi x)
        bd = boundary_data(m, G1)
        assert np.allclose(bd.psi_vec, [0.0, 0.0], atol=1e-15)
        assert np.allclose(bd.dpsi_vec, [math.pi, math.pi], atol=1e-12)

    def test_constant_mode(self):
        m = Mode("zero", None, 0.0, 0.7)
        bd = boundary_data(m, G1)
        assert np.allclose(bd.psi_vec, [0.7, 0.7])
        assert np.allclose(bd.dpsi_vec, [0.0, 0.0])

    def test_decaying_exponential(self):
        m = Mode("negative", 1.0, 0.0, 1.0)
        bd = boundary_data(m, G1)
        assert np.allclose(bd.psi_vec, [1.0, math.exp(-1)])
        assert np.allclose(bd.dpsi_vec, [-1.0, math.exp(-1)])


class TestBoundaryResidual:
    def test_dirichlet_sines(self):
        for n in (1, 2, 5):
            m = Mode("positive", n * math.pi, 1 / 2j, -1 / 2j)
            assert boundary_residual(m, DIRICHLET, G1) < 1e-12

    def test_neumann_cosines(self):
        for n in (1, 3):
            m = Mode("positive", n * math.pi, 0.5, 0.5)
            assert boundary_residual(m, NEUMANN, G1) < 1e-12

    def test_cosine_violates_dirichlet(self):
        m = Mode("positive", math.pi, 0.5, 0.5)
        assert boundary_residual(m, DIRICHLET, G1) > 0.1


class TestSolveCoefficients:
    def test_dirichlet_sine(self):
        for n in (1, 2, 3):
            modes = solve_coefficients(DIRICHLET, G1, n * math.pi)
            assert len(modes) == 1
            x = np.linspace(0, 1, 11)
            ref = math.sqrt(2) * np.sin(n * math.pi * x)
            assert np.max(np.abs(modes[0].psi(x) - ref)) < 1e-10

    def test_degenerate_rank_two(self):
        p = make_u2(math.pi / 2, 0.0, 1j)
        modes = solve_coefficients(p, G1, math.pi)
        assert len(modes) == 2
        assert abs(mode_inner(modes[0], modes[1], G1)) < 1e-12
        for m in modes:
            assert abs(mode_inner(m, m, G1) - 1) < 1e-12
            assert boundary_residual(m, p, G1) < 1e-9

    def test_smooth_circle_plane_wave(self):
        p = make_u2(math.pi / 2, 0.0, -1.0)  # twist pi/2
        (m,) = solve_coefficients(p, G1, math.pi / 2)
        # plane wave: |psi| constant, one coefficient negligible
        x = np.linspace(0, 1, 9)
        assert np.ptp(np.abs(m.psi(x))) < 1e-9
        assert min(abs(m.coeff_a), abs(m.coeff_b)) < 1e-9

    def test_not_a_root(self):
        with pytest.raises(RootNotFoundError):
            solve_coefficients(DIRICHLET, G1, 1.234)

    def test_matches_root_multiplicity(self):
        for _ in range(25):
            p = haar_point(RNG, L0=1.0)
            roots = find_positive_roots(p, G1, 15.0)
            for k, mult in roots:
                modes = solve_coefficients(p, G1, k)
                assert len(modes) == mult
                for m in modes:
                    assert boundary_residual(m, p, G1) < 1e-9
                if mult == 2:
                    assert abs(mode_inner(modes[0], modes[1], G1)) < 1e-9


class TestZeroMode:
    def test_neumann_constant(self):
        m = zero_mode(NEUMANN, G1)
        assert abs(m.psi(0.3) - 1.0) < 1e-12
        assert boundary_residual(m, NEUMANN, G1) < 1e-12

    def test_scale_invariant_pole_constant(self):
        p = make_u2(math.pi / 2, 0.0, -1j)
        m = zero_mode(p, G1)
        x = np.linspace(0, 1, 7)
        assert np.max(np.abs(m.psi(x) - 1.0)) < 1e-7

    def test_constant_value_scales_with_length(self):
        g = BoxGeometry(l=4.0)
        m = zero_mode(NEUMANN, g)
        assert abs(m.psi(1.0) - 0.5) < 1e-12

    def test_dirichlet_refuses(self):
        with pytest.raises(SubfamilyError):
            zero_mode(DIRICHLET, G1)


class TestNegativeMode:
    def test_symmetric_pair_parity(self):
        p = make_u2(math.pi / 2, 1.0, 0.0)
        g = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)
        roots = find_negative_roots(p, g)
        assert len(roots) == 2
        modes = [negative_mode(p, g, k) for k, _ in roots]
        x = np.linspace(0, 10, 101)
        for m in modes:
            assert boundary_residual(m, p, g) < 1e-9
        # U commutes with parity here, so the two modes have opposite parity
        sym = [np.max(np.abs(m.psi(x) - s * m.psi(10 - x))) for m, s in
               [(modes[0], 1), (modes[1], -1)]]
        alt = [np.max(np.abs(m.psi(x) - s * m.psi(10 - x))) for m, s in
               [(modes[0], -1), (modes[1], 1)]]
        assert min(max(sym), max(alt)) < 1e-6

    def test_wall_shape(self):
        p = make_u2(math.pi / 2, 1.0, 0.0)
        g = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)
        (k1, _), _ = find_negative_roots(p, g)
        m = negative_mode(p, g, k1)
        # dominated by exp(-kx) + exp(-k(l-x)) near the walls
        assert abs(m.psi(5.0)) < abs(m.psi(0.0))

    def test_no_root_errors(self):
        with pytest.raises(RootNotFoundError):
            negative_mode(DIRICHLET, G1, 1.0)


class TestEigenbasis:
    def test_levels_carry_all_their_modes(self):
        # the Im beta = -1 pole: a zero mode under a doubly degenerate ladder
        p = make_u2(math.pi / 2, 0.0, -1j)
        basis = eigenbasis(p, G1, 4)
        assert [lv for lv, _ in basis] == list(spectrum(p, G1, 4).levels)
        assert [len(modes) for _, modes in basis] == [1, 2, 2, 2]
        for lv, modes in basis:
            assert all(m.sector == lv.sector for m in modes)
            assert all(boundary_residual(m, p, G1) < 1e-9 for m in modes)

    def test_rank_disagreeing_with_multiplicity_raises(self, monkeypatch):
        spec = spectrum(DIRICHLET, G1, 1)
        doubled = Spectrum((replace(spec.levels[0], multiplicity=2),), spec.k_max)
        monkeypatch.setattr(eigenstates, "spectrum", lambda p, g, n: doubled)
        with pytest.raises(ContradictionError, match="nullspace rank"):
            eigenbasis(DIRICHLET, G1, 1)


class TestScaleInvariantClosedForms:
    def test_smooth_circle_coefficients(self):
        for theta in (0.4, math.pi / 2, 2.5):
            beta = complex(-math.sin(theta), -math.cos(theta))
            p = make_u2(math.pi / 2, 0.0, beta)
            c = scale_invariant_coefficients(p, G1, +1, 0)
            assert abs(abs(c.a_plus) - 1.0) < 1e-12
            assert abs(c.a_minus) < 1e-12

    def test_degenerate_pole_rejected(self):
        p = make_u2(math.pi / 2, 0.0, 1j)
        with pytest.raises(ConstraintError):
            scale_invariant_coefficients(p, G1, +1, 0)

    def test_alpha_branch_point_rejected(self):
        p = make_u2(math.pi / 2, -1j, 0.0)
        with pytest.raises(ConstraintError):
            scale_invariant_coefficients(p, G1, +1, 0)

    def test_bad_branch_index(self):
        p = scale_invariant_point(RNG, beta_im_margin=0.05)
        with pytest.raises(ConstraintError):
            scale_invariant_coefficients(p, G1, +1, -1)
        with pytest.raises(ConstraintError):
            scale_invariant_coefficients(p, G1, -1, 0)

    def test_off_sphere_rejected(self):
        with pytest.raises(SubfamilyError):
            scale_invariant_coefficients(DIRICHLET, G1, +1, 0)

    def test_reproduces_nullspace_modes(self):
        for _ in range(20):
            p = scale_invariant_point(RNG, beta_im_margin=0.05)
            for s, n in ((+1, 0), (+1, 1), (-1, -1), (-1, -2)):
                cm = scale_invariant_mode(p, G1, s, n)
                assert abs(mode_inner(cm, cm, G1) - 1) < 1e-10
                (sm,) = solve_coefficients(p, G1, cm.parameter)
                assert abs(mode_inner(cm, sm, G1)) > 1 - 1e-9

    def test_wall_intersection_point(self):
        # alpha = +i is also a separated point (walls 0, inf); the closed
        # form stays valid there and gives equal amplitudes 1/sqrt(2 l)
        p = make_u2(math.pi / 2, 1j, 0.0)
        c = scale_invariant_coefficients(p, G1, +1, 0)
        assert c.a_plus == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert c.a_minus == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        cm = scale_invariant_mode(p, G1, +1, 0)
        (sm,) = solve_coefficients(p, G1, cm.parameter)
        assert abs(mode_inner(cm, sm, G1)) > 1 - 1e-9
        # and the assembled mode is the half-integer sine of the mixed box
        x = np.linspace(0, 1, 9)
        ref = math.sqrt(2) * np.sin(math.pi * x / 2)
        phase = cm.psi(0.5) / ref[4]
        assert np.max(np.abs(cm.psi(x) - phase * ref)) < 1e-12


class TestNormalize:
    def test_sine_scaling(self):
        m = normalize(Mode("positive", math.pi, 1 / 2j, -1 / 2j), G1)
        # unit norm and positive slope at the left wall
        assert abs(mode_inner(m, m, G1) - 1) < 1e-12
        assert m.dpsi(0.0).real > 0 and abs(m.dpsi(0.0).imag) < 1e-12

    def test_plane_wave_unchanged(self):
        m = Mode("positive", 2.0, 1.0, 0.0)
        out = normalize(m, G1)
        assert out.coeff_a == pytest.approx(1.0)
        assert out.coeff_b == 0

    def test_quadrature_cross_check(self):
        for _ in range(10):
            p = haar_point(RNG, L0=1.0)
            k = find_positive_roots(p, G1, 10.0)[0][0]
            m = solve_coefficients(p, G1, k)[0]
            x = np.linspace(0, 1, 20001)
            num = np.trapezoid(np.abs(m.psi(x)) ** 2, x)
            assert num == pytest.approx(1.0, abs=1e-8)

    def test_zero_function_error(self):
        m = Mode("positive", 1.0, 1e-200, 0.0)
        with pytest.raises(ZeroFunctionError):
            normalize(m, BoxGeometry(l=1.0))


class TestProbabilityCurrent:
    def test_real_standing_wave_zero(self):
        m = Mode("positive", math.pi, 0.5, 0.5)
        x = np.linspace(0, 1, 9)
        assert np.max(np.abs(probability_current(m, G1, x))) < 1e-14

    def test_plane_wave_value(self):
        m = Mode("positive", 2.0, 1.0, 0.0)  # exp(2ix), |psi|^2 = 1
        j = probability_current(m, G1, 0.5)
        assert j == pytest.approx(G1.hbar * 2.0 / G1.mass)

    def test_separated_modes_block_current(self):
        p = make_u2(1.1, np.exp(0.6j), 0.0, 2.0)
        k = find_positive_roots(p, G1, 12.0)[0][0]
        m = solve_coefficients(p, G1, k)[0]
        assert abs(probability_current(m, G1, 0.0)) < 1e-10
        assert abs(probability_current(m, G1, 1.0)) < 1e-10

    def test_global_conservation(self):
        for _ in range(15):
            p = haar_point(RNG, L0=1.0)
            for k, _m in find_positive_roots(p, G1, 8.0):
                for m in solve_coefficients(p, G1, k):
                    j0 = probability_current(m, G1, 0.0)
                    jl = probability_current(m, G1, 1.0)
                    assert abs(j0 - jl) < 1e-10

    def test_domain_check(self):
        m = Mode("positive", 1.0, 1.0, 0.0)
        with pytest.raises(ConstraintError):
            probability_current(m, G1, 1.5)


class TestOrthogonality:
    def test_distinct_levels_orthogonal(self):
        for _ in range(8):
            p = haar_point(RNG, L0=1.0)
            spec = spectrum(p, G1, 6)
            modes = []
            for lv in spec.levels:
                if lv.sector == "positive":
                    modes.extend(solve_coefficients(p, G1, lv.parameter))
                elif lv.sector == "zero":
                    modes.append(zero_mode(p, G1))
                else:
                    modes.append(negative_mode(p, G1, lv.parameter))
            for i in range(len(modes)):
                for j in range(i + 1, len(modes)):
                    assert abs(mode_inner(modes[i], modes[j], G1)) < 1e-8
