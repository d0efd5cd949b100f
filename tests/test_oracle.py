import math

import numpy as np
import pytest
import scipy.sparse as sp

from pointspec import (
    BoxGeometry,
    ConstraintError,
    FdConfig,
    fd_spectrum,
    make_u2,
    spectrum,
    to_matrix,
)
from pointspec import oracle
from helpers import haar_point

RNG = np.random.default_rng(20240816)

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)
DIRICHLET = make_u2(0.0, -1.0, 0.0)
NEUMANN = make_u2(0.0, 1.0, 0.0)


class TestFdConfig:
    def test_min_points(self):
        with pytest.raises(ConstraintError):
            FdConfig(n_points=8)

    def test_levels_far_below_points(self):
        with pytest.raises(ConstraintError):
            fd_spectrum(DIRICHLET, G1, FdConfig(n_points=16), 10)


class TestGoldenCases:
    def test_dirichlet_ground(self):
        vals = fd_spectrum(DIRICHLET, G1, FdConfig(n_points=2000), 3)
        for n, v in enumerate(vals, start=1):
            assert v == pytest.approx((n * math.pi) ** 2, rel=1e-3)

    def test_neumann_zero_mode(self):
        vals = fd_spectrum(NEUMANN, G1, FdConfig(n_points=2000), 2)
        assert abs(vals[0]) < 1e-6
        assert vals[1] == pytest.approx(math.pi**2, rel=1e-3)

    def test_symmetric_negative_pair(self):
        p = make_u2(math.pi / 2, 1.0, 0.0)
        g = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)
        vals = fd_spectrum(p, g, FdConfig(n_points=4000), 2)
        assert vals[0] == pytest.approx(-1.0, abs=2e-3)
        assert vals[1] == pytest.approx(-1.0, abs=2e-3)
        assert vals[0] < vals[1] < 0

    def test_isospectral_sphere_bound_state(self):
        # independent confirmation that those points carry a bound state
        p = make_u2(0.0, 0.6 + 0.8j, 0.0)
        vals = fd_spectrum(p, G1, FdConfig(n_points=3000), 1)
        kappa = math.sqrt((1 - 0.6) / (1 + 0.6))
        assert vals[0] == pytest.approx(-(kappa**2), rel=1e-4)


class TestRichardson:
    def test_second_order_convergence(self):
        exact = math.pi**2
        e_n = abs(fd_spectrum(DIRICHLET, G1, FdConfig(n_points=500), 1)[0] - exact)
        e_2n = abs(fd_spectrum(DIRICHLET, G1, FdConfig(n_points=1000), 1)[0] - exact)
        assert 3.2 <= e_n / e_2n <= 4.8

    def test_second_order_on_robin_walls(self):
        p = make_u2(1.1, np.exp(0.6j), 0.0, 2.0)
        ref = spectrum(p, G1, 1).levels[0].energy
        e_n = abs(fd_spectrum(p, G1, FdConfig(n_points=500), 1)[0] - ref)
        e_2n = abs(fd_spectrum(p, G1, FdConfig(n_points=1000), 1)[0] - ref)
        assert 3.0 <= e_n / e_2n <= 5.0


class TestAgainstTranscendental:
    def test_random_points(self):
        for _ in range(6):
            p = haar_point(RNG, L0=1.0)
            spec = spectrum(p, G1, 5)
            exact = []
            for lv in spec.levels:
                exact.extend([lv.energy] * lv.multiplicity)
            exact = exact[:5]
            fd = fd_spectrum(p, G1, FdConfig(n_points=2000), 5)
            floor = G1.energy_scale
            for e_fd, e_tr in zip(fd, exact):
                assert abs(e_fd - e_tr) <= 5e-3 * max(abs(e_tr), floor)

    def test_explicit_shift_respected(self):
        vals = fd_spectrum(DIRICHLET, G1, FdConfig(n_points=600, shift=-5.0), 2)
        assert vals[0] == pytest.approx(math.pi**2, rel=1e-3)


def _lil_matrix(p, g, n_points):
    """The reduced matrix built as LIL with the eight corner entries edited in place."""
    n_cells = n_points + 1
    h = g.l / n_cells
    t = g.hbar**2 / (2.0 * g.mass * h * h)
    U = to_matrix(p)
    eye2 = np.eye(2)
    B = (U - eye2) - (3j * p.L0 / (2.0 * h)) * (U + eye2)
    W = -1j * p.L0 * np.linalg.solve(B, (U + eye2))
    main = np.full(n_points, 2.0 * t, dtype=complex)
    off = np.full(n_points - 1, -t, dtype=complex)
    H = sp.diags([off, main, off], [-1, 0, 1], format="lil", dtype=complex)
    iA, iB = 0, n_points - 1
    for row, (w0, w1) in ((iA, W[0]), (iB, W[1])):
        H[row, iA] += -t * w0 * (4.0 / (2.0 * h))
        H[row, iA + 1] += -t * w0 * (-1.0 / (2.0 * h))
        H[row, iB] += -t * w1 * (4.0 / (2.0 * h))
        H[row, iB - 1] += -t * w1 * (-1.0 / (2.0 * h))
    return H.tocsc()


class TestAssembly:
    POINTS = [
        ("haar", haar_point(np.random.default_rng(11), L0=1.0)),
        ("dirichlet-dirichlet", DIRICHLET),
        ("twisted-circle", make_u2(math.pi / 2, 0.0, complex(math.sin(0.3 * math.pi), -math.cos(0.3 * math.pi)))),
        ("plus-pole", make_u2(math.pi / 2, 0.0, 1j)),
    ]

    @pytest.mark.parametrize("n_points", [64, 40000])
    @pytest.mark.parametrize("name, p", POINTS, ids=[c[0] for c in POINTS])
    def test_matches_lil_build(self, name, p, n_points):
        H, ref = oracle._reduced_matrix(p, G1, n_points), _lil_matrix(p, G1, n_points)
        assert H.format == "csc" and H.has_sorted_indices
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(H, attr), getattr(ref, attr))
