import cmath
import math

import numpy as np
import pytest
import scipy.sparse as sp
from mpmath import mp

from pointspec import (
    BoxGeometry,
    ConstraintError,
    FdConfig,
    direction_lengths,
    fd_spectrum,
    make_u2,
    spectra,
    spectrum,
    to_matrix,
)
from pointspec import oracle
from pointspec.spectral import MAX_LEVELS, negative_search_ceiling
from helpers import haar_point

RNG = np.random.default_rng(20240816)

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)
DIRICHLET = make_u2(0.0, -1.0, 0.0)
NEUMANN = make_u2(0.0, 1.0, 0.0)
TWISTED_CIRCLE = make_u2(math.pi / 2, 0.0, complex(math.sin(0.3 * math.pi), -math.cos(0.3 * math.pi)))
PLUS_POLE = make_u2(math.pi / 2, 0.0, 1j)
MINUS_POLE = make_u2(math.pi / 2, 0.0, -1j)
# the first point of the oracle-fd benchmark workload, which it runs at N = 40000
BENCH_POINT = make_u2(0.14344562592957516, complex(-0.6688872413649128, 0.5962126183952385),
                      complex(0.4397302543359999, -0.06129988113469101), 7.036861128273138)
BENCH_GEOMETRY = BoxGeometry(l=1.5217103872897293, hbar=1.0, mass=0.5074474440282601)
# oracle-fd seed 1 operation 52, where the count reads 1,1,2,2,1,2,... across the level -2.8274486
NOISY_COUNT_POINT = make_u2(2.450654701452133, complex(0.9070465146167633, 0.20263664796822436),
                            complex(0.2672915967057388, -0.25448027733457146), 0.9930965913308977)
NOISY_COUNT_GEOMETRY = BoxGeometry(l=1.3759687218872436, hbar=1.0, mass=0.5408308402597513)


class TestFdConfig:
    def test_min_points(self):
        with pytest.raises(ConstraintError):
            FdConfig(n_points=8)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_shift_must_be_finite(self, shift):
        # a search bracket at a non-finite shift never closes
        with pytest.raises(ConstraintError, match="shift must be finite"):
            FdConfig(n_points=64, shift=shift)

    def test_levels_far_below_points(self):
        with pytest.raises(ConstraintError):
            fd_spectrum(DIRICHLET, G1, FdConfig(n_points=16), 10)

    def test_levels_limit(self, monkeypatch):
        # over spectral's MAX_LEVELS, refused before the count is built, whatever the grid
        def refuse(*args):
            raise AssertionError("the refused request reached the count")

        monkeypatch.setattr(oracle, "_level_count", refuse)
        with pytest.raises(ConstraintError, match="n_levels must be at most"):
            fd_spectrum(DIRICHLET, G1, FdConfig(n_points=10**9), MAX_LEVELS + 1)


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


class TestEigensolverAccuracy:
    @pytest.mark.parametrize("n_points", [4000, 40000])
    def test_dirichlet_matches_the_discrete_levels(self, n_points):
        # at the Dirichlet point the matrix is the bare tridiagonal, whose levels are known
        # in closed form: the count's own error, far below the grid's O(h^2)
        h = G1.l / (n_points + 1)
        t = G1.hbar**2 / (2.0 * G1.mass * h * h)
        j = np.arange(1, 9)
        # 2t (1 - cos x) written without its cancellation, which costs 1e-8 at N = 40000
        exact = 4.0 * t * np.sin(j * math.pi / (2 * (n_points + 1))) ** 2
        vals = fd_spectrum(DIRICHLET, G1, FdConfig(n_points=n_points), 8)
        assert np.max(np.abs(vals - exact) / exact) <= 1e-13

    def test_default_shift_matches_a_shift_below_the_lowest_level(self):
        # oracle-fd benchmark point: where the shift sits below the levels moves only their last bits
        p, g = BENCH_POINT, BENCH_GEOMETRY
        vals = fd_spectrum(p, g, FdConfig(n_points=40000), 8)
        shift = vals[0] - max(0.1 * abs(vals[0]), g.energy_scale)
        ref = fd_spectrum(p, g, FdConfig(n_points=40000, shift=shift), 8)
        assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 3e-8

    # the poles' levels above the lowest come in pairs: at Im beta = +1 an odd count cuts
    # one, at Im beta = -1, whose lowest level is simple, an even count does
    TIGHT_CASES = [
        ("oracle-fd", BENCH_POINT, BENCH_GEOMETRY, 40000, 8),
        ("noisy-count", NOISY_COUNT_POINT, NOISY_COUNT_GEOMETRY, 40000, 8),
        ("haar-bound-state", haar_point(np.random.default_rng(1), L0=1.0), G1, 4000, 8),
        ("twisted-circle", TWISTED_CIRCLE, G1, 4000, 8),
        ("dirichlet-neumann", make_u2(math.pi / 2, 1j, 0.0), G1, 4000, 8),
    ] + [(f"{name}-{n}", p, G1, 4000, n)
         for name, p in (("plus-pole", PLUS_POLE), ("minus-pole", MINUS_POLE)) for n in range(2, 8)]

    @pytest.mark.parametrize("name, p, g, n_points, n_levels", TIGHT_CASES, ids=[c[0] for c in TIGHT_CASES])
    def test_matches_a_tight_reference(self, name, p, g, n_points, n_levels):
        # the 40-digit count puts exactly j levels below v_j - tol and j + 1 below v_j + tol
        count = _mp_level_count(p, g, n_points)
        vals = fd_spectrum(p, g, FdConfig(n_points=n_points), n_levels)
        for j, v in enumerate(vals):
            tol = 2e-10 * max(abs(v), g.energy_scale)
            assert count(v - tol) <= j < count(v + tol)

    DENSE_CASES = [c[:3] for c in TIGHT_CASES if c[4] in (2, 8)]  # each point once

    @pytest.mark.parametrize("name, p, g", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
    def test_matches_dense_levels(self, name, p, g):
        ref = np.sort(np.linalg.eigvals(_lil_matrix(p, g, 16).toarray()).real)[:4]
        vals = fd_spectrum(p, g, FdConfig(n_points=16), 4)
        assert np.max(np.abs(vals - ref) / np.maximum(np.abs(ref), g.energy_scale)) <= 1e-12

    def test_count_budget(self, monkeypatch):
        # each pass reads the count once for every bracket and narrows each 16-fold;
        # halving took 57 reads at this point
        reads = 0
        level_count = oracle._level_count

        def counting(*args):
            count = level_count(*args)

            def read(x):
                nonlocal reads
                reads += 1
                return count(x)

            return read

        monkeypatch.setattr(oracle, "_level_count", counting)
        fd_spectrum(BENCH_POINT, BENCH_GEOMETRY, FdConfig(n_points=40000), 8)
        assert reads <= 20

    def test_repeated_calls_are_bit_identical(self):
        p = haar_point(np.random.default_rng(7), L0=1.0)
        first = fd_spectrum(p, G1, FdConfig(n_points=4000), 5)
        second = fd_spectrum(p, G1, FdConfig(n_points=4000), 5)
        assert np.array_equal(first, second)

    SHIFT_CASES = [
        # 17 points, h = 1/18, t = 18^2: 2t is the middle Dirichlet level, flanked by two at equal distance
        ("band-middle", DIRICHLET, 17, 2.0 * 18.0**2),
        # attractive walls of Robin length 0.6 h put a double level at 14.3 t, above the chain's band
        ("above-the-band", make_u2(math.pi - 2.0 * math.atan(0.6 / 17.0), 1.0, 0.0), 16, 50.0 * 17.0**2),
    ]

    @pytest.mark.parametrize("name, p, n_points, sigma", SHIFT_CASES, ids=[c[0] for c in SHIFT_CASES])
    def test_explicit_shift_keeps_the_nearest_levels(self, name, p, n_points, sigma):
        ref = np.linalg.eigvals(_lil_matrix(p, G1, n_points).toarray()).real
        ref = np.sort(ref[np.argsort(np.abs(ref - sigma))[:3]])
        vals = fd_spectrum(p, G1, FdConfig(n_points=n_points, shift=sigma), 3)
        assert np.max(np.abs(vals - ref) / ref) <= 1e-12


class TestDefaultShift:
    def test_kappa_star_bounds_every_listed_bound_state(self):
        # Kostrykin-Schrader: only U's attractive directions bind, none deeper than kappa*
        rng = np.random.default_rng(7)
        points = [haar_point(rng, L0=10.0 ** rng.uniform(-1.5, 1.5)) for _ in range(2000)]
        esc = G1.hbar**2 / (2.0 * G1.mass)
        bound = 0
        for p, spec in zip(points, spectra(points, G1, 2)):
            lam = max((1.0 / L for L in direction_lengths(p) if 0.0 < L < math.inf), default=0.0)
            kappa_star = lam / math.tanh(0.5 * lam * G1.l) if lam else 0.0
            for lv in spec.levels:
                if lv.sector == "negative":
                    bound += 1
                    # equality up to the root's rounding where one direction binds alone, deep
                    assert lv.parameter <= kappa_star * (1.0 + 1e-12)
                    assert esc * lv.parameter**2 <= oracle._robin_depth(p, G1, 40000)
        assert bound > 500

    def test_window_shift_kept_where_spectral_misses_bound_states(self):
        # acceptance criterion 9's draws 8 and 10: the oracle sees no deeper than spectral
        rng = np.random.default_rng(141421)
        draws = [haar_point(rng, L0=1.0) for _ in range(11)]
        for p in (draws[8], draws[10]):
            window = -1.1 * (negative_search_ceiling(p, G1) / G1.l) ** 2 - G1.energy_scale
            assert oracle._robin_depth(p, G1, 4000) > -window
            assert oracle._default_shift(p, G1, 4000) == window


def _wall_weights(p, g, n_points):
    """h, t, the wall-elimination matrix B, and W, with (psi_0, psi_N) = W (r0, rN)."""
    h = g.l / (n_points + 1)
    t = g.hbar**2 / (2.0 * g.mass * h * h)
    U = to_matrix(p)
    eye2 = np.eye(2)
    B = (U - eye2) - (3j * p.L0 / (2.0 * h)) * (U + eye2)
    return h, t, B, -1j * p.L0 * np.linalg.solve(B, (U + eye2))


def _lil_matrix(p, g, n_points):
    """The reduced matrix built as LIL with the eight corner entries edited in place."""
    h, t, _, W = _wall_weights(p, g, n_points)
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


def _mp_level_count(p, g, n_points):
    """x -> the number of levels below x, counted in 40 digits on the wall rows.

    Sylvester's law on G (H - x): the interior chain T_M = t (-1, 2, -1), with
    T_M - x singular at 4t sin^2(j pi / 2(M+1)), and the Schur complement
    Gamma (H_BB - x) - t^2 C(x) onto the wall rows, C the chain's corner
    Green's function, t C = [[sin M theta, sin theta], [sin theta, sin M theta]]
    / sin((M+1) theta) with cos theta = 1 - x / 2t (complex outside the band).
    """
    h, t, _, W = _wall_weights(p, g, n_points)
    m = n_points - 2
    with mp.workdps(40):
        t = mp.mpf(t)
        rho = mp.matrix([[mp.mpc(complex(w)) for w in row] for row in W]) * (-t / (2 * mp.mpf(h)))
        gamma = t * (t * mp.eye(2) + rho) ** -1
        h_bb = 2 * t * mp.eye(2) + 4 * rho

    def count(x):
        with mp.workdps(40):
            x = mp.mpf(x)
            theta = mp.acos(1 - x / (2 * t))
            a, b = (mp.sin(m * theta) / mp.sin((m + 1) * theta)).real, (mp.sin(theta) / mp.sin((m + 1) * theta)).real
            X = gamma * (h_bb - x * mp.eye(2)) - t * mp.matrix([[a, b], [b, a]])
            mid = (X[0, 0].real + X[1, 1].real) / 2
            rad = mp.sqrt(((X[0, 0].real - X[1, 1].real) / 2) ** 2 + abs(X[0, 1] + mp.conj(X[1, 0])) ** 2 / 4)
            if x <= 0:
                chain = 0
            elif x >= 4 * t:
                chain = m
            else:
                chain = int(mp.ceil((m + 1) * 2 * mp.asin(mp.sqrt(x / (4 * t))) / mp.pi)) - 1
            return chain + int(mid + rad < 0) + int(mid - rad < 0)

    return count


class TestAssembly:
    POINTS = [
        ("haar", haar_point(np.random.default_rng(11), L0=1.0)),
        ("dirichlet-dirichlet", DIRICHLET),
        ("twisted-circle", TWISTED_CIRCLE),
        ("plus-pole", PLUS_POLE),
    ]

    @pytest.mark.parametrize("n_points", [64, 40000])
    @pytest.mark.parametrize("name, p", POINTS, ids=[c[0] for c in POINTS])
    def test_matches_lil_build(self, name, p, n_points):
        # the wall rows (0, N-1) couple to themselves and to the chain's ends (1, N-2) only
        h_bb, gamma = oracle._wall_blocks(p, G1, n_points)
        _, t = oracle._grid(G1, n_points)
        walls, ends = [0, n_points - 1], [1, n_points - 2]
        rows = _lil_matrix(p, G1, n_points)[walls].toarray()
        ref_bb, ref_bi = rows[:, walls], rows[:, ends]
        assert np.max(np.abs(h_bb - ref_bb)) <= 1e-14 * np.max(np.abs(ref_bb))
        # Gamma H_BI is the chain's -t, so G H is Hermitian across the wall rows and the interior
        assert np.max(np.abs(gamma @ ref_bi + t * np.eye(2))) <= 1e-14 * t
        rows[:, walls + ends] = 0.0
        assert not rows.any()


class TestWeightedSelfAdjoint:
    """G H is Hermitian for a positive definite G, so every level of H is real.

    With rho = (-t / 2h) W the weights of the wall values in the rows of psi_1
    and psi_{N-1}, G is the identity with Gamma = t (t I + rho)^-1 on the rows
    and columns (0, N-1).  Gamma has the eigenvalue (3L - 2h) / (2(L - h)) along
    a Robin direction of length L: 1 at a Dirichlet and 3/2 at a Neumann wall.
    """

    POINTS = TestAssembly.POINTS + [("minus-pole", MINUS_POLE)]

    @pytest.mark.parametrize("n_points", [64, 40000])
    @pytest.mark.parametrize("name, p", POINTS, ids=[c[0] for c in POINTS])
    def test_weighted_matrix_is_hermitian(self, name, p, n_points):
        h, t, B, W = _wall_weights(p, G1, n_points)
        gamma = t * np.linalg.inv(t * np.eye(2) + (-t / (2.0 * h)) * W)
        # W's solve loses the condition number of B to rounding
        tol = 1e-15 * np.linalg.cond(B)
        ends = [0, 0, n_points - 1, n_points - 1], [0, n_points - 1, 0, n_points - 1]
        G = sp.identity(n_points, dtype=complex) + sp.coo_matrix(((gamma - np.eye(2)).ravel(), ends),
                                                                 shape=(n_points, n_points))
        GH = (G @ _lil_matrix(p, G1, n_points)).tocsr()
        assert abs(GH - GH.conj().T).max() <= tol * abs(GH).max()
        assert np.max(np.abs(gamma - gamma.conj().T)) <= tol
        expected = sorted(1.5 if L == math.inf else (3.0 * L - 2.0 * h) / (2.0 * (L - h))
                          for L in direction_lengths(p))
        eig = np.linalg.eigvalsh(0.5 * (gamma + gamma.conj().T))
        assert np.max(np.abs(eig - expected)) <= tol
        assert eig[0] > 0.0

    @pytest.mark.parametrize("name, p", POINTS, ids=[c[0] for c in POINTS])
    def test_levels_are_real(self, name, p):
        vals = np.linalg.eigvals(_lil_matrix(p, G1, 64).toarray())
        assert np.max(np.abs(vals.imag)) <= 1e-14 * np.max(np.abs(vals))


class TestLevelCount:
    POINTS = TestWeightedSelfAdjoint.POINTS

    @pytest.mark.parametrize("name, p", POINTS, ids=[c[0] for c in POINTS])
    def test_matches_dense_count(self, name, p):
        n_points = 64
        levels = np.sort(np.linalg.eigvals(_lil_matrix(p, G1, n_points).toarray()).real)
        _, t = oracle._grid(G1, n_points)
        m = n_points - 2
        # negative energies, the midpoints of the gaps that are not a double level's rounding,
        # and the chain's Dirichlet energies, where its corner Green's function has its poles
        gaps = np.diff(levels) > 1e-8 * np.abs(levels[1:])
        x = np.concatenate([
            min(levels[0], 0.0) - G1.energy_scale * np.array([1e3, 10.0, 1.0, 1e-3]),
            0.5 * (levels[1:] + levels[:-1])[gaps],
            4.0 * t * np.sin(np.arange(1, m + 1) * math.pi / (2 * (m + 1))) ** 2,
        ])
        expected = np.searchsorted(levels, x)
        assert np.array_equal(oracle._level_count(p, G1, n_points)(x), expected)

    def test_unresolved_attractive_wall_is_refused(self):
        # Robin lengths +-0.0557 against h = 1/17 = 0.0588: Gamma has a negative eigenvalue there,
        # so G is not definite and no count holds (an eigensolver returns a level at -715)
        p = make_u2(0.0, cmath.exp(3.0303007518796994j), 0j, 1.0)
        with pytest.raises(ConstraintError, match=r"h = 0\.0588.*L = 0\.0557"):
            fd_spectrum(p, G1, FdConfig(n_points=16), 4)
        assert fd_spectrum(p, G1, FdConfig(n_points=64), 4)[0] < 0.0
