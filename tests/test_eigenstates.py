import cmath
import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from pointspec import (
    BoxGeometry,
    ConstraintError,
    ContradictionError,
    Eigenbasis,
    Level,
    Mode,
    RootNotFoundError,
    SubfamilyError,
    ZeroFunctionError,
    eigenbasis,
    find_negative_roots,
    find_positive_roots,
    make_u2,
    mode_inner,
    mode_values,
    probability_current,
    residuals_and_norms,
    scale_invariant_coefficients,
    scale_invariant_mode,
    spectral_heat_kernel,
    spectral_levels_needed,
    spectrum,
    to_matrix,
)
from pointspec import eigenstates
from helpers import degenerate_negative_point, haar_point, scale_invariant_point, spectrum_of

RNG = np.random.default_rng(20240813)

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)
DIRICHLET = make_u2(0.0, -1.0, 0.0)
NEUMANN = make_u2(0.0, 1.0, 0.0)


def _residual(m, p, g):
    return float(residuals_and_norms([m], p, g)[0][0])


def _first_positive(p, g):
    """The lowest positive level and its modes; at most two negative and one zero level come first."""
    return next((lv, modes) for lv, modes in eigenbasis(p, g, 5) if lv.sector == "positive")


class TestBoundaryData:
    """Wall values (psi(0), psi(l)) and inward derivatives (psi'(0), -psi'(l)) from mode_values."""

    @staticmethod
    def _walls(m):
        psi, dpsi = mode_values([m], [0.0, G1.l])
        return psi[:, 0], dpsi[:, 0] * [1.0, -1.0]

    def test_sine_mode(self):
        psi, dpsi = self._walls(Mode("positive", math.pi, 1 / 2j, -1 / 2j))  # sin(pi x)
        assert np.allclose(psi, [0.0, 0.0], atol=1e-15)
        assert np.allclose(dpsi, [math.pi, math.pi], atol=1e-12)

    def test_constant_mode(self):
        psi, dpsi = self._walls(Mode("zero", None, 0.0, 0.7))
        assert np.allclose(psi, [0.7, 0.7])
        assert np.allclose(dpsi, [0.0, 0.0])

    def test_decaying_exponential(self):
        psi, dpsi = self._walls(Mode("negative", 1.0, 0.0, 1.0))
        assert np.allclose(psi, [1.0, math.exp(-1)])
        assert np.allclose(dpsi, [-1.0, math.exp(-1)])


class TestBoundaryResidual:
    def test_dirichlet_sines(self):
        for n in (1, 2, 5):
            m = Mode("positive", n * math.pi, 1 / 2j, -1 / 2j)
            assert _residual(m, DIRICHLET, G1) < 1e-12

    def test_neumann_cosines(self):
        for n in (1, 3):
            m = Mode("positive", n * math.pi, 0.5, 0.5)
            assert _residual(m, NEUMANN, G1) < 1e-12

    def test_cosine_violates_dirichlet(self):
        m = Mode("positive", math.pi, 0.5, 0.5)
        assert _residual(m, DIRICHLET, G1) > 0.1


class TestSolveCoefficients:
    """Positive levels' modes, read from the eigenbasis record."""

    def test_dirichlet_sine(self):
        basis = eigenbasis(DIRICHLET, G1, 3)
        for n in (1, 2, 3):
            lv, modes = basis[n - 1]
            assert lv.parameter == pytest.approx(n * math.pi, rel=1e-14)
            assert len(modes) == 1
            x = np.linspace(0, 1, 11)
            ref = math.sqrt(2) * np.sin(n * math.pi * x)
            assert np.max(np.abs(modes[0].psi(x) - ref)) < 1e-10

    def test_degenerate_rank_two(self):
        p = make_u2(math.pi / 2, 0.0, 1j)
        lv, modes = eigenbasis(p, G1, 1)[0]
        assert lv.parameter == pytest.approx(math.pi, rel=1e-14)
        assert len(modes) == 2
        assert abs(mode_inner(modes[0], modes[1], G1)) < 1e-12
        for m in modes:
            assert abs(mode_inner(m, m, G1) - 1) < 1e-12
            assert _residual(m, p, G1) < 1e-9

    def test_smooth_circle_plane_wave(self):
        p = make_u2(math.pi / 2, 0.0, -1.0)  # twist pi/2
        lv, (m,) = eigenbasis(p, G1, 1)[0]
        assert lv.parameter == pytest.approx(math.pi / 2, rel=1e-14)
        # plane wave: |psi| constant, one coefficient negligible
        x = np.linspace(0, 1, 9)
        assert np.ptp(np.abs(m.psi(x))) < 1e-9
        assert min(abs(m.coeff_a), abs(m.coeff_b)) < 1e-9

    def test_matches_root_multiplicity(self):
        for _ in range(25):
            p = haar_point(RNG, L0=1.0)
            roots = find_positive_roots(p, G1, 15.0)
            basis = eigenbasis(p, G1, len(roots) + 2)
            residuals = residuals_and_norms(basis, p, G1)[0]
            positive = [(lv, modes, residuals[lo:hi]) for (lv, modes), lo, hi
                        in zip(basis, basis.offsets, basis.offsets[1:]) if lv.sector == "positive"]
            for (k, mult), (lv, modes, resid) in zip(roots, positive):
                assert lv.parameter == k
                assert len(modes) == mult
                assert np.all(resid < 1e-9)
                if mult == 2:
                    assert abs(mode_inner(modes[0], modes[1], G1)) < 1e-9


class TestZeroMode:
    def test_neumann_constant(self):
        lv, (m,) = eigenbasis(NEUMANN, G1, 1)[0]
        assert lv.sector == "zero"
        assert abs(m.psi(0.3) - 1.0) < 1e-12
        assert _residual(m, NEUMANN, G1) < 1e-12

    def test_scale_invariant_pole_constant(self):
        p = make_u2(math.pi / 2, 0.0, -1j)
        lv, (m,) = eigenbasis(p, G1, 1)[0]
        assert lv.sector == "zero"
        x = np.linspace(0, 1, 7)
        assert np.max(np.abs(m.psi(x) - 1.0)) < 1e-7

    def test_constant_value_scales_with_length(self):
        g = BoxGeometry(l=4.0)
        lv, (m,) = eigenbasis(NEUMANN, g, 1)[0]
        assert lv.sector == "zero"
        assert abs(m.psi(1.0) - 0.5) < 1e-12


class TestNegativeMode:
    P = make_u2(math.pi / 2, 1.0, 0.0)
    G = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)

    def test_symmetric_pair_parity(self):
        p, g = self.P, self.G
        basis = eigenbasis(p, g, 2)
        assert [lv.sector for lv, _ in basis] == ["negative"] * 2
        modes = [m for _, (m,) in basis]
        x = np.linspace(0, 10, 101)
        assert np.all(residuals_and_norms(basis, p, g)[0] < 1e-9)
        # U commutes with parity here, so the two modes have opposite parity
        sym = [np.max(np.abs(m.psi(x) - s * m.psi(10 - x))) for m, s in
               [(modes[0], 1), (modes[1], -1)]]
        alt = [np.max(np.abs(m.psi(x) - s * m.psi(10 - x))) for m, s in
               [(modes[0], -1), (modes[1], 1)]]
        assert min(max(sym), max(alt)) < 1e-6

    def test_wall_shape(self):
        p, g = self.P, self.G
        (k1, _), _ = find_negative_roots(p, g)
        # energy order puts the shallower bound state, the smaller kappa k1, second
        lv, (m,) = eigenbasis(p, g, 2)[1]
        assert lv.parameter == k1
        # dominated by exp(-kx) + exp(-k(l-x)) near the walls
        assert abs(m.psi(5.0)) < abs(m.psi(0.0))


class TestEigenbasis:
    def test_levels_carry_all_their_modes(self):
        # the Im beta = -1 pole: a zero mode under a doubly degenerate ladder
        p = make_u2(math.pi / 2, 0.0, -1j)
        basis = eigenbasis(p, G1, 4)
        assert [lv for lv, _ in basis] == list(spectrum(p, G1, 4).levels)
        assert [len(modes) for _, modes in basis] == [1, 2, 2, 2]
        for lv, modes in basis:
            assert all(m.sector == lv.sector for m in modes)
        assert np.all(residuals_and_norms(basis, p, G1)[0] < 1e-9)

    def test_rank_disagreeing_with_multiplicity_raises(self, monkeypatch):
        spec = spectrum(DIRICHLET, G1, 1)
        doubled = spectrum_of([replace(spec.levels[0], multiplicity=2)])
        monkeypatch.setattr(eigenstates, "spectrum", lambda p, g, n: doubled)
        with pytest.raises(ContradictionError, match="nullspace rank"):
            eigenbasis(DIRICHLET, G1, 1)

    @pytest.mark.parametrize("level", [Level("positive", 1.234, 1.234**2, 1), Level("negative", 1.0, -1.0, 1),
                                       Level("zero", None, 0.0, 1)], ids=lambda lv: lv.sector)
    def test_non_root_raises(self, monkeypatch, level):
        # Dirichlet walls: k = 1.234 is not a momentum, and no bound or zero state exists
        monkeypatch.setattr(eigenstates, "spectrum", lambda p, g, n: spectrum_of([level]))
        with pytest.raises(RootNotFoundError, match=f"{level.sector} parameter .* is not a root"):
            eigenbasis(DIRICHLET, G1, 1)

    def test_double_zero_level(self):
        # U fixes (1, 1) and takes (1, -1) to mu (1, -1), mu = (l/2 + i L0) / (l/2 - i L0):
        # both x and 1 meet the conditions, a zero level of multiplicity 2
        p = make_u2(1.1071487177940906, 0.4472135954999578, -0.8944271909999157j)
        basis = eigenbasis(p, BoxGeometry(l=1.0), 2)
        assert [(lv.sector, lv.multiplicity, len(modes)) for lv, modes in basis] == [
            ("zero", 2, 2), ("positive", 1, 1)]
        m1, m2 = basis[0][1]
        assert abs(mode_inner(m1, m2, G1)) < 1e-12
        assert np.all(residuals_and_norms(basis[:1], p, G1)[0] < 1e-12)

    @pytest.mark.parametrize(
        "p", [make_u2(0.0, 1.0, 0.0, 1e-15), make_u2(0.0, -1.0, 0.0, 1e12)], ids=["U=I", "U=-I"]
    )
    def test_rank_at_scale_free_walls_of_any_L0(self, p):
        # at U = +-I the boundary matrix is 2i L0 Psi' or -2 Psi, so a simple
        # level keeps rank 1 however small or large L0 is
        basis = eigenbasis(p, G1, 3)
        assert [len(modes) for _, modes in basis] == [lv.multiplicity for lv, _ in basis] == [1, 1, 1]
        for lv, modes in basis:
            for m in modes:
                assert mode_inner(m, m, G1).real == pytest.approx(1.0, abs=1e-12)
        assert np.all(residuals_and_norms(basis, p, G1)[0] < 1e-12)


    @pytest.mark.parametrize("L0", [1e80, 1e99])
    @pytest.mark.parametrize(
        "p", [haar_point(np.random.default_rng(80)), make_u2(0.0, -1.0, 0.0)], ids=["haar", "U=-I"]
    )
    def test_huge_L0_modes_are_finite(self, p, L0):
        # |a|**2 of an unscaled boundary matrix overflows at these L0 / l
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            basis = eigenbasis(replace(p, L0=L0), G1, 8)
        assert [len(modes) for _, modes in basis] == [lv.multiplicity for lv, _ in basis]
        for _, modes in basis:
            for m in modes:
                assert math.isfinite(abs(m.coeff_a)) and math.isfinite(abs(m.coeff_b))

    @pytest.mark.parametrize("L0", [1e-12, 1.0, 1e12])
    def test_plus_pole_degenerate_pair_is_the_plane_waves(self, L0):
        # rank 2 starts from (1, 0), so the first mode is exp(ikx) alone
        p = make_u2(math.pi / 2, 0.0, 1j, L0)
        basis = eigenbasis(p, G1, 64)
        assert [len(modes) for _, modes in basis] == [2] * 64
        for _, (m1, m2) in basis:
            assert m1.coeff_b == 0
            assert abs(mode_inner(m1, m2, G1)) <= 1e-12
            assert all(abs(mode_inner(m, m, G1) - 1.0) <= 1e-12 for m in (m1, m2))


class TestNullspace2:
    """The closed-form 2x2 singular values and null vector against LAPACK's SVD."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(22)
        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)
        scales = 10.0 ** np.arange(-150, 151, 5)[:, None, None]
        outer = cplx(2, 1) * cplx(1, 2)
        zero_row = np.array([[0, 0], cplx(2)])
        return np.concatenate([
            cplx(len(scales), 2, 2) * scales,
            np.einsum("nij,njk->nik", cplx(len(scales), 2, 1), cplx(len(scales), 1, 2)) * scales,
            np.stack([np.zeros((2, 2)), zero_row, zero_row[::-1], outer, outer.T, 1e-300 * outer]),
        ])

    def test_matches_svd(self):
        m = self._matrices()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s_max, s_min, vec = eigenstates._nullspace2(m)
        _, ref, vh = np.linalg.svd(m)
        tol = 4 * self.EPS * ref[:, 0]
        assert np.all(np.abs(s_max - ref[:, 0]) <= tol)
        assert np.all(np.abs(s_min - ref[:, 1]) <= tol)
        nonzero = ref[:, 0] > 0.0
        assert np.count_nonzero(~nonzero) == 1 and s_max[~nonzero] == s_min[~nonzero] == 0.0
        # the right singular vector of s_min: |M v| = s_min |v|, to few eps s_max
        # over the gap between the squared singular values
        v = vec[nonzero] / np.linalg.norm(vec[nonzero], axis=1)[:, None]
        resid = np.linalg.norm(np.einsum("nij,nj->ni", m[nonzero], v), axis=1)
        gap = 1.0 - (ref[nonzero, 1] / ref[nonzero, 0]) ** 2
        assert np.all(np.abs(resid - ref[nonzero, 1]) <= tol[nonzero] / gap)
        # sine of the angle to LAPACK's vector: v's part along the other singular vector
        assert np.all(np.abs(np.einsum("nj,nj->n", vh[nonzero, 0], v)) <= 8 * self.EPS / gap)
        singular = ref[nonzero, 1] <= 1e-15 * ref[nonzero, 0]
        assert singular.sum() >= 60
        assert np.all(resid[singular] <= tol[nonzero][singular])


def _ref_basis(sector, k):
    if sector == "zero":
        return (1, 0.0), (0, 0.0)
    rate = 1j * k if sector == "positive" else k
    return (0, rate), (0, -rate)


def _ref_values(basis, coeffs, x):
    """psi(x) and psi'(x) of sum c x**n exp(r x), for n = 0 or 1."""
    v = d = 0j
    for c, (n, r) in zip(coeffs, basis):
        e = cmath.exp(r * x)
        v += c * x**n * e
        d += c * (r * x**n + n) * e
    return v, d


def _ref_moment(n, nu, l):
    z = nu * l
    if abs(z) < 1e-8:
        return l ** (n + 1) * sum(z**j / (math.factorial(j) * (n + j + 1)) for j in range(4))
    e = cmath.exp(z)
    total = (e - 1.0) / nu
    for j in range(1, n + 1):
        total = (l**j * e - j * total) / nu
    return total


def _ref_inner(basis, c1, c2, l):
    return sum(
        c1[i].conjugate() * c2[j] * _ref_moment(n1 + n2, r1.conjugate() + r2, l)
        for i, (n1, r1) in enumerate(basis)
        for j, (n2, r2) in enumerate(basis)
    )


def _ref_modes(p, g, sector, k):
    """The per-level route: SVD nullspace, Gram-Schmidt in L2, normalize's phase."""
    basis = _ref_basis(sector, k)
    U, eye = to_matrix(p), np.eye(2)
    cols = []
    for unit in ((1.0, 0.0), (0.0, 1.0)):
        (v0, d0), (vl, dl) = (_ref_values(basis, unit, x) for x in (0.0, g.l))
        cols.append((U - eye) @ [v0, vl] + 1j * p.L0 * (U + eye) @ [d0, -dl])
    _, sv, vh = np.linalg.svd(np.column_stack(cols))
    if sector == "zero":
        vecs = [vh[1].conj()]
    else:
        mscale = max(1.0, k * p.L0)
        if sector == "negative":
            mscale *= math.cosh(min(k * g.l, 700.0))
        thresh = 1e-8 * max(sv[0], 1e-3 * mscale)
        vecs = [vh[i].conj() for i in range(2) if sv[i] <= thresh]
    out = []
    for v in vecs:
        c = [complex(v[0]), complex(v[1])]
        for q in out:
            ip = _ref_inner(basis, q, c, g.l)
            c = [c[0] - ip * q[0], c[1] - ip * q[1]]
        nrm = math.sqrt(_ref_inner(basis, c, c, g.l).real)
        c = [c[0] / nrm, c[1] / nrm]
        v0, d0 = _ref_values(basis, c, 0.0)
        d0 *= g.l
        z = v0 if abs(v0) > 1e-8 * math.hypot(abs(v0), abs(d0)) else d0
        phase = z.conjugate() / abs(z) if abs(z) > 0.0 else 1.0
        out.append([c[0] * phase, c[1] * phase])
    return basis, out


_HAAR = np.random.default_rng(606)
REFERENCE_CASES = [
    *((f"haar-{i}", haar_point(_HAAR), G1, 256) for i in range(3)),
    ("plus-pole", make_u2(math.pi / 2, 0.0, 1j), G1, 64),
    ("minus-pole", make_u2(math.pi / 2, 0.0, -1j), G1, 64),
    ("dirichlet-dirichlet", DIRICHLET, G1, 32),
    ("neumann-neumann", NEUMANN, BoxGeometry(l=3.0, hbar=1.0, mass=0.5), 32),
    ("dirichlet-neumann", make_u2(math.pi / 2, 1j, 0.0), G1, 32),
    ("neumann-dirichlet", make_u2(math.pi / 2, -1j, 0.0), G1, 32),
    ("twisted-circle", make_u2(math.pi / 2, 0.0,
                               complex(math.sin(0.3 * math.pi), -math.cos(0.3 * math.pi))), G1, 64),
    ("degenerate-negative", degenerate_negative_point(), BoxGeometry(l=1.0), 8),
]


class TestEigenbasisReference:
    """eigenbasis against a test-local copy of the per-level route."""

    @pytest.mark.parametrize("name, p, g, n", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
    def test_matches_per_level_route(self, name, p, g, n):
        basis = eigenbasis(p, g, n)
        levels = spectrum(p, g, n).levels
        assert [lv for lv, _ in basis] == list(levels)
        for lv, modes in basis:
            ref_basis, ref = _ref_modes(p, g, lv.sector, lv.parameter)
            assert len(modes) == len(ref) == lv.multiplicity
            got = [[m.coeff_a, m.coeff_b] for m in modes]
            if len(ref) == 1:
                scale = max(abs(ref[0][0]), abs(ref[0][1]))
                assert max(abs(got[0][i] - ref[0][i]) for i in range(2)) <= 1e-12 * scale
            else:
                # a degenerate eigenspace may rotate: compare the projector onto the span
                proj = sum(np.outer(c, np.conj(c)) for c in got)
                ref_proj = sum(np.outer(c, np.conj(c)) for c in ref)
                assert np.max(np.abs(proj - ref_proj)) <= 1e-10
            for m, c in zip(modes, ref):
                ref_norm = _ref_inner(ref_basis, c, c, g.l).real
                assert abs(mode_inner(m, m, g).real - ref_norm) <= 1e-12
        assert np.all(residuals_and_norms(basis, p, g)[0] <= 1e-9)


@eigenstates._quiet
def _pairs_ref(p, g, n_levels):
    """eigenbasis as a tuple of (Level, tuple of Mode) pairs: a copy of the Mode-list construction.

    Each sector's levels are solved as one batch, the rank-2 levels' second
    modes appended after every level's first, and one Mode built per row.
    """
    es = eigenstates
    levels = spectrum(p, g, n_levels).levels
    modes = [()] * len(levels)
    for sector in ("negative", "zero", "positive"):
        group = [i for i, lv in enumerate(levels) if lv.sector == sector]
        if not group:
            continue
        parameters = [levels[i].parameter for i in group]
        n = len(parameters)
        k = np.array([0.0 if v is None else v for v in parameters], dtype=float)
        power, rate = (np.broadcast_to(v, (n,)) for v in es._basis(sector, k))
        psi, dpsi = es._ends(power[:, None], rate[:, None], *es._UNIT, g.l)
        ops = es._boundary_matrices(p)
        m = np.swapaxes(psi @ ops[0].T + dpsi @ ops[1].T, -1, -2)
        s_max, s_min, null = es._nullspace2(np.concatenate([m, ops]))
        thresh = es._RANK_RTOL * (s_max[n] * np.linalg.norm(psi, axis=(1, 2))
                                  + s_max[n + 1] * np.linalg.norm(dpsi, axis=(1, 2)))
        rank = (s_min[:n] <= thresh).astype(int) + (s_max[:n] <= thresh)
        two = np.flatnonzero(rank == 2)
        vecs = np.where((rank == 2)[:, None], es._UNIT[0], null[:n])
        if two.size:
            (v1, v2), power2, rate2 = (np.broadcast_to(u, (two.size, 2)) for u in es._UNIT), power[two], rate[two]
            overlap = es._inner((power2, rate2, v1), (power2, rate2, v2), g.l)
            v2 = v2 - (overlap / es._inner((power2, rate2, v1), (power2, rate2, v1), g.l))[:, None] * v1
            power, rate, vecs = (np.concatenate(v) for v in ((power, power2), (rate, rate2), (vecs, v2)))
        coeffs = es._normalized((power, rate, vecs), g.l).tolist()
        found = [[Mode(sector, v, *c)] for v, c in zip(parameters, coeffs)]
        for i, c in zip(two.tolist(), coeffs[n:]):
            found[i].append(Mode(sector, parameters[i], *c))
        for i, f in zip(group, found):
            modes[i] = tuple(f)
    return tuple(zip(levels, modes))


class TestEigenbasisRecord:
    """The record reads as the tuple of (Level, modes) pairs, with the Mode objects of the Mode-list route."""

    POINTS = [("haar", haar_point(np.random.default_rng(21)), 12),
              ("plus-pole", make_u2(math.pi / 2, 0.0, 1j), 12),
              ("minus-pole", make_u2(math.pi / 2, 0.0, -1j), 12)]

    @pytest.mark.parametrize("name, p, n", POINTS, ids=[c[0] for c in POINTS])
    def test_tuple_contract(self, name, p, n):
        basis, ref = eigenbasis(p, G1, n), _pairs_ref(p, G1, n)
        assert isinstance(basis, Eigenbasis) and len(basis) == len(ref) == n
        assert tuple(basis) == ref
        assert [basis[i] for i in range(n)] == list(ref) and basis[-1] == ref[-1]
        with pytest.raises(IndexError):
            basis[n]
        for part in (slice(5), slice(0), slice(3, None), slice(None, None, -2)):
            assert isinstance(basis[part], Eigenbasis) and tuple(basis[part]) == ref[part]
        # the pairs of a record, and the modes of each pair, are plain tuples, as before
        level, modes = basis[0]
        assert type(basis[0]) is tuple and type(modes) is tuple

    @pytest.mark.parametrize("name, p, n", POINTS, ids=[c[0] for c in POINTS])
    def test_slice_builds_no_mode(self, monkeypatch, name, p, n):
        basis = eigenbasis(p, G1, n)
        pairs = tuple(basis)

        def refuse(mode):
            raise AssertionError("a slice of the record built a Mode")

        monkeypatch.setattr(Mode, "__post_init__", refuse)
        head, stepped = basis[:5], basis[::-2]
        monkeypatch.undo()
        for field in ("power", "rate", "coeffs"):
            got, want = getattr(head, field), getattr(basis, field)[:basis.offsets[5]]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert head.levels.levels == basis.levels[:5].levels and np.array_equal(head.offsets, basis.offsets[:6])
        assert tuple(head) == pairs[:5] and tuple(stepped) == pairs[::-2]

    @pytest.mark.parametrize("name, p, n", POINTS, ids=[c[0] for c in POINTS])
    def test_kernel_on_a_slice_equals_plain_pairs(self, name, p, n):
        tau = 0.05
        need = spectral_levels_needed(p, G1, tau)
        basis = eigenbasis(p, G1, need + 4)
        xs = np.linspace(0.0, 1.0, 7)
        a, b = np.meshgrid(xs, xs[::2], indexing="ij", sparse=True)
        got = spectral_heat_kernel(basis[:need], G1, a, b, [tau, 2 * tau])
        # the same sum, mode by mode over the slice's (Level, modes) pairs
        pairs = [(lv.energy, m) for lv, modes in tuple(basis)[:need] for m in modes]
        for t, kernel in zip([tau, 2 * tau], got):
            terms = [np.exp(-energy * t / G1.hbar) * m.psi(b) * np.conj(m.psi(a)) for energy, m in pairs]
            assert np.array_equal(kernel, np.sum(np.stack(terms, axis=-1), axis=-1))
        assert np.array_equal(spectral_heat_kernel(basis, G1, a, b, tau, n_levels=need), got[0])


class TestEigenbasisFiniteOrRaise:
    """Bound states beyond the float range raise, or come out finite and normalized."""

    POINTS = [
        ("long-box", make_u2(math.pi / 2, 1.0, 0.0, 1.0), BoxGeometry(l=440.0, hbar=1.0, mass=0.75)),
        ("tiny-L0", make_u2(1.2900997279407822, complex(0.4882743886959906, -0.5241502523018554),
                            complex(-0.5371082082819572, 0.4453868059918296), 1e-5),
         BoxGeometry(l=1.0, hbar=1.0, mass=0.75)),
    ]

    @pytest.mark.parametrize("name, p, g", POINTS, ids=[c[0] for c in POINTS])
    def test_finite_or_raise(self, name, p, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                basis = eigenbasis(p, g, 8)
            except OverflowError:
                return
            for _, modes in basis:
                for m in modes:
                    assert math.isfinite(abs(m.coeff_a)) and math.isfinite(abs(m.coeff_b))
                    assert abs(mode_inner(m, m, g) - 1.0) <= 1e-10
            assert np.all(residuals_and_norms(basis, p, g)[0] <= 1e-8)


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
            # the four branch/index pairs below are the four lowest levels
            basis = eigenbasis(p, G1, 4)
            for s, n in ((+1, 0), (+1, 1), (-1, -1), (-1, -2)):
                cm = scale_invariant_mode(p, G1, s, n)
                assert abs(mode_inner(cm, cm, G1) - 1) < 1e-10
                lv, (sm,) = min(basis, key=lambda pair: abs(pair[0].parameter - cm.parameter))
                assert lv.parameter == pytest.approx(cm.parameter, rel=1e-12)
                assert abs(mode_inner(cm, sm, G1)) > 1 - 1e-9

    def test_wall_intersection_point(self):
        # alpha = +i is also a separated point (walls 0, inf); the closed
        # form stays valid there and gives equal amplitudes 1/sqrt(2 l)
        p = make_u2(math.pi / 2, 1j, 0.0)
        c = scale_invariant_coefficients(p, G1, +1, 0)
        assert c.a_plus == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert c.a_minus == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        cm = scale_invariant_mode(p, G1, +1, 0)
        lv, (sm,) = eigenbasis(p, G1, 1)[0]
        assert lv.parameter == pytest.approx(cm.parameter, rel=1e-12)
        assert abs(mode_inner(cm, sm, G1)) > 1 - 1e-9
        # and the assembled mode is the half-integer sine of the mixed box
        x = np.linspace(0, 1, 9)
        ref = math.sqrt(2) * np.sin(math.pi * x / 2)
        phase = cm.psi(0.5) / ref[4]
        assert np.max(np.abs(cm.psi(x) - phase * ref)) < 1e-12


class TestNormalize:
    """The norm and phase convention of eigenbasis's modes."""

    def test_sine_scaling(self):
        _, (m,) = eigenbasis(DIRICHLET, G1, 1)[0]  # sin(pi x)
        # unit norm and positive slope at the left wall
        assert abs(mode_inner(m, m, G1) - 1) < 1e-12
        assert m.dpsi(0.0).real > 0 and abs(m.dpsi(0.0).imag) < 1e-12

    def test_plane_wave_unchanged(self):
        # the Im beta = +1 pole's first mode is the plane wave exp(i pi x)
        _, (m, _) = eigenbasis(make_u2(math.pi / 2, 0.0, 1j), G1, 1)[0]
        assert m.coeff_a == pytest.approx(1.0)
        assert m.coeff_b == 0

    def test_quadrature_cross_check(self):
        for _ in range(10):
            p = haar_point(RNG, L0=1.0)
            m = _first_positive(p, G1)[1][0]
            x = np.linspace(0, 1, 20001)
            num = np.trapezoid(np.abs(m.psi(x)) ** 2, x)
            assert num == pytest.approx(1.0, abs=1e-8)

    def test_zero_function_error(self):
        m = Mode("positive", 1.0, 1e-200, 0.0)
        with pytest.raises(ZeroFunctionError):
            eigenstates._normalized(eigenstates._batch([m]), 1.0)


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
        m = _first_positive(p, G1)[1][0]
        assert abs(probability_current(m, G1, 0.0)) < 1e-10
        assert abs(probability_current(m, G1, 1.0)) < 1e-10

    def test_global_conservation(self):
        for _ in range(15):
            p = haar_point(RNG, L0=1.0)
            for _, modes in eigenbasis(p, G1, 4):
                for m in modes:
                    j0 = probability_current(m, G1, 0.0)
                    jl = probability_current(m, G1, 1.0)
                    assert abs(j0 - jl) < 1e-10

    def test_domain_check(self):
        m = Mode("positive", 1.0, 1.0, 0.0)
        with pytest.raises(ConstraintError):
            probability_current(m, G1, 1.5)


class TestModeValues:
    """mode_values against one-mode evaluation, bit for bit."""

    # a double bound state and simple positive levels, then the Im beta = -1
    # pole: a zero mode under doubly degenerate positive levels
    MODES = [m for p, g, n in ((degenerate_negative_point(), BoxGeometry(l=1.0), 3),
                               (make_u2(math.pi / 2, 0.0, -1j), G1, 3))
             for _, modes in eigenbasis(p, g, n) for m in modes]
    XS = np.linspace(0.0, 1.0, 7)

    @pytest.mark.parametrize("x", [0.3, XS, *np.meshgrid(XS, XS[::2], indexing="ij", sparse=True)],
                             ids=["scalar", "1-d", "grid-rows", "grid-columns"])
    def test_matches_psi_and_dpsi(self, x):
        assert {m.sector for m in self.MODES} == {"negative", "zero", "positive"}
        psi, dpsi = mode_values(self.MODES, x)
        assert psi.shape == dpsi.shape == np.shape(x) + (len(self.MODES),)
        for i, m in enumerate(self.MODES):
            assert np.array_equal(psi[..., i], m.psi(x))
            assert np.array_equal(dpsi[..., i], m.dpsi(x))

    def test_one_mode_is_psi_and_dpsi(self):
        m = self.MODES[0]
        psi, dpsi = mode_values([m], 0.3)
        assert psi.shape == dpsi.shape == (1,)
        assert type(m.psi(0.3)) is complex and m.psi(0.3) == psi[0] and m.dpsi(0.3) == dpsi[0]


class TestOrthogonality:
    def test_distinct_levels_orthogonal(self):
        for _ in range(8):
            p = haar_point(RNG, L0=1.0)
            modes = [m for _, level_modes in eigenbasis(p, G1, 6) for m in level_modes]
            for i in range(len(modes)):
                for j in range(i + 1, len(modes)):
                    assert abs(mode_inner(modes[i], modes[j], G1)) < 1e-8


class TestModeInner:
    """mode_inner against trapezoid quadrature, for every pair of sectors."""

    G = BoxGeometry(l=1.3, hbar=1.0, mass=0.5)
    SECTORS = {
        "zero": ("zero", None),
        "negative": ("negative", 1.7),
        "negative2": ("negative", 2.9),
        "positive": ("positive", 4.1),
        "positive2": ("positive", 6.3),
    }
    PAIRS = [
        ("zero", "zero"),
        ("zero", "negative"),
        ("zero", "positive"),
        ("negative", "negative"),
        ("negative", "negative2"),
        ("negative", "positive"),
        ("positive", "positive"),
        ("positive", "positive2"),
    ]

    @pytest.mark.parametrize("first, second", PAIRS)
    def test_matches_quadrature(self, first, second):
        rng = np.random.default_rng(314159)
        x = np.linspace(0.0, self.G.l, 40001)
        for _ in range(3):
            modes = [
                Mode(*self.SECTORS[name], *(complex(*rng.normal(size=2)) for _ in range(2)))
                for name in (first, second)
            ]
            assert modes[0].sector != "zero" or modes[0].coeff_a != 0
            for m1, m2 in (modes, modes[::-1]):
                quad = np.trapezoid(np.conj(m1.psi(x)) * m2.psi(x), x)
                scale = math.sqrt(
                    np.trapezoid(np.abs(m1.psi(x)) ** 2, x) * np.trapezoid(np.abs(m2.psi(x)) ** 2, x)
                )
                assert abs(mode_inner(m1, m2, self.G) - quad) <= 1e-8 * scale


def mp_inner(m1, m2, l):
    """<m1, m2> on [0, l] by 50-digit quadrature of the mode functions."""

    def psi(m):
        a, b = mp.mpc(m.coeff_a), mp.mpc(m.coeff_b)
        if m.sector == "zero":
            return lambda x: a * x + b
        rate = mp.mpc(0, m.parameter) if m.sector == "positive" else mp.mpf(m.parameter)
        return lambda x: a * mp.exp(rate * x) + b * mp.exp(-rate * x)

    f1, f2 = psi(m1), psi(m2)
    with mp.workdps(50):
        integrand = lambda x: mp.conj(f1(x)) * f2(x)
        return complex(mp.quad(integrand, [0, l], method="gauss-legendre"))


class TestModeInnerSmallArguments:
    """Inner products whose exponent nu l is small, where the closed form cancels.

    |nu l| runs from 1e-9 to 3 on both sides of the series cut at 1; the
    reference is 50-digit quadrature.
    """

    L = 1.3
    SIZES = [1e-9, 1e-7, 1e-5, 1e-3, 0.1, 0.5, 0.999, 1.001, 2.0, 3.0]
    # each pair's smallest nonzero |nu l| is the size s
    PAIRS = {
        "real, n = 0": lambda s, L: (("negative", s / (2 * L)), ("negative", s / (2 * L))),
        "imaginary, n = 0": lambda s, L: (("positive", s / (2 * L)), ("positive", s / (2 * L))),
        "complex, n = 0": lambda s, L: (("positive", s / L), ("negative", s / L)),
        "real, n = 1": lambda s, L: (("zero", None), ("negative", s / L)),
        "imaginary, n = 1": lambda s, L: (("zero", None), ("positive", s / L)),
        "n = 2": lambda s, L: (("zero", None), ("zero", None)),
    }

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_mode_inner_matches_quadrature(self, pair):
        g = BoxGeometry(l=self.L)
        for s in self.SIZES:
            first, second = self.PAIRS[pair](s, self.L)
            m1, m2 = Mode(*first, 1.0, 0.5j), Mode(*second, 0.8, 0.6)
            for a, b in ((m1, m2), (m2, m1), (m1, m1)):
                ref = mp_inner(a, b, self.L)
                assert abs(mode_inner(a, b, g) - ref) <= 1e-14 * abs(ref), (pair, s)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_moments_match_quadrature(self, n):
        # the private moments directly: mode_inner never pairs n = 2 with nu != 0
        for angle in (0.0, math.pi, math.pi / 2, -math.pi / 2, 0.7, 2.5):
            for s in self.SIZES:
                nu = s * cmath.exp(1j * angle) / self.L
                with mp.workdps(50):
                    integrand = lambda x: x**n * mp.exp(mp.mpc(nu) * x)
                    ref = complex(mp.quad(integrand, [0, self.L], method="gauss-legendre"))
                got = complex(eigenstates._moments(np.array(n), np.array(nu), self.L))
                assert abs(got - ref) <= 1e-14 * abs(ref), (angle, s)

    @staticmethod
    def _whole_array_moments(n, nu, l):
        # the reference: both forms on every entry, np.where choosing between them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = nu * l
            small = np.abs(z) <= 1.0
            coef, series = eigenstates._SERIES[n], 0.0
            for j in range(eigenstates._SERIES_TERMS - 1, -1, -1):
                series = series * z + coef[..., j]
            series = l ** (n + 1) * series
            nu = np.where(small, 1.0, nu)
            e = np.exp(np.where(small, 0.0, z))
            total = (e - 1.0) / nu
            for j in (1, 2):
                total = np.where(n >= j, (l**j * e - j * total) / nu, total)
            return np.where(small, series, total)

    @pytest.mark.parametrize("kind", [float, complex])
    def test_moments_match_whole_array_evaluation(self, kind):
        # a batch mixing |nu l| <= 1 and |nu l| > 1 for n = 0, 1 and 2, shaped as _inner passes it
        rng = np.random.default_rng(17)
        n = np.tile([0, 1, 2], 40).reshape(10, 3, 4)
        size = 10.0 ** rng.uniform(-9, 2, n.shape) / self.L
        nu = size * (np.exp(1j * rng.uniform(-math.pi, math.pi, n.shape)) if kind is complex
                     else rng.choice([-1.0, 1.0], n.shape))
        nu.flat[:4] = 0.0
        assert (np.abs(nu * self.L) <= 1.0).any() and (np.abs(nu * self.L) > 1.0).any()
        got = eigenstates._moments(n, nu, self.L)
        want = self._whole_array_moments(n, nu, self.L)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
