"""Finite-difference cross-check of the transcendental spectra.

The free Hamiltonian H = -(hbar^2/2m) d^2/dx^2 is discretized on a uniform
grid with second-order central differences; one-sided second-order
approximations of psi'(0) and psi'(l) impose the two boundary conditions and
eliminate the wall values psi_0 and psi_N.  What remains is T = t (-1, 2, -1)
plus a complex rank-2 term in the wall rows B = (0, N-1) (psi_1, psi_{N-1}).

With rho = (-t / 2h) W the weights of the wall values in those rows, G H is
Hermitian for G the identity with Gamma = t (t I + rho)^-1 on B.  Gamma has
the eigenvalue (3L - 2h) / (2(L - h)) along a Robin direction of length L,
positive unless 2h/3 <= L <= h, where the grid does not resolve the wall and
is refused.  So (G H, G) is a definite pencil, its levels are real, and by
Sylvester's law nu(G (H - x)) of them lie below x, nu counting negative
eigenvalues.  The Schur complement onto B of the interior, the Dirichlet
chain T_M of size M = N - 2, splits that Sturm count (Barth, Martin and
Wilkinson, Numer. Math. 9 (1967) 386) into nu(T_M - x), the number of j
with 4t sin^2(j pi / 2(M+1)) < x, and nu(Gamma S(x)), where Gamma S(x) =
Gamma H_BB - x Gamma - t^2 C(x) and t C = [[sin M theta, sin theta], [sin
theta, sin M theta]] / sin((M+1) theta), 2 cos theta = 2 - x / t, is the
chain's corner Green's function: O(1) per count, whatever N.  The levels
are found by a 16-way multisection on that count, which reads it once per
pass at 15 interior points of every bracket; their last digits lie within
the count's noise band, a few 1e-12 to 1e-11 relative, where it is not
monotone.

The default shift sits just below the lowest level: only U's attractive
eigen-directions bind, and their Robin lengths bound every bound state in
closed form (Kostrykin-Schrader, J. Phys. A 32 (1999) 595); see
`_default_shift`.  The n levels nearest the shift are kept, the n lowest
below a real spectrum; a window term that puts the shift above states beyond
spectral's window leaves the oracle as blind to them as spectral.

This discretization shares no code with the transcendental solver and is
the independent oracle used to validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, ContradictionError
from .spectral import MAX_LEVELS, BoxGeometry, negative_search_ceiling
from .u2param import U2Params, direction_lengths, to_matrix

__all__ = ["FdConfig", "fd_spectrum"]

# sub-intervals per bracket and count pass: a count at 16 x levels points costs about one at levels points
_ARITY = 16


@dataclass(frozen=True)
class FdConfig:
    """Discretization parameters.

    n_points is the interior matrix dimension (>= 16).  shift is the energy
    the returned levels are nearest to, meant to sit below the lowest level;
    None selects 1.1 times the closed-form depth of U's attractive directions
    on this grid, or of spectral's negative-root window where that is
    shallower, which is not certified: it can sit above the lowest level.
    The levels are found by a 16-way multisection on a closed-form count,
    with no eigensolver.
    """

    n_points: int
    shift: float | None = None

    def __post_init__(self):
        if self.n_points < 16 or not math.isfinite(self.shift or 0.0):
            raise ConstraintError("n_points must be at least 16" if self.n_points < 16 else "shift must be finite")


def _grid(g: BoxGeometry, n_points: int):
    """The grid step h and the hopping t = hbar^2 / (2 m h^2)."""
    h = g.l / (n_points + 1)
    return h, g.hbar**2 / (2.0 * g.mass * h * h)


def _wall_blocks(p: U2Params, g: BoxGeometry, n_points: int):
    """H_BB and Gamma; the wall rows' coupling H_BI = -(t I + rho) to the chain's ends is -t Gamma^-1."""
    h, t = _grid(g, n_points)
    for L in direction_lengths(p):
        if 2.0 * h / 3.0 <= L <= h:
            raise ConstraintError(f"the grid step h = {h:.6g} does not resolve the wall's Robin length "
                                  f"L = {L:.6g} (2h/3 <= L <= h); use more points")
    U, eye2 = to_matrix(p), np.eye(2)
    # boundary rows: B (psi_0, psi_N)^t = -i L0 (U+I) (r0, rN)^t with
    # r0 = (4 psi_1 - psi_2)/(2h), rN = (4 psi_{N-1} - psi_{N-2})/(2h)
    B = (U - eye2) - (3j * p.L0 / (2.0 * h)) * (U + eye2)
    if not np.linalg.cond(B) <= 1e12:  # nan and inf included
        raise ContradictionError("wall-elimination system is ill conditioned; change n_points")
    # the wall rows gain -t psi_0 and -t psi_N, where (psi_0, psi_N) = W (r0, rN)
    rho = (-t / (2.0 * h)) * (-1j * p.L0 * np.linalg.solve(B, U + eye2))
    return 2.0 * t * eye2 + 4.0 * rho, t * np.linalg.inv(t * eye2 + rho)


def _level_count(p: U2Params, g: BoxGeometry, n_points: int):
    """x -> the number of levels below x, nu(T_M - x) + nu(Gamma S(x)), for arrays x.

    In the basis (e_0 +- e_1) / sqrt 2, t C = diag(cos / cos, sin / sin) of ((M-1) theta/2,
    (M+1) theta/2), each pole in one entry; in the band Gamma S is scaled by the congruence
    diag(cos, sin)((M+1) theta/2).  Those factors and nu(T_M - x) come from one phase
    (M+1) theta = pi (nu + r), 0 < r <= 1, so they agree at a pole, and the larger pivot
    keeps a vanishing pole entry's sign.  Outside the band theta = i phi (below) or pi + i phi.
    """
    t, m = _grid(g, n_points)[1], n_points - 2
    h_bb, gam = _wall_blocks(p, g, n_points)
    rot = np.array([[1.0, 1.0], [1.0, -1.0]])  # to (e_0 +- e_1) / sqrt 2, times sqrt 2
    # Gamma H_BI = -t I, so Gamma S(x) / t = I + D - (x / t) Gamma - t C(x), D = Gamma H_BB / t - I
    d, gam = (rot @ (a + a.conj().T) @ rot / 4.0 for a in (gam @ h_bb / t - np.eye(2), gam))
    gp, gm, go, dp, dm, do = gam[0, 0].real, gam[1, 1].real, gam[0, 1], d[0, 0].real, d[1, 1].real, d[0, 1]

    def count(x):
        q = np.asarray(x, dtype=float) / (4.0 * t)  # sin^2(theta / 2), and 1 - cos(theta) = 2q
        s, inside, below = np.clip(q, 0.0, 1.0), (q > 0.0) & (q < 1.0), q <= 0.0
        z = (2 * m + 2) / math.pi * np.arcsin(np.sqrt(s))
        nu = np.ceil(z) - 1.0
        u, v, odd = np.sin(0.5 * math.pi * (z - nu)), np.cos(0.5 * math.pi * (z - nu)), nu % 2.0 == 1.0
        cos2, sin2, cs = np.where(odd, u * u, v * v), np.where(odd, v * v, u * u), np.where(odd, -u, u) * v
        cs_sin = cs * 2.0 * np.sqrt(s * (1.0 - s))
        phi = np.maximum(2.0 * np.arcsinh(np.sqrt(np.abs(q - (q > 0.5)))), 1e-300)
        den = -np.expm1(-2.0 * (m + 1) * phi)  # sinh ratios, exp-scaled
        a = np.where(below, 1.0, -1.0) * np.exp(-phi) * -np.expm1(-2.0 * m * phi) / den
        b = np.where(below, 1.0, (-1.0) ** m) * np.exp(-m * phi) * -np.expm1(-2.0 * phi) / den
        y_p = np.where(inside, cos2 * (2.0 * s + dp - 4.0 * q * gp) - cs_sin, 1.0 + dp - 4.0 * q * gp - a - b)
        y_m = np.where(inside, sin2 * (2.0 * s + dm - 4.0 * q * gm) + cs_sin, 1.0 + dm - 4.0 * q * gm - a + b)
        off = np.abs(np.where(inside, cs, 1.0) * (do - 4.0 * q * go))
        big = np.abs(y_p) >= np.abs(y_m)
        pivot, rest = np.where(big, y_p, y_m), np.where(big, y_m, y_p)
        pivot = np.where(pivot == 0.0, 1.0, pivot)  # both zero: one negative eigenvalue iff off != 0
        return np.where(inside, nu, np.where(below, 0.0, m)) + (pivot < 0.0) + (rest - off * off / pivot < 0.0)

    return count


def _robin_depth(p: U2Params, g: BoxGeometry, n_points: int) -> float:
    """Closed-form depth -E of the deepest state U's directions bind on the n_points grid.

    With lam the largest 1/L over U's Robin lengths L > 0, every bound state
    has kappa <= kappa* = lam coth(lam l / 2).  A one-sided boundary row
    binds psi_j = r^j, r = 2 - sqrt(1 + 2 lam h), at -t (1/r + r - 2), which
    is deeper than -esc lam^2 by O(lam h).  The depth is the larger of the
    two; 0 without an attractive direction, and inf at r <= 0, where the
    grid cannot resolve the wall.
    """
    lam = max((1.0 / L for L in direction_lengths(p) if 0.0 < L < math.inf), default=0.0)
    if lam == 0.0:
        return 0.0
    h, t = _grid(g, n_points)
    root = math.sqrt(1.0 + 2.0 * lam * h)
    r = 2.0 - root
    if r <= 0.0:
        return math.inf
    kappa = lam / math.tanh(0.5 * lam * g.l)
    # 1/r + r - 2 = (1 - r)^2 / r, and 1 - r = root - 1 = 2 lam h / (root + 1) without cancellation
    grid_depth = t * (2.0 * lam * h / (root + 1.0)) ** 2 / r
    return max(g.hbar**2 / (2.0 * g.mass) * kappa * kappa, grid_depth)


def _default_shift(p: U2Params, g: BoxGeometry, n_points: int) -> float:
    """-1.1 D - E_scale, D the smaller of _robin_depth and spectral's window depth.

    The window term keeps the oracle as blind as spectral to the bound
    states beyond the window; it can go once that window is a bound.
    """
    v_max = negative_search_ceiling(p, g)
    kappa_ub = v_max / g.l
    esc = g.hbar**2 / (2.0 * g.mass)
    try:
        window = esc * kappa_ub**2
    except OverflowError:
        window = math.inf
    shift = -1.1 * min(window, _robin_depth(p, g, n_points)) - g.energy_scale
    if not math.isfinite(shift):
        raise ConstraintError(f"the default shift at kappa = {kappa_ub:.3g} is outside the float range")
    return shift


def fd_spectrum(p: U2Params, g: BoxGeometry, cfg: FdConfig, n_levels: int):
    """The n_levels levels of the discretized Hamiltonian nearest the shift, ascending.

    With m levels below the shift, levels m - n_levels ... m + n_levels - 1 are found together
    by a 16-way multisection on the count, 4 bits per count pass, to within its noise band of
    a few 1e-12 to 1e-11 relative: there is no eigensolver and no solver tolerance.
    A degenerate level appears as near-equal copies; a count that cuts one returns one.
    """
    if n_levels < 1:
        raise ConstraintError("n_levels must be at least 1")
    if n_levels > cfg.n_points // 4:
        raise ConstraintError("n_levels must be far below n_points")
    if n_levels > MAX_LEVELS:
        raise ConstraintError(f"n_levels must be at most {MAX_LEVELS}, not {n_levels!r}")
    sigma = cfg.shift if cfg.shift is not None else _default_shift(p, g, cfg.n_points)
    count = _level_count(p, g, cfg.n_points)
    t, m = _grid(g, cfg.n_points)[1], cfg.n_points - 2
    below = int(count(sigma))
    j = np.arange(max(0, below - n_levels), min(below + n_levels, cfg.n_points))
    # count(x) >= nu(T_M - x) (Cauchy interlacing): E_j <= 4t sin^2((j + 1) pi / 2(M+1)) for j < M
    top = 4.0 * t
    while count(top) <= j[-1]:
        top *= 2.0
    hi = np.where(j < m, 4.0 * t * np.sin((j + 1) * math.pi / (2 * (m + 1))) ** 2, top)
    lo = min(sigma, 0.0) - g.energy_scale
    while count(lo) > j[0]:
        lo *= 2.0
    lo, rows, frac = np.full(len(j), lo), np.arange(len(j)), np.arange(1, _ARITY) / _ARITY
    while np.any(hi - lo > 1e-15 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), g.energy_scale)):
        x = np.column_stack([lo, lo[:, None] + (hi - lo)[:, None] * frac, hi])
        # hi is above j and lo is not, uncounted as in bisection: keep [x_k, x_k+1], x_k+1 the first above
        above = np.column_stack([count(x[:, 1:-1]) > j[:, None], np.ones(len(j), dtype=bool)])
        k = np.argmax(above, axis=1)
        lo, hi = x[rows, k], x[rows, k + 1]
    levels = 0.5 * (lo + hi)
    return np.sort(levels[np.argsort(np.abs(levels - sigma), kind="stable")[:n_levels]])
