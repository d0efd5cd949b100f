"""Finite-difference cross-check of the transcendental spectra.

The free Hamiltonian H = -(hbar^2/2m) d^2/dx^2 is discretized on a uniform
grid with second-order central differences; one-sided second-order
approximations of psi'(0) and psi'(l) impose the two boundary conditions and
eliminate the wall values psi_0 and psi_N.  What remains is the real
tridiagonal T = t (-1, 2, -1) plus a complex rank-2 term E R in the rows of
psi_1 and psi_{N-1}, so shift-inverted ARPACK solves with H - sigma in O(N),
by a tridiagonal solve with T - sigma and a Woodbury correction.

H is self-adjoint in a weighted inner product.  With rho = (-t / 2h) W the
weights of the wall values in the rows of psi_1 and psi_{N-1}, G H is
Hermitian for G the identity with Gamma = t (t I + rho)^-1 on those two rows
and columns.  Gamma has the eigenvalue (3L - 2h) / (2(L - h)) along a Robin
direction of length L, which is positive unless 2h/3 <= L <= h, where the
grid does not resolve the wall.  So every eigenvalue is real, and the
eigenvalues' imaginary parts are asserted to be numerical noise.

The default shift sits just below the lowest level.  Only U's attractive
eigen-directions bind, so the Robin lengths L > 0 of those directions bound
every bound state in closed form (Kostrykin-Schrader, J. Phys. A 32 (1999)
595), with the grid's boundary rows folded in; see `_default_shift`.  A
shift close to the spectrum keeps the shift-inverted values 1 / (E - sigma)
apart, which ARPACK converges on in fewer restarts, and keeps its relative
tolerance on them small next to shallow levels.  Below a real spectrum, the
n levels nearest the shift are the n lowest, so ARPACK is asked for exactly
those.  Where the window term puts the shift above states beyond spectral's
negative-root window, the oracle misses them as spectral does.

This discretization shares no code with the transcendental solver and is
the independent oracle used to validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, ContradictionError
from .spectral import BoxGeometry, negative_search_ceiling
from .u2param import U2Params, direction_lengths, to_matrix

__all__ = ["FdConfig", "fd_spectrum"]


@dataclass(frozen=True)
class FdConfig:
    """Discretization parameters.

    n_points is the interior matrix dimension (>= 16).  shift is the
    spectral point the eigensolver inverts around, meant to sit below the
    lowest level; None selects 1.1 times the closed-form depth of U's
    attractive directions on this grid, or of spectral's negative-root
    window where that is shallower.  The window is not certified, so
    neither is the default: it can sit above the grid's lowest level.
    """

    n_points: int
    shift: float | None = None

    def __post_init__(self):
        if self.n_points < 16:
            raise ConstraintError("n_points must be at least 16")


def _grid(g: BoxGeometry, n_points: int):
    """The grid step h and the hopping t = hbar^2 / (2 m h^2)."""
    h = g.l / (n_points + 1)
    return h, g.hbar**2 / (2.0 * g.mass * h * h)


def _shift_invert(p: U2Params, g: BoxGeometry, n_points: int, sigma: float):
    """The reduced Hamiltonian H and the solve with H - sigma, as linear operators."""
    from scipy.linalg.lapack import zgttrf, zgttrs
    from scipy.sparse.linalg import LinearOperator

    h, t = _grid(g, n_points)
    U, eye2 = to_matrix(p), np.eye(2)
    # boundary rows: B (psi_0, psi_N)^t = -i L0 (U+I) (r0, rN)^t with
    # r0 = (4 psi_1 - psi_2)/(2h), rN = (4 psi_{N-1} - psi_{N-2})/(2h)
    B = (U - eye2) - (3j * p.L0 / (2.0 * h)) * (U + eye2)
    if not np.linalg.cond(B) <= 1e12:  # nan and inf included
        raise ContradictionError("wall-elimination system is ill conditioned; change n_points")
    W = -1j * p.L0 * np.linalg.solve(B, (U + eye2))
    # the rows of psi_1 and psi_{N-1} gain -t psi_0 and -t psi_N, where
    # (psi_0, psi_N) = W (r0, rN): R holds those weights on the columns cols
    ends, cols = [0, n_points - 1], [0, 1, n_points - 1, n_points - 2]
    R = (-t / (2.0 * h)) * np.kron(W, [4.0, -1.0])

    def apply_h(v):
        y = np.multiply(2.0 * t, v, dtype=complex)
        y[1:] -= t * v[:-1]
        y[:-1] -= t * v[1:]
        y[ends] += R @ v[cols]
        return y

    # Woodbury: (H - sigma)^-1 = (I - Z K) (T - sigma)^-1, Z = (T - sigma)^-1 E, K = (I + R Z)^-1 R
    off = np.full(n_points - 1, -t, dtype=complex)
    *lu, info = zgttrf(off, np.full(n_points, 2.0 * t - sigma, dtype=complex), off)
    if info != 0:
        raise ContradictionError(f"T - sigma is singular at sigma = {sigma!r}")
    Z, _ = zgttrs(*lu, np.vstack([[1.0, 0.0], np.zeros((n_points - 2, 2)), [0.0, 1.0]]))
    try:
        K = np.linalg.solve(eye2 + R @ Z[cols], R)
    except np.linalg.LinAlgError as exc:
        raise ContradictionError(f"H - sigma is singular at sigma = {sigma!r}") from exc

    def solve(b):
        y, _ = zgttrs(*lu, b)
        c = K @ y[cols]
        # not Z @ c: numpy's threaded matmul leaves its BLAS threads spinning against ARPACK's
        y -= Z[:, 0] * c[0]
        y -= Z[:, 1] * c[1]
        return y

    return tuple(LinearOperator((n_points, n_points), f, dtype=complex) for f in (apply_h, solve))


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
    """Lowest n_levels eigenvalues of the discretized Hamiltonian.

    ARPACK converges exactly the n_levels eigenvalues nearest the shift,
    which are the lowest because the spectrum is real and the shift sits
    below it; a shift above some levels (an explicit one, or the default's
    window term) returns those nearest it instead.  Eigenvalues are
    returned sorted ascending as real floats; degenerate levels appear as
    near-equal copies, and a count that cuts a degenerate level returns
    one copy of it.  Raises ContradictionError when the
    eigensolver fails or the eigenvalues come out measurably complex.
    """
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigs

    if n_levels < 1:
        raise ConstraintError("n_levels must be at least 1")
    if n_levels > cfg.n_points // 4:
        raise ConstraintError("n_levels must be far below n_points")
    sigma = cfg.shift if cfg.shift is not None else _default_shift(p, g, cfg.n_points)
    # T - sigma holds 2t - sigma rounded to the ulp of 2t, which moves sigma by
    # up to eps (N + 1)^2 energy scales: the levels are mapped back from
    # 1 / (E - sigma) with the shift that was factored, not the one asked for
    two_t = 2.0 * _grid(g, cfg.n_points)[1]
    sigma = two_t - (two_t - sigma)
    H, OPinv = _shift_invert(p, g, cfg.n_points, sigma)
    # seeded for reproducible output; a constant vector misses odd modes of a symmetric box
    v0 = np.random.default_rng(0).standard_normal(cfg.n_points)
    # ARPACK's tol is relative to the shift-inverted eigenvalue 1 / (E - sigma),
    # so a level carries up to about 1e-10 |E - sigma| of solver error: far
    # below the grid's O(h^2) error near a shallow shift, not at a deep one
    try:
        vals = eigs(H, k=n_levels, sigma=sigma, which="LM", v0=v0,
                    tol=1e-10, return_eigenvectors=False, maxiter=5000, OPinv=OPinv)
    except (ArpackError, ArpackNoConvergence) as exc:
        raise ContradictionError(f"eigensolver failed: {exc}") from exc
    vals = vals[np.argsort(vals.real)]
    for ev in vals:
        if abs(ev.imag) > 1e-9 * max(g.energy_scale, abs(ev.real)):
            raise ContradictionError(f"eigenvalue {ev!r} has a non-negligible imaginary part")
    return vals.real.copy()
