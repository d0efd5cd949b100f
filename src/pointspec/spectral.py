"""Exact spectra of the point-interaction box: level conditions and roots.

For a boundary point (xi, alpha, beta, L0) on a box of width l the energy
levels split into three sectors.

Positive energy E = hbar^2 k^2 / 2m, where k > 0 solves

    2 k L0 (Im beta + sin xi cos kl)
      + [(cos xi - Re alpha) + (cos xi + Re alpha)(k L0)^2] sin kl = 0.

Negative energy E = -hbar^2 kappa^2 / 2m, where kappa > 0 solves the same
condition with k -> -i kappa (at most two solutions exist).  A zero-energy
state psi = A x + B exists iff

    (Im beta + sin xi) - (l / 2 L0)(Re alpha - cos xi) = 0.

All root finding happens in the dimensionless variable u = k l (v = kappa l)
with the single scale ratio lam = L0 / l; only (xi, Re alpha, Im beta, lam)
enter, which is the spectral-space reduction this module also exposes via
`spectral_fingerprint`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConstraintError, ContradictionError
from .u2param import U2Params

__all__ = [
    "BoxGeometry",
    "Level",
    "Spectrum",
    "positive_condition",
    "negative_condition",
    "zero_mode_condition",
    "zero_mode_exists",
    "find_positive_roots",
    "find_negative_roots",
    "negative_search_ceiling",
    "spectrum",
    "spectral_fingerprint",
]

#: scan step in u = k*l for the positive-level bracketing grid
_SCAN_STEP = math.pi / 16.0
#: relative tolerance handed to the bracketing refinements
_ROOT_RTOL = 4 * np.finfo(float).eps
#: an extremum of the condition counts as an even-order (double) root when
#: its residual is below this times the local residual scale
_TOUCH_TOL = 1e-10
#: smallest u = k*l treated as a genuine positive level
_U_FLOOR = 1e-9
#: positive roots below this u are the numerical shadow of a zero mode and
#: are dropped from assembled spectra when the zero-mode flag is set
_ZERO_SHADOW_U = 1e-3

ZERO_MODE_TOL = 1e-9

SECTOR_NEGATIVE = "negative"
SECTOR_ZERO = "zero"
SECTOR_POSITIVE = "positive"


@dataclass(frozen=True)
class BoxGeometry:
    """Box width and physical constants; everything strictly positive."""

    l: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("l", "hbar", "mass"):
            if not getattr(self, name) > 0.0:
                raise ConstraintError(f"{name} must be strictly positive")

    @property
    def energy_scale(self) -> float:
        """hbar^2 / (2 m l^2), the natural level spacing unit."""
        return self.hbar**2 / (2.0 * self.mass * self.l**2)


@dataclass(frozen=True)
class Level:
    """One energy level.

    parameter is k for the positive sector, kappa for the negative sector and
    None for the zero mode.  multiplicity is 2 exactly when the level
    condition has an even-order zero there.
    """

    sector: str
    parameter: float | None
    energy: float
    multiplicity: int = 1


@dataclass(frozen=True)
class Spectrum:
    """Energy-ordered list of levels plus the momentum cutoff that was used."""

    levels: tuple
    k_max: float

    def energies(self) -> list:
        return [lv.energy for lv in self.levels]


def _fingerprint_coeffs(p: U2Params):
    """(sin xi, c1, c2, Im beta) with c1 = cos xi - Re alpha, c2 = cos xi + Re alpha.

    Built strictly from the fingerprint (xi, Re alpha, Im beta) so that equal
    fingerprints give bitwise-equal conditions.
    """
    s, c = math.sin(p.xi), math.cos(p.xi)
    a_r = p.alpha.real
    return s, c - a_r, c + a_r, p.beta.imag


def positive_condition(p: U2Params, g: BoxGeometry, k):
    """Residual of the positive-level condition at momentum k (any sign).

    Vanishes exactly at the allowed momenta.  Accepts scalars or arrays.
    """
    k = np.asarray(k, dtype=float)
    out = _pos_resid(k * g.l, p.L0 / g.l, *_fingerprint_coeffs(p))
    return out if out.ndim else float(out)


def negative_condition(p: U2Params, g: BoxGeometry, kappa):
    """Residual of the negative-level condition at decay rate kappa > 0."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0.0):
        raise ConstraintError("kappa must be strictly positive")
    v = kappa * g.l
    out = 0.5 * np.exp(v) * _neg_resid_scaled(v, p.L0 / g.l, *_fingerprint_coeffs(p))
    return out if out.ndim else float(out)


def zero_mode_condition(p: U2Params, g: BoxGeometry) -> float:
    """Left side of the zero-mode existence condition (dimensionless)."""
    s, c1, _, b_i = _fingerprint_coeffs(p)
    lam = p.L0 / g.l
    # (Im beta + sin xi) - (l / 2 L0)(Re alpha - cos xi); note c1 = -(aR - cos xi)
    return (b_i + s) + c1 / (2.0 * lam)


def zero_mode_exists(p: U2Params, g: BoxGeometry, tol: float = ZERO_MODE_TOL) -> bool:
    """True iff a zero-energy state A x + B is admitted within `tol`."""
    return abs(zero_mode_condition(p, g)) < tol


# ---------------------------------------------------------------------------
# dimensionless residuals and their derivatives
# ---------------------------------------------------------------------------


def _pos_resid(u, lam, s, c1, c2, b_i):
    ul = u * lam
    return 2.0 * ul * (b_i + s * np.cos(u)) + (c1 + c2 * ul**2) * np.sin(u)


def _pos_resid_deriv(u, lam, s, c1, c2, b_i):
    ul = u * lam
    return (
        2.0 * lam * (b_i + s * np.cos(u))
        - 2.0 * ul * s * np.sin(u)
        + 2.0 * c2 * lam * ul * np.sin(u)
        + (c1 + c2 * ul**2) * np.cos(u)
    )


def _neg_resid_scaled(v, lam, s, c1, c2, b_i):
    """2 exp(-v) times the negative-level residual; same roots, no overflow."""
    vl = v * lam
    em = np.exp(-v)
    em2 = em * em
    return 4.0 * vl * b_i * em + 2.0 * vl * s * (1.0 + em2) + (c1 - c2 * vl**2) * (1.0 - em2)


def _neg_resid_scaled_deriv(v, lam, s, c1, c2, b_i):
    vl = v * lam
    em = np.exp(-v)
    em2 = em * em
    return (
        4.0 * lam * b_i * em * (1.0 - v)
        + 2.0 * lam * s * (1.0 + em2)
        - 4.0 * vl * s * em2
        - 2.0 * c2 * lam * vl * (1.0 - em2)
        + (c1 - c2 * vl**2) * 2.0 * em2
    )


def _residual_scale(u, lam):
    return max(1.0, (u * lam) ** 2)


def _scan_segment(f, df, grid, lam, touch_tol, on_double=None):
    """All roots of f on [grid[0], grid[-1]] with multiplicities.

    Breakpoints are the refined local extrema (sign changes of df on the
    grid); every monotone piece is then bisected on a sign change, so no
    simple root separated from its neighbours by more than the grid step can
    be missed.  An extremum whose residual is below touch_tol * scale while
    the flanking values share a sign is an even-order zero and is recorded
    with multiplicity 2; an extremum whose central value crosses instead
    hides a close pair of simple roots, which are both recovered.
    """
    dv = df(grid)
    sign_d = np.sign(dv)
    extrema = []
    for i in np.nonzero(sign_d[:-1] * sign_d[1:] < 0)[0]:
        extrema.append(brentq(df, grid[i], grid[i + 1], rtol=_ROOT_RTOL, xtol=1e-15))
    breaks = np.unique(np.concatenate([[grid[0]], extrema, [grid[-1]]]))
    fb = f(breaks)
    is_ext = np.isin(breaks, extrema)

    roots = []
    # even-order zeros: an extremum that touches zero while its flanking
    # breakpoint values share a sign; the adjacent monotone pieces are then
    # consumed so that residual noise at the touch cannot double-count
    consumed = np.zeros(len(breaks), dtype=bool)
    for j in range(1, len(breaks) - 1):
        if not is_ext[j]:
            continue
        fe = fb[j]
        fa, fc = fb[j - 1], fb[j + 1]
        if fa * fc <= 0.0:
            continue  # an ordinary crossing lives in one of the pieces
        scale = touch_tol * _residual_scale(breaks[j], lam)
        if abs(fe) <= scale:
            roots.append((breaks[j], 2))
            if on_double is not None:
                on_double(breaks[j])
            consumed[j] = True
    # simple crossings on the monotone pieces (close pairs around a
    # non-touching extremum land in two adjacent pieces and are both found)
    for j in range(len(breaks) - 1):
        if consumed[j] or consumed[j + 1]:
            continue
        fa, fc = fb[j], fb[j + 1]
        if fa == 0.0:
            if j > 0:
                roots.append((breaks[j], 1))
            continue
        if fa * fc < 0.0:
            roots.append((brentq(f, breaks[j], breaks[j + 1], rtol=_ROOT_RTOL, xtol=1e-15), 1))
    roots.sort()
    return roots


def find_positive_roots(p: U2Params, g: BoxGeometry, k_max: float):
    """All positive-level momenta in (0, k_max] as (k, multiplicity) pairs.

    Multiplicity 2 marks an even-order zero of the condition (a doubly
    degenerate level, as happens on the scale-invariant sphere at
    Im beta = +-1).
    """
    if not k_max > 0.0:
        raise ConstraintError("k_max must be positive")
    lam = p.L0 / g.l
    s, c1, c2, b_i = _fingerprint_coeffs(p)
    u_max = k_max * g.l
    n = max(2, int(math.ceil((u_max - _U_FLOOR) / _SCAN_STEP)) + 1)
    grid = np.linspace(_U_FLOOR, u_max, n)
    f = lambda u: _pos_resid(u, lam, s, c1, c2, b_i)
    df = lambda u: _pos_resid_deriv(u, lam, s, c1, c2, b_i)
    roots = _scan_segment(f, df, grid, lam, _TOUCH_TOL)
    return [(float(u) / g.l, m) for u, m in roots if u > _U_FLOOR * (1.0 + 1e-6)]


def negative_search_ceiling(p: U2Params, g: BoxGeometry):
    """Dimensionless window [0, v_max] certain to contain every negative root.

    Starts from max(10, 4/lam, 4*lam) and keeps doubling until the scaled
    residual holds one sign across a full doubling, past which the hyperbolic
    envelope is monotone.
    """
    lam = p.L0 / g.l
    s, c1, c2, b_i = _fingerprint_coeffs(p)
    v = max(10.0, 4.0 / lam, 4.0 * lam)
    for _ in range(60):
        seg = np.linspace(v, 2.0 * v, 129)
        vals = _neg_resid_scaled(seg, lam, s, c1, c2, b_i)
        if np.all(vals > 0.0) or np.all(vals < 0.0):
            return 2.0 * v
        v *= 2.0
    raise ContradictionError("negative-level window failed to close")


def find_negative_roots(p: U2Params, g: BoxGeometry):
    """Negative-level decay rates as (kappa, multiplicity) pairs, at most two.

    Raises ContradictionError when more than two are detected, which would
    contradict the structural bound on bound states and signals a bug.  A
    tangential (even-order) negative root is reported with multiplicity 2 and
    flagged with a RuntimeWarning for manual review.
    """
    lam = p.L0 / g.l
    s, c1, c2, b_i = _fingerprint_coeffs(p)
    v_max = negative_search_ceiling(p, g)
    f = lambda v: _neg_resid_scaled(v, lam, s, c1, c2, b_i)
    df = lambda v: _neg_resid_scaled_deriv(v, lam, s, c1, c2, b_i)

    def warn_double(v):
        warnings.warn(
            f"tangential negative-level root at kappa*l = {v!r}; "
            "even-order bound-state zeros deserve manual review",
            RuntimeWarning,
            stacklevel=3,
        )

    v_dense_end = min(12.0, v_max)
    grids = [np.linspace(_U_FLOOR, v_dense_end, 768)]
    start = v_dense_end
    while start < v_max * (1.0 - 1e-12):
        stop = min(2.0 * start, v_max)
        grids.append(np.linspace(start, stop, 257))
        start = stop
    roots = []
    for grid in grids:
        for v, m in _scan_segment(f, df, grid, lam, _TOUCH_TOL, on_double=warn_double):
            if v <= _U_FLOOR * (1.0 + 1e-6):
                continue
            if roots and abs(v - roots[-1][0]) <= 1e-12 * max(1.0, v):
                continue  # same root straddling a segment boundary
            roots.append((v, m))
    total = sum(m for _, m in roots)
    if total > 2:
        raise ContradictionError(
            f"{total} negative-level roots found; the structural bound is two"
        )
    return [(float(v) / g.l, m) for v, m in roots]


def spectral_fingerprint(p: U2Params):
    """(xi, Re alpha, Im beta): all that the spectrum depends on besides L0."""
    return (p.xi, p.alpha.real, p.beta.imag)


def spectrum(p: U2Params, g: BoxGeometry, n_levels: int) -> Spectrum:
    """The n_levels lowest levels: negative, then zero if present, then positive.

    The positive-sector cutoff k_max is raised adaptively until enough levels
    are found.  When a zero mode is present, positive roots with k*l below
    1e-3 are treated as its numerical shadow and dropped.
    """
    if n_levels < 1:
        raise ConstraintError("n_levels must be at least 1")
    esc = g.hbar**2 / (2.0 * g.mass)
    levels = []
    for kappa, mult in sorted(find_negative_roots(p, g), reverse=True):
        levels.append(Level(SECTOR_NEGATIVE, kappa, -esc * kappa**2, mult))
    has_zero = zero_mode_exists(p, g)
    if has_zero:
        levels.append(Level(SECTOR_ZERO, None, 0.0, 1))

    n_pos = max(0, n_levels - len(levels))
    k_max = (n_pos + 2) * math.pi / g.l * 1.25
    pos = []
    for _ in range(40):
        pos = find_positive_roots(p, g, k_max)
        if has_zero:
            pos = [(k, m) for k, m in pos if k * g.l >= _ZERO_SHADOW_U]
        if len(pos) >= n_pos:
            break
        k_max *= 1.6
    else:
        raise ContradictionError("positive-level search failed to fill the request")
    for k, mult in pos:
        levels.append(Level(SECTOR_POSITIVE, k, esc * k**2, mult))
    levels.sort(key=lambda lv: lv.energy)
    return Spectrum(levels=tuple(levels[:n_levels]), k_max=k_max)
