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
`spectral_fingerprint`.  The level conditions of many points are therefore
one array expression, and `spectra` solves a batch of points in shared array
passes; `spectrum` is a batch of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
    "spectra",
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


def _pos_resid_deriv2(u, lam, s, c1, c2, b_i):
    ul = u * lam
    return (2.0 * c2 * lam**2 - 4.0 * lam * s - (c1 + c2 * ul**2)) * np.sin(u) + (
        4.0 * c2 * lam * ul - 2.0 * ul * s
    ) * np.cos(u)


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


def _neg_resid_scaled_deriv2(v, lam, s, c1, c2, b_i):
    vl = v * lam
    em = np.exp(-v)
    em2 = em * em
    return (
        4.0 * lam * b_i * em * (v - 2.0)
        - 2.0 * c2 * lam**2 * (1.0 - em2)
        + (8.0 * s * (vl - lam) - 8.0 * c2 * lam * vl - 4.0 * (c1 - c2 * vl**2)) * em2
    )


# ---------------------------------------------------------------------------
# batched root finding: many segments of many points in one array pass
# ---------------------------------------------------------------------------

#: refinement steps before a bracket counts as stuck; Brent's halving rule
#: closes any bracket of the grids in about a hundred
_MAX_STEPS = 200


def _coeffs(points, g: BoxGeometry):
    """Residual parameters (lam, s, c1, c2, b_i) of each point, one column per point."""
    rows = [(p.L0 / g.l, *_fingerprint_coeffs(p)) for p in points]
    return np.array(rows, dtype=float).reshape(-1, 5).T


def _refine(f, df, a, b, fa, fb, P):
    """The root of f in each bracket [a, b] whose ends fa, fb differ in sign.

    Bracketed Newton on every bracket at once.  Each step evaluates f at the
    iterate x and at x -+ tol, tol = 1e-15 + _ROOT_RTOL |x|, and keeps the
    tightest sign-change bracket among those points and the old ends; the
    probes step over the residual's rounding noise, which would stall plain
    Newton.  A bracket at most 2 tol wide is done, and its end with the
    smaller |f| is the root.  The first iterate is the secant point of the
    bracket, and the next is the Newton step from x; the secant point of the
    new bracket replaces a Newton step that leaves it, and its midpoint is
    taken when the bracket has not halved in two steps (Brent's rule), so
    that every bracket closes.  P holds each bracket's residual parameters.
    """
    m = len(a)
    out = np.empty(m)
    # rows 0-4: a, x - tol, x, x + tol, b; rows 5-9: f at those points; the
    # bracket width one and two steps back, the output slot, then the
    # residual parameters; finished columns are dropped after each probe
    s = np.empty((13 + len(P), m))
    s[0], s[4], s[5], s[9] = a, b, fa, fb
    s[2] = a - fa * (b - a) / (fb - fa)
    s[10], s[11], s[12], s[13:] = b - a, np.inf, np.arange(m), P
    cols, P = np.arange(m), tuple(s[13:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            x = s[2]
            tol = _ROOT_RTOL * np.abs(x) + 1e-15
            np.maximum(x - tol, s[0], out=s[1])
            np.minimum(x + tol, s[4], out=s[3])
            s[6:9] = f(s[1:4], *P)
            width = np.where(s[5:9] * s[6:10] <= 0.0, s[1:5] - s[:4], np.inf)
            s[_ENDS] = s[width.argmin(axis=0) + _PICK, cols]
            a, b, fa, fb = s[0], s[4], s[5], s[9]
            w = b - a
            done = w <= 2.0 * tol
            if done.any():
                out[s[12, done].astype(int)] = np.where(np.abs(fa) <= np.abs(fb), a, b)[done]
                if done.all():
                    return out
                s, w = s[:, ~done], w[~done]
                cols, P = cols[: len(w)], tuple(s[13:])
                a, b, fa, fb = s[0], s[4], s[5], s[9]
            x = s[2]
            xn = x - s[7] / df(x, *P)
            xn = np.where((xn > a) & (xn < b), xn, a - fa * w / (fb - fa))
            s[2] = np.where(w > 0.5 * s[11], 0.5 * (a + b), xn)
            s[11] = s[10]
            s[10] = w
    raise ContradictionError("root refinement failed to converge")


#: rows of _refine's state that hold a, b, f(a), f(b), and their offsets
#: from the left end of the chosen sign-change interval
_ENDS = [0, 4, 5, 9]
_PICK = np.array([[0], [1], [5], [6]])


#: the crossing search probes 31 grid points of a piece per step, at these
#: thirtieths of the way across it
_SPREAD = np.arange(31)


def _rows(start, stop, n):
    """Row i is np.linspace(start[i], stop[i], n), bit for bit."""
    row = np.arange(n) * ((stop - start) / (n - 1))[:, None]
    row += start[:, None]
    row[:, -1] = stop
    return row


def _scan_segments(f, df, d2f, start, stop, num, P):
    """All roots of f on the grids linspace(start[i], stop[i], num[i]), with multiplicities.

    P holds each segment's residual parameters, one column per segment.
    Breakpoints are the refined local extrema (sign changes of df on the
    grid); every monotone piece is then bisected on a sign change, so no
    simple root separated from its neighbours by more than the grid step can
    be missed.  An extremum whose residual is below _TOUCH_TOL * scale while
    the flanking values share a sign is an even-order zero and is recorded
    with multiplicity 2; an extremum whose central value crosses instead
    hides a close pair of simple roots, which are both recovered.

    Returns (roots, multiplicities, segments), ordered by segment, then root.
    """
    # segments of one length form a 2-d grid whose rows broadcast against
    # their parameters, and a run of equal grids (every dense negative
    # window) is built and evaluated as one row; x holds all grids end to
    # end, in order of length.  A cell over which df changes sign strictly
    # brackets an extremum
    order = np.argsort(num, kind="stable")
    start, stop, num, P = start[order], stop[order], num[order], P[:, order]
    offset = np.concatenate([[0], np.cumsum(num)])
    first, last = offset[:-1], offset[1:] - 1
    x = np.empty(offset[-1])
    cells, dl, dr = [], [], []
    runs = [0, *(np.flatnonzero(num[1:] != num[:-1]) + 1), len(num)]
    for r0, r1 in zip(runs[:-1], runs[1:]):
        n, lo, hi = num[r0], start[r0:r1], stop[r0:r1]
        if (lo == lo[0]).all() and (hi == hi[0]).all():
            lo, hi = lo[:1], hi[:1]
        row = _rows(lo, hi, n)
        x[offset[r0] : offset[r1]].reshape(r1 - r0, n)[:] = row
        d = df(row, *P[:, r0:r1, None])
        up, down = d > 0.0, d < 0.0
        r, c = np.nonzero((up[:, :-1] & down[:, 1:]) | (down[:, :-1] & up[:, 1:]))
        cells.append(offset[r0] + r * n + c)
        dl.append(d[r, c])
        dr.append(d[r, c + 1])
    i = np.concatenate(cells)
    iseg = np.searchsorted(offset, i, side="right") - 1
    Pi = P[:, iseg]
    extrema = x[:0]
    if len(i):
        extrema = _refine(df, d2f, x[i], x[i + 1], np.concatenate(dl), np.concatenate(dr), Pi)

    # breakpoints: each segment's ends and extrema, sorted, without repeats;
    # a value that is both an end and an extremum counts as an extremum.
    # lo and hi are the first and last grid index inside [break, next break]
    bx = np.concatenate([x[first], x[last], extrema])
    bseg = np.concatenate([np.arange(len(num)), np.arange(len(num)), iseg])
    lo = np.concatenate([first, last, i + 1])
    hi = np.concatenate([first, last, i])
    bext = np.arange(len(bx)) >= 2 * len(num)
    keep = np.lexsort((~bext, bx, bseg))
    new = np.ones(len(keep), dtype=bool)
    new[1:] = (np.diff(bx[keep]) != 0.0) | (np.diff(bseg[keep]) != 0)
    keep = keep[new]
    bx, bseg, bext, lo, hi = bx[keep], bseg[keep], bext[keep], lo[keep], hi[keep]
    fb = f(bx, *P[:, bseg])
    same = bseg[1:] == bseg[:-1]  # breakpoints j and j + 1 bound a piece

    # even-order zeros: an extremum that touches zero while its flanking
    # breakpoint values share a sign; the adjacent monotone pieces are then
    # consumed so that residual noise at the touch cannot double-count
    j = np.flatnonzero(same[:-1] & same[1:] & bext[1:-1]) + 1
    scale = _TOUCH_TOL * np.maximum(1.0, (bx[j] * P[0, bseg[j]]) ** 2)
    touch = j[(fb[j - 1] * fb[j + 1] > 0.0) & (np.abs(fb[j]) <= scale)]
    free = np.ones(len(bx), dtype=bool)
    free[touch] = False

    # simple crossings on the monotone pieces (close pairs around a
    # non-touching extremum land in two adjacent pieces and are both found);
    # a piece starting exactly on a root reports it, unless it opens a segment
    j = np.flatnonzero(same & free[:-1] & free[1:])
    hit = j[(fb[j] == 0.0) & (j > 0) & same[j - 1]]
    cross = j[fb[j] * fb[j + 1] < 0.0]

    # a piece can span many grid cells, where Newton converges slowly; a
    # search over the grid points inside it (index lo - 1 standing for its
    # left break, hi + 1 for its right one) narrows it to one cell on which
    # f changes sign, so each piece still yields exactly one root.  Each
    # step evaluates f at up to len(_SPREAD) points spread evenly over the
    # open range and keeps the cell before the first one past the sign change
    roots = x[:0]
    if len(cross):
        L, H = lo[cross] - 1, hi[cross + 1] + 1
        fl, fh = fb[cross], fb[cross + 1]
        Pc = P[:, bseg[cross]]
        k = np.flatnonzero(H - L > 1)
        while len(k):
            M = L[k, None] + 1 + (H[k] - L[k] - 2)[:, None] * _SPREAD // _SPREAD[-1]
            fm = f(x[M], *Pc[:, k, None])
            flip = fm * fl[k, None] <= 0.0
            j = np.where(flip.any(axis=1), flip.argmax(axis=1), len(_SPREAD))
            r = np.arange(len(k))
            up, down = j < len(_SPREAD), j > 0
            H[k[up]], fh[k[up]] = M[r[up], j[up]], fm[r[up], j[up]]
            L[k[down]], fl[k[down]] = M[r[down], j[down] - 1], fm[r[down], j[down] - 1]
            k = k[H[k] - L[k] > 1]
        a = np.where(L < lo[cross], bx[cross], x[np.maximum(L, 0)])
        b = np.where(H > hi[cross + 1], bx[cross + 1], x[np.minimum(H, len(x) - 1)])
        roots = _refine(f, df, a, b, fl, fh, Pc)

    rx = np.concatenate([bx[touch], bx[hit], roots])
    rm = np.repeat([2, 1], [len(touch), len(hit) + len(cross)])
    rseg = order[np.concatenate([bseg[touch], bseg[hit], bseg[cross]])]
    out = np.lexsort((rm, rx, rseg))
    return rx[out], rm[out], rseg[out]


def _positive_roots(P, k_max, l):
    """(k, multiplicity) of every positive level in (0, k_max[i]] of each point."""
    u_max = k_max * l
    n = np.maximum(2, np.ceil((u_max - _U_FLOOR) / _SCAN_STEP).astype(int) + 1)
    floor = np.full(len(n), _U_FLOOR)
    u, m, seg = _scan_segments(_pos_resid, _pos_resid_deriv, _pos_resid_deriv2, floor, u_max, n, P)
    keep = u > _U_FLOOR * (1.0 + 1e-6)
    roots = list(zip((u[keep] / l).tolist(), m[keep].tolist()))
    cuts = np.searchsorted(seg[keep], np.arange(1, len(n))).tolist()
    return [roots[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(roots)])]


def _negative_ceilings(P):
    """negative_search_ceiling of each point, doubling all open windows at once."""
    v = np.maximum(np.maximum(10.0, 4.0 / P[0]), 4.0 * P[0])
    out = np.empty(len(v))
    todo = np.arange(len(v))
    for _ in range(60):
        vals = _neg_resid_scaled(_rows(v, 2.0 * v, 129), *P[:, todo, None])
        closed = np.all(vals > 0.0, axis=1) | np.all(vals < 0.0, axis=1)
        out[todo[closed]] = 2.0 * v[closed]
        todo, v = todo[~closed], 2.0 * v[~closed]
        if not len(todo):
            return out
    raise ContradictionError("negative-level window failed to close")


def _negative_roots(P, l):
    """(kappa, multiplicity) of every negative level of each point, at most two."""
    starts, stops, nums, owner = [], [], [], []
    for i, v_max in enumerate(_negative_ceilings(P).tolist()):
        start = min(12.0, v_max)
        starts.append(_U_FLOOR), stops.append(start), nums.append(768), owner.append(i)
        while start < v_max * (1.0 - 1e-12):
            stop = min(2.0 * start, v_max)
            starts.append(start), stops.append(stop), nums.append(257), owner.append(i)
            start = stop
    owner = np.array(owner, dtype=int)
    v, m, seg = _scan_segments(
        _neg_resid_scaled, _neg_resid_scaled_deriv, _neg_resid_scaled_deriv2,
        np.array(starts), np.array(stops), np.array(nums), P[:, owner],
    )
    roots = [[] for _ in range(P.shape[1])]
    for root, mult, i in zip(v.tolist(), m.tolist(), owner[seg].tolist()):
        if mult == 2:
            warnings.warn(
                f"tangential negative-level root at kappa*l = {root!r}; "
                "even-order bound-state zeros deserve manual review",
                RuntimeWarning,
                stacklevel=3,
            )
        if root <= _U_FLOOR * (1.0 + 1e-6):
            continue
        if roots[i] and abs(root - roots[i][-1][0]) <= 1e-12 * max(1.0, root):
            continue  # same root straddling a segment boundary
        roots[i].append((root, mult))
    for r in roots:
        total = sum(m for _, m in r)
        if total > 2:
            raise ContradictionError(
                f"{total} negative-level roots found; the structural bound is two"
            )
    return [[(v / l, m) for v, m in r] for r in roots]


# ---------------------------------------------------------------------------
# public root finders and spectra
# ---------------------------------------------------------------------------


def find_positive_roots(p: U2Params, g: BoxGeometry, k_max: float):
    """All positive-level momenta in (0, k_max] as (k, multiplicity) pairs.

    Multiplicity 2 marks an even-order zero of the condition (a doubly
    degenerate level, as happens on the scale-invariant sphere at
    Im beta = +-1).
    """
    if not k_max > 0.0:
        raise ConstraintError("k_max must be positive")
    return _positive_roots(_coeffs((p,), g), np.array([float(k_max)]), g.l)[0]


def negative_search_ceiling(p: U2Params, g: BoxGeometry):
    """Dimensionless window [0, v_max] certain to contain every negative root.

    Starts from max(10, 4/lam, 4*lam) and keeps doubling until the scaled
    residual holds one sign across a full doubling, past which the hyperbolic
    envelope is monotone.
    """
    return float(_negative_ceilings(_coeffs((p,), g))[0])


def find_negative_roots(p: U2Params, g: BoxGeometry):
    """Negative-level decay rates as (kappa, multiplicity) pairs, at most two.

    Raises ContradictionError when more than two are detected, which would
    contradict the structural bound on bound states and signals a bug.  A
    tangential (even-order) negative root is reported with multiplicity 2 and
    flagged with a RuntimeWarning for manual review.
    """
    return _negative_roots(_coeffs((p,), g), g.l)[0]


def spectral_fingerprint(p: U2Params):
    """(xi, Re alpha, Im beta): all that the spectrum depends on besides L0."""
    return (p.xi, p.alpha.real, p.beta.imag)


def spectra(points, g: BoxGeometry, n_levels: int) -> list:
    """`spectrum(p, g, n_levels)` of every point, solved as one batch.

    The root search of all points runs in shared array passes, and the
    positive-sector enlargement of k_max re-runs only for the points still
    short of levels; each point's result is the same as when it is alone.
    """
    if n_levels < 1:
        raise ConstraintError("n_levels must be at least 1")
    points = list(points)
    if not points:
        return []
    P = _coeffs(points, g)
    esc = g.hbar**2 / (2.0 * g.mass)
    has_zero = [zero_mode_exists(p, g) for p in points]
    levels, n_pos, k_max = [], [], []
    for zero, neg in zip(has_zero, _negative_roots(P, g.l)):
        lv = [Level(SECTOR_NEGATIVE, kappa, -esc * kappa**2, mult)
              for kappa, mult in sorted(neg, reverse=True)]
        if zero:
            lv.append(Level(SECTOR_ZERO, None, 0.0, 1))
        levels.append(lv)
        n_pos.append(max(0, n_levels - len(lv)))
        k_max.append((n_pos[-1] + 2) * math.pi / g.l * 1.25)

    pos = [None] * len(points)
    todo = list(range(len(points)))
    for _ in range(40):
        found = _positive_roots(P[:, todo], np.array([k_max[i] for i in todo]), g.l)
        short = []
        for i, roots in zip(todo, found):
            if has_zero[i]:
                roots = [(k, m) for k, m in roots if k * g.l >= _ZERO_SHADOW_U]
            pos[i] = roots
            if len(roots) < n_pos[i]:
                k_max[i] *= 1.6
                short.append(i)
        todo = short
        if not todo:
            break
    else:
        raise ContradictionError("positive-level search failed to fill the request")

    out = []
    for lv, roots, k_top in zip(levels, pos, k_max):
        lv += [Level(SECTOR_POSITIVE, k, esc * k**2, mult) for k, mult in roots]
        lv.sort(key=lambda level: level.energy)
        out.append(Spectrum(levels=tuple(lv[:n_levels]), k_max=k_top))
    return out


def spectrum(p: U2Params, g: BoxGeometry, n_levels: int) -> Spectrum:
    """The n_levels lowest levels: negative, then zero if present, then positive.

    The positive-sector cutoff k_max is raised adaptively until enough levels
    are found.  When a zero mode is present, positive roots with k*l below
    1e-3 are treated as its numerical shadow and dropped.
    """
    return spectra((p,), g, n_levels)[0]
