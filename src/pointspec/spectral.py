"""Exact spectra of the point-interaction box: level conditions, level counts and roots.

For a boundary point (xi, alpha, beta, L0) on a box of width l the energy
levels split into three sectors.

Positive energy E = hbar^2 k^2 / 2m, where k > 0 solves

    2 k L0 (Im beta + sin xi cos kl)
      + [(cos xi - Re alpha) + (cos xi + Re alpha)(k L0)^2] sin kl = 0.

Negative energy E = -hbar^2 kappa^2 / 2m, where kappa > 0 solves the same
condition with k -> -i kappa (at most two solutions exist).  A zero-energy
state psi = A x + B exists iff

    (Im beta + sin xi) - (l / 2 L0)(Re alpha - cos xi) = 0.

Only (xi, Re alpha, Im beta) (`spectral_fingerprint`) and lam = L0 / l
enter; work is in u = k l (v = kappa l), with s = sin xi, b_i = Im beta,
c1 = cos xi - Re alpha and c2 = cos xi + Re alpha.

The levels are counted, not searched for.  The interval's Dirichlet-to-
Neumann map is diagonal in the basis (1, +-1)/sqrt 2, with eigenvalues
a = u tan(u/2), b = -u cot(u/2) (a = -v tanh(v/2), b = -v coth(v/2) below
zero energy), so the boundary condition is the Hermitian pencil

    c2 M = [[s + b_i + c2 lam a, g], [conj g, s - b_i + c2 lam b]],

|g|^2 = 1 - Re alpha^2 - Im beta^2, which increases with the energy (a
one-edge quantum graph; Kostrykin-Schrader, J. Phys. A 32 (1999) 595).  Its
determinant is c2 R, R = -c1 + lam ((s - b_i) a + (s + b_i) b) + c2 lam^2 a b
(the positive condition over -sin u, the scaled negative one over
-(1 - e^-2v)), and its trace T = 2 s + c2 lam (a + b).  So floor(t) + n+
states lie below E = (t pi / l)^2 and n+ below E = -(v / l)^2, where n+ is
the number of positive eigenvalues of M.  In the Dirichlet cell
n < t < n + 1 the count scales a, b, R and T by w = tan((t - n) pi / 2) > 0,
which keeps the poles at the cell ends finite.  A |c2| up to 1e-12 is 0:
det(U + I) = 2 e^(i xi) c2, so U has an exact Dirichlet direction, which
leaves R s as the pencil's one eigenvalue.  A |c1| up to 1e-12 is 0 as
well: det(U - I) = 2 e^(i xi) c1, so U has an exact Neumann direction.
Otherwise the float nearest pi/2 leaves c1 = cos xi = 6.1e-17 at the poles
Im beta = +-1, which outweighs lam u once L0 / l is 1e-5 or less: it splits
their double levels and moves the zero level of Im beta = -1.

A step of the count across a Dirichlet energy u = n pi is a level at exactly
n pi (a double one at the poles Im beta = +-1).  Every other state is
isolated in its cell by bisecting on the count.  A bracket that still spans
decades (the first Dirichlet cell and the negative window start at the 1e-9
floor) is narrowed to within a factor 4 by reading the count on a geometric
grid.  The state is then refined on the level condition by safeguarded
Newton, with one residual and one slope per step, or bisected on the count
where the refined root is rounding noise of the condition.  Two states
closer than 1e-7 relative are one double level, placed at the zero of T.
Bound states are sought in [1e-9, `negative_search_ceiling`] only, a
heuristic window: deeper ones are left out, though the count knows them.
The zero level is listed when the zero-mode condition holds and the count
finds states within _ZERO_SHADOW_U of zero energy; they are then the zero
level, with their number as its multiplicity, and are listed in neither
other sector.  `spectra` solves a batch of points in shared array passes;
`spectrum` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, ContradictionError
from .u2param import U2Params, level_coefficients

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

#: relative tolerance handed to the bracketing refinements
_ROOT_RTOL = 4 * np.finfo(float).eps
#: levels are counted from this u = k*l (v = kappa*l) up
_FLOOR = 1e-9 * (1.0 + 1e-6)
#: a state with |u| (or v) below this is the numerical shadow of a zero mode:
#: the zero level stands for it when the zero-mode flag is set
_ZERO_SHADOW_U = 1e-3
#: the count beside the Dirichlet energy u = n pi is read at n pi (1 -+ _GAP)
_GAP = 1e-13
#: two states closer than this, relative, are one double level
_DOUBLE_RTOL = 1e-7
#: the supported L0 / l.  Below it the count's smallest term, (lam u)**2 w
#: at u = _FLOOR and w = _FLOOR / 2, is no longer a normal float; that holds
#: from lam = sqrt(2 tiny / _FLOOR**3) = 6.7e-141 up.  Above it the positive
#: residual's (k L0)**2 overflows at listed levels past k l ~ 1e54
_LAM_RANGE = (1e-140, 1e100)
#: v lam is clipped to this before it is squared in the negative residual and
#: pencil, so that both stay floats while their signs are kept: it is far
#: beyond their roots at every supported L0 / l, and no point with L0 / l up
#: to 1e76 reaches it
_VL_CLIP = 1e153
#: a refined root must have the count pass its state within this, relative
_CHECK_RTOL = 1e-12

ZERO_MODE_TOL = 1e-9
#: the most levels `spectra` lists per point: 10^5 of them take about 0.5 s
#: and 190 MB, and the arrays grow with the request
MAX_LEVELS = 100_000

SECTOR_NEGATIVE = "negative"
SECTOR_ZERO = "zero"
SECTOR_POSITIVE = "positive"


@dataclass(frozen=True)
class BoxGeometry:
    """Box width and physical constants; all finite and strictly positive.

    The energy scale must be a finite nonzero float too, or every energy
    would overflow or vanish.
    """

    l: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("l", "hbar", "mass"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConstraintError(f"{name} must be finite and strictly positive")
        try:
            scale = self.energy_scale
        except (OverflowError, ZeroDivisionError):  # hbar**2 overflows or 2 m l**2 underflows
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise ConstraintError(f"energy scale hbar^2 / (2 m l^2) = {scale!r} is out of range")

    @property
    def energy_scale(self) -> float:
        """hbar^2 / (2 m l^2), the natural level spacing unit."""
        return self.hbar**2 / (2.0 * self.mass * self.l**2)


@dataclass(frozen=True)
class Level:
    """One energy level.

    parameter is k for the positive sector, kappa for the negative sector and
    None for the zero mode.  multiplicity is the number of states at the
    level, 2 where the boundary pencil vanishes in both directions, and at
    a zero level where every A x + B meets the conditions.
    """

    sector: str
    parameter: float | None
    energy: float
    multiplicity: int = 1


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Energy-ordered levels, kept as arrays: level i is sector[i], parameter[i], energy[i], multiplicity[i].

    parameter is NaN at the zero level.  len and indexing read the record
    as a tuple of `Level` values, built on request; a slice is the record
    of those levels, its arrays sliced.
    """

    sector: np.ndarray
    parameter: np.ndarray
    energy: np.ndarray
    multiplicity: np.ndarray

    def __len__(self):
        return len(self.energy)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Spectrum(self.sector[i], self.parameter[i], self.energy[i], self.multiplicity[i])
        i = range(len(self))[i]  # an IndexError past the end also ends iteration
        return self[i:i + 1].levels[0]

    @property
    def levels(self) -> tuple:
        """The levels as `Level` values."""
        return tuple(map(Level, self.sector.tolist(), self.parameters(), self.energies(), self.multiplicity.tolist()))

    def parameters(self) -> list:
        """The parameters as floats, None at the zero level."""
        return [None if s == SECTOR_ZERO else v for s, v in zip(self.sector.tolist(), self.parameter.tolist())]

    def energies(self) -> list:
        return self.energy.tolist()


def positive_condition(p: U2Params, g: BoxGeometry, k):
    """Residual of the positive-level condition at momentum k (any sign).

    Vanishes exactly at the allowed momenta.  Accepts scalars or arrays.
    """
    k = np.asarray(k, dtype=float)
    out = _pos_resid(k * g.l, p.L0 / g.l, *level_coefficients(p))
    return out if out.ndim else float(out)


def negative_condition(p: U2Params, g: BoxGeometry, kappa):
    """Residual of the negative-level condition at decay rate kappa > 0."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0.0):
        raise ConstraintError("kappa must be strictly positive")
    v = kappa * g.l
    out = 0.5 * np.exp(v) * _neg_resid_scaled(v, p.L0 / g.l, *level_coefficients(p))
    return out if out.ndim else float(out)


def _zero_condition(lam, s, c1, b_i):
    """(Im beta + sin xi) - (l / 2 L0)(Re alpha - cos xi), as c1 = -(Re alpha - cos xi); scalars or arrays."""
    return (b_i + s) + c1 / (2.0 * lam)


def zero_mode_condition(p: U2Params, g: BoxGeometry) -> float:
    """Left side of the zero-mode existence condition (dimensionless)."""
    s, c1, _, b_i = level_coefficients(p)
    return _zero_condition(p.L0 / g.l, s, c1, b_i)


def zero_mode_exists(p: U2Params, g: BoxGeometry) -> bool:
    """True iff the zero-mode condition holds within ZERO_MODE_TOL."""
    return abs(zero_mode_condition(p, g)) < ZERO_MODE_TOL


# ---------------------------------------------------------------------------
# dimensionless residuals, and their slopes on request
# ---------------------------------------------------------------------------


def _pos_resid(u, lam, s, c1, c2, b_i, slope=False):
    """The positive residual at u, or (residual, d/du) with slope."""
    ul = u * lam
    cu, su = np.cos(u), np.sin(u)
    t, q = b_i + s * cu, c1 + c2 * ul**2
    f = 2.0 * ul * t + q * su
    return (f, 2.0 * lam * t + 2.0 * ul * su * (c2 * lam - s) + q * cu) if slope else f


def _neg_resid_scaled(v, lam, s, c1, c2, b_i, slope=False):
    """2 exp(-v) times the negative-level residual; same roots, no overflow.

    With slope, (that, its d/dv).
    """
    vl = np.minimum(v * lam, _VL_CLIP)
    em, e2 = np.exp(-v), np.expm1(-2.0 * v)
    q = c1 - c2 * vl**2
    f = 4.0 * vl * b_i * em + 2.0 * vl * s * (1.0 + em * em) - q * e2
    if not slope:
        return f
    return f, (4.0 * lam * b_i * em * (1.0 - v) + 2.0 * lam * s * (1.0 + em * em) - 4.0 * vl * s * em * em
               + 2.0 * c2 * lam * vl * e2 + 2.0 * q * em * em)


# ---------------------------------------------------------------------------
# the level count: positive eigenvalues of the boundary pencil
# ---------------------------------------------------------------------------


def _pencil_positive(t, lam, s, c1, c2, b_i):
    """(floor t, w R, w T) at E = (t pi / l)^2, with w = tan((t - floor t) pi / 2).

    w a = u w^2 and w b = -u in an even cell; an odd one swaps them.
    """
    n = np.floor(t)
    w = np.tan(0.5 * np.pi * (t - n))
    lu = lam * np.pi * t
    sb = np.where(n % 2.0 == 1.0, -b_i, b_i)
    R = lu * ((s - sb) * w * w - (s + sb)) - (c1 + c2 * lu * lu) * w
    return n, R, 2.0 * s * w + c2 * lu * (w * w - 1.0)


def _pencil_negative(v, lam, s, c1, c2, b_i):
    """(0, R, T) at E = -(v / l)^2, v > 0."""
    th = np.tanh(0.5 * v)
    a, b = -v * th, -v / th
    R = lam * ((s - b_i) * a + (s + b_i) * b) - c1 + c2 * np.minimum(lam * v, _VL_CLIP) ** 2
    return 0.0, R, 2.0 * s + c2 * lam * (a + b)


#: (pencil, direction, residual variable per unit x, residual).
#: Positive x is t = u / pi, and floor t + n+ states lie below it; negative x
#: is v, and n+ states lie deeper, so -n+ is the count that rises with x
_POSITIVE = (_pencil_positive, 1, math.pi, _pos_resid)
_NEGATIVE = (_pencil_negative, -1, 1.0, _neg_resid_scaled)


def _count(sector, x, P):
    """The sector's count at x: it rises with x and passes j + 1 at state j.

    n+ follows from det(c2 M) = c2 R and tr(c2 M) = T; with c2 = 0 the
    Dirichlet direction drops out and R s is the one eigenvalue left.
    """
    base, R, T = sector[0](x, *P)
    s, c2 = P[1], P[3]
    n = np.where(c2 * R < 0.0, 1, np.where(c2 * T > 0.0, 1 + (c2 * R > 0.0), 0))
    return base + sector[1] * np.where(c2 == 0.0, R * s > 0.0, n)


# ---------------------------------------------------------------------------
# batched root finding: many states of many points in one array pass
# ---------------------------------------------------------------------------

#: refinement and bisection steps before a bracket counts as stuck
_MAX_STEPS = 200
#: exponents of the geometric grid that narrows a bracket over decades: 33
#: points take [1e-9, 70] to cells within a factor 2.2
_GRID = np.linspace(0.0, 1.0, 33)


def _coeffs(points, g: BoxGeometry):
    """Residual parameters (lam, s, c1, c2, b_i) of each point, one column per point.

    Raises ConstraintError for an L0 / l outside _LAM_RANGE.
    """
    rows = [(p.L0 / g.l, *level_coefficients(p)) for p in points]
    for lam, *_ in rows:
        if not _LAM_RANGE[0] <= lam <= _LAM_RANGE[1]:
            raise ConstraintError(
                f"L0 / l = {lam:.3g} is outside the supported range [{_LAM_RANGE[0]:g}, {_LAM_RANGE[1]:g}]")
    return np.array(rows, dtype=float).reshape(-1, 5).T


def _mid(a, b):
    """The middle of 0 < a < b, geometric while b > 4 a: a window over decades closes fast."""
    return np.where(b > 4.0 * a, np.sqrt(a * b), 0.5 * (a + b))


def _refine(f, a, b, fa, fb, P):
    """The root of f in each bracket [a, b] whose ends fa, fb differ in sign.

    Safeguarded Newton on every bracket at once (`rtsafe`, Numerical Recipes
    9.4).  Each step makes one call f(x, *P, slope=True), for the residual
    and its slope at the iterate x, which then replaces the end of the
    bracket whose residual has its sign.  The next iterate is the Newton
    point where that lies inside the bracket and the step is at most half
    the step before last, and the bracket's middle otherwise: the
    arithmetic one, as `_mid` takes it, for `_solve` hands in brackets
    within a factor 4.  The first iterate is the secant point.  A Newton
    step shorter than tol = 1e-15 + _ROOT_RTOL x goes one tol past the
    Newton point, so that the bracket closes over the root within 2 tol.  A
    bracket is done once it is at most 2 tol wide, or f vanishes at x, and
    its end with the smaller |f| is the root.  P holds each bracket's
    residual parameters.
    """
    out = np.empty(len(a))
    # rows: a, b, f(a), f(b), the iterate, the Newton step, the last two step
    # lengths, the output slot, then the residual parameters; finished
    # columns are dropped
    s = np.vstack([a, b, fa, fb, a - fa * (b - a) / (fb - fa), a, b - a, b - a, np.arange(len(a)), P])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            a, b, fa, fb, x, dx, last, before = s[:8]
            fx, dfx = f(x, *s[9:], slope=True)
            np.divide(fx, dfx, out=dx)
            left = fx * fa > 0.0
            np.copyto(a, x, where=left)
            np.copyto(fa, fx, where=left)
            np.copyto(b, x, where=~left)
            np.copyto(fb, fx, where=~left)
            w, tol = b - a, _ROOT_RTOL * x + 1e-15
            done = (w <= 2.0 * tol) | (fx == 0.0)
            if done.any():
                out[s[8, done].astype(int)] = np.where(np.abs(fa) <= np.abs(fb), a, b)[done]
                if done.all():
                    return out
                s = s.compress(~done, axis=1)
                a, b, fa, fb, x, dx, last, before = s[:8]
                w, tol = b - a, _ROOT_RTOL * x + 1e-15
            step = np.abs(dx)
            xn = x - np.where(step < tol, dx + np.copysign(tol, dx), dx)
            newton = (xn > a) & (xn < b) & (step <= 0.5 * before)
            s[4] = np.where(newton, xn, a + 0.5 * w)
            s[7] = last
            s[6] = np.where(newton, step, 0.5 * w)
    raise ContradictionError("root refinement failed to converge")


def _rows(start, stop, n):
    """Row i is np.linspace(start[i], stop[i], n), bit for bit."""
    row = np.arange(n) * ((stop - start) / (n - 1))[:, None]
    row += start[:, None]
    row[:, -1] = stop
    return row


def _bisect(key, lo, hi, klo, khi, j, P, isolate):
    """Narrow each bracket [lo, hi] around the step of key(x, P) past j.

    key rises with x, and klo = key(lo) <= j < key(hi) = khi throughout.  A
    bracket is done at _ROOT_RTOL wide, or with isolate once it holds a
    single step of key or is _DOUBLE_RTOL wide.  Returns lo, hi, klo, khi.
    """
    lo, hi, klo, khi = lo.copy(), hi.copy(), klo.copy(), khi.copy()
    todo = np.arange(len(lo))
    for _ in range(_MAX_STEPS):
        a, b = lo[todo], hi[todo]
        done = b - a <= (_DOUBLE_RTOL if isolate else _ROOT_RTOL) * b
        if isolate:
            done |= khi[todo] - klo[todo] == 1
        todo, a, b = todo[~done], a[~done], b[~done]
        if not len(todo):
            return lo, hi, klo, khi
        x = _mid(a, b)
        k = key(x, P[:, todo])
        up = k > j[todo]
        hi[todo[up]], khi[todo[up]] = x[up], k[up]
        lo[todo[~up]], klo[todo[~up]] = x[~up], k[~up]
    raise ContradictionError("level bisection failed to converge")


def _solve(sector, lo, hi, klo, khi, j, P):
    """(root, multiplicity) of state j of the sector in each bracket [lo, hi] of x.

    klo = count(lo) <= j < count(hi) = khi.  The state is isolated on the
    count, and a bracket still wider than a factor 4 is narrowed on the
    count read on a geometric grid.  It is then refined on the residual
    where that changes sign across the bracket; a refined root at which the
    count does not pass j is rounding noise of the residual, and such a
    state is bisected on the count instead.  A bracket that cannot be split holds a double level, placed
    where the trace changes sign and returned for both its states.  Roots
    are in the residual's variable, scale * x.
    """
    pencil, sign, scale, f = sector
    count = lambda x, Q: _count(sector, x, Q)
    lo, hi, klo, khi = _bisect(count, lo, hi, klo, khi, j, P, isolate=True)
    # a bracket over decades keeps the cell of a geometric grid in which the count passes j
    while len(i := np.flatnonzero(hi > 4.0 * lo)):
        x = lo[i, None] * (hi[i] / lo[i])[:, None] ** _GRID
        x[:, -1] = hi[i]
        k = count(x, P[:, i, None])
        n, r = np.argmax(k > j[i, None], axis=1), np.arange(len(i))
        lo[i], hi[i], klo[i], khi[i] = x[r, n - 1], x[r, n], k[r, n - 1], k[r, n]
    root = np.empty(len(lo))
    single = khi - klo == 1
    fa, fb = f(scale * np.stack([lo, hi]), *P)
    refined = single & (fa * fb < 0.0)
    i = np.flatnonzero(refined)
    if len(i):
        root[i] = _refine(f, scale * lo[i], scale * hi[i], fa[i], fb[i], P[:, i])
        below, above = count(root[i] / scale * np.array([[1.0 - _CHECK_RTOL], [1.0 + _CHECK_RTOL]]), P[:, i])
        refined[i] = (below <= j[i]) & (above > j[i])
    i = np.flatnonzero(single & ~refined)
    if len(i):
        a, b, _, _ = _bisect(count, lo[i], hi[i], klo[i], khi[i], j[i], P[:, i], isolate=False)
        root[i] = scale * 0.5 * (a + b)
    i = np.flatnonzero(~single)
    if len(i):
        # sign * [c2 T > 0] steps from (sign - 1) / 2 up by one at a double level
        trace = lambda x, Q: sign * (Q[3] * pencil(x, *Q)[2] > 0.0)
        lo, hi, Q = lo[i], hi[i], P[:, i]
        tlo, thi = trace(np.stack([lo, hi]), Q)
        a, b, _, _ = _bisect(trace, lo, hi, tlo, thi, np.full(len(i), (sign - 1) // 2), Q, isolate=False)
        root[i] = scale * 0.5 * (a + b)
    return root, np.where(single, 1, 2)


def _states(sector, x, C, P):
    """(point, root, multiplicity) of each point's levels between its breakpoints x[i] (counts C[i]), in order.

    Intervals of odd k straddle the Dirichlet energy u = (k + 1) pi / 2 (the
    positive sector has them), and a step of the count there is a level at
    exactly that u; the states of the others are solved.
    """
    n = np.maximum(np.diff(C, axis=1), 0)
    idx = np.repeat(np.arange(n.size), n.ravel())
    pt, k = np.divmod(idx, n.shape[1])
    rank = np.arange(len(idx)) - np.searchsorted(idx, idx)
    root, mult, cell = (k + 1) // 2 * math.pi, n[pt, k], k % 2 == 0
    p, k = pt[cell], k[cell]
    root[cell], mult[cell] = _solve(sector, x[p, k], x[p, k + 1], C[p, k], C[p, k + 1], C[p, k] + rank[cell], P[:, p])
    keep = (rank == 0) | (cell & (mult == 1))
    return pt[keep], root[keep], mult[keep]


def _positive_states(P, K):
    """(point, u, multiplicity) of the levels of each point's K[i] lowest states above _FLOOR.

    The count is read beside every Dirichlet energy up to the one past the
    K-th state.  Whole intervals are taken, so a few more states may come
    back, and a double level is never cut in two.
    """
    m = np.arange(1.0, K.max(initial=0) + 3.0)
    x = np.concatenate([[_FLOOR / math.pi], np.column_stack([m * (1.0 - _GAP), m * (1.0 + _GAP)]).ravel()])
    C = _count(_POSITIVE, x, P[:, :, None]).astype(int)
    # no interval that starts past the K-th state
    C = np.minimum(C, np.where(C - C[:, :1] >= K[:, None], C, C.max(initial=0)).min(axis=1, keepdims=True))
    return _states(_POSITIVE, np.broadcast_to(x, C.shape), C, P)


def _negative_ceilings(P):
    """negative_search_ceiling of each point, doubling all open windows at once.

    The residual has at most two zeros, one per state, so at most four
    doublings hold one and a ceiling is at most 32 max(10, 4 / lam, 4 lam):
    below 1e143 in _LAM_RANGE, so that the product a b of a bracket's ends,
    which `_mid` takes the root of, stays a float.
    """
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


def _negative_roots(P):
    """(point, v, multiplicity) of every negative level of each point within its window.

    A point whose count at the window's lower end _FLOOR is 0 has no bound
    state, and its window is not searched.
    """
    bound = np.flatnonzero(_count(_NEGATIVE, _FLOOR, P))
    if not len(bound):
        return bound, np.empty(0), bound
    Q = P[:, bound]
    x = np.stack([np.full(len(bound), _FLOOR), _negative_ceilings(Q)], axis=1)
    pt, v, mult = _states(_NEGATIVE, x, _count(_NEGATIVE, x, Q[:, :, None]).astype(int), Q)
    return bound[pt], v, mult


# ---------------------------------------------------------------------------
# public root finders and spectra
# ---------------------------------------------------------------------------


def find_positive_roots(p: U2Params, g: BoxGeometry, k_max: float):
    """All positive-level momenta in (0, k_max] as (k, multiplicity) pairs.

    Multiplicity 2 marks a doubly degenerate level, as on the scale-invariant
    sphere at Im beta = +-1.  A k_max that is not finite, or below which lie
    more than MAX_LEVELS states, is refused before any array is built.
    """
    if not 0.0 < k_max < math.inf:
        raise ConstraintError(f"k_max must be positive and finite, not {k_max!r}")
    P = _coeffs((p,), g)
    u_max = float(k_max) * g.l
    # at least floor(u_max / pi) - 2 states lie in (_FLOOR, u_max]: past (MAX_LEVELS + 3) pi
    # they are too many, and the count is not read where its terms could overflow
    small = u_max < (MAX_LEVELS + 3) * math.pi
    lo, hi = _count(_POSITIVE, np.array([_FLOOR, u_max]) / math.pi, P[:, 0]) if small else (0, math.inf)
    if hi - lo > MAX_LEVELS:
        raise ConstraintError(f"more than {MAX_LEVELS} states lie below k_max = {k_max!r}")
    _, u, mult = _positive_states(P, np.array([max(0, int(hi - lo))]))
    return [(x / g.l, m) for x, m in zip(u.tolist(), mult.tolist()) if x <= u_max]


def negative_search_ceiling(p: U2Params, g: BoxGeometry):
    """Dimensionless window [0, v_max] searched for negative roots.

    Starts from max(10, 4/lam, 4*lam) and keeps doubling until the scaled
    residual holds one sign across a full doubling.  This is a heuristic,
    not a bound: a bound state can lie beyond it.
    """
    return float(_negative_ceilings(_coeffs((p,), g))[0])


def find_negative_roots(p: U2Params, g: BoxGeometry):
    """Negative-level decay rates in the search window as (kappa, multiplicity) pairs.

    At most two: they are counted from the boundary pencil, whose
    eigenvalues bound them.
    """
    _, v, mult = _negative_roots(_coeffs((p,), g))
    return [(x / g.l, m) for x, m in zip(v.tolist(), mult.tolist())]


def spectral_fingerprint(p: U2Params):
    """(xi, Re alpha, Im beta): all that the spectrum depends on besides L0."""
    return (p.xi, p.alpha.real, p.beta.imag)


def spectra(points, g: BoxGeometry, n_levels: int) -> list:
    """`spectrum(p, g, n_levels)` of every point, solved as one batch.

    The level counts and root refinements of all points run in shared array
    passes, and each point's `Spectrum` is a slice of one set of arrays; it
    is the same as when the point is alone.  A level whose energy is outside
    the float range is a ConstraintError, as is an L0 / l outside [1e-140, 1e100]
    and an n_levels outside [1, MAX_LEVELS], refused before any array is built.
    """
    if not 1 <= n_levels <= MAX_LEVELS:
        raise ConstraintError(f"n_levels must be from 1 to {MAX_LEVELS}, not {n_levels!r}")
    points = list(points)
    if not points:
        return []
    P, n = _coeffs(points, g), len(points)
    # zero_mode_exists of every point, in its float operations on the columns; a
    # flagged point's zero level holds its states between v and u = _ZERO_SHADOW_U
    flagged = np.flatnonzero(np.abs(_zero_condition(P[0], P[1], P[2], P[4])) < ZERO_MODE_TOL)
    n_zero = np.zeros(n, dtype=int)
    if len(flagged):
        Q = P[:, flagged]
        n_zero[flagged] = _count(_POSITIVE, _ZERO_SHADOW_U / math.pi, Q) + _count(_NEGATIVE, _ZERO_SHADOW_U, Q)
    # every level as (sector, point, x, multiplicity), x = -kappa l, 0 or k l;
    # with a zero level listed, states closer to zero energy are its shadow
    pt, v, mult = _negative_roots(P)
    neg, zero = (n_zero[pt] == 0) | (v >= _ZERO_SHADOW_U), np.flatnonzero(n_zero)
    parts = [(SECTOR_NEGATIVE, pt[neg], -v[neg], mult[neg]), (SECTOR_ZERO, zero, np.zeros(len(zero)), n_zero[zero])]
    want = np.maximum(0, n_levels - np.bincount(pt[neg], minlength=n) - (n_zero > 0))
    # n + 2 states hold n levels unless doubles merged some; 2 n + 2 always do
    todo = want > 0
    for K in (want + 2, 2 * want + 2):
        if not todo.any():
            break
        pt, u, mult = _positive_states(P, np.where(todo, K, 0))
        keep = (n_zero[pt] == 0) | (u >= _ZERO_SHADOW_U)
        full = np.bincount(pt[keep], minlength=n) >= want
        keep &= full[pt]
        parts.append((SECTOR_POSITIVE, pt[keep], u[keep], mult[keep]))
        todo &= ~full
    if todo.any():
        raise ContradictionError("positive-level search failed to fill the request")

    names, pt, x, mult = zip(*parts)
    sector = np.repeat(names, [len(i) for i in pt])
    pt, x, mult = map(np.concatenate, (pt, x, mult))
    # each point's n_levels lowest levels, in energy order
    order = np.lexsort((x, pt))
    order = order[np.arange(len(order)) - np.searchsorted(pt[order], pt[order]) < n_levels]
    pt, x, mult, sector = pt[order], x[order], mult[order], sector[order]
    k, esc = np.abs(x) / g.l, g.hbar**2 / (2.0 * g.mass)
    with np.errstate(over="ignore"):
        energy = np.sign(x) * esc * np.float_power(k, 2.0)
    bad = k[~(np.abs(energy) < math.inf)]
    if len(bad):
        raise ConstraintError(f"the level at momentum {bad[0]:.3g} has an energy outside the float range")
    parameter = np.where(sector == SECTOR_ZERO, np.nan, k)
    cuts = np.searchsorted(pt, np.arange(n + 1)).tolist()
    return [Spectrum(sector[a:b], parameter[a:b], energy[a:b], mult[a:b]) for a, b in zip(cuts, cuts[1:])]


def spectrum(p: U2Params, g: BoxGeometry, n_levels: int) -> Spectrum:
    """The n_levels lowest levels: negative, then zero if present, then positive.

    The zero level is listed when the zero-mode condition holds and states
    lie within k l (or kappa l) = 1e-3 of zero energy, as many as it has;
    roots of either sector that close to zero are then its numerical
    shadow and dropped.
    """
    return spectra((p,), g, n_levels)[0]
