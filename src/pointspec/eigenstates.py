"""Eigenfunctions for every spectral sector of the point-interaction box.

A positive level at momentum k has eigenfunctions A exp(ikx) + B exp(-ikx);
a negative level at decay rate kappa has A exp(kappa x) + B exp(-kappa x);
the zero mode is A x + B.  In each case (A, B) spans the nullspace of the
2x2 matrix obtained by inserting the ansatz into the boundary conditions,
extracted here by singular-value decomposition so that doubly degenerate
levels (nullspace rank 2) are certified independently of the root finder.
The levels of a sector are solved together: one stacked SVD of their
(n, 2, 2) matrices, with Gram-Schmidt, norms, phases and residuals done as
array expressions; the one-level and one-mode functions are that same code
on a batch of one.  Coefficients agree with a per-level solve to rounding,
so printed values can move in the last digits.

All L2 inner products on [0, l] are evaluated from closed-form
antiderivatives; numerical quadrature is used only as a cross-check in the
test suite.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintError,
    ContradictionError,
    RootNotFoundError,
    SubfamilyError,
    ZeroFunctionError,
)
from .spectral import (
    SECTOR_NEGATIVE,
    SECTOR_POSITIVE,
    SECTOR_ZERO,
    BoxGeometry,
    spectrum,
    zero_mode_exists,
)
from .u2param import U2Params, classify, to_matrix, twist_angle

__all__ = [
    "Mode",
    "BoundaryData",
    "ScaleInvariantCoefficients",
    "boundary_data",
    "boundary_residual",
    "solve_coefficients",
    "zero_mode",
    "negative_mode",
    "negative_modes",
    "eigenbasis",
    "scale_invariant_coefficients",
    "scale_invariant_mode",
    "normalize",
    "probability_current",
    "mode_inner",
    "residuals_and_norms",
]

#: nullspace rank tolerance, relative to the largest singular value
_RANK_RTOL = 1e-8
#: absolute-floor fraction of the matrix scale, so that rank 2 is still
#: certified when the whole matrix vanishes at an even-order root
_RANK_FLOOR = 1e-3


@dataclass(frozen=True)
class Mode:
    """One eigenfunction in coefficient form.

    sector     'positive', 'zero' or 'negative'
    parameter  k (positive), kappa (negative) or None (zero)
    coeff_a    coefficient of exp(+ikx) / exp(+kappa x) / x
    coeff_b    coefficient of exp(-ikx) / exp(-kappa x) / 1
    """

    sector: str
    parameter: float | None
    coeff_a: complex
    coeff_b: complex
    normalized: bool = False

    def __post_init__(self):
        if self.sector not in (SECTOR_POSITIVE, SECTOR_ZERO, SECTOR_NEGATIVE):
            raise ConstraintError(f"unknown sector {self.sector!r}")
        if self.coeff_a == 0 and self.coeff_b == 0:
            raise ConstraintError("mode coefficients must not both vanish")

    def psi(self, x):
        """Evaluate the wavefunction at x (scalar or array)."""
        return self._at(x, 0)

    def dpsi(self, x):
        """Evaluate the spatial derivative at x."""
        return self._at(x, 1)

    def _at(self, x, derivative):
        x = np.asarray(x, dtype=float)
        out = np.asarray(_values(*_basis(self.sector, self.parameter), self.coeff_a, self.coeff_b, x)[derivative])
        return out if out.ndim else complex(out)


@dataclass(frozen=True)
class BoundaryData:
    """Boundary vectors Psi = (psi(0), psi(l)) and Psi' = (psi'(0), -psi'(l)).

    The minus sign on the second derivative entry makes both entries
    inward-pointing and is part of the boundary-condition convention.
    """

    psi_vec: np.ndarray
    dpsi_vec: np.ndarray


@dataclass(frozen=True)
class ScaleInvariantCoefficients:
    """Plane-wave amplitudes (A+, A-) on the scale-invariant sphere."""

    a_plus: complex
    a_minus: complex

    def __post_init__(self):
        if abs(self.a_plus) ** 2 + abs(self.a_minus) ** 2 <= 0.0:
            raise ConstraintError("coefficient pair must not vanish")


# ---------------------------------------------------------------------------
# sector bases, closed-form integrals and the boundary operator, on arrays
# ---------------------------------------------------------------------------

#: cmath.exp raises OverflowError for an exponent with a real part beyond this
_EXP_MAX = math.log(sys.float_info.max)
#: the array core lets a product overflow to inf quietly, as Python arithmetic does
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _basis(sector: str, parameter):
    """(power, rate): coeff_a's basis function is x**power exp(rate x), coeff_b's exp(-rate x).

    That is exp(+-ikx) on a positive level, exp(+-kappa x) on a negative one,
    and x and 1 on the zero level.  The parameter may be an array of levels.
    """
    if sector == SECTOR_ZERO:
        return 1, 0.0
    return 0, (1j * parameter if sector == SECTOR_POSITIVE else parameter)


def _values(power, rate, a, b, x):
    """psi(x) and psi'(x) of a exp(rate x) x**power + b exp(-rate x); all arguments broadcast."""
    term_a = a * np.exp(rate * x)
    term_b = b * np.exp(-rate * x)
    # d/dx x**n exp(r x) = r x**n exp(r x) + n exp(r x), for n = 0 or 1
    xn = x**power
    return term_a * xn + term_b, rate * (term_a * xn - term_b) + power * term_a


@_quiet
def _ends(power, rate, a, b, l):
    """Boundary vectors (psi(0), psi(l)) and (psi'(0), -psi'(l)) on a last axis of 2.

    An exponent beyond the float range raises OverflowError, as in cmath.exp.
    """
    if np.any(np.abs(np.real(rate)) * l > _EXP_MAX):
        raise OverflowError("math range error")
    (v0, d0), (vl, dl) = (_values(power, rate, a, b, x) for x in (0.0, l))
    return np.stack([v0, vl], -1), np.stack([d0, -dl], -1)


@_quiet
def _moments(n, nu, l):
    """Integrals of x**n exp(nu x) over [0, l] for n = 0, 1, 2, elementwise, stable for small nu."""
    z = nu * l
    if np.any(z.real > _EXP_MAX):
        raise OverflowError("math range error")
    small = np.abs(z) < 1e-8
    # the series sum_j z**j / (j! (n + j + 1)) to j = 3, by Horner's rule
    series = l ** (n + 1) * (1 / (n + 1) + z * (1 / (n + 2) + z * (1 / (2 * n + 6) + z / (6 * n + 24))))
    nu = np.where(small, 1.0, nu)
    e = np.exp(np.where(small, 0.0, z))
    total = (e - 1.0) / nu
    for j in (1, 2):  # integration by parts
        total = np.where(n >= j, (l**j * e - j * total) / nu, total)
    return np.where(small, series, total)


# A batch of modes is a triple (power, rate, c) of arrays: the basis of each
# mode as _basis gives it and its coefficient row c = (A, B).  The two basis
# functions of a mode have powers (power, 0) and rates (rate, -rate).
_FIRST, _SIGN = np.array([1, 0]), np.array([1.0, -1.0])


@_quiet
def _inner(m1, m2, l):
    """L2 inner products <m1, m2> on [0, l] of two paired batches, from exact antiderivatives."""
    (p1, r1, c1), (p2, r2, c2) = m1, m2
    n = p1[:, None, None] * _FIRST[:, None] + p2[:, None, None] * _FIRST
    nu = np.conj(r1)[:, None, None] * _SIGN[:, None] + r2[:, None, None] * _SIGN
    return np.einsum("ni,nij,nj->n", c1.conj(), _moments(n, nu, l), c2)


def _boundary_operator(p: U2Params):
    """(Psi, Psi') -> (U - I) Psi + i L0 (U + I) Psi' on row vectors, zero on data meeting the conditions."""
    U = to_matrix(p)
    eye = np.eye(2)
    lhs, rhs = U - eye, 1j * p.L0 * (U + eye)
    return lambda psi, dpsi: psi @ lhs.T + dpsi @ rhs.T


@_quiet
def _residuals(modes, p: U2Params, l: float) -> np.ndarray:
    """|(U - I) Psi + i L0 (U + I) Psi'| / |(Psi, L0 Psi')| of each mode; 0 for vanishing data."""
    power, rate, c = modes
    psi, dpsi = _ends(power, rate, c[:, 0], c[:, 1], l)
    denom = np.hypot(np.linalg.norm(psi, axis=-1), np.linalg.norm(p.L0 * dpsi, axis=-1))
    r = np.linalg.norm(_boundary_operator(p)(psi, dpsi), axis=-1)
    return r / np.where(denom > 0.0, denom, np.inf)


def _normalized(modes, l: float) -> np.ndarray:
    """Unit-norm coefficient rows with a deterministic phase.

    The phase rotates the first non-vanishing of psi(0) and l psi'(0) onto
    the positive real axis.
    """
    power, rate, c = modes
    nrm = np.sqrt(np.maximum(0.0, _inner(modes, modes, l).real))
    if not np.all((nrm > 0.0) & np.isfinite(nrm)):
        raise ZeroFunctionError("cannot normalize a vanishing mode")
    c = c / nrm[:, None]
    v0, d0 = _values(power, rate, c[:, 0], c[:, 1], 0.0)
    z = np.where(np.abs(v0) > 1e-8 * np.hypot(np.abs(v0), np.abs(l * d0)), v0, l * d0)
    size = np.abs(z)
    return c * np.where(size > 0.0, z.conj() / np.where(size > 0.0, size, 1.0), 1.0)[:, None]


def _packed(modes):
    """The batch triple of a sequence of Mode objects."""
    bases = [_basis(m.sector, m.parameter) for m in modes]
    power = np.array([b[0] for b in bases], dtype=int)
    rate = np.array([b[1] for b in bases], dtype=complex)
    return power, rate, np.array([(m.coeff_a, m.coeff_b) for m in modes], dtype=complex).reshape(-1, 2)


@_quiet
def _sector_modes(p: U2Params, g: BoxGeometry, sector: str, parameters) -> list:
    """Orthonormal eigenfunctions of every listed level of one sector, solved together.

    The coefficient pairs span the nullspace of each level's 2x2 boundary
    matrix, from one stacked SVD.  A singular value at or below
    _RANK_RTOL * max(largest, _RANK_FLOOR * matrix scale) counts towards the
    rank, and the zero level has rank 1.  Rank-2 levels are made
    L2-orthonormal by Gram-Schmidt.  Returns one list of modes per level;
    raises RootNotFoundError when a level has rank 0.
    """
    n = len(parameters)
    k = np.array([0.0 if v is None else v for v in parameters], dtype=float)
    power, rate = (np.broadcast_to(v, (n,)) for v in _basis(sector, k))
    psi, dpsi = _ends(power[:, None], rate[:, None], *np.eye(2), g.l)
    # level i's matrix M takes (A, B) to its boundary residual; column j is basis function j
    _, sv, vh = np.linalg.svd(np.swapaxes(_boundary_operator(p)(psi, dpsi), -1, -2))
    rank = np.ones(n, dtype=int)
    if sector != SECTOR_ZERO:
        mscale = np.maximum(1.0, np.abs(k) * p.L0)
        if sector == SECTOR_NEGATIVE:
            mscale = mscale * np.cosh(np.minimum(k * g.l, 700.0))
        thresh = _RANK_RTOL * np.maximum(sv[:, 0], _RANK_FLOOR * mscale)
        rank = np.count_nonzero(sv <= thresh[:, None], axis=1)
        if not rank.all():
            i = int(np.argmin(rank))
            raise RootNotFoundError(
                f"{sector} parameter {parameters[i]!r} is not a root of the level condition "
                f"(smallest singular value {sv[i, -1]:.3e} above tolerance {thresh[i]:.3e})"
            )
    # Gram-Schmidt in L2 on the rank-2 levels, then one normalization for all
    vecs, two = vh[np.arange(n), 2 - rank].conj(), np.flatnonzero(rank == 2)
    if two.size:
        v1, v2, power2, rate2 = vecs[two], vh[two, 1].conj(), power[two], rate[two]
        overlap = _inner((power2, rate2, v1), (power2, rate2, v2), g.l)
        v2 = v2 - (overlap / _inner((power2, rate2, v1), (power2, rate2, v1), g.l))[:, None] * v1
        power, rate, vecs = (np.concatenate(v) for v in ((power, power2), (rate, rate2), (vecs, v2)))
    coeffs = _normalized((power, rate, vecs), g.l).tolist()
    modes = [[Mode(sector, v, *c, normalized=True)] for v, c in zip(parameters, coeffs)]
    for i, c in zip(two.tolist(), coeffs[n:]):
        modes[i].append(Mode(sector, parameters[i], *c, normalized=True))
    return modes


def mode_inner(m1: Mode, m2: Mode, g: BoxGeometry) -> complex:
    """L2 inner product <m1, m2> on [0, l] from exact antiderivatives."""
    return complex(_inner(_packed((m1,)), _packed((m2,)), g.l)[0])


def boundary_data(m: Mode, g: BoxGeometry) -> BoundaryData:
    """Boundary vectors of a mode on the box [0, l].

    An exponent beyond the float range raises OverflowError instead of
    turning into inf.
    """
    power, rate, c = _packed((m,))
    psi, dpsi = _ends(power, rate, c[:, 0], c[:, 1], g.l)
    return BoundaryData(psi[0], dpsi[0])


def boundary_residual(m: Mode, p: U2Params, g: BoxGeometry) -> float:
    """Normalized residual of the boundary conditions for this mode.

    Returns |(U - I) Psi + i L0 (U + I) Psi'| divided by |(Psi, L0 Psi')|;
    zero exactly when the mode satisfies the boundary conditions.
    """
    return float(_residuals(_packed((m,)), p, g.l)[0])


def residuals_and_norms(modes, p: U2Params, g: BoxGeometry):
    """Boundary residual and squared norm <m, m> of every mode, as two float arrays."""
    batch = _packed(modes)
    return _residuals(batch, p, g.l), _inner(batch, batch, g.l).real


def solve_coefficients(p: U2Params, g: BoxGeometry, k: float):
    """Orthonormal eigenfunctions at a positive-level momentum k.

    Returns one mode for a simple root and two L2-orthonormal modes for an
    even-order root (nullspace rank 2 is the authoritative degeneracy
    certificate).  Raises RootNotFoundError when k is not a root.
    """
    return _sector_modes(p, g, SECTOR_POSITIVE, [k])[0]


def negative_modes(p: U2Params, g: BoxGeometry, kappa: float):
    """Orthonormal bound-type eigenfunctions at a negative-level root kappa."""
    if not kappa > 0.0:
        raise ConstraintError("kappa must be strictly positive")
    return _sector_modes(p, g, SECTOR_NEGATIVE, [kappa])[0]


def negative_mode(p: U2Params, g: BoxGeometry, kappa: float) -> Mode:
    """Normalized bound-type eigenfunction at a negative-level root kappa."""
    return negative_modes(p, g, kappa)[0]


def zero_mode(p: U2Params, g: BoxGeometry, tol: float = 1e-9) -> Mode:
    """Normalized zero-energy eigenfunction A x + B.

    Raises SubfamilyError when the existence condition does not hold within
    `tol`.  The coefficients span the nullspace of the zero-sector
    coefficient matrix, through the same SVD route as the other sectors.
    """
    if not zero_mode_exists(p, g, tol):
        raise SubfamilyError("no zero-energy state at this boundary point")
    return _sector_modes(p, g, SECTOR_ZERO, [None])[0][0]


def eigenbasis(p: U2Params, g: BoxGeometry, n_levels: int):
    """The n_levels lowest levels, each with its orthonormal eigenfunctions.

    Returns a tuple of (Level, modes) pairs in energy order; a degenerate
    level carries all of its modes.  The levels of each sector are solved
    together, deepest sector first.  Raises ContradictionError when the
    nullspace rank at a positive level disagrees with its root multiplicity.
    """
    levels = spectrum(p, g, n_levels).levels
    modes = {}
    for sector in (SECTOR_NEGATIVE, SECTOR_ZERO, SECTOR_POSITIVE):
        group = [lv for lv in levels if lv.sector == sector]
        if group:
            modes.update(zip(group, _sector_modes(p, g, sector, [lv.parameter for lv in group])))
    for lv in levels:
        if lv.sector == SECTOR_POSITIVE and len(modes[lv]) != lv.multiplicity:
            raise ContradictionError(
                "nullspace rank disagrees with the root multiplicity "
                f"at k = {lv.parameter!r}"
            )
    return tuple((lv, tuple(modes[lv])) for lv in levels)


def scale_invariant_coefficients(
    p: U2Params, g: BoxGeometry, s: int, n: int
) -> ScaleInvariantCoefficients:
    """Closed-form amplitudes (A+, A-) on the scale-invariant sphere.

    With theta = arccos(-Im beta), branch s = +1 carries momenta
    (theta + 2 n pi)/l for n >= 0 and s = -1 their negatives for n <= -1.
    The closed form excludes Im(alpha) = -1 (a separated special case) and
    Im(beta) = +-1 (the doubly degenerate points, where the amplitudes are
    genuinely undetermined).
    """
    if not classify(p).scale_invariant:
        raise SubfamilyError("closed-form amplitudes exist only on the scale-invariant sphere")
    if s not in (+1, -1):
        raise ConstraintError("branch s must be +1 or -1")
    if s == +1 and n < 0 or s == -1 and n > -1:
        raise ConstraintError("branch s = +1 takes n >= 0, branch s = -1 takes n <= -1")
    a_i, b_r, b_i = p.alpha.imag, p.beta.real, p.beta.imag
    if abs(1.0 + a_i) <= 1e-12:
        raise ConstraintError("Im(alpha) = -1 is outside the closed-form domain")
    if abs(1.0 - abs(b_i)) <= 1e-12:
        raise ConstraintError("Im(beta) = +-1 leaves the amplitudes undetermined")
    theta = twist_angle(p)
    den = 2.0 * math.sqrt(g.l * (1.0 + a_i) * (1.0 + b_i * math.cos(theta)))
    bc = b_i - 1j * b_r
    return ScaleInvariantCoefficients(
        a_plus=((1.0 + a_i) + bc * cmath.exp(-1j * theta)) / den,
        a_minus=((1.0 + a_i) + bc * cmath.exp(+1j * theta)) / den,
    )


def scale_invariant_mode(p: U2Params, g: BoxGeometry, s: int, n: int) -> Mode:
    """Closed-form eigenfunction A_s exp(i k x) - A_{-s} exp(-i k x).

    The mode is exactly unit-norm but carries the closed-form phase, not the
    package phase convention; compare against `solve_coefficients` through
    the modulus of the inner product.
    """
    c = scale_invariant_coefficients(p, g, s, n)
    theta = twist_angle(p)
    k_signed = s * (theta + 2.0 * n * math.pi) / g.l
    if s == +1:
        a, b = c.a_plus, -c.a_minus
    else:
        a, b = c.a_minus, -c.a_plus
    if k_signed <= 0.0:
        raise ConstraintError("branch/index combination gives a non-positive momentum")
    return Mode(SECTOR_POSITIVE, k_signed, a, b, normalized=True)


def normalize(m: Mode, g: BoxGeometry) -> Mode:
    """Unit-norm copy of a mode with a deterministic phase.

    The phase is fixed by rotating the first non-vanishing of psi(0) and
    psi'(0) onto the positive real axis.
    """
    a, b = _normalized(_packed((m,)), g.l)[0].tolist()
    return Mode(m.sector, m.parameter, a, b, normalized=True)


def probability_current(m: Mode, g: BoxGeometry, x) -> float:
    """Probability current j(x) = (hbar/m) Im(conj(psi) psi').

    For any mode satisfying the boundary conditions, j(0) = j(l) (global
    conservation); on separated points both values vanish individually.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > g.l):
        raise ConstraintError("position outside the box")
    val = (g.hbar / g.mass) * np.imag(np.conj(m.psi(x_arr)) * m.dpsi(x_arr))
    return val if val.ndim else float(val)
