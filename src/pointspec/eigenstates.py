"""Eigenfunctions for every spectral sector of the point-interaction box.

A positive level at momentum k has eigenfunctions A exp(ikx) + B exp(-ikx);
a negative level at decay rate kappa has A exp(kappa x) + B exp(-kappa x);
the zero mode is A x + B.  In each case (A, B) spans the nullspace of the
2x2 matrix obtained by inserting the ansatz into the boundary conditions,
whose singular values certify doubly degenerate levels (nullspace rank 2)
independently of the root finder.  All listed levels are solved in one
pass, whatever their sectors: singular values and null vectors of their
(n, 2, 2) matrices in closed form, with Gram-Schmidt, norms, phases and
residuals done as array expressions.  `eigenbasis` is the one path from a
level to its modes: it keeps them as arrays in an `Eigenbasis` record,
whose level i is read as `basis[i]`, a (Level, modes) pair with the modes
built as `Mode` objects.  A degenerate level's pair starts from the unit
vectors, so its first mode has coeff_b = 0.

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
    Spectrum,
    spectrum,
)
from .u2param import U2Params, classify, to_matrix, twist_angle

__all__ = [
    "Mode",
    "Eigenbasis",
    "ScaleInvariantCoefficients",
    "eigenbasis",
    "scale_invariant_coefficients",
    "scale_invariant_mode",
    "probability_current",
    "mode_inner",
    "residuals_and_norms",
    "mode_values",
]

#: nullspace rank tolerance, relative to the boundary matrix's scale
_RANK_RTOL = 1e-8


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
        out = mode_values((self,), x)[derivative][..., 0]
        return out if out.ndim else complex(out)


@dataclass(frozen=True, eq=False)
class Eigenbasis:
    """Levels with all of their orthonormal modes, the modes kept as arrays.

    levels is the levels' `Spectrum`.  Level i's modes are rows
    offsets[i]:offsets[i + 1] of power and rate, each row's basis as
    `_basis` gives it, and of coeffs, its (coeff_a, coeff_b).  len,
    iteration and indexing read the record as a tuple of (Level, modes)
    pairs, each level's modes built as a tuple of `Mode` objects; a slice is
    the record of those levels, its rows taken from the arrays.
    """

    levels: Spectrum
    power: np.ndarray
    rate: np.ndarray
    coeffs: np.ndarray
    offsets: np.ndarray

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            starts, counts = self.offsets[:-1][i], np.diff(self.offsets)[i]
            offsets = np.cumsum([0, *counts])
            rows = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts)
            return Eigenbasis(self.levels[i], self.power[rows], self.rate[rows], self.coeffs[rows], offsets)
        i = range(len(self))[i]  # an IndexError past the end also ends iteration
        lv = self.levels[i]
        rows = self.coeffs[self.offsets[i]:self.offsets[i + 1]].tolist()
        return lv, tuple(Mode(lv.sector, lv.parameter, *c) for c in rows)


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
#: terms of the small-argument moment series; the first one left out, z**20 / 20!, is below 1e-18
_SERIES_TERMS = 20
#: _SERIES[n, j] = 1 / (j! (n + j + 1)), the coefficient of z**j in the moment series of x**n
_SERIES = np.array([[1.0 / (math.factorial(j) * (n + j + 1)) for j in range(_SERIES_TERMS)]
                    for n in range(3)])
#: the array core lets a product overflow to inf quietly, as Python arithmetic does
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _basis(sector, parameter):
    """(power, rate): coeff_a's basis function is x**power exp(rate x), coeff_b's exp(-rate x).

    That is exp(+-ikx) on a positive level, exp(+-kappa x) on a negative one,
    and x and 1 on the zero level, whose parameter is not read.  sector and
    parameter are arrays of levels, or one sector for an array of its levels.
    """
    zero = sector == SECTOR_ZERO
    return np.where(zero, 1, 0), np.where(zero, 0.0, np.where(sector == SECTOR_POSITIVE, 1j, 1.0) * parameter)


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
    # the closed form divides a cancellation by nu up to three times, so for
    # |z| <= 1 use the series sum_j z**j / (j! (n + j + 1)), by Horner's rule
    n, nu, z = np.broadcast_arrays(n, nu, z)
    out = np.empty(z.shape, np.result_type(z, 1.0))
    small = np.abs(z) <= 1.0
    big = ~small
    m, zs = n[small], z[small]
    coef, series = _SERIES[m], 0.0
    for j in range(_SERIES_TERMS - 1, -1, -1):
        series = series * zs + coef[..., j]
    out[small] = l ** (m + 1) * series
    m, nu, e = n[big], nu[big], np.exp(z[big])
    total = (e - 1.0) / nu
    for j in (1, 2):  # integration by parts
        total = np.where(m >= j, (l**j * e - j * total) / nu, total)
    out[big] = total
    return out


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


def _boundary_matrices(p: U2Params) -> np.ndarray:
    """[U - I, i L0 (U + I)]: the conditions read Psi (U - I)^T + Psi' (i L0 (U + I))^T = 0 on row vectors."""
    U = to_matrix(p)
    eye = np.eye(2)
    return np.stack([U - eye, 1j * p.L0 * (U + eye)])


@_quiet
def _residuals(modes, p: U2Params, l: float) -> np.ndarray:
    """|(U - I) Psi + i L0 (U + I) Psi'| / |(Psi, L0 Psi')| of each mode; 0 for vanishing data."""
    power, rate, c = modes
    psi, dpsi = _ends(power, rate, c[:, 0], c[:, 1], l)
    denom = np.hypot(np.linalg.norm(psi, axis=-1), np.linalg.norm(p.L0 * dpsi, axis=-1))
    lhs, rhs = _boundary_matrices(p)
    r = np.linalg.norm(psi @ lhs.T + dpsi @ rhs.T, axis=-1)
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


def _batch(modes):
    """The batch triple of an `Eigenbasis` record, as it holds it, or of a sequence of Mode objects."""
    if isinstance(modes, Eigenbasis):
        return modes.power, modes.rate, modes.coeffs
    power, rate = _basis(np.array([m.sector for m in modes]), np.array([m.parameter for m in modes], dtype=float))
    return power, rate, np.array([(m.coeff_a, m.coeff_b) for m in modes], dtype=complex).reshape(-1, 2)


def _nullspace2(m):
    """Singular values (largest, smallest) and a near-null vector of each 2x2 matrix of a stack.

    Each matrix is first divided by its largest |entry|, so that no square
    over- or underflows.  Then s_max**2 = (f + sqrt(f**2 - 4 |det|**2)) / 2
    from the squared Frobenius norm f, and s_min = |det| / s_max, both to
    an absolute error of about eps s_max, as from LAPACK.  The vector is
    the right singular vector of s_min, unnormalized: orthogonal to the
    larger row of M^H M - s_min**2 I, whose one nonzero eigenvalue
    s_max**2 - s_min**2 sets its accuracy.  A vector orthogonal to M's own
    larger row would be off by about s_min / s_max instead, which reaches
    1e-7 where a float k is not quite a root (L0 = 1e5 l).  A zero matrix,
    such as U - I at U = I, has singular values 0 and 0.
    """
    scale = np.abs(m).max(axis=(1, 2))
    a, b, c, d = (m / np.where(scale > 0.0, scale, 1.0)[:, None, None]).reshape(-1, 4).T
    # M^H M = [[left, q], [conj q, right]]
    left, right = np.abs(a) ** 2 + np.abs(c) ** 2, np.abs(b) ** 2 + np.abs(d) ** 2
    q = a.conj() * b + c.conj() * d
    f, det = left + right, np.abs(a * d - b * c)
    s_max = np.sqrt(0.5 * (f + np.sqrt(np.maximum(0.0, (f - 2.0 * det) * (f + 2.0 * det)))))
    s_min = det / np.where(s_max > 0.0, s_max, 1.0)
    lam = s_min * s_min
    vec = np.where((left >= right)[:, None], np.stack([q, lam - left], -1),
                   np.stack([right - lam, -q.conj()], -1))
    return scale * s_max, scale * s_min, vec


#: the rank-2 levels' starting pair, Gram-Schmidt'ed in L2: coeff_a's basis function, then coeff_b's
_UNIT = np.eye(2)


@_quiet
def _modes(p: U2Params, g: BoxGeometry, spec: Spectrum) -> tuple:
    """Orthonormal eigenfunctions of every level of spec, solved together.

    The coefficient pairs span the nullspace of each level's 2x2 boundary
    matrix M = (U - I) Psi + i L0 (U + I) Psi', from its singular values in
    closed form (`_nullspace2`).  A singular value at or below
    _RANK_RTOL (|U - I| |Psi| + L0 |U + I| |Psi'|) counts towards the rank, a
    bound on |M| that follows its scale when the two terms cancel and when
    U = +-I removes one of them.  A rank-1 level's pair is M's right
    singular vector of its smallest singular value.  A rank-2 level starts
    from the unit pairs (1, 0) and (0, 1), made L2-orthonormal by
    Gram-Schmidt, so its first mode is coeff_a's basis function alone.
    Returns the modes' batch triple (power, rate, coeffs), each level's
    modes on adjacent rows in level order, and each level's rank; raises
    RootNotFoundError when a level has rank 0.
    """
    n = len(spec)
    power, rate = _basis(spec.sector, spec.parameter)
    psi, dpsi = _ends(power[:, None], rate[:, None], *_UNIT, g.l)
    # level i's matrix M takes (A, B) to its boundary residual; column j is basis
    # function j.  U - I and i L0 (U + I) ride along for their largest singular values
    ops = _boundary_matrices(p)
    m = np.swapaxes(psi @ ops[0].T + dpsi @ ops[1].T, -1, -2)
    s_max, s_min, null = _nullspace2(np.concatenate([m, ops]))
    thresh = _RANK_RTOL * (s_max[n] * np.linalg.norm(psi, axis=(1, 2))
                           + s_max[n + 1] * np.linalg.norm(dpsi, axis=(1, 2)))
    rank = (s_min[:n] <= thresh).astype(int) + (s_max[:n] <= thresh)
    if not rank.all():
        i = int(np.argmin(rank))
        raise RootNotFoundError(
            f"{spec.sector[i]} parameter {spec.parameters()[i]!r} is not a root of the level condition "
            f"(smallest singular value {s_min[i]:.3e} above tolerance {thresh[i]:.3e})"
        )
    # one row per mode; Gram-Schmidt in L2 on the rank-2 levels, then one normalization for all
    level = np.repeat(np.arange(n), rank)
    second = np.flatnonzero(np.diff(level, prepend=-1) == 0)
    power, rate = power[level], rate[level]
    vecs = np.where((rank == 2)[level][:, None], _UNIT[0], null[level])
    if second.size:
        v1, v2 = (np.broadcast_to(u, (second.size, 2)) for u in _UNIT)
        pair = (power[second], rate[second])
        overlap = _inner((*pair, v1), (*pair, v2), g.l) / _inner((*pair, v1), (*pair, v1), g.l)
        vecs[second] = v2 - overlap[:, None] * v1
    return power, rate, _normalized((power, rate, vecs), g.l), rank


def mode_values(modes, x):
    """psi(x) and psi'(x) of every mode, with the modes on a new trailing axis.

    modes is an `Eigenbasis` record or a sequence of Mode objects; x is a
    number or an array.  Both results have shape x.shape + (number of modes,).
    """
    power, rate, c = _batch(modes)
    return _values(power, rate, c[:, 0], c[:, 1], np.asarray(x, dtype=float)[..., None])


def mode_inner(m1: Mode, m2: Mode, g: BoxGeometry) -> complex:
    """L2 inner product <m1, m2> on [0, l] from exact antiderivatives."""
    return complex(_inner(_batch((m1,)), _batch((m2,)), g.l)[0])


def residuals_and_norms(modes, p: U2Params, g: BoxGeometry):
    """Boundary residual and squared norm <m, m> of every mode, as two float arrays.

    modes is an `Eigenbasis` record or a sequence of Mode objects.  The
    residual is |(U - I) Psi + i L0 (U + I) Psi'| / |(Psi, L0 Psi')|, zero
    exactly when the mode meets the boundary conditions.
    """
    batch = _batch(modes)
    return _residuals(batch, p, g.l), _inner(batch, batch, g.l).real


def eigenbasis(p: U2Params, g: BoxGeometry, n_levels: int) -> Eigenbasis:
    """The n_levels lowest levels, each with its orthonormal eigenfunctions.

    Returns an `Eigenbasis` record, read as a tuple of (Level, modes) pairs
    in energy order; a degenerate level carries all of its modes.  All
    levels are solved in one pass.  Raises RootNotFoundError when a level's
    nullspace is empty, and ContradictionError when its rank disagrees with
    its multiplicity.
    """
    spec = spectrum(p, g, n_levels)
    power, rate, coeffs, rank = _modes(p, g, spec)
    if np.any(wrong := rank != spec.multiplicity):
        i = int(np.argmax(wrong))
        raise ContradictionError("nullspace rank disagrees with the root multiplicity "
                                 f"at {spec.sector[i]} parameter {spec.parameters()[i]!r}")
    return Eigenbasis(spec, power, rate, coeffs, np.cumsum([0, *rank]))


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
    package phase convention; compare against the mode of `eigenbasis`
    through the modulus of the inner product.
    """
    c = scale_invariant_coefficients(p, g, s, n)
    theta = twist_angle(p)
    k_signed = s * (theta + 2.0 * n * math.pi) / g.l
    a, b = (c.a_plus, -c.a_minus) if s == +1 else (c.a_minus, -c.a_plus)
    if k_signed <= 0.0:
        raise ConstraintError("branch/index combination gives a non-positive momentum")
    return Mode(SECTOR_POSITIVE, k_signed, a, b)


def probability_current(m: Mode, g: BoxGeometry, x) -> float:
    """Probability current j(x) = (hbar/m) Im(conj(psi) psi').

    For any mode satisfying the boundary conditions, j(0) = j(l) (global
    conservation); on separated points both values vanish individually.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > g.l):
        raise ConstraintError("position outside the box")
    psi, dpsi = mode_values((m,), x_arr)
    val = (g.hbar / g.mass) * np.imag(np.conj(psi) * dpsi)[..., 0]
    return val if val.ndim else float(val)
