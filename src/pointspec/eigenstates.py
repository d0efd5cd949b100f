"""Eigenfunctions for every spectral sector of the point-interaction box.

A positive level at momentum k has eigenfunctions A exp(ikx) + B exp(-ikx);
a negative level at decay rate kappa has A exp(kappa x) + B exp(-kappa x);
the zero mode is A x + B.  In each case (A, B) spans the nullspace of the
2x2 matrix obtained by inserting the ansatz into the boundary conditions,
extracted here by singular-value decomposition so that doubly degenerate
levels (nullspace rank 2) are certified independently of the root finder.

All L2 inner products on [0, l] are evaluated from closed-form
antiderivatives; numerical quadrature is used only as a cross-check in the
test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

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
        out = self._values(np.asarray(x, dtype=float), np.exp)[0]
        return out if out.ndim else complex(out)

    def dpsi(self, x):
        """Evaluate the spatial derivative at x."""
        out = self._values(np.asarray(x, dtype=float), np.exp)[1]
        return out if out.ndim else complex(out)

    def _values(self, x, exp):
        """psi(x) and psi'(x), with exp = np.exp for arrays or cmath.exp for numbers."""
        (power, rate), _ = _basis(self.sector, self.parameter)
        term_a = self.coeff_a * exp(rate * x)
        term_b = self.coeff_b * exp(-rate * x)
        # d/dx x**n exp(r x) = r x**n exp(r x) + n exp(r x), for n = 0 or 1
        if power:
            return term_a * x + term_b, rate * (term_a * x - term_b) + term_a
        return term_a + term_b, rate * (term_a - term_b)


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
# sector bases, closed-form integrals and the boundary operator
# ---------------------------------------------------------------------------


def _basis(sector: str, parameter) -> tuple:
    """(power, rate) of a sector's basis functions x**power exp(rate x).

    The first belongs to coeff_a and the second, always exp(-rate x), to
    coeff_b: exp(+-ikx) on a positive level, exp(+-kappa x) on a negative
    one, and x and 1 on the zero level.
    """
    if sector == SECTOR_ZERO:
        return (1, 0.0), (0, -0.0)
    rate = 1j * parameter if sector == SECTOR_POSITIVE else parameter
    return (0, rate), (0, -rate)


def _moment(n: int, nu: complex, l: float) -> complex:
    """Integral of x**n exp(nu x) over [0, l], stable for small nu."""
    z = nu * l
    if abs(z) < 1e-8:
        return l ** (n + 1) * sum(z**j / (math.factorial(j) * (n + j + 1)) for j in range(4))
    e = cmath.exp(z)
    total = (e - 1.0) / nu
    for j in range(1, n + 1):  # integration by parts
        total = (l**j * e - j * total) / nu
    return total


def mode_inner(m1: Mode, m2: Mode, g: BoxGeometry) -> complex:
    """L2 inner product <m1, m2> on [0, l] from exact antiderivatives."""
    total = 0j
    for c1, (n1, r1) in zip((m1.coeff_a, m1.coeff_b), _basis(m1.sector, m1.parameter)):
        for c2, (n2, r2) in zip((m2.coeff_a, m2.coeff_b), _basis(m2.sector, m2.parameter)):
            total += c1.conjugate() * c2 * _moment(n1 + n2, r1.conjugate() + r2, g.l)
    return total


def _boundary_operator(p: U2Params):
    """(Psi, Psi') -> (U - I) Psi + i L0 (U + I) Psi', zero on data meeting the conditions."""
    U = to_matrix(p)
    eye = np.eye(2)
    lhs, rhs = U - eye, 1j * p.L0 * (U + eye)
    return lambda psi, dpsi: lhs @ psi + rhs @ dpsi


def boundary_data(m: Mode, g: BoxGeometry) -> BoundaryData:
    """Boundary vectors of a mode on the box [0, l].

    The exponentials come from cmath.exp, so an exponent beyond the float
    range raises OverflowError instead of turning into inf.
    """
    (v0, d0), (vl, dl) = (m._values(x, cmath.exp) for x in (0.0, g.l))
    return BoundaryData(np.array([v0, vl], dtype=complex), np.array([d0, -dl], dtype=complex))


def boundary_residual(m: Mode, p: U2Params, g: BoxGeometry) -> float:
    """Normalized residual of the boundary conditions for this mode.

    Returns |(U - I) Psi + i L0 (U + I) Psi'| divided by |(Psi, L0 Psi')|;
    zero exactly when the mode satisfies the boundary conditions.
    """
    bd = boundary_data(m, g)
    r = _boundary_operator(p)(bd.psi_vec, bd.dpsi_vec)
    denom = math.hypot(np.linalg.norm(bd.psi_vec), np.linalg.norm(p.L0 * bd.dpsi_vec))
    return float(np.linalg.norm(r)) / denom if denom else 0.0


def _coefficient_matrix(p: U2Params, g: BoxGeometry, sector: str, parameter) -> np.ndarray:
    """M with M (A, B)^t the boundary residual; column j is the operator on basis function j."""
    operator = _boundary_operator(p)
    units = (boundary_data(Mode(sector, parameter, *c), g) for c in ((1.0, 0.0), (0.0, 1.0)))
    return np.column_stack([operator(bd.psi_vec, bd.dpsi_vec) for bd in units])


def _nullspace_modes(p, g, k, sector, mscale):
    M = _coefficient_matrix(p, g, sector, k)
    _, sv, vh = np.linalg.svd(M)
    thresh = _RANK_RTOL * max(sv[0], _RANK_FLOOR * mscale)
    vecs = [vh[i].conj() for i in range(2) if sv[i] <= thresh]
    if not vecs:
        raise RootNotFoundError(
            f"{sector} parameter {k!r} is not a root of the level condition "
            f"(smallest singular value {sv[-1]:.3e} above tolerance {thresh:.3e})"
        )
    return [Mode(sector, k, v[0], v[1]) for v in vecs]


def _orthonormalize(modes, g):
    """Gram-Schmidt in L2([0, l]), then normalize and fix phases."""
    out = []
    for m in modes:
        for prev in out:
            ip = mode_inner(prev, m, g)
            m = replace(
                m,
                coeff_a=m.coeff_a - ip * prev.coeff_a,
                coeff_b=m.coeff_b - ip * prev.coeff_b,
            )
        out.append(normalize(m, g))
    return out


def solve_coefficients(p: U2Params, g: BoxGeometry, k: float):
    """Orthonormal eigenfunctions at a positive-level momentum k.

    Returns one mode for a simple root and two L2-orthonormal modes for an
    even-order root (nullspace rank 2 is the authoritative degeneracy
    certificate).  Raises RootNotFoundError when k is not a root.
    """
    mscale = max(1.0, abs(k) * p.L0)
    return _orthonormalize(_nullspace_modes(p, g, k, SECTOR_POSITIVE, mscale), g)


def negative_modes(p: U2Params, g: BoxGeometry, kappa: float):
    """Orthonormal bound-type eigenfunctions at a negative-level root kappa."""
    if not kappa > 0.0:
        raise ConstraintError("kappa must be strictly positive")
    mscale = max(1.0, kappa * p.L0) * math.cosh(min(kappa * g.l, 700.0))
    return _orthonormalize(_nullspace_modes(p, g, kappa, SECTOR_NEGATIVE, mscale), g)


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
    _, _, vh = np.linalg.svd(_coefficient_matrix(p, g, SECTOR_ZERO, None))
    return normalize(Mode(SECTOR_ZERO, None, *vh[1].conj()), g)


def eigenbasis(p: U2Params, g: BoxGeometry, n_levels: int):
    """The n_levels lowest levels, each with its orthonormal eigenfunctions.

    Returns a tuple of (Level, modes) pairs in energy order; a degenerate
    level carries all of its modes.  Raises ContradictionError when the
    nullspace rank at a positive level disagrees with its root multiplicity.
    """
    basis = []
    for lv in spectrum(p, g, n_levels).levels:
        if lv.sector == SECTOR_POSITIVE:
            modes = solve_coefficients(p, g, lv.parameter)
            if len(modes) != lv.multiplicity:
                raise ContradictionError(
                    "nullspace rank disagrees with the root multiplicity "
                    f"at k = {lv.parameter!r}"
                )
        elif lv.sector == SECTOR_ZERO:
            modes = [zero_mode(p, g)]
        else:
            modes = negative_modes(p, g, lv.parameter)
        basis.append((lv, tuple(modes)))
    return tuple(basis)


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
    nrm = math.sqrt(max(0.0, mode_inner(m, m, g).real))
    if nrm <= 0.0 or not math.isfinite(nrm):
        raise ZeroFunctionError("cannot normalize a vanishing mode")
    a, b = m.coeff_a / nrm, m.coeff_b / nrm
    scaled = Mode(m.sector, m.parameter, a, b, normalized=True)
    v0, d0 = map(complex, scaled._values(0.0, cmath.exp))
    d0 = g.l * d0
    ref = math.hypot(abs(v0), abs(d0))
    z = v0 if abs(v0) > 1e-8 * ref else d0
    phase = z.conjugate() / abs(z) if abs(z) > 0.0 else 1.0
    return Mode(m.sector, m.parameter, a * phase, b * phase, normalized=True)


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
