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
        x = np.asarray(x, dtype=float)
        if self.sector == SECTOR_ZERO:
            out = self.coeff_a * x + self.coeff_b * np.ones_like(x, dtype=complex)
        elif self.sector == SECTOR_POSITIVE:
            k = self.parameter
            out = self.coeff_a * np.exp(1j * k * x) + self.coeff_b * np.exp(-1j * k * x)
        else:
            q = self.parameter
            out = self.coeff_a * np.exp(q * x) + self.coeff_b * np.exp(-q * x)
        return out if out.ndim else complex(out)

    def dpsi(self, x):
        """Evaluate the spatial derivative at x."""
        x = np.asarray(x, dtype=float)
        if self.sector == SECTOR_ZERO:
            out = self.coeff_a * np.ones_like(x, dtype=complex)
        elif self.sector == SECTOR_POSITIVE:
            k = self.parameter
            out = 1j * k * (
                self.coeff_a * np.exp(1j * k * x) - self.coeff_b * np.exp(-1j * k * x)
            )
        else:
            q = self.parameter
            out = q * (self.coeff_a * np.exp(q * x) - self.coeff_b * np.exp(-q * x))
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
# closed-form integrals
# ---------------------------------------------------------------------------


def _eint(nu: complex, l: float) -> complex:
    """Integral of exp(nu x) over [0, l], stable for small nu."""
    z = nu * l
    if abs(z) < 1e-8:
        return l * (1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0)
    return (cmath.exp(z) - 1.0) / nu


def _xint(nu: complex, l: float) -> complex:
    """Integral of x exp(nu x) over [0, l], stable for small nu."""
    z = nu * l
    if abs(z) < 1e-8:
        return l * l * (0.5 + z / 3.0 + z * z / 8.0 + z * z * z / 30.0)
    return (l * cmath.exp(z)) / nu - (cmath.exp(z) - 1.0) / (nu * nu)


def _exp_rates(m: Mode):
    if m.sector == SECTOR_POSITIVE:
        return (1j * m.parameter, -1j * m.parameter)
    return (m.parameter, -m.parameter)


def mode_inner(m1: Mode, m2: Mode, g: BoxGeometry) -> complex:
    """L2 inner product <m1, m2> on [0, l] from exact antiderivatives."""
    l = g.l
    if m1.sector == SECTOR_ZERO and m2.sector == SECTOR_ZERO:
        a1, b1 = m1.coeff_a.conjugate(), m1.coeff_b.conjugate()
        a2, b2 = m2.coeff_a, m2.coeff_b
        return a1 * a2 * l**3 / 3.0 + (a1 * b2 + b1 * a2) * l**2 / 2.0 + b1 * b2 * l
    if m1.sector == SECTOR_ZERO:
        a1, b1 = m1.coeff_a.conjugate(), m1.coeff_b.conjugate()
        r = _exp_rates(m2)
        return sum(
            c * (a1 * _xint(mu, l) + b1 * _eint(mu, l))
            for c, mu in zip((m2.coeff_a, m2.coeff_b), r)
        )
    if m2.sector == SECTOR_ZERO:
        return mode_inner(m2, m1, g).conjugate()
    r1, r2 = _exp_rates(m1), _exp_rates(m2)
    total = 0j
    for c1, mu1 in zip((m1.coeff_a, m1.coeff_b), r1):
        for c2, mu2 in zip((m2.coeff_a, m2.coeff_b), r2):
            total += c1.conjugate() * c2 * _eint(mu1.conjugate() + mu2, l)
    return total


def _norm(m: Mode, g: BoxGeometry) -> float:
    return math.sqrt(max(0.0, mode_inner(m, m, g).real))


# ---------------------------------------------------------------------------
# boundary data and residuals
# ---------------------------------------------------------------------------


def boundary_data(m: Mode, g: BoxGeometry) -> BoundaryData:
    """Boundary vectors of a mode on the box [0, l]."""
    psi = np.array([m.psi(0.0), m.psi(g.l)], dtype=complex)
    dpsi = np.array([m.dpsi(0.0), -m.dpsi(g.l)], dtype=complex)
    return BoundaryData(psi_vec=psi, dpsi_vec=dpsi)


def boundary_residual(m: Mode, p: U2Params, g: BoxGeometry) -> float:
    """Normalized residual of the boundary conditions for this mode.

    Returns |(U - I) Psi + i L0 (U + I) Psi'| divided by |(Psi, L0 Psi')|;
    zero exactly when the mode satisfies the boundary conditions.
    """
    bd = boundary_data(m, g)
    U = to_matrix(p)
    eye = np.eye(2)
    r = (U - eye) @ bd.psi_vec + 1j * p.L0 * (U + eye) @ bd.dpsi_vec
    denom = math.sqrt(
        float(np.sum(np.abs(bd.psi_vec) ** 2) + np.sum(np.abs(p.L0 * bd.dpsi_vec) ** 2))
    )
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(r)) / denom


def _coefficient_matrix(p: U2Params, g: BoxGeometry, k: float, sector: str) -> np.ndarray:
    """Matrix M(k) with M (A, B)^t = boundary-condition residual vector.

    Columns are the boundary images of the two basis solutions exp(+-ikx)
    (or exp(+-kappa x) for the negative sector).
    """
    U = to_matrix(p)
    eye = np.eye(2)
    l = g.l
    if sector == SECTOR_POSITIVE:
        ea, eb = cmath.exp(1j * k * l), cmath.exp(-1j * k * l)
        rate = 1j * k
    else:
        ea, eb = math.exp(k * l), math.exp(-k * l)
        rate = k
    pa = np.array([1.0, ea], dtype=complex)
    pb = np.array([1.0, eb], dtype=complex)
    qa = rate * np.array([1.0, -ea], dtype=complex)
    qb = -rate * np.array([1.0, -eb], dtype=complex)
    col_a = (U - eye) @ pa + 1j * p.L0 * (U + eye) @ qa
    col_b = (U - eye) @ pb + 1j * p.L0 * (U + eye) @ qb
    return np.column_stack([col_a, col_b])


def _nullspace_modes(p, g, k, sector, mscale):
    M = _coefficient_matrix(p, g, k, sector)
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
    `tol`.  The coefficients solve the boundary conditions with
    Psi = (B, A l + B) and Psi' = (A, -A), through the same SVD route as the
    other sectors.
    """
    if not zero_mode_exists(p, g, tol):
        raise SubfamilyError("no zero-energy state at this boundary point")
    U = to_matrix(p)
    eye = np.eye(2)
    col_a = (U - eye) @ np.array([0.0, g.l], dtype=complex) + 1j * p.L0 * (
        (U + eye) @ np.array([1.0, -1.0], dtype=complex)
    )
    col_b = (U - eye) @ np.array([1.0, 1.0], dtype=complex)
    M = np.column_stack([col_a, col_b])
    _, _, vh = np.linalg.svd(M)
    v = vh[1].conj()
    return normalize(Mode(SECTOR_ZERO, None, v[0], v[1]), g)


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
    nrm = _norm(m, g)
    if nrm <= 0.0 or not math.isfinite(nrm):
        raise ZeroFunctionError("cannot normalize a vanishing mode")
    a, b = m.coeff_a / nrm, m.coeff_b / nrm
    scaled = Mode(m.sector, m.parameter, a, b, normalized=True)
    v0 = scaled.psi(0.0)
    d0 = g.l * scaled.dpsi(0.0)
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
