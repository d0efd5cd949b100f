"""Points of the U(2) family of self-adjoint boundary conditions.

A single point interaction on a circle of circumference l (equivalently a box
[0, l] with walls coupled through the junction) is fixed by a unitary 2x2
matrix U acting on the boundary data

    (U - I) Psi + i L0 (U + I) Psi' = 0,
    Psi  = (psi(0), psi(l)),
    Psi' = (psi'(0), -psi'(l)),

with L0 a fixed reference length.  U is stored in the unique form

    U = exp(i xi) [[alpha, beta], [-conj(beta), conj(alpha)]],

with xi in [0, pi) and |alpha|^2 + |beta|^2 = 1.  This module validates such
points, classifies them into the physically distinguished subfamilies,
converts separated (diagonal) points to their two Robin wall lengths, and
gives the Robin lengths of U's two eigen-directions at any point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, SubfamilyError

__all__ = [
    "INFINITE_LENGTH",
    "U2Params",
    "SubfamilyFlags",
    "SeparatedLengths",
    "make_u2",
    "to_matrix",
    "classify",
    "direction_lengths",
    "level_coefficients",
    "separated_lengths",
    "twist_angle",
]

#: default absolute tolerance on each defining subfamily equation
CLASSIFY_TOL = 1e-9

_UNIT_NORM_TOL = 1e-12


#: the Robin length of a pure Neumann wall
INFINITE_LENGTH = math.inf


@dataclass(frozen=True)
class U2Params:
    """One boundary-condition point: (xi, alpha, beta) plus the length L0.

    Invariants (enforced on construction):
      * |alpha|^2 + |beta|^2 = 1 within 1e-12,
      * xi in [0, pi),
      * L0 > 0 and finite.
    """

    xi: float
    alpha: complex
    beta: complex
    L0: float = 1.0

    def __post_init__(self):
        norm2 = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm2 - 1.0) <= _UNIT_NORM_TOL:
            raise ConstraintError(
                f"|alpha|^2 + |beta|^2 = {norm2!r} is not 1 within {_UNIT_NORM_TOL}"
            )
        if not (0.0 <= self.xi < math.pi):
            raise ConstraintError(f"xi = {self.xi!r} outside [0, pi)")
        if not 0.0 < self.L0 < math.inf:
            raise ConstraintError(f"L0 = {self.L0!r} must be finite and strictly positive")


@dataclass(frozen=True)
class SubfamilyFlags:
    """Membership of one point in the named subfamilies.

    separated        diagonal U: independent Robin conditions at each wall
    scale_invariant  U has eigenvalues +1 and -1; L0 drops out entirely
    smooth_circle    translation-invariant circle with a twist phase
                     (subset of scale_invariant)
    isospectral      xi = 0, Im(beta) = 0: the spectrum is the Dirichlet one
                     for every point of this sphere
    semi_iso_plus    sin(xi) = +Im(beta): equidistant odd levels interlaced
                     with transcendental ones
    semi_iso_minus   sin(xi) = -Im(beta): even-level analogue
    """

    separated: bool
    scale_invariant: bool
    smooth_circle: bool
    isospectral: bool
    semi_iso_plus: bool
    semi_iso_minus: bool


@dataclass(frozen=True)
class SeparatedLengths:
    """Robin lengths (L+, L-) of a separated point.

    The decoupled wall conditions read, in terms of the inward derivative at
    each wall (+psi'(0) on the left, -psi'(l) on the right),

        psi(0) + l_plus  * psi'(0) = 0,
        psi(l) - l_minus * psi'(l) = 0.

    Each length is a float, INFINITE_LENGTH at a Neumann wall.
    """

    l_plus: float
    l_minus: float


def make_u2(xi: float, alpha: complex, beta: complex, L0: float = 1.0) -> U2Params:
    """Validate and build a boundary point.

    No normal-form reduction is attempted: the inputs must already satisfy
    the unit-norm and range invariants, otherwise ConstraintError is raised.
    """
    return U2Params(float(xi), complex(alpha), complex(beta), float(L0))


def to_matrix(p: U2Params) -> np.ndarray:
    """The unitary matrix exp(i xi) [[alpha, beta], [-beta*, alpha*]]."""
    ph = cmath.exp(1j * p.xi)
    return ph * np.array(
        [[p.alpha, p.beta], [-p.beta.conjugate(), p.alpha.conjugate()]],
        dtype=complex,
    )


def classify(p: U2Params, tol: float = CLASSIFY_TOL) -> SubfamilyFlags:
    """Evaluate every subfamily's defining equations within `tol`.

    The scale-invariant family is tested in parameter form (xi = pi/2 and
    Re(alpha) = 0), which is equivalent to det(U - I) = det(U + I) = 0.
    """
    a_r, a_i = p.alpha.real, p.alpha.imag
    b_r, b_i = p.beta.real, p.beta.imag
    sep = abs(b_r) <= tol and abs(b_i) <= tol
    scale_inv = abs(p.xi - math.pi / 2) <= tol and abs(a_r) <= tol
    smooth = scale_inv and abs(a_i) <= tol
    iso = abs(p.xi) <= tol and abs(b_i) <= tol
    s = math.sin(p.xi)
    return SubfamilyFlags(
        separated=sep,
        scale_invariant=scale_inv,
        smooth_circle=smooth,
        isospectral=iso,
        semi_iso_plus=abs(s - b_i) <= tol,
        semi_iso_minus=abs(s + b_i) <= tol,
    )


def separated_lengths(p: U2Params, tol: float = CLASSIFY_TOL) -> SeparatedLengths:
    """Robin lengths of a separated (diagonal-U) point.

    The two walls decouple into independent Robin conditions, each acting on
    the inward derivative at its wall (see SeparatedLengths).  The walls are
    U's eigen-directions, so their lengths are `direction_lengths` in wall
    order: (L+, L-) where Im alpha >= 0, (L-, L+) otherwise.  Raises
    SubfamilyError when beta is not zero within `tol`.
    """
    if not classify(p, tol).separated:
        raise SubfamilyError(
            f"point is not separated: beta = {p.beta!r} is nonzero beyond {tol}"
        )
    l_plus, l_minus = direction_lengths(p)
    return SeparatedLengths(l_plus, l_minus) if p.alpha.imag >= 0.0 else SeparatedLengths(l_minus, l_plus)


def level_coefficients(p: U2Params) -> tuple[float, float, float, float]:
    """(sin xi, c1, c2, Im beta) with c1 = cos xi - Re alpha, c2 = cos xi + Re alpha.

    The level conditions' coefficients, from (xi, Re alpha, Im beta) alone,
    so that points sharing those share the conditions bit for bit.  c1 or
    c2 within 1e-12 of 0 is 0, an exact Neumann or Dirichlet direction of U
    at any L0; every reader of c1 and c2 takes them from here.
    """
    s, c = math.sin(p.xi), math.cos(p.xi)
    a_r = p.alpha.real
    c1, c2 = (0.0 if abs(v) <= 1e-12 else v for v in (c - a_r, c + a_r))
    return s, c1, c2, p.beta.imag


def direction_lengths(p: U2Params) -> tuple[float, float]:
    """Robin lengths (L+, L-) of U's two eigen-directions, at any point.

    U has eigenvalues exp(i theta+-), theta+- = xi +- arccos(Re alpha).  On
    the boundary data along an eigenvector the condition reads
    Psi + L Psi' = 0 with L = L0 cot(theta / 2).  With s = sin xi, sigma =
    sqrt(1 - Re alpha^2), c1 = cos xi - Re alpha and c2 = cos xi + Re alpha,
    and since (s - sigma)(s + sigma) = -c1 c2, these are the closed forms
    L+ = L0 c2 / (s + sigma) and L- = -L0 (s + sigma) / c1.  They read c1
    and c2 from `level_coefficients`, as spectral's level conditions do, so
    a snapped c2 (c1) is an exact Dirichlet direction L+ = 0 (Neumann
    direction L- = INFINITE_LENGTH) and the lengths belong to the point
    spectral solves; near a wall an angle through arccos loses those
    digits.  A direction with 0 < L < inf is attractive; no other direction
    binds a state.
    """
    a_r = p.alpha.real
    s, c1, c2, _ = level_coefficients(p)
    s_sigma = s + math.sqrt(max(0.0, (1.0 - a_r) * (1.0 + a_r)))
    if s_sigma == 0.0:  # xi = 0 and Re alpha = +-1: U = +-I, whose two directions are one wall
        return (0.0, 0.0) if c2 == 0.0 else (INFINITE_LENGTH, INFINITE_LENGTH)
    return (0.0 if c2 == 0.0 else p.L0 * c2 / s_sigma, INFINITE_LENGTH if c1 == 0.0 else -p.L0 * s_sigma / c1)


def twist_angle(p: U2Params, tol: float = CLASSIFY_TOL) -> float:
    """Spectral angle theta = arccos(-Im beta) of a scale-invariant point.

    theta in [0, pi] alone fixes the spectrum of the whole scale-invariant
    sphere; on the smooth-circle subfamily it is the phase a wavefunction
    picks up once around the circle.
    """
    if not classify(p, tol).scale_invariant:
        raise SubfamilyError("twist angle is defined only on the scale-invariant sphere")
    return math.acos(min(1.0, max(-1.0, -p.beta.imag)))
