"""Euclidean propagators two ways: spectral sums and classical-image sums.

The heat kernel K(b, a; tau) = sum_n exp(-E_n tau / hbar) psi_n(b) psi_n*(a)
admits, for the solvable boundary families, a second representation as a
Gaussian sum over classical reflected and winding paths,

    K = sqrt(m / (2 pi hbar tau)) * sum_nu w_nu exp(-m d_nu^2 / (2 hbar tau)),

with displacements d_nu drawn from the arithmetic families (b - a) + nu l
("direct" images) and (b + a) + nu l ("mirror" images).  The two forms are
equal by Poisson summation; this module builds both and the test suite
verifies the identity on grids of endpoints and times.

Both representations are Hermitian in the endpoints and complex in
general: on a twisted circle the winding weights carry phases, so only
time-reversal-invariant boundary points (and coincident endpoints) give
real kernels.

Everything here is Wick rotated: real-time oscillatory sums are not
absolutely convergent, while the Euclidean identity is equivalent term by
term and numerically decidable.  The term lists themselves are emitted
symbolically, so a caller who wants the real-time form can reinterpret the
same weights and displacements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .eigenstates import ScaleInvariantCoefficients, scale_invariant_coefficients
from .errors import ConstraintError, SubfamilyError, TailBoundError
from .spectral import SECTOR_POSITIVE, BoxGeometry
from .u2param import (
    U2Params,
    classify,
    is_infinite,
    separated_lengths,
    twist_angle,
)

__all__ = [
    "EuclideanTime",
    "ImageTerm",
    "KernelTermList",
    "spectral_heat_kernel",
    "spectral_levels_needed",
    "image_heat_kernel",
    "images_needed",
    "build_image_terms",
    "image_pair_weights",
    "theta3",
    "halfline_image_kernel",
    "gaussian_prefactor",
    "tau_value",
]

_DIRECT = "direct"
_MIRROR = "mirror"


@dataclass(frozen=True)
class EuclideanTime:
    """Strictly positive Euclidean (imaginary) time."""

    tau: float

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ConstraintError("Euclidean time must be strictly positive")


def tau_value(tau) -> float:
    """Euclidean time as a positive float, from a number or an EuclideanTime."""
    t = tau.tau if isinstance(tau, EuclideanTime) else float(tau)
    if not t > 0.0:
        raise ConstraintError("Euclidean time must be strictly positive")
    return t


@dataclass(frozen=True)
class ImageTerm:
    """One classical image: weight, family and winding shift nu * l.

    The evaluable displacement is (b - a) + shift for the direct family and
    (b + a) + shift for the mirror family.
    """

    weight: complex
    kind: str
    shift: float


@dataclass(frozen=True)
class KernelTermList:
    """Symbolic image-sum representation of a propagator (free Gaussians)."""

    terms: tuple
    geometry: BoxGeometry


def gaussian_prefactor(g: BoxGeometry, tau) -> float:
    """sqrt(m / (2 pi hbar tau)), the free-particle kernel scale."""
    t = tau_value(tau)
    return math.sqrt(g.mass / (2.0 * math.pi * g.hbar * t))


def _check_positions(g: BoxGeometry, a, b):
    """Endpoints as float arrays that broadcast together, each inside [0, l].

    They are not broadcast here: on a sparse grid each mode is then evaluated
    once per grid line, not once per grid point.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ConstraintError("endpoint arrays do not broadcast together") from exc
    if not (np.all((0.0 <= a) & (a <= g.l)) and np.all((0.0 <= b) & (b <= g.l))):
        raise ConstraintError("endpoints must lie inside the box [0, l]")
    return a, b


# ---------------------------------------------------------------------------
# spectral representation
# ---------------------------------------------------------------------------


def spectral_heat_kernel(
    basis: tuple,
    g: BoxGeometry,
    a: float | np.ndarray,
    b: float | np.ndarray,
    tau,
    tol: float = 1e-10,
) -> complex | np.ndarray:
    """Truncated spectral sum sum_n exp(-E_n tau/hbar) psi_n(b) psi_n*(a).

    The sum runs over the modes of `basis`, the (Level, modes) pairs from
    `eigenbasis` or a leading slice of them.  The endpoints `a` and `b` are
    numbers or arrays that broadcast together; numbers give a complex,
    arrays a complex array of the broadcast shape.
    Degenerate partners are summed individually; negative levels enter with
    their growing Boltzmann factor.  The value is Hermitian in the
    endpoints, K(a, b) = conj(K(b, a)); it is real at coincident points and
    on time-reversal-invariant boundary points, but genuinely complex on a
    twisted circle, whose winding paths carry phases.

    Raises TailBoundError when the basis is too short for the requested
    tolerance `tol`, measured relative to the free-kernel prefactor: the
    neglected tail is bounded by the level density l/pi per branch times
    the Gaussian weight beyond the largest retained momentum.
    """
    t = tau_value(tau)
    a, b = _check_positions(g, a, b)
    k_top = max((lv.parameter for lv, _ in basis if lv.sector == SECTOR_POSITIVE), default=0.0)
    c = g.hbar * t / (2.0 * g.mass)
    if k_top <= 0.0 or 8.0 * erfc(k_top * math.sqrt(c)) > tol:
        raise TailBoundError(
            f"a basis of {len(basis)} levels leaves a spectral tail above {tol}"
        )
    pairs = [(lv.energy, m) for lv, modes in basis for m in modes]
    # modes on a trailing axis, summed elementwise: a BLAS contraction spent
    # milliseconds per call waking OpenBLAS threads (2 cores), more than the sum
    w = np.exp(-np.array([energy for energy, _ in pairs]) * t / g.hbar)
    psi_a = np.stack([m.psi(a) for _, m in pairs], axis=-1)
    psi_b = np.stack([m.psi(b) for _, m in pairs], axis=-1)
    out = np.sum(w * psi_b * np.conj(psi_a), axis=-1)
    return complex(out) if out.ndim == 0 else out


def spectral_levels_needed(p: U2Params, g: BoxGeometry, tau, tol: float = 1e-12) -> int:
    """Smallest level count whose spectral tail is below `tol`."""
    t = tau_value(tau)
    c = g.hbar * t / (2.0 * g.mass)
    # erfc(x) < tol/8 at x ~ sqrt(log(8/tol)); convert to a momentum cutoff
    x = math.sqrt(max(1.0, math.log(8.0 / tol)))
    k_need = (x + 1.0) / math.sqrt(c)
    # one level per branch per 2*pi/l of momentum, plus zero/negative slack
    return int(math.ceil(k_need * g.l / math.pi)) + 4


# ---------------------------------------------------------------------------
# image representation
# ---------------------------------------------------------------------------


def image_heat_kernel(
    terms: KernelTermList,
    a: float | np.ndarray,
    b: float | np.ndarray,
    tau,
    n_images: int,
    tol: float = 1e-12,
) -> complex | np.ndarray:
    """Evaluate an image term list at Euclidean time, truncated at |nu| <= n_images.

    The endpoints `a` and `b` are numbers or arrays that broadcast together;
    numbers give a complex, arrays a complex array of the broadcast shape.
    Complex-valued in general (winding weights carry phases), Hermitian in
    the endpoints.  The neglected tail is bounded by the Gaussian weight of
    the nearest omitted displacement; TailBoundError is raised when that
    bound exceeds `tol` (relative to the free-kernel prefactor).
    """
    t = tau_value(tau)
    g = terms.geometry
    a, b = _check_positions(g, a, b)
    if n_images < 2:
        raise TailBoundError("need at least two image shells")
    cut = n_images * g.l * (1.0 + 1e-12)
    used = [tm for tm in terms.terms if abs(tm.shift) <= cut]
    if not used:
        raise TailBoundError("term list is empty inside the requested image range")
    alpha = g.mass * g.l**2 / (2.0 * g.hbar * t)
    j = n_images - 1
    w_max = max(abs(tm.weight) for tm in terms.terms)
    tail = 4.0 * w_max * math.exp(-alpha * j * j) / max(1e-300, -math.expm1(-alpha * (2 * j + 1)))
    if tail > tol:
        raise TailBoundError(
            f"n_images = {n_images} leaves an image tail bound {tail:.3e} above {tol}"
        )
    w = np.array([tm.weight for tm in used], dtype=complex)
    mirror = np.array([tm.kind == _MIRROR for tm in used])
    shift = np.array([tm.shift for tm in used], dtype=float)
    d = np.where(mirror, (b + a)[..., None], (b - a)[..., None]) + shift
    s = np.sum(w * np.exp(-g.mass * d * d / (2.0 * g.hbar * t)), axis=-1)
    out = gaussian_prefactor(g, t) * s
    return complex(out) if out.ndim == 0 else out


def images_needed(g: BoxGeometry, tau, tol: float = 1e-12, weight_bound: float = 2.0) -> int:
    """Smallest image count whose Gaussian tail bound is below `tol`."""
    t = tau_value(tau)
    alpha = g.mass * g.l**2 / (2.0 * g.hbar * t)
    for n in range(2, 100000):
        j = n - 1
        tail = 4.0 * weight_bound * math.exp(-alpha * j * j)
        tail /= max(1e-300, -math.expm1(-alpha * (2 * j + 1)))
        if tail <= tol:
            return n
    raise TailBoundError("image tail target unreachable")


def image_pair_weights(c: ScaleInvariantCoefficients, theta: float, n: int):
    """Winding weights (C_n, D_n) built from the plane-wave amplitudes.

    C_n multiplies the direct image with winding n, D_n the mirror image:
    C_n = |A+|^2 e^{-i theta n} + |A-|^2 e^{+i theta n} and
    D_n = A+ A-* e^{-i theta n} + A- A+* e^{+i theta n}.
    """
    ep = cmath.exp(-1j * theta * n)
    em = cmath.exp(+1j * theta * n)
    ap, am = c.a_plus, c.a_minus
    cn = abs(ap) ** 2 * ep + abs(am) ** 2 * em
    dn = ap * am.conjugate() * ep + am * ap.conjugate() * em
    return cn, dn


def build_image_terms(p: U2Params, g: BoxGeometry, n_images: int) -> KernelTermList:
    """Image weights and displacements for the families with closed kernels.

    Covered cases:
      * separated points whose Robin lengths are both 0 or infinite (the four
        scale-free wall pairs), with displacements on the 2 nu l lattice;
      * the scale-invariant sphere, with winding weights l*C_nu on the direct
        family and -l*D_nu on the mirror family over the nu l lattice; at the
        doubly degenerate poles Im(beta) = -+1 the mirror weights vanish and
        the direct weights collapse to (+-1)^nu.

    Everything else raises SubfamilyError: no closed image sum is available.
    """
    if n_images < 1:
        raise ConstraintError("n_images must be at least 1")
    flags = classify(p)
    terms = []
    if flags.separated:
        sl = separated_lengths(p)
        walls = []
        for val in (sl.l_plus, sl.l_minus):
            if is_infinite(val):
                walls.append("inf")
            elif val == 0.0:
                walls.append("zero")
            else:
                raise SubfamilyError(
                    "separated image sums need both walls at length 0 or infinity"
                )
        mirror_sign = {"zero": -1.0, "inf": +1.0}[walls[0]]
        alternating = walls[0] != walls[1]
        for nu in range(-n_images, n_images + 1):
            w = (-1.0) ** nu if alternating else 1.0
            terms.append(ImageTerm(complex(w), _DIRECT, 2.0 * nu * g.l))
            terms.append(ImageTerm(complex(mirror_sign * w), _MIRROR, 2.0 * nu * g.l))
        return KernelTermList(tuple(terms), g)
    if flags.scale_invariant:
        theta = twist_angle(p)
        b_i = p.beta.imag
        if abs(b_i) >= 1.0 - 1e-9:
            # degenerate poles: each level's eigenspace is the full plane-wave
            # doublet, whose projector has no mirror part
            base = -1.0 if b_i > 0.0 else 1.0
            for nu in range(-n_images, n_images + 1):
                terms.append(ImageTerm(complex(base**nu), _DIRECT, nu * g.l))
            return KernelTermList(tuple(terms), g)
        c = scale_invariant_coefficients(p, g, +1, 0)
        for nu in range(-n_images, n_images + 1):
            cn, dn = image_pair_weights(c, theta, nu)
            terms.append(ImageTerm(g.l * cn, _DIRECT, nu * g.l))
            terms.append(ImageTerm(-g.l * dn, _MIRROR, nu * g.l))
        return KernelTermList(tuple(terms), g)
    raise SubfamilyError(
        "no closed image sum for this boundary point; use the spectral kernel"
    )


# ---------------------------------------------------------------------------
# theta function and half-line kernels
# ---------------------------------------------------------------------------


def theta3(z: complex, tau_modular: complex) -> complex:
    """Jacobi theta_3(z, tau) = sum_n exp(i pi tau n^2 + 2 pi i n z).

    Requires Im(tau) > 0; the series is summed symmetrically until the
    absolute tail is below 1e-14.
    """
    tau_modular = complex(tau_modular)
    if not tau_modular.imag > 0.0:
        raise ConstraintError("theta3 needs Im(tau) > 0")
    z = complex(z)
    q_exp = 1j * math.pi * tau_modular
    total = 1.0 + 0j
    decay = math.pi * tau_modular.imag
    grow = 2.0 * math.pi * abs(z.imag)
    for n in range(1, 100000):
        total += cmath.exp(q_exp * n * n) * (
            cmath.exp(2j * math.pi * n * z) + cmath.exp(-2j * math.pi * n * z)
        )
        if -decay * n * n + grow * n < math.log(1e-15) and decay * (2 * n + 1) > grow:
            return total
    raise TailBoundError("theta series did not reach the tail target")


def halfline_image_kernel(
    sign_case: str, a: float, b: float, tau, hbar: float = 1.0, mass: float = 1.0
) -> float:
    """Two-image wall kernel: direct Gaussian -+ reflected Gaussian.

    sign_case 'dirichlet' subtracts the reflected path (wall length 0) and
    'neumann' adds it (infinite wall length).
    """
    t = tau_value(tau)
    if a < 0.0 or b < 0.0:
        raise ConstraintError("half-line positions must be non-negative")
    if sign_case not in ("dirichlet", "neumann"):
        raise ConstraintError("sign_case must be 'dirichlet' or 'neumann'")
    pref = math.sqrt(mass / (2.0 * math.pi * hbar * t))
    w = 2.0 * hbar * t / mass
    direct = math.exp(-((b - a) ** 2) / w)
    mirror = math.exp(-((b + a) ** 2) / w)
    return pref * (direct - mirror if sign_case == "dirichlet" else direct + mirror)
