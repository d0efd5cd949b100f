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
term and numerically decidable.  An image sum is kept as a `KernelTermList`
record of three arrays, one entry per Gaussian: its weight w_nu, whether it
is a mirror image, and its shift nu l.  A caller who wants the real-time
form can reinterpret the same weights and displacements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .eigenstates import Eigenbasis, ScaleInvariantCoefficients, mode_values, scale_invariant_coefficients
from .errors import ConstraintError, SubfamilyError, TailBoundError
from .spectral import SECTOR_POSITIVE, BoxGeometry
from .u2param import INFINITE_LENGTH, U2Params, classify, separated_lengths, twist_angle

__all__ = [
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

#: image and level counts above this are refused as unreachable tail targets
_MAX_TERMS = 100000


def tau_value(tau) -> float:
    """Euclidean (imaginary) time as a positive float."""
    t = float(tau)
    if not t > 0.0:
        raise ConstraintError("Euclidean time must be strictly positive")
    return t


@dataclass(frozen=True)
class KernelTermList:
    """Image-sum representation of a propagator: one free Gaussian per entry.

    `weight` (complex), `mirror` (bool) and `shift` (float) are 1-D arrays of
    one length.  Entry i is the Gaussian of the displacement (b + a) + shift[i]
    where mirror[i], and (b - a) + shift[i] otherwise, times weight[i].
    """

    weight: np.ndarray
    mirror: np.ndarray
    shift: np.ndarray
    geometry: BoxGeometry

    def __post_init__(self):
        for name, dtype in (("weight", complex), ("mirror", bool), ("shift", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if self.weight.ndim != 1 or not self.weight.shape == self.mirror.shape == self.shift.shape:
            raise ConstraintError("weight, mirror and shift must be 1-D arrays of one length")


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


def _times(tau):
    """Times as a list of positive floats, and whether `tau` was one time, not a sequence."""
    one = np.ndim(tau) == 0
    times = [tau_value(t) for t in ([tau] if one else tau)]
    if not times:
        raise ConstraintError("need at least one Euclidean time")
    return times, one


def _per_time(count, times) -> list:
    """One count per time: a sequence matching the times, or one count for all of them."""
    if np.ndim(count) == 0:
        return [count] * len(times)
    if len(count) != len(times):
        raise ConstraintError(f"{len(count)} counts for {len(times)} Euclidean times")
    return list(count)


def _by_time(values: list, one: bool):
    """The per-time values stacked on a leading time axis, or the only one of a single time."""
    out = values[0] if one else np.stack(values)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# spectral representation
# ---------------------------------------------------------------------------


def spectral_heat_kernel(
    basis: Eigenbasis,
    g: BoxGeometry,
    a: float | np.ndarray,
    b: float | np.ndarray,
    tau,
    tol: float = 1e-10,
    n_levels=None,
) -> complex | np.ndarray:
    """Truncated spectral sum sum_n exp(-E_n tau/hbar) psi_n(b) psi_n*(a).

    The sum runs over the modes of `basis`, a record from `eigenbasis` or a
    slice of one.
    The endpoints `a` and `b` are numbers or arrays that broadcast together;
    numbers give a complex, arrays a complex array of the broadcast shape.
    Degenerate partners are summed individually; negative levels enter with
    their growing Boltzmann factor.  The value is Hermitian in the
    endpoints, K(a, b) = conj(K(b, a)); it is real at coincident points and
    on time-reversal-invariant boundary points, but genuinely complex on a
    twisted circle, whose winding paths carry phases.

    `tau` is one time or a 1-D sequence of times; a sequence puts the times
    on a new leading axis of the result.  `n_levels` truncates each time's
    sum to the level prefix `basis[:n]`: one count for every time, or a
    sequence matching `tau`; the default is the whole basis.  Every mode of
    the basis is evaluated once per endpoint array, in one `mode_values`
    call on the record's arrays for all times, and each time sums its own
    prefix of them.

    Raises TailBoundError when a time's prefix is too short for the
    requested tolerance `tol`, measured relative to the free-kernel
    prefactor: the neglected tail is bounded by the level density l/pi per
    branch times the Gaussian weight beyond the largest retained momentum.
    """
    times, one = _times(tau)
    a, b = _check_positions(g, a, b)
    counts = _per_time(len(basis) if n_levels is None else n_levels, times)
    sizes = []
    for t, n in zip(times, counts):
        levels = basis.levels[:n]
        k_top = levels.parameter[levels.sector == SECTOR_POSITIVE].max(initial=0.0)
        c = g.hbar * t / (2.0 * g.mass)
        if k_top <= 0.0 or 8.0 * math.erfc(k_top * math.sqrt(c)) > tol:
            raise TailBoundError(
                f"a basis of {len(levels)} levels leaves a spectral tail above {tol}"
            )
        sizes.append(basis.offsets[len(levels)])
    energy = -np.repeat(basis.levels.energy, np.diff(basis.offsets))
    # modes on a trailing axis, summed elementwise: a BLAS contraction spent
    # milliseconds per call waking OpenBLAS threads (2 cores), more than the sum
    psi_b, psi_a = mode_values(basis, b)[0], np.conj(mode_values(basis, a)[0])
    return _by_time([
        np.sum(np.exp(energy[:m] * t / g.hbar) * psi_b[..., :m] * psi_a[..., :m], axis=-1)
        for t, m in zip(times, sizes)
    ], one)


def spectral_levels_needed(p: U2Params, g: BoxGeometry, tau) -> int:
    """Smallest level count whose spectral tail is below 1e-12.

    Raises TailBoundError when that count passes _MAX_TERMS.
    """
    t = tau_value(tau)
    c = g.hbar * t / (2.0 * g.mass)
    # erfc(x) < 1e-12 / 8 at x ~ sqrt(log(8e12)); convert to a momentum cutoff
    x = math.sqrt(math.log(8e12))
    k_need = (x + 1.0) / math.sqrt(c) if c > 0.0 else math.inf
    # one level per branch per 2*pi/l of momentum, plus zero/negative slack
    top = k_need * g.l / math.pi
    if not top <= _MAX_TERMS - 4:  # inf included
        raise TailBoundError(f"spectral tail target unreachable with {_MAX_TERMS} levels")
    return int(math.ceil(top)) + 4


# ---------------------------------------------------------------------------
# image representation
# ---------------------------------------------------------------------------


def image_heat_kernel(
    terms: KernelTermList,
    a: float | np.ndarray,
    b: float | np.ndarray,
    tau,
    n_images,
    tol: float = 1e-12,
) -> complex | np.ndarray:
    """Evaluate an image term list at Euclidean time, truncated at |shift| <= n_images l.

    The cut is |nu| <= n_images on the nu l lattice of the scale-invariant
    sphere and |nu| <= n_images / 2 on the 2 nu l lattice of the separated
    walls.

    The endpoints `a` and `b` are numbers or arrays that broadcast together;
    numbers give a complex, arrays a complex array of the broadcast shape.
    `tau` is one time or a 1-D sequence of times, and `n_images` one count
    for every time or a sequence matching `tau`; a sequence of times puts
    them on a new leading axis of the result.  One term list, built for the
    largest count, serves every time: the displacements are made once from
    its arrays, and each time sums the terms inside its own cut
    |shift| <= n_images l.
    Complex-valued in general (winding weights carry phases), Hermitian in
    the endpoints.  The neglected tail is bounded by the Gaussian weight of
    the nearest omitted displacement, with the largest weight among the
    terms inside the cut (for a list from `build_image_terms`, the largest
    of `build_image_terms(p, g, n_images)`); TailBoundError is raised when
    that bound exceeds `tol` (relative to the free-kernel prefactor).
    """
    times, one = _times(tau)
    g = terms.geometry
    a, b = _check_positions(g, a, b)
    counts = _per_time(n_images, times)
    w, shift = terms.weight, terms.shift
    used = []
    for t, n in zip(times, counts):
        if n < 2:
            raise TailBoundError("need at least two image shells")
        inside = np.abs(shift) <= n * g.l * (1.0 + 1e-12)
        if not inside.any():
            raise TailBoundError("term list is empty inside the requested image range")
        tail = _image_tail(g, t, n, float(np.max(np.abs(w[inside]))))
        if tail > tol:
            raise TailBoundError(f"n_images = {n} leaves an image tail bound {tail:.3e} above {tol}")
        used.append(inside)
    # the terms inside the largest cut, and each time's share of them
    keep = np.logical_or.reduce(used)
    d = np.where(terms.mirror[keep], (b + a)[..., None], (b - a)[..., None]) + shift[keep]
    q = -g.mass * d * d
    values = []
    for t, inside in zip(times, used):
        # compress, unlike a boolean index, keeps the terms on the contiguous
        # last axis, so each time is summed in the order of a one-time call
        gauss = np.exp(np.compress(inside[keep], q, axis=-1) / (2.0 * g.hbar * t))
        values.append(gaussian_prefactor(g, t) * np.sum(w[inside] * gauss, axis=-1))
    return _by_time(values, one)


def images_needed(g: BoxGeometry, tau, tol: float = 1e-12) -> int:
    """Smallest image count whose Gaussian tail bound is below `tol` for weights up to 2."""
    t = tau_value(tau)
    for n in range(2, _MAX_TERMS):
        if _image_tail(g, t, n, 2.0) <= tol:
            return n
    raise TailBoundError("image tail target unreachable")


def _image_tail(g: BoxGeometry, t: float, n_images: int, weight_bound: float) -> float:
    """Bound on the image terms beyond |nu| = n_images - 1, relative to the free prefactor."""
    alpha = g.mass * g.l**2 / (2.0 * g.hbar * t)
    j = n_images - 1
    return 4.0 * weight_bound * math.exp(-alpha * j * j) / max(1e-300, -math.expm1(-alpha * (2 * j + 1)))


def image_pair_weights(c: ScaleInvariantCoefficients, theta: float, n):
    """Winding weights (C_n, D_n) built from the plane-wave amplitudes, for an int or int array n.

    C_n multiplies the direct image with winding n, D_n the mirror image:
    C_n = |A+|^2 e^{-i theta n} + |A-|^2 e^{+i theta n} and
    D_n = A+ A-* e^{-i theta n} + A- A+* e^{+i theta n}.
    """
    ep, em = np.exp(-1j * theta * n), np.exp(+1j * theta * n)
    ap, am = c.a_plus, c.a_minus
    cn = abs(ap) ** 2 * ep + abs(am) ** 2 * em
    dn = ap * am.conjugate() * ep + am * ap.conjugate() * em
    return cn, dn


def build_image_terms(p: U2Params, g: BoxGeometry, n_images: int) -> KernelTermList:
    """Image weights and displacements for the families with closed kernels.

    Covered cases:
      * separated points whose Robin lengths are both 0 or infinite (the four
        scale-free wall pairs), with displacements on the 2 nu l lattice:
        |nu| <= n_images // 2, the terms `image_heat_kernel` sums inside
        its cut |shift| <= n_images l;
      * the scale-invariant sphere, with winding weights l*C_nu on the direct
        family and -l*D_nu on the mirror family over the nu l lattice; at the
        doubly degenerate poles Im(beta) = -+1 the mirror weights vanish and
        the direct weights collapse to (+-1)^nu.

    The terms are in the order direct then mirror at each shift, shifts
    ascending; the poles list direct terms only.
    Everything else raises SubfamilyError: no closed image sum is available.
    """
    if n_images < 1:
        raise ConstraintError("n_images must be at least 1")
    flags = classify(p)
    nu = np.arange(-n_images, n_images + 1)
    if flags.separated:
        sl = separated_lengths(p)
        if not {sl.l_plus, sl.l_minus} <= {0.0, INFINITE_LENGTH}:
            raise SubfamilyError("separated image sums need both walls at length 0 or infinity")
        nu = nu[abs(nu) <= n_images // 2]
        # walls (0, 0) and (inf, inf) weigh every image 1, mixed walls (-1)^nu
        direct = np.where((nu % 2 == 1) & (sl.l_plus != sl.l_minus), -1.0, 1.0)
        weights, shift = (direct, (-1.0 if sl.l_plus == 0.0 else 1.0) * direct), 2.0 * nu * g.l
    elif flags.scale_invariant and abs(p.beta.imag) >= 1.0 - 1e-9:
        # degenerate poles: each level's eigenspace is the full plane-wave
        # doublet, whose projector has no mirror part
        weights, shift = (np.where(nu % 2 == 1, -1.0 if p.beta.imag > 0.0 else 1.0, 1.0),), nu * g.l
    elif flags.scale_invariant:
        cn, dn = image_pair_weights(scale_invariant_coefficients(p, g, +1, 0), twist_angle(p), nu)
        weights, shift = (g.l * cn, -g.l * dn), nu * g.l
    else:
        raise SubfamilyError("no closed image sum for this boundary point; use the spectral kernel")
    k = len(weights)  # terms per shift: direct, then mirror where there is one
    return KernelTermList(np.stack(weights, axis=-1).ravel(), np.tile([False, True][:k], len(shift)),
                          np.repeat(shift, k), g)


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
