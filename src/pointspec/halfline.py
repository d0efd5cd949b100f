"""Particle on the half line x >= 0 behind a wall with one Robin parameter.

Current conservation j(0) = 0 alone admits a one-parameter family of walls,

    psi(0) + L psi'(0) = 0,   L = L0 cot(phi),  phi in [0, pi),

interpolating between Dirichlet (L = 0) and Neumann (L = infinite).  Each
wall carries a continuum of scattering states, plus one bound state when
L > 0.  The Euclidean propagators are exactly solvable: two Gaussian images
at the scale-free endpoints, and an erfcx correction plus the bound-state
term at generic L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError
from .kernels import halfline_image_kernel, tau_value
from .u2param import INFINITE_LENGTH

__all__ = [
    "WallParam",
    "wall_from_length",
    "wall_from_angle",
    "reflection_coefficient",
    "scattering_state",
    "scattering_state_dx",
    "bound_state",
    "halfline_current",
    "robin_heat_kernel",
    "spectral_kernel_by_quadrature",
]


@dataclass(frozen=True)
class WallParam:
    """Wall data: Robin length L, its angle phi with L = L0 cot(phi), and L0."""

    L: float
    phi: float
    L0: float = 1.0

    def __post_init__(self):
        if not self.L0 > 0.0:
            raise ConstraintError("L0 must be strictly positive")
        if not (0.0 <= self.phi < math.pi):
            raise ConstraintError("phi must lie in [0, pi)")
        if self.L == INFINITE_LENGTH:
            if abs(math.sin(self.phi)) > 1e-9:
                raise ConstraintError("infinite L requires phi = 0")
        else:
            resid = abs(self.L * math.sin(self.phi) - self.L0 * math.cos(self.phi))
            if resid > 1e-9 * max(abs(self.L), self.L0):
                raise ConstraintError("L and (phi, L0) are inconsistent")


def wall_from_length(L, L0: float = 1.0) -> WallParam:
    """Wall from its Robin length; an infinite one is the Neumann wall."""
    if math.isinf(L):
        return WallParam(INFINITE_LENGTH, 0.0, L0)
    return WallParam(float(L), math.atan2(L0, float(L)), L0)


def wall_from_angle(phi: float, L0: float = 1.0) -> WallParam:
    """Wall from its angle, snapping phi = 0 to the infinite length."""
    s, c = math.sin(phi), math.cos(phi)
    if abs(s) < 1e-12:
        return WallParam(INFINITE_LENGTH, 0.0, L0)
    L = 0.0 if abs(c) < 1e-12 else L0 * c / s
    return WallParam(L, phi, L0)


def reflection_coefficient(w: WallParam, k: float) -> complex:
    """Unimodular reflection amplitude of the wall.

    R(k) = -(1 - ikL)/(1 + ikL) for finite L and R = +1 for the Neumann
    wall.  The overall sign is fixed by requiring e^{-ikx} + R e^{ikx} to
    satisfy psi(0) + L psi'(0) = 0 (so R(0-length wall) = -1); the family is
    continuous in L and |R| = 1 throughout.
    """
    if w.L == INFINITE_LENGTH:
        return 1.0 + 0j
    ikl = 1j * k * w.L
    return -(1.0 - ikl) / (1.0 + ikl)


def scattering_state(w: WallParam, k: float, x) -> complex:
    """Continuum state (1/sqrt(2 pi)) [exp(-ikx) + R(k) exp(ikx)], k > 0."""
    if not k > 0.0:
        raise ConstraintError("k must be strictly positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ConstraintError("half-line positions must be non-negative")
    r = reflection_coefficient(w, k)
    out = (np.exp(-1j * k * x) + r * np.exp(1j * k * x)) / math.sqrt(2.0 * math.pi)
    return out if out.ndim else complex(out)


def scattering_state_dx(w: WallParam, k: float, x) -> complex:
    """Spatial derivative of `scattering_state`."""
    if not k > 0.0:
        raise ConstraintError("k must be strictly positive")
    x = np.asarray(x, dtype=float)
    r = reflection_coefficient(w, k)
    out = (
        1j * k * (-np.exp(-1j * k * x) + r * np.exp(1j * k * x)) / math.sqrt(2.0 * math.pi)
    )
    return out if out.ndim else complex(out)


def bound_state(w: WallParam, hbar: float = 1.0, mass: float = 1.0):
    """Bound state of a wall with finite L > 0.

    Returns (E_B, psi) with E_B = -hbar^2/(2 m L^2) and the normalized
    function psi(x) = sqrt(2/L) exp(-x/L).  Walls with L <= 0 or infinite L
    have no bound state and raise ConstraintError.
    """
    if not 0.0 < w.L < INFINITE_LENGTH:
        raise ConstraintError("bound state exists only for finite L > 0")
    L = w.L
    energy = -(hbar**2) / (2.0 * mass * L * L)
    amp = math.sqrt(2.0 / L)

    def psi(x):
        x = np.asarray(x, dtype=float)
        out = amp * np.exp(-x / L) + 0j
        return out if out.ndim else complex(out)

    return energy, psi


def halfline_current(psi_value: complex, dpsi_value: complex, hbar: float = 1.0, mass: float = 1.0) -> float:
    """Probability current from pointwise (psi, psi') data."""
    return (hbar / mass) * (np.conj(psi_value) * dpsi_value).imag


def robin_heat_kernel(
    w: WallParam, a: float, b: float, tau, hbar: float = 1.0, mass: float = 1.0
) -> float:
    """Exact Euclidean wall kernel for any Robin length.

    The scale-free walls reduce to the two-image form.  For finite L the
    closed form adds an erfcx boundary layer, and for L > 0 also the
    bound-state contribution exp(+hbar tau/(2 m L^2)) psi_B(b) psi_B(a);
    written with erfcx so every factor stays bounded:

      K = G(b-a) + G(b+a) - (1/L) e^{-(a+b)^2/(4c)} erfcx(g - s)   (L > 0)
          + (2/L) e^{c/L^2 - (a+b)/L}
      K = G(b-a) + G(b+a) + (1/L) e^{-(a+b)^2/(4c)} erfcx(s - g)   (L < 0)

    with c = hbar tau / (2m), g = sqrt(c)/L, s = (a+b)/(2 sqrt(c)).
    """
    from scipy.special import erfcx

    t = tau_value(tau)
    if a < 0.0 or b < 0.0:
        raise ConstraintError("half-line positions must be non-negative")
    if w.L == INFINITE_LENGTH:
        return halfline_image_kernel("neumann", a, b, t, hbar, mass)
    L = w.L
    if L == 0.0:
        return halfline_image_kernel("dirichlet", a, b, t, hbar, mass)
    c = hbar * t / (2.0 * mass)
    sq = math.sqrt(c)
    pref = math.sqrt(mass / (2.0 * math.pi * hbar * t))
    sigma = a + b
    gauss = pref * (math.exp(-((b - a) ** 2) / (4.0 * c)) + math.exp(-(sigma**2) / (4.0 * c)))
    gamma = sq / L
    shalf = sigma / (2.0 * sq)
    if L > 0.0:
        layer = -(1.0 / L) * math.exp(-(sigma**2) / (4.0 * c)) * erfcx(gamma - shalf)
        bound = (2.0 / L) * math.exp(c / (L * L) - sigma / L)
        return gauss + layer + bound
    layer = (1.0 / L) * math.exp(-(sigma**2) / (4.0 * c)) * erfcx(shalf - gamma)
    return gauss + layer


def spectral_kernel_by_quadrature(
    w: WallParam,
    a: float,
    b: float,
    tau,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> float:
    """Direct spectral integral of the wall kernel.

    Integrates exp(-hbar k^2 tau / 2m) psi_k(b) psi_k*(a) over k in
    (0, k_max) by adaptive quadrature, with k_max set by the Gaussian tail,
    and adds the bound-state term when the wall has one.
    """
    from scipy.integrate import quad

    t = tau_value(tau)
    c = hbar * t / (2.0 * mass)
    k_max = math.sqrt(40.0 / c)

    def integrand(k):
        pb = scattering_state(w, k, b)
        pa = scattering_state(w, k, a)
        return (math.exp(-c * k * k) * pb * pa.conjugate()).real

    val, _ = quad(integrand, 0.0, k_max, limit=400)
    if 0.0 < w.L < INFINITE_LENGTH:
        energy, psi_b = bound_state(w, hbar, mass)
        val += math.exp(-energy * t / hbar) * (psi_b(b) * np.conj(psi_b(a))).real
    return float(val)
