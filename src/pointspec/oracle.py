"""Finite-difference cross-check of the transcendental spectra.

The free Hamiltonian H = -(hbar^2/2m) d^2/dx^2 is discretized on a uniform
grid with second-order central differences; the two scalar boundary
conditions are imposed through one-sided second-order approximations of
psi'(0) and psi'(l), eliminating the wall values psi_0 and psi_N so the
reduced matrix stays square.  Generic boundary points couple the two ends
with complex weights, so the full complex eigenproblem is solved (sparse,
shift-inverted around a certified lower bound) and the imaginary parts of
the returned eigenvalues are asserted to be numerical noise.

This discretization shares no code with the transcendental solver and is
the independent oracle used to validate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigs

from .errors import ConstraintError, ContradictionError
from .spectral import BoxGeometry, negative_search_ceiling
from .u2param import U2Params, to_matrix

__all__ = ["FdConfig", "fd_spectrum"]


@dataclass(frozen=True)
class FdConfig:
    """Discretization parameters.

    n_points is the interior matrix dimension (>= 16).  shift is the
    spectral point the eigensolver inverts around; it must sit strictly
    below the lowest level, and None selects a certified bound from the
    hyperbolic envelope of the negative-level condition.
    """

    n_points: int
    shift: float | None = None

    def __post_init__(self):
        if self.n_points < 16:
            raise ConstraintError("n_points must be at least 16")


def _reduced_matrix(p: U2Params, g: BoxGeometry, n_points: int):
    """Sparse complex Hamiltonian on the interior grid after wall elimination."""
    n_cells = n_points + 1
    h = g.l / n_cells
    t = g.hbar**2 / (2.0 * g.mass * h * h)
    U = to_matrix(p)
    eye2 = np.eye(2)
    # boundary rows: B (psi_0, psi_N)^t = -i L0 (U+I) (r0, rN)^t with
    # r0 = (4 psi_1 - psi_2)/(2h), rN = (4 psi_{N-1} - psi_{N-2})/(2h)
    B = (U - eye2) - (3j * p.L0 / (2.0 * h)) * (U + eye2)
    cond = np.linalg.cond(B)
    if not np.isfinite(cond) or cond > 1e12:
        raise ContradictionError(
            "wall-elimination system is ill conditioned; change n_points"
        )
    W = -1j * p.L0 * np.linalg.solve(B, (U + eye2))

    main = np.full(n_points, 2.0 * t, dtype=complex)
    off = np.full(n_points - 1, -t, dtype=complex)
    # row for psi_1 gains -t * psi_0, row for psi_{N-1} gains -t * psi_N, where
    # (psi_0, psi_N) = W (r0, rN) and r0, rN take psi with weights (4, -1)/(2h)
    iA, iB = 0, n_points - 1  # grid points 1 and N-1
    weights = -t * np.repeat(W, 2, axis=1).ravel() * np.tile([4.0, -1.0], 4) / (2.0 * h)
    corners = sp.csc_matrix(
        (weights, ([iA] * 4 + [iB] * 4, [iA, iA + 1, iB, iB - 1] * 2)),
        shape=(n_points, n_points),
    )
    H = sp.diags([off, main, off], [-1, 0, 1], format="csc", dtype=complex) + corners
    H.eliminate_zeros()
    H.sort_indices()
    return H


def _default_shift(p: U2Params, g: BoxGeometry) -> float:
    v_max = negative_search_ceiling(p, g)
    kappa_ub = v_max / g.l
    esc = g.hbar**2 / (2.0 * g.mass)
    return -1.1 * esc * kappa_ub**2 - g.energy_scale


def fd_spectrum(p: U2Params, g: BoxGeometry, cfg: FdConfig, n_levels: int):
    """Lowest n_levels eigenvalues of the discretized Hamiltonian.

    Eigenvalues are returned sorted ascending as real floats; degenerate
    levels appear as near-equal copies.  Raises ContradictionError when the
    eigensolver fails or the eigenvalues come out measurably complex.
    """
    if n_levels < 1:
        raise ConstraintError("n_levels must be at least 1")
    if n_levels > cfg.n_points // 4:
        raise ConstraintError("n_levels must be far below n_points")
    H = _reduced_matrix(p, g, cfg.n_points)
    sigma = cfg.shift if cfg.shift is not None else _default_shift(p, g)
    k_ask = min(n_levels + 2, cfg.n_points - 2)
    # seeded for reproducible output; a constant vector misses odd modes of a symmetric box
    v0 = np.random.default_rng(0).standard_normal(H.shape[0])
    try:
        vals = eigs(
            H,
            k=k_ask,
            sigma=sigma,
            which="LM",
            v0=v0,
            return_eigenvectors=False,
            maxiter=5000,
        )
    except (ArpackError, ArpackNoConvergence) as exc:
        raise ContradictionError(f"sparse eigensolver failed: {exc}") from exc
    vals = np.asarray(vals)
    order = np.argsort(vals.real)
    vals = vals[order][:n_levels]
    esc = g.energy_scale
    for ev in vals:
        if abs(ev.imag) > 1e-9 * max(esc, abs(ev.real)):
            raise ContradictionError(
                f"eigenvalue {ev!r} has a non-negligible imaginary part"
            )
    return vals.real.copy()
