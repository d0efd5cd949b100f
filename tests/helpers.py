"""Shared samplers for randomized tests (all seeded by the caller), fixed points, spectra and CLI payloads."""

import cmath
import itertools
import math

import numpy as np

from pointspec import (ConstraintError, Spectrum, eigenbasis, make_u2, residuals_and_norms, spectra,
                       zero_mode_exists)
from pointspec import cli


def haar_point(rng, L0=None):
    """Roughly uniform boundary point: xi uniform, (alpha, beta) isotropic."""
    xi = float(rng.uniform(0.0, np.pi))
    v = rng.normal(size=4)
    n = float(np.sqrt(np.sum(v * v)))
    if L0 is None:
        L0 = float(np.exp(rng.uniform(-1.0, 1.0)))
    return make_u2(xi, complex(v[0], v[1]) / n, complex(v[2], v[3]) / n, L0)


def separated_point(rng, L0=None):
    """Random diagonal-U point (beta = 0)."""
    xi = float(rng.uniform(0.0, np.pi))
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    if L0 is None:
        L0 = float(np.exp(rng.uniform(-1.0, 1.0)))
    return make_u2(xi, complex(np.cos(phi), np.sin(phi)), 0.0, L0)


def scale_invariant_point(rng, L0=1.0, beta_im_margin=0.0):
    """Random point of the scale-invariant sphere, optionally away from the poles."""
    while True:
        w = rng.normal(size=3)
        w = w / np.sqrt(np.sum(w * w))
        if abs(w[2]) <= 1.0 - beta_im_margin:
            break
    return make_u2(np.pi / 2, complex(0.0, w[0]), complex(w[1], w[2]), L0)


def fingerprint_pair(rng, L0=1.0):
    """Two points sharing (xi, Re alpha, Im beta, L0) with different completions."""
    while True:
        a_r = float(rng.uniform(-1.0, 1.0))
        b_i = float(rng.uniform(-1.0, 1.0))
        r2 = 1.0 - a_r * a_r - b_i * b_i
        if r2 > 1e-4:
            break
    xi = float(rng.uniform(0.0, np.pi))
    r = np.sqrt(r2)
    chi1, chi2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    p1 = make_u2(xi, complex(a_r, r * np.cos(chi1)), complex(r * np.sin(chi1), b_i), L0)
    p2 = make_u2(xi, complex(a_r, r * np.cos(chi2)), complex(r * np.sin(chi2), b_i), L0)
    return p1, p2


def degenerate_negative_point():
    """A point with a doubly degenerate negative level at kappa = 2, for l = L0 = 1."""
    # U = (X - i kappa Y)(X + i kappa Y)^-1 admits both exp(+-kappa x)
    kappa, e = 2.0, math.exp(2.0)
    X = np.array([[1.0, 1.0], [e, 1.0 / e]])
    Y = np.array([[1.0, -1.0], [-e, 1.0 / e]])
    U = (X - 1j * kappa * Y) @ np.linalg.inv(X + 1j * kappa * Y)
    xi = cmath.phase(np.linalg.det(U)) / 2.0 % math.pi
    alpha, beta = U[0] * cmath.exp(-1j * xi)
    return make_u2(xi, complex(alpha), complex(beta))


def spectrum_of(levels):
    """The Spectrum record of a list of Level values, the zero level's parameter NaN."""
    return Spectrum(np.array([lv.sector for lv in levels]),
                    np.array([lv.parameter for lv in levels], dtype=float),
                    np.array([lv.energy for lv in levels], dtype=float),
                    np.array([lv.multiplicity for lv in levels]))


def eigenstate_payload(p, g, n_levels):
    """The `eigenstate` command's JSON payload and CSV rows, built as dicts from Mode objects.

    One dict per level and per mode, with the residuals and norms of the
    Mode list: the generic writers `_json_text` and `_csv_text` turn them
    into the command's output.
    """
    basis = eigenbasis(p, g, n_levels)
    residuals, norms = residuals_and_norms([m for _, modes in basis for m in modes], p, g)
    checks = zip(residuals.tolist(), norms.tolist())
    levels = [
        ({"sector": lv.sector, "parameter": lv.parameter, "energy": lv.energy, "multiplicity": lv.multiplicity},
         [{"coeff_a": m.coeff_a, "coeff_b": m.coeff_b, "boundary_residual": r, "norm": n}
          for m, (r, n) in zip(modes, checks)])
        for lv, modes in basis
    ]
    payload = {
        "command": "eigenstate",
        "point": {"xi": p.xi, "alpha": p.alpha, "beta": p.beta, "L0": p.L0},
        "geometry": {"length": g.l, "hbar": g.hbar, "mass": g.mass},
        "levels": [{**level, "modes": modes} for level, modes in levels],
    }
    rows = [{"index": i, **level, **m} for i, (level, modes) in enumerate(levels) for m in modes]
    return payload, rows


def project_point(base, swept):
    """One scan row's (point, scale): set the swept components, rescale the untouched ones back to unit norm.

    A scalar reference for the array projection of `scan`, one row at a time.
    """
    comp = {**base, **swept}
    unit = ("alpha-re", "alpha-im", "beta-re", "beta-im")
    free = [n for n in unit if n not in swept]
    target_sq = 1.0 - sum(comp[n] ** 2 for n in unit if n in swept)
    if target_sq < -1e-12:
        raise ConstraintError("swept components alone exceed the unit norm")
    target_sq = max(0.0, target_sq)
    free_sq = sum(comp[n] ** 2 for n in free)
    if free_sq == 0.0:
        if target_sq > 1e-24:
            raise ConstraintError("cannot rescale: remaining components are all zero")
        scale = 1.0
    else:
        scale = math.sqrt(target_sq / free_sq)
    for n in free:
        comp[n] *= scale
    point = make_u2(comp["xi"], complex(comp["alpha-re"], comp["alpha-im"]),
                    complex(comp["beta-re"], comp["beta-im"]), comp["L0"])
    return point, scale


def scan_payload(p, g, sweeps, n_levels):
    """The `scan` command's JSON payload and CSV rows at base point p, built as dicts from Level values.

    sweeps are the --sweep specs; the axes are the CLI's own
    (`_parse_sweeps`), the rows' points those of `project_point`, row by
    row in itertools.product order.  One dict per row, with its energies
    and negative count read from the `Level` values of its spectrum: the
    generic writers `_json_text` and `_csv_text` turn them into the
    command's output.
    """
    axes = cli._parse_sweeps({"sweep": sweeps, "levels": n_levels})
    base = {"xi": p.xi, "alpha-re": p.alpha.real, "alpha-im": p.alpha.imag,
            "beta-re": p.beta.real, "beta-im": p.beta.imag, "L0": p.L0}
    names = [name for name, _ in axes]
    projected = [project_point(base, dict(zip(names, values)))
                 for values in itertools.product(*(values for _, values in axes))]
    specs = spectra([q for q, _ in projected], g, n_levels)
    rows = [
        {"xi": q.xi, "alpha_re": q.alpha.real, "alpha_im": q.alpha.imag,
         "beta_re": q.beta.real, "beta_im": q.beta.imag, "L0": q.L0, "rescale": scale,
         "fp_xi": q.xi, "fp_alpha_re": q.alpha.real, "fp_beta_im": q.beta.imag,
         "zero_mode": zero_mode_exists(q, g),
         "negative_count": sum(lv.sector == "negative" for lv in spec.levels),
         **{f"energy_{i}": lv.energy for i, lv in enumerate(spec.levels, start=1)}}
        for (q, scale), spec in zip(projected, specs)
    ]
    payload = {
        "command": "scan",
        "geometry": {"length": g.l, "hbar": g.hbar, "mass": g.mass},
        "axes": [{"name": name, "values": values} for name, values in axes],
        "rows": rows,
    }
    return payload, rows


def point_args(xi, alpha, beta, L0):
    """The CLI flags of a boundary point, each value as its repr."""
    values = {"xi": xi, "alpha-re": alpha.real, "alpha-im": alpha.imag,
              "beta-re": beta.real, "beta-im": beta.imag, "L0": L0}
    return [f"--{k}={float(v)!r}" for k, v in values.items()]
