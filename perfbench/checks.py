"""Correctness gate: every CLI output is checked against independent facts.

Nothing here imports `pointspec`.  The facts are

* the level conditions written out from their formulas (each reported level
  must be a root, and a fine sign-change scan must not find more roots than
  were reported below the top level);
* closed-form spectra: the four scale-free wall pairs (n pi / l and
  (n + 1/2) pi / l) and the twist law on the scale-invariant sphere
  (k l = theta + 2 pi n and 2 pi - theta + 2 pi n, theta = arccos(-Im beta));
* the counting bound |N_U(E) - floor(k l / pi)| <= 2 (all U(2) points are
  self-adjoint extensions of one operator with deficiency indices (2, 2)),
  so at most two states lie at or below zero energy;
* for modes, norms, overlaps of degenerate partners and boundary residuals
  recomputed from the printed coefficients, plus one mode per unit of
  multiplicity;
* the `pass` flags and bounds of `kernel-compare` and `oracle-check`.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

#: a reported level must zero its condition to this share of the term sizes
ROOT_RTOL = 1e-9
#: agreement with a closed-form momentum, relative
CLOSED_RTOL = 1e-10
#: unit norm and orthogonality of printed modes
NORM_TOL = 1e-9
#: boundary-condition residual of printed modes
RESIDUAL_TOL = 1e-8
KERNEL_TIMES = (0.02, 0.1, 0.5, 2.0)
KERNEL_BOUND = 1e-8
ORACLE_TOL = 5e-3


def _coeffs(point, geometry):
    xi, a_r, b_i = point["xi"], point["alpha"].real, point["beta"].imag
    s, c = math.sin(xi), math.cos(xi)
    return point["L0"] / geometry["length"], s, c - a_r, c + a_r, b_i


def _pos_condition(u, lam, s, c1, c2, b_i):
    """2 u lam (Im beta + sin xi cos u) + (c1 + c2 (u lam)^2) sin u, and its term size."""
    ul = u * lam
    value = 2.0 * ul * (b_i + s * np.cos(u)) + (c1 + c2 * ul**2) * np.sin(u)
    size = 2.0 * ul * (abs(b_i) + abs(s)) + abs(c1) + abs(c2) * ul**2
    return value, size


def _neg_condition(v, lam, s, c1, c2, b_i):
    """The negative-energy condition times 2 exp(-v), and its term size."""
    vl = v * lam
    em = np.exp(-v)
    value = 2.0 * vl * (2.0 * b_i * em + s * (1.0 + em * em)) + (c1 - c2 * vl**2) * (1.0 - em * em)
    size = 2.0 * vl * (2.0 * abs(b_i) * em + abs(s) * (1.0 + em * em)) + (
        abs(c1) + abs(c2) * vl**2
    ) * (1.0 - em * em)
    return value, size


def _crossings(grid, values):
    """The grid cells (lo, hi) over which the values change sign."""
    j = np.nonzero(np.sign(values[1:]) * np.sign(values[:-1]) < 0)[0]
    return [(float(grid[i]), float(grid[i + 1])) for i in j]


def _closed_form(point, kind, extra, n):
    """Sorted (u, multiplicity) for the first n positive levels, or None."""
    if kind == "wall":
        walls = extra["walls"]
        if walls in ("dirichlet-dirichlet", "neumann-neumann"):
            return [((j + 1) * math.pi, 1) for j in range(n)]
        return [((j + 0.5) * math.pi, 1) for j in range(n)]
    if kind in ("sphere", "pole", "minus-pole", "twisted-circle"):
        theta = math.acos(min(1.0, max(-1.0, -point["beta"].imag)))
        us = []
        for j in range(n + 1):
            us += [theta + 2.0 * math.pi * j, 2.0 * math.pi * (j + 1) - theta]
        us = sorted(u for u in us if u > 1e-9)
        out = []
        for u in us:
            if out and abs(u - out[-1][0]) <= 1e-12 * u:
                out[-1] = (out[-1][0], 2)
            else:
                out.append((u, 1))
        return out[:n]
    return None


def check_levels(levels, point, geometry, kind, extra, counted):
    """Check an energy-ordered list of (sector, u_or_v, multiplicity) levels.

    u = k l for positive levels, v = kappa l for negative ones, None for the
    zero level.  `counted` says whether multiplicities are known (scan rows
    list each level once without one).
    """
    problems = []
    lam, s, c1, c2, b_i = _coeffs(point, geometry)
    n_nonpos = sum(m for sec, _, m in levels if sec != "positive")
    if counted and n_nonpos > 2:
        problems.append(f"states at or below zero energy: {n_nonpos}, the bound is 2")
    negs = [x for sec, x, _ in levels if sec == "negative"]
    if negs:
        value, size = _neg_condition(np.array(negs), lam, s, c1, c2, b_i)
        bad = np.abs(value) > ROOT_RTOL * np.maximum(size, 1e-300) * np.maximum(1.0, negs)
        if np.any(bad):
            problems.append(f"negative level not a root at kappa l = {np.array(negs)[bad][0]!r}")
    pos = [(x, m) for sec, x, m in levels if sec == "positive"]
    if pos:
        us = np.array([u for u, _ in pos])
        if np.any(np.diff(us) < 0.0):
            problems.append("positive levels are not ascending")
        value, size = _pos_condition(us, lam, s, c1, c2, b_i)
        bad = np.abs(value) > ROOT_RTOL * size * np.maximum(1.0, us)
        if np.any(bad):
            problems.append(f"positive level not a root at k l = {us[bad][0]!r}")
        # no root missing below the top level: a sign change needs a root
        top = us[-1] * (1.0 - 1e-9)
        grid = np.linspace(2e-3, top, max(64, int(top / (math.pi / 128.0))))
        fine = len(_crossings(grid, _pos_condition(grid, lam, s, c1, c2, b_i)[0]))
        listed = sum(m for u, m in pos if 2e-3 < u < top)
        if fine > listed:
            problems.append(f"positive roots: {fine} sign changes below k l = {float(top)!r}, {listed} listed")
        closed = _closed_form(point, kind, extra, len(pos))
        if closed is not None and counted:
            got = [(float(u), m) for u, m in pos]
            ok = len(got) == len(closed) and all(
                m == mc and abs(u - uc) <= CLOSED_RTOL * max(1.0, uc)
                for (u, m), (uc, mc) in zip(got, closed)
            )
            if not ok:
                problems.append(f"{kind} levels differ from the closed form")
    # counting bound at every positive level, from below and at the level
    if counted:
        n_incl = 0
        for sec, x, m in levels:
            n_excl = n_incl
            n_incl += m
            if sec != "positive":
                continue
            q = x / math.pi
            lo, hi = math.floor(q * (1 - 1e-12)), math.floor(q * (1 + 1e-12))
            if min(abs(n_incl - lo), abs(n_incl - hi)) > 2:
                problems.append(f"counting bound broken at k l = {x!r} (N = {n_incl}, D = {hi})")
            lo, hi = math.ceil(q * (1 - 1e-12)) - 1, math.ceil(q * (1 + 1e-12)) - 1
            if min(abs(n_excl - lo), abs(n_excl - hi)) > 2:
                problems.append(f"counting bound broken below k l = {x!r}")
    # no bound state missed: sign changes of the negative condition; a root
    # the program misses beyond its own search ceiling is the known window
    # defect, one it misses inside the ceiling is a new bug
    cond, seen, v0 = _negative_crossings(lam, s, c1, c2, b_i)
    missed = [(lo, hi) for lo, hi in seen if not any(lo <= x <= hi for x in negs)]
    if len(seen) > sum(m for sec, _, m in levels if sec == "negative") and missed:
        lo, hi = missed[0]
        beyond = len(_beyond(cond, missed, _search_ceiling(cond, v0))) == len(missed)
        where = "beyond the search window" if beyond else "missed"
        problems.append(f"negative roots {where}: kappa l in [{lo:.6g}, {hi:.6g}]")
    return problems


def _negative_crossings(lam, s, c1, c2, b_i):
    """The negative condition, its sign-change cells, and the program's first window."""
    v0 = max(10.0, 4.0 / lam, 4.0 * lam)
    grid = np.geomspace(1e-6, 1e3 * v0, 6000)
    cond = lambda v: _neg_condition(v, lam, s, c1, c2, b_i)[0]
    return cond, _crossings(grid, cond(grid)), v0


def _beyond(cond, cells, ceiling):
    """The sign-change cells whose root lies beyond the window's ceiling."""
    return [
        (lo, hi) for lo, hi in cells
        if hi > ceiling and np.sign(cond(max(lo, ceiling))) * np.sign(cond(hi)) < 0
    ]


def window_misses(point, geometry):
    """Bound states the program's negative-root window cannot reach.

    These are the roots of the known window defect (see KNOWN_DEFECTS): a
    point with any cannot be listed correctly by the seed program.
    """
    cond, seen, v0 = _negative_crossings(*_coeffs(point, geometry))
    return _beyond(cond, seen, _search_ceiling(cond, v0)) if seen else []


def _search_ceiling(cond, v0):
    """The end of the program's negative-root window, by its documented rule.

    `find_negative_roots` searches [0, 2 v], where v starts at v0 and doubles
    until the condition keeps one sign on 129 points of [v, 2 v].
    """
    v = v0
    for _ in range(60):
        vals = cond(np.linspace(v, 2.0 * v, 129))
        if np.all(vals > 0.0) or np.all(vals < 0.0):
            return 2.0 * v
        v *= 2.0
    return math.inf


def _u_of_energy(e, geometry):
    return geometry["length"] * math.sqrt(2.0 * geometry["mass"] * abs(e)) / geometry["hbar"]


def _energy_levels(energies, geometry):
    """(sector, u_or_v, 1) triples from plain energies."""
    out = []
    for e in energies:
        if e < 0.0:
            out.append(("negative", _u_of_energy(e, geometry), 1))
        elif e == 0.0:
            out.append(("zero", None, 1))
        else:
            out.append(("positive", _u_of_energy(e, geometry), 1))
    return out


def _complex(z):
    return complex(z["re"], z["im"])


def _unitary(point):
    ph = cmath.exp(1j * point["xi"])
    a, b = point["alpha"], point["beta"]
    return ph * np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def _grow(c, x):
    """c * exp(x) without overflowing when the product itself is finite."""
    if c == 0:
        return c
    return c / abs(c) * math.exp(math.log(abs(c)) + x)


def _mode_facts(sector, x, a, b, l, L0, U):
    """(norm^2, boundary residual) of a printed mode, from its coefficients."""
    if sector == "positive":
        k = x / l
        e = cmath.exp(1j * x)
        osc = (1.0 - cmath.exp(-2j * x)) / (2j * k)
        norm2 = (abs(a) ** 2 + abs(b) ** 2) * l + 2.0 * (a.conjugate() * b * osc).real
        psi = np.array([a + b, a * e + b / e])
        dpsi = np.array([1j * k * (a - b), -1j * k * (a * e - b / e)])
    elif sector == "negative":
        # below kappa l = 1, |psi|^2 from psi = p cosh(kappa x) + d sinh(kappa x)
        # with p = a + b, d = a - b, each integral in a form that does not cancel
        q = x / l
        if x < 1.0:
            p, d, t = a + b, a - b, 2.0 * x
            sinh_t_minus_t = math.sinh(t) - t if x > 1e-2 else t**3 / 6.0 * (1.0 + t * t / 20.0 + t**4 / 840.0)
            cc = l / 2.0 + math.sinh(t) / (4.0 * q)
            ss = sinh_t_minus_t / (4.0 * q)
            cs = math.sinh(x) ** 2 / (2.0 * q)
            norm2 = abs(p) ** 2 * cc + abs(d) ** 2 * ss + 2.0 * (p.conjugate() * d).real * cs
        else:
            a2 = abs(a) ** 2
            grown = a2 * math.expm1(2.0 * x) if x < 300.0 else _grow(a2, 2.0 * x) - a2
            norm2 = (
                (grown - abs(b) ** 2 * math.expm1(-2.0 * x)) / (2.0 * q)
                + 2.0 * (a.conjugate() * b).real * l
            )
        a_l, b_l = _grow(a, x), b * math.exp(-x)
        psi = np.array([a + b, a_l + b_l])
        dpsi = np.array([q * (a - b), -q * (a_l - b_l)])
    else:
        norm2 = abs(a) ** 2 * l**3 / 3.0 + (a.conjugate() * b).real * l**2 + abs(b) ** 2 * l
        psi = np.array([b, a * l + b])
        dpsi = np.array([a, -a])
    eye = np.eye(2)
    r = (U - eye) @ psi + 1j * L0 * (U + eye) @ dpsi
    denom = math.sqrt(float(np.sum(np.abs(psi) ** 2) + np.sum(np.abs(L0 * dpsi) ** 2)))
    return norm2, (float(np.linalg.norm(r)) / denom if denom else 0.0)


def _overlap(sector, x, m1, m2, l):
    """<m1, m2> for two modes at the same positive level."""
    (a1, b1), (a2, b2) = m1, m2
    if sector != "positive":
        return 0.0
    k = x / l
    osc_m = (1.0 - cmath.exp(-2j * x)) / (2j * k)
    osc_p = osc_m.conjugate()
    return (a1.conjugate() * a2 + b1.conjugate() * b2) * l + a1.conjugate() * b2 * osc_m + (
        b1.conjugate() * a2 * osc_p
    )


def check_eigenstate(out, op):
    problems = []
    geometry, point = op.geometry, op.point
    l, hbar, mass = geometry["length"], geometry["hbar"], geometry["mass"]
    levels = out["levels"]
    if len(levels) != op.extra["levels"]:
        problems.append(f"{len(levels)} levels for {op.extra['levels']} requested")
    U = _unitary(point)
    triples = []
    for lv in levels:
        sec, par, mult = lv["sector"], lv["parameter"], lv["multiplicity"]
        x = None if par is None else par * l
        triples.append((sec, x, mult))
        if par is not None:
            e_ref = (1 if sec == "positive" else -1) * hbar**2 * par**2 / (2.0 * mass)
            if abs(lv["energy"] - e_ref) > 1e-12 * abs(e_ref):
                problems.append(f"energy and parameter disagree at {par!r}")
        if len(lv["modes"]) != mult:
            problems.append(f"modes: {len(lv['modes'])} at a level of multiplicity {mult}")
        coeffs = []
        for m in lv["modes"]:
            a, b = _complex(m["coeff_a"]), _complex(m["coeff_b"])
            coeffs.append((a, b))
            norm2, resid = _mode_facts(sec, x, a, b, l, point["L0"], U)
            if abs(norm2 - 1.0) > NORM_TOL or abs(m["norm"] - 1.0) > NORM_TOL:
                problems.append(f"mode norm {norm2!r} at {sec} {par!r}")
            if resid > RESIDUAL_TOL or m["boundary_residual"] > RESIDUAL_TOL:
                problems.append(f"boundary residual {resid!r} at {sec} {par!r}")
        for i in range(len(coeffs)):
            for j in range(i):
                if abs(_overlap(sec, x, coeffs[j], coeffs[i], l)) > NORM_TOL:
                    problems.append(f"degenerate modes not orthogonal at {par!r}")
    problems += check_levels(triples, point, geometry, op.kind, op.extra, counted=True)
    return problems


def check_scan(out, op):
    problems = []
    n = op.extra["n"]
    rows = out["rows"]
    if len(rows) != n * n:
        return [f"{len(rows)} rows for a {n}x{n} sweep"]
    axes = [op.extra["xi_axis"], op.extra["L0_axis"]]
    values = [[lo + (hi - lo) * i / (n - 1) for i in range(n)] for lo, hi in axes]
    geometry = op.geometry
    for idx, row in enumerate(rows):
        xi, L0 = values[0][idx // n], values[1][idx % n]
        if row["xi"] != xi or row["L0"] != L0:
            problems.append(f"row {idx} is not at the swept point")
            continue
        point = {"xi": xi, "L0": L0, "alpha": complex(row["alpha_re"], row["alpha_im"]),
                 "beta": complex(row["beta_re"], row["beta_im"])}
        if abs(point["alpha"] - op.point["alpha"]) > 1e-12 or abs(point["beta"] - op.point["beta"]) > 1e-12:
            problems.append(f"row {idx} changed alpha or beta")
        if abs(row["rescale"] - 1.0) > 1e-12:
            problems.append(f"row {idx} rescaled by {row['rescale']!r}")
        if (row["fp_xi"], row["fp_alpha_re"], row["fp_beta_im"]) != (xi, row["alpha_re"], row["beta_im"]):
            problems.append(f"row {idx} fingerprint is not (xi, Re alpha, Im beta)")
        energies = [row[f"energy_{i}"] for i in range(1, 9) if f"energy_{i}" in row]
        if len(energies) != 8 or any(b < a for a, b in zip(energies, energies[1:])):
            problems.append(f"row {idx} does not list 8 ascending energies")
            continue
        if row["negative_count"] != sum(1 for e in energies if e < 0.0):
            problems.append(f"row {idx} negative_count disagrees with its energies")
        lam, s, c1, _, b_i = _coeffs(point, geometry)
        zero_cond = (b_i + s) + c1 / (2.0 * lam)
        if abs(abs(zero_cond) - 1e-9) > 1e-10 and row["zero_mode"] != (abs(zero_cond) < 1e-9):
            problems.append(f"row {idx} zero_mode flag disagrees with the condition")
        found = check_levels(_energy_levels(energies, geometry), point, geometry, "haar", {}, counted=False)
        problems += [f"{p} (row {idx})" for p in found]
    return problems


def check_kernel_compare(out, op):
    problems = []
    g = op.geometry
    results = out["results"]
    if out["grid"] != op.extra["grid"] or len(results) != len(KERNEL_TIMES):
        return ["kernel-compare did not run the requested grid and times"]
    for th, r in zip(KERNEL_TIMES, results):
        tau = th * 2.0 * g["mass"] * g["length"] ** 2 / g["hbar"]
        bound = KERNEL_BOUND * math.sqrt(g["mass"] / (2.0 * math.pi * g["hbar"] * tau))
        if abs(r["tau"] - tau) > 1e-12 * tau or abs(r["bound"] - bound) > 1e-12 * bound:
            problems.append(f"tau or bound wrong at tau = {r['tau']!r}")
        if not (r["pass"] is True and r["max_abs_difference"] <= bound):
            problems.append(f"kernels differ by {r['max_abs_difference']!r} at tau = {tau!r}")
        if r["n_levels"] < 1 or r["n_images"] < 2:
            problems.append("kernel truncation used no levels or images")
    return problems


def check_oracle(out, op):
    problems = []
    g = op.geometry
    rows = out["levels"]
    if out["n_points"] != op.extra["grid"] or len(rows) != 8:
        return ["oracle-check did not run the requested grid and level count"]
    floor = ORACLE_TOL * g["hbar"] ** 2 / (2.0 * g["mass"] * g["length"] ** 2)
    for r in rows:
        diff = abs(r["fd_energy"] - r["exact_energy"])
        if not (r["pass"] is True and diff <= max(ORACLE_TOL * abs(r["exact_energy"]), floor)):
            problems.append(f"finite-difference level {r['index']} misses its exact value")
    energies = [r["exact_energy"] for r in rows]
    levels = []
    for sec, x, m in _energy_levels(energies, g):
        if levels and levels[-1][0] == sec and x is not None and abs(levels[-1][1] - x) <= 1e-12 * x:
            levels[-1] = (sec, x, levels[-1][2] + 1)
        else:
            levels.append((sec, x, m))
    # the last listed level may be a cut degenerate pair, so drop it from
    # the closed-form and counting comparisons
    problems += check_levels(levels[:-1], op.point, g, op.kind, op.extra, counted=True)
    return problems


class Defect(NamedTuple):
    prefixes: tuple  # problems that start with one of these
    commands: tuple  # CLI commands the defect was seen in
    kinds: tuple  # point classes it was seen at
    cause: str
    requires: str = ""  # a problem of this prefix must be present too


#: Wrong outputs, nonzero exits and exceptions the seed program is known to
#: give, each scoped to the commands and point classes where it was seen.  An
#: operation showing only these still counts as failed, but does not make the
#: run incorrect; any other problem does.  The timed workloads are drawn where
#: none of them shows; each benchmark run reproduces them on the fixed points
#: of `workloads.PROBES`.  Delete an entry once the program is fixed.
WINDOW = "negative roots beyond the search window"
POLE_LEVEL = "states at or below zero energy"
KNOWN_DEFECTS = (
    Defect(("positive roots:",), ("scan",), ("minus-pole",),
           "the pi/16 bracketing grid of find_positive_roots misses close pairs "
           "of roots near the Im beta = -1 pole, e.g. at xi = 1.408, L0 / l = 6.14 "
           "a row lists 7 of the 9 levels below k l = 28"),
    Defect((WINDOW,), ("scan",), ("twisted-circle", "minus-pole"),
           "find_negative_roots closes its window after one doubling on which the "
           "scaled condition keeps its sign, and misses bound states further out"),
    Defect((WINDOW,), ("eigenstate", "oracle-check"), ("haar", "near-zero-mode", "tiny-L0", "huge-L0"),
           "the same window defect at the Haar-drawn points; at the fixed poles, "
           "walls and twisted circles the negative condition has no deep roots"),
    Defect(("finite-difference level", "exit 3:"), ("oracle-check",), ("haar",),
           "the finite-difference spectrum finds the bound state that the window "
           "defect dropped from the exact one, and oracle-check exits 3",
           requires=WINDOW),
    Defect((POLE_LEVEL, "modes:", "counting bound broken", "finite-difference level", "exit 3:"),
           ("eigenstate", "oracle-check"), ("minus-pole",),
           "at Im beta = -1 the zero mode also appears as a double negative level "
           "at kappa l ~ 1e-9, with one mode; oracle-check then exits 3",
           requires=POLE_LEVEL),
    Defect(("kernels differ by", "exit 3:"), ("kernel-compare",), ("minus-pole",),
           "the same spurious double negative level makes the spectral kernel "
           "disagree with the image kernel, and kernel-compare exits 3"),
    Defect(("mode norm",), ("eigenstate",), ("near-zero-mode",),
           "at kappa l below 1e-3 the exp(+-kappa x) closed-form integrals cancel, "
           "so the printed negative mode misses unit norm by up to 2e-7"),
    Defect(("boundary residual",), ("eigenstate",), ("huge-L0",),
           "at L0 / l = 1e5 the printed modes miss the 1e-8 residual; it grows "
           "like k^2 to about 1e-5 at k l = 750"),
    Defect(("raised OverflowError:",), ("eigenstate",), ("long-box", "tiny-L0"),
           "eigenstate overflows in exp when kappa l or k L0 is large and raises "
           "an uncaught OverflowError"),
)


def known_defect(command, kind, problems) -> bool:
    """True when every problem matches a known defect of the program."""
    return bool(problems) and all(
        any(p.startswith(d.prefixes) and command in d.commands and kind in d.kinds
            and (not d.requires or any(q.startswith(d.requires) for q in problems))
            for d in KNOWN_DEFECTS)
        for p in problems
    )


CHECKS = {
    "scan": check_scan,
    "eigenstate": check_eigenstate,
    "kernel-compare": check_kernel_compare,
    "oracle-check": check_oracle,
}


def check(op, out) -> list:
    """Problems with one parsed CLI output (an empty list when it passed)."""
    return CHECKS[op.argv[0]](out, op)
