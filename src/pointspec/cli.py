"""Command-line front end.

Subcommands: classify | spectrum | eigenstate | kernel-compare | scan |
oracle-check.  Flags are long form only and may also be supplied through a
plain key=value config file (--config); explicit flags win.  Output is
deterministic: JSON with a 2-space indent and fixed key order, reals printed
with 17 significant digits (%.17g), complex numbers as {"re", "im"} objects
(name_re, name_im columns in CSV).  Exit status 0 on success, 2 on validation
errors (non-finite inputs included), 3 on numerical contradictions (a failed
identity or an impossible root count).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import sys
from typing import NamedTuple

import numpy as np

from . import kernels, oracle
from .eigenstates import eigenbasis, residuals_and_norms
from .errors import ConstraintError, ContradictionError, PointspecError
from .spectral import (
    SECTOR_NEGATIVE,
    BoxGeometry,
    spectra,
    spectral_fingerprint,
    spectrum,
    zero_mode_exists,
)
from .u2param import (
    CLASSIFY_TOL,
    classify,
    make_u2,
    separated_lengths,
    twist_angle,
)

__all__ = ["main"]

#: default dimensionless times hbar*tau/(2 m l^2) for kernel comparisons
DEFAULT_KERNEL_TIMES = (0.02, 0.1, 0.5, 2.0)
#: kernel identity acceptance bound, relative to the free prefactor
KERNEL_BOUND = 1e-8
#: default relative tolerance of oracle-check's energy comparison
ORACLE_TOL = 5e-3

#: the most rows a scan may have, the product of its sweep counts, and the
#: most levels it may list, rows times --levels: 10^5 rows of one level, or
#: 10^4 rows of 100, take about 4 s and 0.9 GB
MAX_SCAN_ROWS = 100_000
MAX_SCAN_LEVELS = 1_000_000

#: the components that scan rescales back to |alpha|^2 + |beta|^2 = 1
_UNIT = ("alpha-re", "alpha-im", "beta-re", "beta-im")
_SWEEPABLE = ("xi", *_UNIT, "L0")

_FLAG_SPECS = {
    # dest -> (flag, type, default)
    "xi": ("--xi", float, 0.0),
    "alpha_re": ("--alpha-re", float, 1.0),
    "alpha_im": ("--alpha-im", float, 0.0),
    "beta_re": ("--beta-re", float, 0.0),
    "beta_im": ("--beta-im", float, 0.0),
    "L0": ("--L0", float, 1.0),
    "length": ("--length", float, 1.0),
    "hbar": ("--hbar", float, 1.0),
    "mass": ("--mass", float, 1.0),
    "levels": ("--levels", int, 8),
    "tau": ("--tau", float, None),  # repeatable
    "grid": ("--grid", int, None),
    "sweep": ("--sweep", str, None),  # repeatable
    "out": ("--out", str, None),
    "format": ("--format", str, "json"),
    "config": ("--config", str, None),
    "tol": ("--tol", float, None),  # each command has its own default
}

_REPEATABLE = {"tau", "sweep"}


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _quoted(text: str) -> str:
    """text as a JSON string literal, with \\ and " escaped and % doubled."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("%", "%%") + '"'


#: JSON text with a %.17g placeholder for each real, and its reals in order
_Filled = NamedTuple("_Filled", [("text", str), ("reals", list)])


def _json_text(payload, pad: str = "", filled: bool = True):
    """payload as JSON text at indent pad, written in one walk, joined once and formatted once.

    Types are matched exactly, float first; a numpy scalar is written as the
    Python scalar .item() gives, a _Filled as it stands, and any other type
    is a ConstraintError.  The walk writes a %.17g placeholder for each real
    and collects the reals, so text from keys and strings has its % doubled.
    Keys are escaped as strings are, once per call for each distinct key.
    With filled false the text is left unformatted, in a _Filled with its reals.
    """
    chunks, reals, keys = [], [], {}
    put, real = chunks.append, reals.append

    def write(obj, pad):
        t = type(obj)
        if t is float:
            put("%.17g")
            real(obj)
        elif t is dict:
            inner, sep = pad + "  ", "{\n"
            for key, value in obj.items():
                q = keys.get(key)
                if q is None:
                    q = keys[key] = f"{_quoted(key)}: "
                put(sep + inner + q)
                write(value, inner)
                sep = ",\n"
            put(f"\n{pad}}}" if obj else "{}")
        elif t is list or t is tuple:
            inner, sep = pad + "  ", "[\n"
            for value in obj:
                put(sep + inner)
                write(value, inner)
                sep = ",\n"
            put(f"\n{pad}]" if obj else "[]")
        elif t is _Filled:
            put(obj.text)
            reals.extend(obj.reals)
        elif t is complex:
            inner = pad + "  "
            put(f'{{\n{inner}"re": %.17g,\n{inner}"im": %.17g\n{pad}}}')
            reals.extend((obj.real, obj.imag))
        elif t is str:
            put(_quoted(obj))
        elif t is bool:
            put("true" if obj else "false")
        elif t is int:
            put(str(obj))
        elif obj is None:
            put("null")
        elif isinstance(obj, np.generic):
            write(obj.item(), pad)
        else:
            raise ConstraintError(f"cannot serialize {t.__name__}")

    write(payload, pad)
    del write  # it refers to itself: freed now, its chunks are not left to the cycle collector
    text = "".join(chunks)
    return text % tuple(reals) if filled else _Filled(text, reals)


def _cells(value) -> tuple:
    """The CSV cells of one value, by the JSON writer's scalar rule: a complex is two, None empty."""
    t = type(value)
    if t is float:
        return ("%.17g" % value,)
    if t is complex:
        return ("%.17g" % value.real, "%.17g" % value.imag)
    if t is bool:
        return ("true" if value else "false",)
    if t is int or t is str:
        return (str(value),)
    if value is None:
        return ("",)
    if isinstance(value, np.generic):
        return _cells(value.item())
    raise ConstraintError(f"cannot serialize {t.__name__}")


def _csv_text(rows) -> str:
    """rows: list of dicts sharing one key order; complex split into _re/_im."""
    if not rows:
        return ""
    header = []
    for key, value in rows[0].items():
        header += [f"{key}_re", f"{key}_im"] if len(_cells(value)) == 2 else [key]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell for value in row.values() for cell in _cells(value)] for row in rows)
    return buf.getvalue()


def _emit(payload, rows, cfg):
    text = _csv_text(rows) if cfg["format"] == "csv" else _json_text(payload) + "\n"
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for dest, (flag, typ, _) in _FLAG_SPECS.items():
        kwargs = {"dest": dest, "type": typ, "default": None}
        if dest in _REPEATABLE:
            kwargs["action"] = "append"
        if dest == "format":
            kwargs["choices"] = ["json", "csv"]
        common.add_argument(flag, **kwargs)
    top = argparse.ArgumentParser(prog="pointspec", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name in ("classify", "spectrum", "eigenstate", "kernel-compare", "scan", "oracle-check"):
        sub.add_parser(name, parents=[common])
    return top


def _read_config_file(path):
    values = {}
    canon = {flag.lstrip("-").replace("-", ""): dest for dest, (flag, _, _) in _FLAG_SPECS.items()}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConstraintError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            dest = canon.get(key.replace("-", ""))
            if dest is None or dest == "config":
                raise ConstraintError(f"{path}:{lineno}: unknown key {key!r}")
            _, typ, _ = _FLAG_SPECS[dest]
            try:
                parsed = typ(value.strip())
            except ValueError as exc:
                raise ConstraintError(f"{path}:{lineno}: bad value for {key!r}") from exc
            if dest in _REPEATABLE:
                values.setdefault(dest, []).append(parsed)
            else:
                values[dest] = parsed
    return values


def _resolve(args) -> dict:
    """Flags override config-file values, which override the hard defaults."""
    file_values = _read_config_file(args.config) if args.config else {}
    cfg = {"command": args.command}
    for dest, (_, _, default) in _FLAG_SPECS.items():
        cfg[dest] = getattr(args, dest)
        if cfg[dest] is None:
            cfg[dest] = file_values.get(dest, [] if dest in _REPEATABLE and default is None else default)
    if cfg["format"] not in ("json", "csv"):
        raise ConstraintError("format must be json or csv")
    if cfg["tol"] is not None and not 0.0 < cfg["tol"] < math.inf:
        raise ConstraintError(f"tol must be finite and positive, not {cfg['tol']!r}")
    if cfg["grid"] is not None and cfg["grid"] < 1:
        raise ConstraintError(f"grid must be at least 1, not {cfg['grid']!r}")
    return cfg


def _point(cfg):
    return make_u2(
        cfg["xi"],
        complex(cfg["alpha_re"], cfg["alpha_im"]),
        complex(cfg["beta_re"], cfg["beta_im"]),
        cfg["L0"],
    )


def _geometry(cfg) -> BoxGeometry:
    return BoxGeometry(l=cfg["length"], hbar=cfg["hbar"], mass=cfg["mass"])


def _point_dict(p):
    return {
        "xi": p.xi,
        "alpha": p.alpha,
        "beta": p.beta,
        "L0": p.L0,
    }


def _geometry_dict(g):
    return {"length": g.l, "hbar": g.hbar, "mass": g.mass}


_POINT_COLUMNS = ("xi", "alpha_re", "alpha_im", "beta_re", "beta_im", "L0")


def _point_row(p):
    return dict(zip(_POINT_COLUMNS, (p.xi, p.alpha.real, p.alpha.imag, p.beta.real, p.beta.imag, p.L0)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(cfg):
    p = _point(cfg)
    tol = CLASSIFY_TOL if cfg["tol"] is None else cfg["tol"]
    flags = classify(p, tol)
    fp = spectral_fingerprint(p)
    payload = {
        "command": "classify",
        "point": _point_dict(p),
        "flags": dataclasses.asdict(flags),
        "fingerprint": {"xi": fp[0], "alpha_re": fp[1], "beta_im": fp[2]},
    }
    row = {**_point_row(p), **payload["flags"]}
    if flags.scale_invariant:
        payload["twist_angle"] = twist_angle(p, tol)
        row["twist_angle"] = payload["twist_angle"]
    if flags.separated:
        sl = separated_lengths(p, tol)
        payload["robin_lengths"] = {"l_plus": "%.17g" % sl.l_plus, "l_minus": "%.17g" % sl.l_minus}
        row.update(payload["robin_lengths"])
    _emit(payload, [row], cfg)
    return 0


def _level_objects(spec):
    """The levels of a Spectrum as JSON objects, in Level's field order; the zero level's parameter is null."""
    columns = spec.sector.tolist(), spec.parameters(), spec.energies(), spec.multiplicity.tolist()
    return [{"sector": s, "parameter": v, "energy": e, "multiplicity": m} for s, v, e, m in zip(*columns)]


def _cmd_spectrum(cfg):
    p, g = _point(cfg), _geometry(cfg)
    spec = spectrum(p, g, cfg["levels"])
    levels = _level_objects(spec)
    payload = {
        "command": "spectrum",
        "point": _point_dict(p),
        "geometry": _geometry_dict(g),
        "zero_mode": zero_mode_exists(p, g),
        "negative_count": np.count_nonzero(spec.sector == SECTOR_NEGATIVE),
        "levels": levels,
    }
    rows = [{"index": i, **entry} for i, entry in enumerate(levels)]
    _emit(payload, rows, cfg)
    return 0


@functools.cache
def _level_template(sector: str, null: bool, n_modes: int) -> str:
    """An eigenstate level's JSON text in the levels list, with a %.17g placeholder per real.

    The reals are the parameter unless null, the energy, then each mode's six.
    """
    mode = {"coeff_a": 0j, "coeff_b": 0j, "boundary_residual": 0.0, "norm": 0.0}
    level = {"sector": sector, "parameter": None if null else 0.0, "energy": 0.0,
             "multiplicity": n_modes, "modes": [mode] * n_modes}
    return _json_text(level, "    ", filled=False).text


def _cmd_eigenstate(cfg):
    p, g = _point(cfg), _geometry(cfg)
    basis = eigenbasis(p, g, cfg["levels"])
    residuals, norms = residuals_and_norms(basis, p, g)
    offsets = basis.offsets.tolist()
    levels = list(zip(_level_objects(basis.levels), offsets, offsets[1:]))
    if cfg["format"] == "csv":
        modes = list(zip(basis.coeffs.tolist(), residuals.tolist(), norms.tolist()))
        _emit(None, [
            {"index": i, **lv, "coeff_a": a, "coeff_b": b, "boundary_residual": r, "norm": n}
            for i, (lv, lo, hi) in enumerate(levels) for (a, b), r, n in modes[lo:hi]
        ], cfg)
        return 0
    a, b = basis.coeffs.T
    modes = np.stack([a.real, a.imag, b.real, b.imag, residuals, norms], -1).ravel().tolist()
    # in each level's order: its parameter unless null, its energy, its modes' six reals each
    reals = [x for lv, lo, hi in levels
             for x in (lv["parameter"], lv["energy"], *modes[6 * lo:6 * hi]) if x is not None]
    text = ",\n    ".join(_level_template(lv["sector"], lv["parameter"] is None, hi - lo) for lv, lo, hi in levels)
    payload = {
        "command": "eigenstate",
        "point": _point_dict(p),
        "geometry": _geometry_dict(g),
        "levels": _Filled(f"[\n    {text}\n  ]", reals),
    }
    _emit(payload, [], cfg)
    return 0


def _cmd_kernel_compare(cfg):
    p, g = _point(cfg), _geometry(cfg)
    taus = list(cfg["tau"]) or [
        th * 2.0 * g.mass * g.l**2 / g.hbar for th in DEFAULT_KERNEL_TIMES
    ]
    n_grid = cfg["grid"] or 5
    points = [g.l * i / (n_grid - 1) for i in range(n_grid)] if n_grid > 1 else [g.l / 2]
    a, b = np.meshgrid(points, points, indexing="ij", sparse=True)
    # image terms first: a point without a closed image sum fails before any solve
    images = [kernels.images_needed(g, tau) for tau in taus]
    terms = kernels.build_image_terms(p, g, max(images))
    needs = [kernels.spectral_levels_needed(p, g, tau) for tau in taus]
    basis = eigenbasis(p, g, max(needs))
    s_vals = kernels.spectral_heat_kernel(basis, g, a, b, taus, tol=1e-9, n_levels=needs)
    i_vals = kernels.image_heat_kernel(terms, a, b, taus, images)
    results = []
    for tau, n_img, n_lev, s_val, i_val in zip(taus, images, needs, s_vals, i_vals):
        worst = float(np.max(np.abs(s_val - i_val)))
        bound = KERNEL_BOUND * kernels.gaussian_prefactor(g, tau)
        results.append(
            {
                "tau": tau,
                "n_levels": n_lev,
                "n_images": n_img,
                "max_abs_difference": worst,
                "bound": bound,
                "pass": worst <= bound,
            }
        )
    payload = {
        "command": "kernel-compare",
        "point": _point_dict(p),
        "geometry": _geometry_dict(g),
        "grid": n_grid,
        "results": results,
    }
    _emit(payload, results, cfg)
    if not all(r["pass"] for r in results):
        raise ContradictionError("spectral and image kernels disagree beyond the bound")
    return 0


def _parse_sweeps(cfg):
    """The sweep axes as (name, values); a scan over MAX_SCAN_ROWS or MAX_SCAN_LEVELS is refused before any value."""
    specs = []
    for text in cfg["sweep"]:
        parts = text.split(":")
        if len(parts) != 4:
            raise ConstraintError(f"sweep spec {text!r} is not name:start:stop:count")
        name, start, stop, count = parts
        if name not in _SWEEPABLE:
            raise ConstraintError(f"sweep axis {name!r} not one of {_SWEEPABLE}")
        try:
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise ConstraintError(f"sweep spec {text!r} has bad numbers") from exc
        if count < 1:
            raise ConstraintError("sweep count must be at least 1")
        specs.append((name, start, stop, count))
    if not 1 <= len(specs) <= 2:
        raise ConstraintError("scan needs one or two sweep axes")
    rows = math.prod(count for *_, count in specs)
    if rows > MAX_SCAN_ROWS:
        raise ConstraintError(f"a scan of {rows} rows is over the limit of {MAX_SCAN_ROWS}")
    if rows * cfg["levels"] > MAX_SCAN_LEVELS:
        raise ConstraintError(f"a scan of {rows} rows of {cfg['levels']} levels is over the limit of "
                              f"{MAX_SCAN_LEVELS} levels")
    return [
        (name, [start + (stop - start) * i / (count - 1) if count > 1 else start for i in range(count)])
        for name, start, stop, count in specs
    ]


_SCAN_REALS = (*_POINT_COLUMNS, "rescale", "fp_xi", "fp_alpha_re", "fp_beta_im")


def _scan_row(reals, zero_mode, negative_count, energies):
    """A scan row as a dict: the _SCAN_REALS, the two flags, then energy_1 ... energy_n."""
    return {**dict(zip(_SCAN_REALS, reals)), "zero_mode": zero_mode, "negative_count": negative_count,
            **{f"energy_{i}": energy for i, energy in enumerate(energies, start=1)}}


@functools.cache
def _row_template(zero_mode: bool, negative_count: int, n_energies: int) -> str:
    """A scan row's JSON text in the rows list, with a %.17g placeholder per real.

    The reals are the _SCAN_REALS, then the energies.
    """
    row = _scan_row([0.0] * len(_SCAN_REALS), zero_mode, negative_count, [0.0] * n_energies)
    return _json_text(row, "    ", filled=False).text


def _cmd_scan(cfg):
    g = _geometry(cfg)
    axes = _parse_sweeps(cfg)
    names = [name for name, _ in axes]
    if len(set(names)) < len(names):
        raise ConstraintError("the two sweep axes must differ")
    # the rows in itertools.product order, as an index into each axis's values
    index = [i.ravel() for i in np.meshgrid(*(np.arange(len(values)) for _, values in axes), indexing="ij")]
    n_rows = len(index[0])
    comp = {name: cfg[name.replace("-", "_")] for name in _SWEEPABLE}
    comp.update((name, np.array(values)[i]) for (name, values), i in zip(axes, index))
    # the unit components left alone are rescaled back to unit norm, by one scale unless alpha or beta is
    # swept.  A square is Python's float ** 2, which is not always the rounded x * x, taken once per sweep
    # value: each row's scale is that of the same projection done row by row
    target_sq = 1.0 - sum(np.array([v ** 2 for v in values])[i]
                          for (name, values), i in zip(axes, index) if name in _UNIT)
    free = [name for name in _UNIT if name not in names]
    free_sq = sum(comp[name] ** 2 for name in free)
    exceed = np.broadcast_to(target_sq < -1e-12, n_rows)
    failed = np.flatnonzero(exceed | ((free_sq == 0.0) & (target_sq > 1e-24)))
    scale = np.broadcast_to(np.sqrt(np.fmax(target_sq, 0.0) / free_sq) if free_sq else 1.0, n_rows)
    columns = [np.broadcast_to(comp[name] * scale if name in free else comp[name], n_rows).tolist()
               for name in _SWEEPABLE]
    # the first failing row is refused: for its projection, or for its point if an earlier row's fails
    first = failed[0] if len(failed) else n_rows
    points = [make_u2(xi, complex(a_r, a_i), complex(b_r, b_i), L0)
              for xi, a_r, a_i, b_r, b_i, L0 in zip(*(column[:first] for column in columns))]
    if first < n_rows:
        raise ConstraintError("swept components alone exceed the unit norm" if exceed[first] else
                              "cannot rescale: remaining components are all zero")
    specs = spectra(points, g, cfg["levels"])
    # each row as (reals, zero_mode, negative_count, energies); the fingerprint is the xi, Re alpha and Im beta columns
    heads = zip(*columns, scale.tolist(), columns[0], columns[1], columns[4])
    rows = [(head, zero_mode_exists(p, g), spec.sector.tolist().count(SECTOR_NEGATIVE), spec.energies())
            for head, p, spec in zip(heads, points, specs)]
    if cfg["format"] == "csv":
        _emit(None, [_scan_row(*row) for row in rows], cfg)
        return 0
    text = ",\n    ".join(_row_template(zero_mode, n_neg, len(energies)) for _, zero_mode, n_neg, energies in rows)
    reals = [x for head, _, _, energies in rows for x in (*head, *energies)]
    payload = {
        "command": "scan",
        "geometry": _geometry_dict(g),
        "axes": [{"name": n, "values": list(v)} for n, v in axes],
        "rows": _Filled(f"[\n    {text}\n  ]", reals),
    }
    _emit(payload, [], cfg)
    return 0


def _cmd_oracle_check(cfg):
    p, g = _point(cfg), _geometry(cfg)
    n_levels = cfg["levels"]
    n_points = cfg["grid"] or 4000
    # the exact levels first: a request over spectral's level limit is refused before the oracle's arrays
    spec = spectrum(p, g, n_levels)
    fd = oracle.fd_spectrum(p, g, oracle.FdConfig(n_points=n_points), n_levels)
    exact = np.repeat(spec.energy, spec.multiplicity)[:n_levels].tolist()
    tol = ORACLE_TOL if cfg["tol"] is None else cfg["tol"]
    floor = tol * g.energy_scale
    rows = [{"index": i, "fd_energy": float(e_fd), "exact_energy": e_tr,
             "relative_error": abs(e_fd - e_tr) / max(abs(e_tr), floor / tol),
             "pass": abs(e_fd - e_tr) <= max(tol * abs(e_tr), floor)}
            for i, (e_fd, e_tr) in enumerate(zip(fd, exact))]
    payload = {
        "command": "oracle-check",
        "point": _point_dict(p),
        "geometry": _geometry_dict(g),
        "n_points": n_points,
        "levels": rows,
    }
    _emit(payload, rows, cfg)
    if not all(r["pass"] for r in rows):
        raise ContradictionError("finite-difference and transcendental spectra disagree")
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "eigenstate": _cmd_eigenstate,
    "kernel-compare": _cmd_kernel_compare,
    "scan": _cmd_scan,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg["command"]](cfg)
    except ContradictionError as exc:
        print(f"pointspec: numerical contradiction: {exc}", file=sys.stderr)
        return 3
    except (PointspecError, OSError) as exc:
        print(f"pointspec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
