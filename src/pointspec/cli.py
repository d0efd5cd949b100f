"""Command-line front end.

Subcommands: classify | spectrum | eigenstate | kernel-compare | scan |
oracle-check.  Flags are long form only and may also be supplied through a
plain key=value config file (--config); explicit flags win.  Output is
deterministic: fixed field order, reals printed with 17 significant digits,
complex numbers as re/im pairs.  Exit status 0 on success, 2 on validation
errors, 3 on numerical contradictions (a failed identity or an impossible
root count).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

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
    is_infinite,
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

_SWEEPABLE = ("xi", "alpha-re", "alpha-im", "beta-re", "beta-im", "L0")

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


def _fmt_real(x) -> str:
    return format(float(x), ".17g")


def _coerce_scalar(obj):
    """Map numpy scalars onto the plain Python types the writers expect."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return complex(obj)
    return obj


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    obj = _coerce_scalar(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_real(obj)
    if isinstance(obj, complex):
        return _json_text({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json_text(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise ConstraintError(f"cannot serialize {type(obj).__name__}")


def _flatten_cell(value):
    value = _coerce_scalar(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_real(value)
    if value is None:
        return ""
    return str(value)


def _csv_text(rows) -> str:
    """rows: list of dicts sharing one key order; complex split into _re/_im."""
    if not rows:
        return ""
    header = []
    for key, value in rows[0].items():
        if isinstance(value, complex):
            header.extend([f"{key}_re", f"{key}_im"])
        else:
            header.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for value in row.values():
            if isinstance(value, complex):
                cells.extend([_fmt_real(value.real), _fmt_real(value.imag)])
            else:
                cells.append(_flatten_cell(value))
        writer.writerow(cells)
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
        flag_value = getattr(args, dest)
        if flag_value is not None:
            cfg[dest] = flag_value
        elif dest in file_values:
            cfg[dest] = file_values[dest]
        else:
            cfg[dest] = [] if dest in _REPEATABLE and default is None else default
    if cfg["format"] not in ("json", "csv"):
        raise ConstraintError("format must be json or csv")
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


def _point_row(p):
    return {
        "xi": p.xi,
        "alpha_re": p.alpha.real,
        "alpha_im": p.alpha.imag,
        "beta_re": p.beta.real,
        "beta_im": p.beta.imag,
        "L0": p.L0,
    }


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
        "flags": {
            "separated": flags.separated,
            "scale_invariant": flags.scale_invariant,
            "smooth_circle": flags.smooth_circle,
            "isospectral": flags.isospectral,
            "semi_iso_plus": flags.semi_iso_plus,
            "semi_iso_minus": flags.semi_iso_minus,
        },
        "fingerprint": {"xi": fp[0], "alpha_re": fp[1], "beta_im": fp[2]},
    }
    row = {**_point_row(p), **payload["flags"]}
    if flags.scale_invariant:
        payload["twist_angle"] = twist_angle(p, tol)
        row["twist_angle"] = payload["twist_angle"]
    if flags.separated:
        sl = separated_lengths(p, tol)
        as_text = lambda v: "inf" if is_infinite(v) else _fmt_real(v)
        payload["robin_lengths"] = {"l_plus": as_text(sl.l_plus), "l_minus": as_text(sl.l_minus)}
        row["l_plus"] = as_text(sl.l_plus)
        row["l_minus"] = as_text(sl.l_minus)
    _emit(payload, [row], cfg)
    return 0


def _level_dict(lv):
    return {
        "sector": lv.sector,
        "parameter": lv.parameter,
        "energy": lv.energy,
        "multiplicity": lv.multiplicity,
    }


def _cmd_spectrum(cfg):
    p, g = _point(cfg), _geometry(cfg)
    spec = spectrum(p, g, cfg["levels"])
    levels = [_level_dict(lv) for lv in spec.levels]
    payload = {
        "command": "spectrum",
        "point": _point_dict(p),
        "geometry": _geometry_dict(g),
        "zero_mode": zero_mode_exists(p, g),
        "negative_count": sum(1 for lv in spec.levels if lv.sector == SECTOR_NEGATIVE),
        "k_max": spec.k_max,
        "levels": levels,
    }
    rows = [{"index": i, **entry} for i, entry in enumerate(levels)]
    _emit(payload, rows, cfg)
    return 0


def _cmd_eigenstate(cfg):
    p, g = _point(cfg), _geometry(cfg)
    basis = eigenbasis(p, g, cfg["levels"])
    residuals, norms = residuals_and_norms([m for _, modes in basis for m in modes], p, g)
    checks = zip(residuals.tolist(), norms.tolist())
    entries = []
    rows = []
    for i, (lv, modes) in enumerate(basis):
        level = _level_dict(lv)
        mode_payload = []
        for m, (residual, norm) in zip(modes, checks):
            entry = {
                "coeff_a": m.coeff_a,
                "coeff_b": m.coeff_b,
                "boundary_residual": residual,
                "norm": norm,
            }
            mode_payload.append(entry)
            rows.append({"index": i, **level, **entry})
        entries.append({**level, "modes": mode_payload})
    payload = {
        "command": "eigenstate",
        "point": _point_dict(p),
        "geometry": _geometry_dict(g),
        "levels": entries,
    }
    _emit(payload, rows, cfg)
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
    terms = [kernels.build_image_terms(p, g, n_img) for n_img in images]
    needs = [kernels.spectral_levels_needed(p, g, tau) for tau in taus]
    basis = eigenbasis(p, g, max(needs))
    results = []
    for tau, n_img, tau_terms, n_lev in zip(taus, images, terms, needs):
        s_val = kernels.spectral_heat_kernel(basis[:n_lev], g, a, b, tau, tol=1e-9)
        i_val = kernels.image_heat_kernel(tau_terms, a, b, tau, n_img)
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
    axes = []
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
        values = [
            start + (stop - start) * i / (count - 1) if count > 1 else start
            for i in range(count)
        ]
        axes.append((name, values))
    if not 1 <= len(axes) <= 2:
        raise ConstraintError("scan needs one or two sweep axes")
    return axes


def _project_point(base, swept):
    """Set swept components, rescale the untouched ones back to unit norm."""
    comp = dict(base)
    for name, value in swept.items():
        comp[name] = value
    swept_unit = [n for n in swept if n not in ("xi", "L0")]
    free = [n for n in ("alpha-re", "alpha-im", "beta-re", "beta-im") if n not in swept_unit]
    fixed_sq = sum(comp[n] ** 2 for n in ("alpha-re", "alpha-im", "beta-re", "beta-im") if n in swept_unit)
    target_sq = 1.0 - fixed_sq
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
    point = make_u2(
        comp["xi"],
        complex(comp["alpha-re"], comp["alpha-im"]),
        complex(comp["beta-re"], comp["beta-im"]),
        comp["L0"],
    )
    return point, scale


def _scan_row(p, scale, spec, g):
    fp = spectral_fingerprint(p)
    row = {
        **_point_row(p),
        "rescale": scale,
        "fp_xi": fp[0],
        "fp_alpha_re": fp[1],
        "fp_beta_im": fp[2],
        "zero_mode": zero_mode_exists(p, g),
        "negative_count": sum(1 for lv in spec.levels if lv.sector == SECTOR_NEGATIVE),
    }
    for i, lv in enumerate(spec.levels[:8], start=1):
        row[f"energy_{i}"] = lv.energy
    return row


def _cmd_scan(cfg):
    g = _geometry(cfg)
    axes = _parse_sweeps(cfg)
    base = {
        "xi": cfg["xi"],
        "alpha-re": cfg["alpha_re"],
        "alpha-im": cfg["alpha_im"],
        "beta-re": cfg["beta_re"],
        "beta-im": cfg["beta_im"],
        "L0": cfg["L0"],
    }
    if len(axes) == 1:
        name, values = axes[0]
        swept = [{name: v} for v in values]
    else:
        (n1, v1), (n2, v2) = axes
        if n1 == n2:
            raise ConstraintError("the two sweep axes must differ")
        swept = [{n1: a, n2: b} for a in v1 for b in v2]
    projected = [_project_point(base, s) for s in swept]
    specs = spectra([p for p, _ in projected], g, 8)
    rows = [_scan_row(p, scale, spec, g) for (p, scale), spec in zip(projected, specs)]
    payload = {
        "command": "scan",
        "geometry": _geometry_dict(g),
        "axes": [{"name": n, "values": list(v)} for n, v in axes],
        "rows": rows,
    }
    _emit(payload, rows, cfg)
    return 0


def _cmd_oracle_check(cfg):
    p, g = _point(cfg), _geometry(cfg)
    n_levels = min(cfg["levels"], 8)
    n_points = cfg["grid"] or 4000
    fd = oracle.fd_spectrum(p, g, oracle.FdConfig(n_points=n_points), n_levels)
    spec = spectrum(p, g, n_levels)
    exact = []
    for lv in spec.levels:
        exact.extend([lv.energy] * lv.multiplicity)
    exact = exact[:n_levels]
    tol = ORACLE_TOL if cfg["tol"] is None else cfg["tol"]
    floor = tol * g.energy_scale
    rows = []
    ok = True
    for i, (e_fd, e_tr) in enumerate(zip(fd, exact)):
        err = abs(e_fd - e_tr) / max(abs(e_tr), floor / tol)
        good = abs(e_fd - e_tr) <= max(tol * abs(e_tr), floor)
        ok = ok and good
        rows.append(
            {
                "index": i,
                "fd_energy": float(e_fd),
                "exact_energy": e_tr,
                "relative_error": err,
                "pass": good,
            }
        )
    payload = {
        "command": "oracle-check",
        "point": _point_dict(p),
        "geometry": _geometry_dict(g),
        "n_points": n_points,
        "levels": rows,
    }
    _emit(payload, rows, cfg)
    if not ok:
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
