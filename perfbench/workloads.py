"""Seeded inputs for the four benchmark workloads.

Every operation is one `pointspec` CLI invocation at one seeded boundary
point.  `operation(workload, seed, index)` returns the argument list and a
small record of what the point is, so the checker can compare the output
with independent facts.  Operation `index` draws from its own generator,
keyed by (seed, workload, index); index -1 is the warm-up and set-up call
and is never measured.

Point classes follow the ROADMAP's benchmark point sets (random points on the
sphere, the poles, separated scale-free walls, a twisted circle, a long box
with deep bound states).  Within a workload the classes are visited in a
fixed cycle, and `L0 / l`, the box length, the mass (and `xi` of Haar
points) follow a seeded Weyl sequence per class, so that every run, whatever
its seed, measures the same mix and only the points inside each class change.

The timed operations are drawn where the seed program is right, so that no
operation fails and a run's failure count does not depend on how many
operations fit in it: Haar points are redrawn while any of their points has
a bound state beyond the program's negative-root window
(`checks.window_misses`), the pole is Im beta = +1, and the near-zero-mode,
long-box, L0 = 1e-5 l and L0 = 1e5 l corners are left out.  Those known defects are
reproduced instead on the fixed points of `PROBES`, which every run checks
once, untimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import checks

HALF_PI = math.pi / 2

#: the four separated points whose Robin lengths are 0 or infinite:
#: (name, xi, alpha); U = exp(i xi) diag(alpha, conj(alpha))
SCALE_FREE_WALLS = (
    ("dirichlet-dirichlet", 0.0, complex(-1.0, 0.0)),
    ("neumann-neumann", 0.0, complex(1.0, 0.0)),
    ("dirichlet-neumann", HALF_PI, complex(0.0, 1.0)),
    ("neumann-dirichlet", HALF_PI, complex(0.0, -1.0)),
)

SCAN_GRID = 8
MODES_LEVELS = 256
KERNEL_GRID = 17
ORACLE_GRID = 40000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-sweep",
            "many small spectra: an 8x8 xi-L0 scan around Haar points, 8 levels "
            "per row; spectral root finding, row validation and the scan thread pool",
            ("haar",),
        ),
        Workload(
            "modes-deep",
            "few points, 256 levels each, at Haar, pole, wall and twisted-circle "
            "points: eigenstates nullspaces and residuals, wide-window spectra, JSON output",
            ("haar", "pole", "wall", "twisted-circle"),
        ),
        Workload(
            "kernel-check",
            "spectral against image heat kernels on a 17x17 grid at solvable "
            "points, each new, so every call pays the cold eigenbasis",
            ("sphere", "pole", "wall", "twisted-circle"),
        ),
        Workload(
            "oracle-fd",
            "finite-difference oracle at grid 40000: sparse assembly and "
            "shift-inverted ARPACK, the only path that reaches oracle",
            ("haar", "wall", "twisted-circle", "pole"),
        ),
    )
}


@dataclass
class Operation:
    """One CLI invocation and what the checker needs to know about it."""

    argv: list
    kind: str
    point: dict
    geometry: dict
    extra: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _haar(rng, u_xi):
    xi = math.pi * u_xi
    v = rng.normal(size=4)
    v = v / math.sqrt(float(np.sum(v * v)))
    return xi, complex(v[0], v[1]), complex(v[2], v[3])


def _sphere(rng, margin=0.0):
    """A point (xi = pi/2, Re alpha = 0) of the scale-invariant sphere."""
    while True:
        w = rng.normal(size=3)
        w = w / math.sqrt(float(np.sum(w * w)))
        if abs(w[2]) <= 1.0 - margin:
            return HALF_PI, complex(0.0, w[0]), complex(w[1], w[2])


def _twisted_circle(rng):
    """Smooth circle (alpha = 0) with a twist angle away from 0 and pi."""
    theta = float(rng.uniform(0.05, 0.95)) * math.pi
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return HALF_PI, 0j, complex(sign * math.sin(theta), -math.cos(theta))


def _geometry(strata):
    return {"length": 0.5 + 1.5 * strata(3), "hbar": 1.0, "mass": 0.5 + 0.5 * strata(4)}


def _weyl(seed, wl_key, slot, dim):
    """Stratified uniform in [0, 1): slot-th term of a seeded Weyl sequence.

    Successive points of one class cover the range evenly, so a run's cost
    depends less on which seed drew it.
    """
    offset = float(np.random.default_rng([seed % 2**63, wl_key, 0, dim]).uniform())
    return (offset + slot * math.sqrt((2, 3, 5, 7, 11)[dim])) % 1.0


def _draw_point(kind, rng, slot, geometry, strata):
    """(xi, alpha, beta, L0, extra) for one point class."""
    length = geometry["length"]
    L0 = length * 10.0 ** (-0.7 + 1.4 * strata(0))
    extra = {}
    if kind == "haar":
        xi, alpha, beta = _haar(rng, strata(1))
    elif kind == "sphere":
        xi, alpha, beta = _sphere(rng, margin=1e-3)
    elif kind == "pole":
        xi, alpha, beta = HALF_PI, 0j, 1j
    elif kind == "wall":
        name, xi, alpha = SCALE_FREE_WALLS[slot % 4]
        beta = 0j
        extra["walls"] = name
    elif kind == "twisted-circle":
        xi, alpha, beta = _twisted_circle(rng)
    else:
        raise ValueError(f"unknown point class {kind!r}")
    return xi, alpha, beta, L0, extra


def _point_args(point, geometry):
    # --name=value: argparse reads a separate "-3e-06" as an option, not a value
    values = {
        "xi": point["xi"], "alpha-re": point["alpha"].real, "alpha-im": point["alpha"].imag,
        "beta-re": point["beta"].real, "beta-im": point["beta"].imag, "L0": point["L0"],
        "length": geometry["length"], "hbar": geometry["hbar"], "mass": geometry["mass"],
    }
    return [f"--{name}={_fmt(v)}" for name, v in values.items()]


def _operation(workload, kind, point, geometry, extra) -> Operation:
    """The CLI invocation of a workload at one point."""
    if workload == "scan-sweep":
        xi, L0 = point["xi"], point["L0"]
        lo = min(max(xi - 0.25, 1e-3), math.pi - 0.5 - 1e-3)
        xi_axis = (lo, lo + 0.5)
        L0_axis = (0.5 * L0, 2.0 * L0)
        argv = ["scan", *_point_args(point, geometry),
                "--sweep", f"xi:{_fmt(xi_axis[0])}:{_fmt(xi_axis[1])}:{SCAN_GRID}",
                "--sweep", f"L0:{_fmt(L0_axis[0])}:{_fmt(L0_axis[1])}:{SCAN_GRID}"]
        extra.update(xi_axis=xi_axis, L0_axis=L0_axis, n=SCAN_GRID)
    elif workload == "modes-deep":
        argv = ["eigenstate", *_point_args(point, geometry), "--levels", str(MODES_LEVELS)]
        extra["levels"] = MODES_LEVELS
    elif workload == "kernel-check":
        argv = ["kernel-compare", *_point_args(point, geometry), "--grid", str(KERNEL_GRID)]
        extra["grid"] = KERNEL_GRID
    elif workload == "oracle-fd":
        argv = ["oracle-check", *_point_args(point, geometry), "--grid", str(ORACLE_GRID)]
        extra["grid"] = ORACLE_GRID
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Operation(argv=argv, kind=kind, point=point, geometry=geometry, extra=extra)


def _points(op):
    """Every point the operation solves: the rows of a scan, else its one point."""
    if op.argv[0] != "scan":
        return [op.point]
    n = op.extra["n"]
    values = [[lo + (hi - lo) * i / (n - 1) for i in range(n)]
              for lo, hi in (op.extra["xi_axis"], op.extra["L0_axis"])]
    return [dict(op.point, xi=xi, L0=L0) for xi in values[0] for L0 in values[1]]


def operation(workload: str, seed: int, index: int) -> Operation:
    """The operation number `index` of a workload; -1 is the warm-up call."""
    wl = WORKLOADS[workload]
    wl_key = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed % 2**63, wl_key, index + 1])
    cycle = max(index, 0)
    kind = wl.classes[cycle % len(wl.classes)]
    slot = cycle // len(wl.classes)
    strata = lambda dim: _weyl(seed, wl_key, slot, dim)
    geometry = _geometry(strata)
    if workload == "scan-sweep":
        geometry = {"length": 1.0, "hbar": 1.0, "mass": 0.5}
    for _ in range(1000):
        xi, alpha, beta, L0, extra = _draw_point(kind, rng, slot, geometry, strata)
        if workload == "scan-sweep":
            L0 = 10.0 ** (-0.5 + strata(2))
        op = _operation(workload, kind, {"xi": xi, "alpha": alpha, "beta": beta, "L0": L0},
                        geometry, extra)
        # a Haar draw keeps xi and L0 from the Weyl sequence and redraws its
        # direction while the program's window defect would show
        if kind != "haar" or not any(checks.window_misses(p, geometry) for p in _points(op)):
            return op
    raise RuntimeError(f"no point of {workload} operation {index} clears the window defect")


#: Fixed points at which the seed program's known defects show, one list per
#: workload, as (point class, xi, alpha, beta, L0, length, mass); hbar is 1.
#: Each run checks them once, untimed, so the failure ratio of the probe
#: reports the defects in every run while the timed operations never fail.
PROBES = {
    "scan-sweep": (
        # sweeps across cos xi = 0 with Re alpha = 0: bound states beyond the
        # negative-root window
        ("twisted-circle", HALF_PI, 0j, complex(math.sin(0.3 * math.pi), -math.cos(0.3 * math.pi)),
         1.0, 1.0, 0.5),
        ("minus-pole", HALF_PI, 0j, -1j, 1.0, 1.0, 0.5),
    ),
    "modes-deep": (
        # a spurious double negative level next to the zero mode
        ("minus-pole", HALF_PI, 0j, -1j, 4.130627095218261, 1.8685109770505828, 0.909179632844562),
        # L0 a relative 1e-5 from a zero mode: negative-mode norm off by 3e-9
        ("near-zero-mode", 1.2900997279407822, complex(0.4882743886959906, -0.5241502523018554),
         complex(-0.5371082082819572, 0.4453868059918296), 0.12116368129475412,
         1.6131308050987436, 0.5457215279937537),
        # a bound state at kappa l = 24.1, beyond the window
        ("haar", 0.625440090123988, complex(-0.6902579317938642, 0.45175243403370746),
         complex(0.3153747904531002, 0.46904420632488486), 0.7292736407342588,
         1.6156087904460594, 0.8976967701100733),
        # two attractive Robin walls in a box so long that kappa l exceeds 360:
        # OverflowError
        ("long-box", HALF_PI, 1 + 0j, 0j, 1.0, 440.0, 0.75),
        # OverflowError
        ("tiny-L0", 1.2900997279407822, complex(0.4882743886959906, -0.5241502523018554),
         complex(-0.5371082082819572, 0.4453868059918296), 1e-5, 1.0, 0.75),
        # boundary residuals above 1e-8
        ("huge-L0", 0.625440090123988, complex(-0.6902579317938642, 0.45175243403370746),
         complex(0.3153747904531002, 0.46904420632488486), 1e5, 1.0, 0.75),
    ),
    "kernel-check": (
        # the spurious double negative level spoils the spectral kernel
        ("minus-pole", HALF_PI, 0j, -1j, 0.9009288572124946, 0.8460857108993287, 0.5266565594759232),
    ),
    "oracle-fd": (
        # the finite-difference spectrum finds a bound state the window misses
        ("haar", 2.0599798956110833, complex(0.5472331795577692, -0.753256327689289),
         complex(0.2782793411997948, -0.23601135618556335), 0.8683114764610973,
         0.8701327660126541, 0.7417912983443988),
    ),
}


def probe_operations(workload: str) -> list:
    """The workload's CLI invocations at its PROBES points."""
    return [
        _operation(workload, kind, {"xi": xi, "alpha": alpha, "beta": beta, "L0": L0},
                   {"length": length, "hbar": 1.0, "mass": mass}, {})
        for kind, xi, alpha, beta, L0, length, mass in PROBES[workload]
    ]
