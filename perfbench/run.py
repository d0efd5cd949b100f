#!/usr/bin/env python3
"""pointspec benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload scan-sweep --seed 1 --seconds 20 --trace 0

One client drives the public CLI entry `pointspec.cli.main` in-process in a
closed loop: the next operation starts when the previous one has returned.
Each operation is one CLI invocation at one seeded point (see workloads.py)
and its output is checked against independent facts (see checks.py).

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
interpreters that import pointspec and make the workload's first call),
operations per second, median and tail time per operation, and peak RSS.
Times are scaled to a reference speed measured around each call (see
`reference`); the raw wall-clock figures are printed too.
--trace 1 first runs untraced for half the time, then replays the same
operations with every layer traced (see tracing.py), and reports per-layer
metrics plus the tracing overhead.

After the timing, and outside it, every run checks the workload's fixed
probe points (`workloads.PROBES`), at which the seed program's known defects
show; the timed operations are drawn where none of them does.

Lines before the last one are for people: the machine record, the failure
ratios of the timed operations and of the probe, the tail percentile and its
sample count.  The last line is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count the timed
operations.  An operation fails when the CLI exits nonzero, raises, or
prints an output that fails its check; `correct` is false when a timed or
probe operation fails for a reason that `checks.KNOWN_DEFECTS` does not list
for its command and point class.  The program comes from src/ of the
checkout; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from pointspec.cli import main; sys.exit(main(sys.argv[2:]))"
)
#: the reference kernel's duration on the speed scale that times are reported in
REFERENCE_S = 0.01
#: how many reference times, nearest to an operation, its scale is the median of
REFERENCE_WINDOW = 32
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _interpreter_mix(parts=1):
    """A fixed mix of interpreter and small-array work, cut into `parts` shares.

    Like the program's Python-bound paths it holds the GIL nearly all the
    time; large arrays, which release it, would make the pooled kernel run
    faster on two cores than `scan`'s rows do.
    """
    x = 0.0
    for i in range(30000 // parts):
        x += math.sin(i * 1e-3)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(600 // parts):
        a = np.cos(a) * 0.5


def reference_interpreter() -> float:
    """Wall time of the interpreter mix."""
    start = time.perf_counter()
    _interpreter_mix()
    return time.perf_counter() - start


def reference_pool() -> float:
    """Wall time of the interpreter mix shared out to a thread pool.

    The pool is the one `scan` starts for its rows when POINTSPEC_THREADS is
    unset, so the kernel also feels a core taken by another process, which a
    single thread does not.
    """
    workers = min(8, os.cpu_count() or 1)
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_interpreter_mix, [workers] * workers))
    return time.perf_counter() - start


def reference_sparse() -> float:
    """Wall time of building and factoring a fixed sparse complex matrix."""
    start = time.perf_counter()
    n = 10000
    off = np.full(n - 1, -1.0 + 0j)
    A = sp.diags([off, np.full(n, 2.0 + 0.1j), off], [-1, 0, 1], format="csc")
    splu(A).solve(np.ones(n, dtype=complex))
    return time.perf_counter() - start


#: The host's CPU speed swings by up to 1.6x within seconds, so every timed
#: call is bracketed by a reference kernel and scaled by REFERENCE_S over the
#: kernel's duration around it, which divides the swing out of the figures.
#: Each workload uses the kernel closest to its own work: the interpreter mix
#: for the Python-bound paths, run in scan's thread pool for `scan-sweep`, and
#: sparse assembly and LU for the oracle.
REFERENCES = {"scan-sweep": reference_pool, "oracle-fd": reference_sparse}


class Record(NamedTuple):
    kind: str
    seconds: float  # at the reference speed
    wall: float  # as measured
    exit: int | None  # None when the call raised
    problems: tuple  # the nonzero exit or exception, and what the output check found
    wrong: bool  # a problem that no known defect of the program explains
    out_bytes: int

    @property
    def ok(self):
        return not self.problems


def run_one(cli, op) -> Record:
    """Time one CLI call, then check it outside the timed region.

    A nonzero exit or an exception is a problem of its own, and whatever the
    call printed is still checked: `kernel-compare` and `oracle-check` print
    their result before they exit 3 on a failed `pass` flag.
    """
    out, err = io.StringIO(), io.StringIO()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        rc = None
        problems.append(f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    if rc is not None and rc != 0:
        problems.append(f"exit {rc}: {err.getvalue().strip()[:200]}")
    if rc == 0 or text.strip():
        try:
            problems += checks.check(op, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    wrong = bool(problems) and not checks.known_defect(op.argv[0], op.kind, problems)
    return Record(op.kind, elapsed, elapsed, rc, tuple(problems), wrong, len(text))


def closed_loop(cli, workload, seed, seconds=None, n_ops=None, tracer=None):
    """Run operations 0, 1, ... until `seconds` have passed or n_ops are done.

    The workload's reference kernel runs before the first operation and after
    each one; an operation is scaled by the median of the REFERENCE_WINDOW
    reference times nearest to it, which follows the host's speed over a few
    seconds without the noise of single 10 ms samples.
    """
    reference = REFERENCES.get(workload, reference_interpreter)
    records, refs = [], [reference()]
    deadline = None if seconds is None else time.perf_counter() + seconds
    index = 0
    while n_ops is None or index < n_ops:
        if deadline is not None and records and time.perf_counter() >= deadline:
            break
        op = workloads.operation(workload, seed, index)
        if tracer is not None:
            tracer.op = index
        records.append(run_one(cli, op))
        refs.append(reference())
        index += 1
    return [
        rec._replace(seconds=rec.wall * REFERENCE_S / statistics.median(
            refs[max(0, i + 1 - REFERENCE_WINDOW // 2):i + 1 + REFERENCE_WINDOW // 2]))
        for i, rec in enumerate(records)
    ]


def measure_setup(op, env):
    """Median time of fresh interpreters that import pointspec and make one call.

    Returns the median at the reference speed (scaled by the median reference
    time of the whole set-up), the raw median and the exit codes.
    """
    reference = reference_interpreter
    walls, refs, codes = [], [reference()], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *op.argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120, check=False,
        )
        walls.append(time.perf_counter() - start)
        refs.append(reference())
        codes.append(proc.returncode)
    wall = statistics.median(walls)
    return wall * REFERENCE_S / statistics.median(refs), wall, codes


def machine_record(threads_found):
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "POINTSPEC_THREADS": None,
        "POINTSPEC_THREADS_found": threads_found,
        **{name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(records):
    """Throughput and latency over the operations that returned an exit status.

    An operation that exits nonzero (a typed error the program reports) or
    whose output fails its check still did its work, so it stays in the
    timing; one that raised was cut short and is left out.  Also returns the
    same figures from the raw wall times, for people.
    """
    out = []
    for field in ("seconds", "wall"):
        done = [getattr(r, field) * 1e3 for r in records if r.exit is not None]
        lat = done or [getattr(r, field) * 1e3 for r in records]
        busy = sum(getattr(r, field) for r in records)
        tail_ms, pct = tail(lat)
        out.append({
            "ops_per_s": (len(done) / busy, "1/s"),
            "op_ms_p50": (statistics.median(lat), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
        })
    metrics, raw = out
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw_text = ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items())
    return metrics, [f"op_ms_tail is p{pct:.1f} of {len(lat)} samples", f"wall clock: {raw_text}"]


def clear_caches():
    """Empty every functools cache in pointspec, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "pointspec" or name.startswith("pointspec.")):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def failure_summary(records, label="fail_ratio"):
    failed = [r for r in records if not r.ok]
    kinds = Counter(
        f"{r.kind}: {re.split(r'[0-9:]', r.problems[0])[0].strip()}"
        + (" (not a known defect)" if r.wrong else "")
        for r in failed
    )
    ratio = len(failed) / len(records)
    lines = [f"{label} {ratio:.6g} ratio ({len(failed)} of {len(records)} operations)"]
    lines += [f"  failed {n}x {k}" for k, n in sorted(kinds.items())]
    lines += [f"  e.g. {r.kind}: {'; '.join(r.problems[:3])[:300]}"
              for r in [r for r in failed if r.wrong][:3]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "pointspec" / "__init__.py").is_file():
        print(f"perfbench: no pointspec sources under {SRC}", file=sys.stderr)
        return 2

    threads_found = os.environ.pop("POINTSPEC_THREADS", None)
    sys.path.insert(0, str(SRC))
    import pointspec.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported pointspec from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    lines = [f"machine {json.dumps(machine_record(threads_found))}"]
    first = workloads.operation(args.workload, args.seed, -1)
    lines.append(f"workload {args.workload}: {workloads.WORKLOADS[args.workload].why}")

    if args.trace == 0:
        setup_s, setup_wall, codes = measure_setup(first, dict(os.environ))
        lines.append(f"setup_s is the median of {SETUP_REPEATS} fresh interpreters "
                     f"(wall clock {setup_wall:.6g} s, exit codes {codes})")
        run_one(cli, first)  # warm-up, not measured
        records = closed_loop(cli, args.workload, args.seed, seconds=args.seconds)
        metrics, notes = end_to_end(records)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        lines += notes
    else:
        run_one(cli, first)
        untraced = closed_loop(cli, args.workload, args.seed, seconds=args.seconds / 2)
        clear_caches()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = closed_loop(cli, args.workload, args.seed, n_ops=len(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, len(records))
        # span times are wall clock; bring them to the reference speed too
        speed = sum(r.seconds for r in records) / sum(r.wall for r in records)
        metrics = {k: (v * speed if u == "ms/op" else v, u) for k, (v, u) in metrics.items()}
        metrics["cli.bytes_out"] = (sum(r.out_bytes for r in records) / len(records), "B/op")
        busy = [sum(r.seconds for r in rs) for rs in (untraced, records)]
        metrics["trace.overhead_pct"] = (100.0 * (busy[1] / busy[0] - 1.0), "%")
        lines.append(f"traced {len(records)} operations after the same {len(untraced)} untraced")
        records = untraced + records

    # the known defects, reproduced once on fixed points after the timing
    probe = [run_one(cli, op) for op in workloads.probe_operations(args.workload)]
    lines += failure_summary(records)
    lines += failure_summary(probe, "known-defect probe: fail_ratio")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": not any(r.wrong for r in records + probe),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
