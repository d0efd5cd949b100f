#!/usr/bin/env python3
"""Quick self-check of the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py

It validates BENCHMARK.json, runs every workload for a few operations with
--trace 0 and --trace 1, checks that the last line of each run is the result
object with every declared metric under its declared unit, and checks that a
directory holding only BENCHMARK.json and the benchmark's files (no program)
makes the benchmark exit nonzero without a result.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


def check_spec(spec) -> list:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        return [f"BENCHMARK.json keys {sorted(spec)} are not {sorted(keys)}"]
    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1..32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        problems.append("command names an absolute path or leaves the repository")
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16 or not all(PATH.match(p) and ".." not in p.split("/") for p in paths):
        problems.append("paths must be 1..16 relative directories")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("there must be 2..8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')!r} needs a name and a one-line why")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("end_to_end needs 1..16 metrics and per_layer 1..128")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m.get('name')!r} is malformed")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m.get('name')!r} is malformed")
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        problems.append("names must be unique and well formed")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric {m['name']!r} has a bad unit or direction")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s in s, lower is better, is required")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    return problems


def check_result(text, declared) -> list:
    lines = text.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["the last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    a, f = result["attempted"], result["failed"]
    if not (isinstance(a, int) and isinstance(f, int) and a >= 1 and 0 <= f <= a):
        problems.append("attempted and failed must be whole numbers, attempted >= 1")
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    for name, unit in declared.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number in {unit}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for tr in (0, 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", w["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(tr)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
            )
            found = [f"exit {proc.returncode}"] if proc.returncode else []
            found += check_result(proc.stdout, declared[tr])
            problems += [f"{w['name']} --trace {tr}: {p}" for p in found]
            print(f"{w['name']} --trace {tr}: {'ok' if not found else 'FAILED'}", flush=True)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selfcheck_") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, Path(bare) / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the program the benchmark must exit nonzero and print nothing")
    print("without the program:", "ok" if proc.returncode and not proc.stdout.strip() else "FAILED")
    for p in problems:
        print("problem:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
