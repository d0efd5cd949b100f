import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointspec import (
    BoxGeometry,
    Mode,
    build_image_terms,
    eigenbasis,
    gaussian_prefactor,
    image_heat_kernel,
    make_u2,
    mode_inner,
    spectral_heat_kernel,
    spectrum,
)
from pointspec import kernels, spectral
from pointspec import cli
from pointspec.cli import DEFAULT_KERNEL_TIMES, main
from helpers import eigenstate_payload, haar_point, point_args, scan_payload

G1 = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


DIRICHLET_ARGS = [
    "--xi", "0", "--alpha-re", "-1", "--alpha-im", "0",
    "--beta-re", "0", "--beta-im", "0", "--mass", "0.5",
]


HAAR_ARGS = [
    "--xi=0.4039152044902676", "--alpha-re=0.7070850316982114", "--alpha-im=0.6368696519031734",
    "--beta-re=-0.26536580127512216", "--beta-im=-0.15494772004351248",
]


class TestSpectrumCommand:
    def test_dirichlet_json(self, tmp_path):
        code, text = run(tmp_path, "spectrum", *DIRICHLET_ARGS, "--levels", "3")
        assert code == 0
        doc = json.loads(text)
        energies = [lv["energy"] for lv in doc["levels"]]
        assert np.allclose(energies, [math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rtol=1e-12)

    def test_tiny_L0_returns(self):
        # the search is sized by the level count, not by a k_max grid, so a
        # tiny but valid L0 returns at once; a separate process bounds a hang
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "pointspec.cli", "spectrum", "--L0=1e-100", "--levels", "3"],
            capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0
        levels = json.loads(done.stdout)["levels"]
        assert [lv["sector"] for lv in levels] == ["zero", "positive", "positive"]
        assert [lv["parameter"] for lv in levels[1:]] == pytest.approx([math.pi, 2 * math.pi], rel=1e-12)

    def test_round_trip_point(self, tmp_path):
        code, text = run(
            tmp_path, "spectrum", "--xi", "0.7", "--alpha-re", "0.36", "--alpha-im",
            "0.48", "--beta-re", "0.6", "--beta-im", "0.52", "--mass", "0.5",
            "--levels", "4",
        )
        assert code == 2  # norm violated: validation error
        code, text = run(
            tmp_path, "spectrum", "--xi", "0.7", "--alpha-re", "0.36", "--alpha-im",
            "0.48", "--beta-re", "0.6", "--beta-im", "0.52915026221291805",
            "--mass", "0.5", "--levels", "4",
        )
        assert code == 0
        doc = json.loads(text)
        p = make_u2(
            doc["point"]["xi"],
            complex(doc["point"]["alpha"]["re"], doc["point"]["alpha"]["im"]),
            complex(doc["point"]["beta"]["re"], doc["point"]["beta"]["im"]),
            doc["point"]["L0"],
        )
        spec = spectrum(p, G1, 4)
        assert np.allclose([lv.energy for lv in spec.levels],
                           [lv["energy"] for lv in doc["levels"]], rtol=0, atol=0)

    def test_determinism(self, tmp_path):
        _, t1 = run(tmp_path, "spectrum", *DIRICHLET_ARGS, name="a.json")
        _, t2 = run(tmp_path, "spectrum", *DIRICHLET_ARGS, name="b.json")
        assert t1 == t2


class TestClassifyCommand:
    def test_smooth_circle_point(self, tmp_path):
        code, text = run(
            tmp_path, "classify", "--xi", repr(math.pi / 2), "--alpha-re", "0",
            "--alpha-im", "0", "--beta-re", "-1", "--beta-im", "0",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["flags"]["scale_invariant"] and doc["flags"]["smooth_circle"]
        assert doc["twist_angle"] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_separated_lengths_reported(self, tmp_path):
        code, text = run(tmp_path, "classify", *DIRICHLET_ARGS)
        doc = json.loads(text)
        assert doc["robin_lengths"] == {"l_plus": "0", "l_minus": "0"}

    def test_infinite_lengths_printed_as_inf(self, tmp_path):
        neumann = ["classify", "--xi", "0", "--alpha-re", "1"]
        code, text = run(tmp_path, *neumann)
        assert code == 0
        assert '"l_plus": "inf"' in text and '"l_minus": "inf"' in text
        assert json.loads(text)["robin_lengths"] == {"l_plus": "inf", "l_minus": "inf"}
        code, text = run(tmp_path, *neumann, "--format", "csv", name="o.csv")
        assert code == 0
        header, row = (line.split(",") for line in text.strip().split("\n"))
        cells = dict(zip(header, row))
        assert (cells["l_plus"], cells["l_minus"]) == ("inf", "inf")

    def test_csv_format(self, tmp_path):
        code, text = run(
            tmp_path, "classify", *DIRICHLET_ARGS, "--format", "csv", name="o.csv"
        )
        assert code == 0
        header, row = text.strip().split("\n")
        assert header.startswith("xi,alpha_re")
        assert "true" in row


class TestEigenstateCommand:
    def test_modes_reported(self, tmp_path):
        code, text = run(tmp_path, "eigenstate", *DIRICHLET_ARGS, "--levels", "2")
        assert code == 0
        doc = json.loads(text)
        for entry in doc["levels"]:
            for m in entry["modes"]:
                assert m["boundary_residual"] < 1e-9
                assert m["norm"] == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_negative_level_lists_both_modes(self, tmp_path):
        # U = (X - i lam Y)(X + i lam Y)^-1 admits both exp(+-kappa x) at
        # kappa = 2, l = L0 = 1: a doubly degenerate negative level
        kappa, e = 2.0, math.exp(2.0)
        X = np.array([[1.0, 1.0], [e, 1.0 / e]])
        Y = np.array([[1.0, -1.0], [-e, 1.0 / e]])
        U = (X - 1j * kappa * Y) @ np.linalg.inv(X + 1j * kappa * Y)
        xi = cmath.phase(np.linalg.det(U)) / 2.0 % math.pi
        alpha, beta = U[0] * cmath.exp(-1j * xi)
        values = {"xi": xi, "alpha-re": alpha.real, "alpha-im": alpha.imag,
                  "beta-re": beta.real, "beta-im": beta.imag}
        args = [f"--{k}={float(v)!r}" for k, v in values.items()]
        code, text = run(tmp_path, "eigenstate", *args, "--levels", "2")
        assert code == 0
        level = json.loads(text)["levels"][0]
        assert level["sector"] == "negative" and level["multiplicity"] == 2
        assert level["parameter"] == pytest.approx(kappa, rel=1e-12)
        assert len(level["modes"]) == 2
        g = BoxGeometry(l=1.0)
        modes = []
        for m in level["modes"]:
            assert m["norm"] == pytest.approx(1.0, abs=1e-9)
            assert m["boundary_residual"] <= 1e-8
            coeff = [complex(m[k]["re"], m[k]["im"]) for k in ("coeff_a", "coeff_b")]
            modes.append(Mode("negative", level["parameter"], *coeff))
        assert abs(mode_inner(modes[0], modes[1], g)) <= 1e-9


    def test_csv_rows_carry_the_json_modes(self, tmp_path):
        # the Im beta = +1 pole: every level is doubly degenerate
        args = ["eigenstate", "--xi", repr(math.pi / 2), "--alpha-re", "0", "--beta-im", "1", "--levels", "3"]
        code, text = run(tmp_path, *args)
        assert code == 0
        levels = json.loads(text)["levels"]
        assert [lv["multiplicity"] for lv in levels] == [2, 2, 2]
        code, text = run(tmp_path, *args, "--format", "csv", name="out.csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        expected = [(i, lv, m) for i, lv in enumerate(levels) for m in lv["modes"]]
        assert len(rows) == len(expected) == 6
        for row, (i, lv, m) in zip(rows, expected):
            assert int(row["index"]) == i and row["sector"] == lv["sector"]
            assert int(row["multiplicity"]) == lv["multiplicity"]
            for key in ("parameter", "energy"):
                assert float(row[key]) == lv[key]
            for key in ("coeff_a", "coeff_b"):
                assert float(row[f"{key}_re"]) == m[key]["re"] and float(row[f"{key}_im"]) == m[key]["im"]
            for key in ("boundary_residual", "norm"):
                assert float(row[key]) == m[key]


HAAR = (0.4039152044902676, complex(0.7070850316982114, 0.6368696519031734),
        complex(-0.26536580127512216, -0.15494772004351248))

# (name, (xi, alpha, beta, L0), levels, what the case covers)
WRITER_CASES = [
    ("plus-pole", (math.pi / 2, 0j, 1j, 1.0), 256,
     lambda levels: all(len(lv["modes"]) == 2 for lv in levels)),
    ("U=I", (0.0, 1 + 0j, 0j, 1.0), 3,
     lambda levels: levels[0]["sector"] == "zero" and levels[0]["parameter"] is None),
    ("haar-bound-state", (*HAAR, 1.0), 8, lambda levels: levels[0]["sector"] == "negative"),
    ("one-level", (*HAAR, 1.0), 1, lambda levels: len(levels) == 1),
    ("huge-L0", (*HAAR, 1e99), 8, lambda levels: len(levels) == 8),
]


class TestEigenstateWriter:
    """eigenstate's output, written from the mode arrays, against the generic writers on dicts."""

    @pytest.mark.parametrize("name, point, n, covers", WRITER_CASES, ids=[c[0] for c in WRITER_CASES])
    def test_matches_generic_writers(self, name, point, n, covers, tmp_path, capsys):
        payload, rows = eigenstate_payload(make_u2(*point), G1, n)
        assert covers(payload["levels"])
        argv = ["eigenstate", *point_args(*point), "--mass=0.5", "--levels", str(n)]
        for fmt, text in (("json", cli._json_text(payload) + "\n"), ("csv", cli._csv_text(rows))):
            assert main(argv + ["--format", fmt]) == 0
            assert capsys.readouterr().out == text
            out = tmp_path / f"out.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes().decode() == text


class TestKernelCompareCommand:
    def test_periodic_circle(self, tmp_path):
        code, text = run(
            tmp_path, "kernel-compare", "--xi", repr(math.pi / 2), "--alpha-re", "0",
            "--alpha-im", "0", "--beta-re", "0", "--beta-im", "-1",
            "--grid", "3", "--tau", "0.4", "--mass", "0.5",
        )
        assert code == 0
        doc = json.loads(text)
        assert all(r["pass"] for r in doc["results"])
        assert doc["results"][0]["max_abs_difference"] < doc["results"][0]["bound"]

    def test_default_time_set_full_grid(self, tmp_path):
        code, text = run(
            tmp_path, "kernel-compare", "--xi", repr(math.pi / 2), "--alpha-re", "0",
            "--alpha-im", "0", "--beta-re", "0", "--beta-im", "-1", "--mass", "0.5",
        )
        assert code == 0
        doc = json.loads(text)
        assert len(doc["results"]) == 4 and doc["grid"] == 5
        assert all(r["max_abs_difference"] < r["bound"] for r in doc["results"])

    def test_unsupported_family_is_validation_error(self, tmp_path):
        code, _ = run(
            tmp_path, "kernel-compare", "--xi", "0.4", "--alpha-re", "0.28",
            "--alpha-im", "0.96", "--beta-re", "0", "--beta-im", "0", "--L0", "2",
        )
        assert code == 2  # finite Robin walls have no closed image sum

    def test_unsupported_family_is_refused_before_the_eigenbasis(self, tmp_path):
        # attractive Robin walls in a long box: the eigenbasis would overflow
        code, _ = run(
            tmp_path, "kernel-compare", "--xi", repr(math.pi / 2), "--alpha-re", "1",
            "--beta-re", "0", "--beta-im", "0", "--mass", "0.75", "--length", "440",
        )
        assert code == 2


#: kernel-compare --grid 9 at three solvable points, with (n_levels, n_images,
#: bound, pass) per default time as the scalar per-pair implementation printed
KERNEL_GRID_CASES = {
    "wall-inf-0": (
        ["--xi", repr(math.pi / 2), "--alpha-re", "0", "--alpha-im", "-1", "--mass", "0.5"],
        [(19, 3, 1.9947114020071637e-08, True), (11, 5, 8.920620580763856e-09, True),
         (7, 9, 3.9894228040143275e-09, True), (6, 17, 1.9947114020071637e-09, True)],
    ),
    "sphere": (
        ["--xi", repr(math.pi / 2), "--alpha-re", "0", "--alpha-im", "0.6", "--beta-re", "0.48",
         "--beta-im", "0.64", "--length", "1.3", "--mass", "0.7"],
        [(19, 3, 1.5343933861593563e-08, True), (11, 5, 6.862015831356811e-09, True),
         (7, 9, 3.068786772318713e-09, True), (6, 17, 1.5343933861593565e-09, True)],
    ),
    "twisted-circle": (
        ["--xi", repr(math.pi / 2), "--alpha-re", "0", "--beta-re", "0.8", "--beta-im", "-0.6",
         "--mass", "0.5"],
        [(19, 3, 1.9947114020071637e-08, True), (11, 5, 8.920620580763856e-09, True),
         (7, 9, 3.9894228040143275e-09, True), (6, 17, 1.9947114020071637e-09, True)],
    ),
}


class TestKernelCompareGrid:
    @pytest.mark.parametrize("case", KERNEL_GRID_CASES)
    def test_matches_scalar_recomputation(self, tmp_path, case):
        args, expected = KERNEL_GRID_CASES[case]
        code, text = run(tmp_path, "kernel-compare", *args, "--grid", "9")
        assert code == 0
        doc = json.loads(text)
        geo = doc["geometry"]
        g = BoxGeometry(l=geo["length"], hbar=geo["hbar"], mass=geo["mass"])
        pt = doc["point"]
        p = make_u2(pt["xi"], complex(pt["alpha"]["re"], pt["alpha"]["im"]),
                    complex(pt["beta"]["re"], pt["beta"]["im"]), pt["L0"])
        xs = [g.l * i / 8 for i in range(9)]
        got = [(r["n_levels"], r["n_images"], r["bound"], r["pass"]) for r in doc["results"]]
        assert got == expected
        for r in doc["results"]:
            tau = r["tau"]
            terms = build_image_terms(p, g, r["n_images"])
            basis = eigenbasis(p, g, r["n_levels"])
            worst = max(
                abs(spectral_heat_kernel(basis, g, a, b, tau, tol=1e-9)
                    - image_heat_kernel(terms, a, b, tau, r["n_images"]))
                for a in xs for b in xs
            )
            assert abs(r["max_abs_difference"] - worst) <= 1e-12 * gaussian_prefactor(g, tau)

    @pytest.mark.parametrize("i, j", [(0, 8), (8, 0), (3, 6)])
    def test_every_grid_pair_is_compared(self, tmp_path, monkeypatch, i, j):
        # a disagreement planted at one off-diagonal pair must be what is reported
        args, _ = KERNEL_GRID_CASES["sphere"]
        g = BoxGeometry(l=1.3, hbar=1.0, mass=0.7)
        xs = [g.l * i / 8 for i in range(9)]
        exact = kernels.image_heat_kernel

        def planted(terms, a, b, taus, n_images):
            # the CLI calls the kernel once, with every time on a leading axis
            at = (np.asarray(a) == xs[i]) & (np.asarray(b) == xs[j])
            pref = np.array([gaussian_prefactor(g, tau) for tau in taus])
            return exact(terms, a, b, taus, n_images) + np.where(
                at, 1e-10 * pref[:, None, None], 0.0)

        monkeypatch.setattr(kernels, "image_heat_kernel", planted)
        code, text = run(tmp_path, "kernel-compare", *args, "--grid", "9")
        assert code == 0
        for r in json.loads(text)["results"]:
            pref = gaussian_prefactor(g, r["tau"])
            assert abs(r["max_abs_difference"] - 1e-10 * pref) <= 1e-12 * pref


class TestScanCommand:
    def test_twist_law_on_scale_invariant_slice(self, tmp_path):
        code, text = run(
            tmp_path, "scan", "--xi", repr(math.pi / 2), "--alpha-re", "0",
            "--alpha-im", "0", "--beta-re", "1", "--beta-im", "0",
            "--sweep", "beta-im:-0.9:0.9:7", "--mass", "0.5",
            "--format", "csv", name="scan.csv",
        )
        assert code == 0
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        i_bi = header.index("beta_im")
        i_e1 = header.index("energy_1")
        for row in lines[1:]:
            cells = row.split(",")
            b_i = float(cells[i_bi])
            theta = math.acos(-b_i)
            k1 = math.sqrt(float(cells[i_e1]))  # hbar = 2m = 1
            assert abs(k1 - theta) < 1e-10

    def test_isospectral_slice_positive_energies_constant(self, tmp_path):
        code, text = run(
            tmp_path, "scan", "--xi", "0", "--alpha-re", "0", "--alpha-im", "1",
            "--beta-re", "0", "--beta-im", "0",
            "--sweep", "alpha-re:0.1:0.9:5", "--mass", "0.5",
            "--format", "csv", name="scan.csv",
        )
        assert code == 0
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        rows = [r.split(",") for r in lines[1:]]
        # the positive ladder (n pi)^2 appears in every row, bound state varies
        for row in rows:
            energies = [float(row[header.index(f"energy_{i}")]) for i in range(1, 9)]
            positive = [e for e in energies if e > 1e-9]
            for n, e in enumerate(positive, start=1):
                assert e == pytest.approx((n * math.pi) ** 2, rel=1e-10)
            assert row[header.index("negative_count")] == "1"

    def test_fingerprint_slice_constant_spectra(self, tmp_path):
        # base point has alpha_re = beta_im = 0, so the re-projection touches
        # only beta_re and the fingerprint (xi, 0, 0) stays fixed on every row
        code, text = run(
            tmp_path, "scan", "--xi", "0.8", "--alpha-re", "0", "--alpha-im", "0.6",
            "--beta-re", "0.8", "--beta-im", "0",
            "--sweep", "alpha-im:0.1:0.7:4", "--mass", "0.5",
            "--format", "csv", name="scan.csv",
        )
        assert code == 0
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        rows = [r.split(",") for r in lines[1:]]
        cols = [header.index(f"energy_{i}") for i in range(1, 9)]
        first = [rows[0][c] for c in cols]
        for row in rows[1:]:
            assert [row[c] for c in cols] == first  # byte-identical energies

    def test_rescale_factor_recorded(self, tmp_path):
        code, text = run(
            tmp_path, "scan", "--xi", "0", "--alpha-re", "1", "--alpha-im", "0",
            "--beta-re", "0", "--beta-im", "0", "--sweep", "beta-im:0:0.6:2",
            "--mass", "0.5", "--format", "csv", name="scan.csv",
        )
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        i_rs = header.index("rescale")
        assert float(lines[1].split(",")[i_rs]) == pytest.approx(1.0)
        assert float(lines[2].split(",")[i_rs]) == pytest.approx(0.8)

    @pytest.mark.parametrize("argv, message", [
        # row 0 cannot be rescaled, and is refused before row 2, whose swept component is 2
        (["--sweep", "alpha-re:0.5:2:3"], "cannot rescale: remaining components are all zero"),
        # rows 0 to 2 are points of U(2), row 3 is not
        (["--alpha-re", "1", "--sweep", "beta-re:0:1.5:4"], "swept components alone exceed the unit norm"),
        (["--sweep", "alpha-re:nan:1:3"], "|alpha|^2 + |beta|^2 = nan is not 1 within 1e-12"),
        # row 0's point is refused before row 1's projection
        (["--beta-re", "1", "--sweep", "xi:3.5:0:2", "--sweep", "alpha-re:0:2:2"], "xi = 3.5 outside [0, pi)"),
    ], ids=["cannot-rescale-first", "exceed", "nan", "point-first"])
    def test_first_failing_row_is_refused(self, capsys, argv, message):
        assert main(["scan", *argv]) == 2
        assert capsys.readouterr() == ("", f"pointspec: {message}\n")

    def test_bad_axis_rejected(self, tmp_path):
        code, _ = run(
            tmp_path, "scan", "--sweep", "length:0:1:2",
        )
        assert code == 2

    def test_two_axes(self, tmp_path):
        code, text = run(
            tmp_path, "scan", "--xi", "0", "--alpha-re", "1", "--alpha-im", "0",
            "--beta-re", "0", "--beta-im", "0",
            "--sweep", "L0:0.5:1:2", "--sweep", "xi:0:0.4:2",
            "--mass", "0.5", "--format", "csv", name="scan.csv",
        )
        assert code == 0
        assert len(text.strip().split("\n")) == 5

    @pytest.mark.parametrize("n", [3, 12])
    def test_levels_sets_the_energy_columns(self, tmp_path, n):
        code, text = run(tmp_path, "scan", *HAAR_ARGS, "--sweep", "xi:0.15:0.65:3", "--levels", str(n))
        assert code == 0
        g = BoxGeometry(l=1.0)
        for row in json.loads(text)["rows"]:
            assert [key for key in row if key.startswith("energy_")] == [f"energy_{i}" for i in range(1, n + 1)]
            p = make_u2(row["xi"], complex(row["alpha_re"], row["alpha_im"]),
                        complex(row["beta_re"], row["beta_im"]), row["L0"])
            assert [row[f"energy_{i}"] for i in range(1, n + 1)] == spectrum(p, g, n).energies()


class TestScanWriter:
    CASES = {
        # a Haar point whose rows have 0, 1 and 2 bound states, so rows of three shapes
        "xi-L0": (haar_point(np.random.default_rng(11)), ["xi:0.1:3:4", "L0:0.2:5:3"]),
        # sweeps of each unit component, whose rows are rescaled one by one
        "alpha-im-beta-re": (haar_point(np.random.default_rng(11)), ["alpha-im:-0.5:0.5:3", "beta-re:-0.4:0.6:3"]),
        "beta-im-alpha-re": (haar_point(np.random.default_rng(12)), ["beta-im:0.7:-0.7:4", "alpha-re:-0.3:0.2:2"]),
        # a value whose Python square, which the scalar projection takes, is not its correctly
        # rounded square: the rescale differs in its last bit if the two are mixed up
        "alpha-re-square": (make_u2(0.4, 0.6, 0.8j), ["alpha-re:-0.8236155155018324:0:1", "xi:0.2:0.6:2"]),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_generic_writers(self, case, fmt, tmp_path, capsys):
        p, sweeps = self.CASES[case]
        payload, rows = scan_payload(p, G1, sweeps, 3)
        if case == "xi-L0":
            assert {row["negative_count"] for row in rows} == {0, 1, 2}
        want = cli._json_text(payload) + "\n" if fmt == "json" else cli._csv_text(rows)
        argv = ["scan", *point_args(p.xi, p.alpha, p.beta, p.L0), "--mass=0.5", "--levels", "3", "--format", fmt]
        argv += [f"--sweep={spec}" for spec in sweeps]
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert run(tmp_path, *argv) == (0, want)


class TestRequestLimits:
    """Requests over the level and scan limits are refused with exit 2 before anything is solved."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--levels", "1000000"],
        ["spectrum", "--levels", "100000000"],
        ["eigenstate", "--levels", "100001"],
        ["oracle-check", "--levels", "1000000", "--grid", "4000000"],
        ["scan", "--sweep", "L0:1:2:2", "--levels", "100001"],
        # 10^20 rows: building the value list would not end
        ["scan", "--sweep", "L0:1:2:100000000000000000000"],
        ["scan", "--sweep", "L0:1:2:1000", "--sweep", "xi:0.1:1:101"],
        # 10^5 rows, at the row limit, of 11 levels each
        ["scan", "--sweep", "L0:1:2:1000", "--sweep", "xi:0.1:1:100", "--levels", "11"],
    ], ids=["spectrum-1e6", "spectrum-1e8", "eigenstate", "oracle-check", "scan-levels", "scan-1e20-rows",
            "scan-rows", "scan-row-levels"])
    def test_refused_with_exit_2(self, monkeypatch, capsys, argv):
        def refuse(*args):
            raise AssertionError("a refused request reached the solvers")

        monkeypatch.setattr(spectral, "_coeffs", refuse)
        monkeypatch.setattr(cli.oracle, "fd_spectrum", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pointspec: ") and "Traceback" not in captured.err

    def test_limits_are_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "MAX_LEVELS", 3)
        monkeypatch.setattr(cli, "MAX_SCAN_ROWS", 6)
        monkeypatch.setattr(cli, "MAX_SCAN_LEVELS", 12)
        for argv, code in [
            (["spectrum", "--levels", "3"], 0),
            (["spectrum", "--levels", "4"], 2),
            (["scan", "--sweep", "L0:1:2:2", "--sweep", "xi:0.1:1:3", "--levels", "2"], 0),
            (["scan", "--sweep", "L0:1:2:7"], 2),
            (["scan", "--sweep", "L0:1:2:2", "--sweep", "xi:0.1:1:3", "--levels", "3"], 2),
            (["scan", "--sweep", "L0:1:2:3", "--levels", "4"], 2),
        ]:
            assert main(argv) == code
            out = capsys.readouterr().out
            assert bool(out) == (code == 0)


class TestOracleCheckCommand:
    def test_agreement(self, tmp_path):
        code, text = run(
            tmp_path, "oracle-check", *DIRICHLET_ARGS, "--levels", "3",
            "--grid", "1500",
        )
        assert code == 0
        doc = json.loads(text)
        assert all(r["pass"] for r in doc["levels"])

    def test_contradiction_exit_code(self, tmp_path):
        # a 16-point grid cannot reproduce level 4 to 5e-3
        code, _ = run(
            tmp_path, "oracle-check", *DIRICHLET_ARGS, "--levels", "4",
            "--grid", "16",
        )
        assert code == 3

    def test_explicit_tol_is_used(self, tmp_path):
        # the default 5e-3 passes here; an explicit 1e-9 must be applied as given
        args = ["oracle-check", *DIRICHLET_ARGS, "--levels", "3", "--grid", "1500"]
        assert run(tmp_path, *args)[0] == 0
        assert run(tmp_path, *args, "--tol", "1e-9")[0] == 3

    def test_long_box_at_grid_40000(self, tmp_path):
        # two attractive Robin walls 440 lengths apart: a double bound state at -2/3
        code, text = run(
            tmp_path, "oracle-check", "--xi", repr(math.pi / 2), "--alpha-re", "1", "--alpha-im", "0",
            "--beta-re", "0", "--beta-im", "0", "--L0", "1", "--length", "440", "--mass", "0.75",
            "--grid", "40000",
        )
        assert code == 0
        doc = json.loads(text)
        assert all(r["pass"] for r in doc["levels"])
        assert doc["levels"][0]["exact_energy"] == pytest.approx(-2.0 / 3.0, rel=1e-6)

    @pytest.mark.parametrize("point", [HAAR_ARGS, ["--xi", repr(math.pi / 2), "--alpha-re", "0", "--beta-im", "1"]],
                             ids=["haar", "plus-pole"])
    def test_levels_sets_the_row_count(self, tmp_path, point):
        code, text = run(tmp_path, "oracle-check", *point, "--levels", "12", "--grid", "4000")
        assert code == 0
        rows = json.loads(text)["levels"]
        assert len(rows) == 12 and all(r["pass"] for r in rows)

    def test_repeated_runs_print_the_same(self, capsys):
        argv = [
            "oracle-check", "--xi", "0.7", "--alpha-re", "0.6", "--alpha-im", "0",
            "--beta-re", "0", "--beta-im", "0.8", "--L0", "0.9", "--grid", "4000",
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


MINUS_POLE_ARGS = ["--xi", repr(math.pi / 2), "--alpha-re", "0", "--beta-im=-1"]


class TestLevelFreeCommands:
    """The commands read the Spectrum arrays: none builds a Level, and the output is the same."""

    @pytest.mark.parametrize("argv", [
        ["scan", *HAAR_ARGS, "--sweep", "xi:0.15:0.65:3", "--sweep", "L0:0.5:2:3"],
        ["eigenstate", *MINUS_POLE_ARGS, "--levels", "6"],
        ["eigenstate", *HAAR_ARGS, "--L0=0.2", "--levels", "6"],
        ["kernel-compare", *MINUS_POLE_ARGS, "--mass", "0.5"],
        ["oracle-check", *HAAR_ARGS, "--levels", "6"],
        ["spectrum", *MINUS_POLE_ARGS, "--format", "csv"],
        ["eigenstate", *MINUS_POLE_ARGS, "--format", "csv"],
    ], ids=["scan", "eigenstate-pole", "eigenstate-haar", "kernel-compare", "oracle-check", "spectrum-csv",
            "eigenstate-csv"])
    def test_no_level_is_built(self, monkeypatch, capsys, argv):
        assert main(argv) == 0
        want = capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("a command built a Level")

        monkeypatch.setattr(spectral, "Level", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--L0=inf"],
            ["spectrum", "--L0=inf"],
            ["spectrum", "--length=inf"],
            ["spectrum", "--length=1e-200"],  # l**2 underflows to 0
            ["spectrum", "--hbar=1e300"],  # hbar**2 overflows
            ["spectrum", "--hbar=1e-200"],  # hbar**2 underflows to 0
            ["spectrum", "--mass=inf"],
            ["spectrum", "--alpha-re=nan"],
            # --tol must be finite and positive, --grid at least 1
            ["oracle-check", "--tol=0"],  # divided by in the level floor
            ["oracle-check", "--tol=nan"],
            ["oracle-check", "--tol=-1"],
            ["oracle-check", "--tol=inf"],  # an infinite band passes any level
            ["classify", "--tol=nan"],
            ["kernel-compare", "--grid=-5"],
            ["kernel-compare", "--grid=0"],  # would run the default grid
            ["oracle-check", "--grid=0"],
        ],
    )
    def test_refused_with_exit_2(self, tmp_path, argv):
        assert run(tmp_path, *argv) == (2, "")


class TestOutOfRangeInputs:
    """Inputs whose levels, shifts or term counts leave the float range.

    The suite turns RuntimeWarning into an error, so a numpy overflow on the
    way to the refusal fails these tests too.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            # L0 / l below the supported range, where a bound state would lie
            # at kappa l ~ 1e300, or ~7e152 with an energy that overflows
            ["spectrum", "--L0=1e-300", *HAAR_ARGS],
            ["spectrum", "--L0=1e-153", "--hbar=1e10", *HAAR_ARGS],
            # the positive levels' energies overflow
            ["spectrum", "--hbar=1.3e154"],
            # L0 / l below the supported range, before the oracle's default
            # shift would sit below kappa l ~ 1e200
            ["oracle-check", "--L0=1e-200"],
            # the spectral tail needs ~1e150 levels
            ["kernel-compare", "--tau=1e-300", "--xi", "0", "--alpha-re", "-1"],
            # L0 / l outside the supported range: v lam overflows at the
            # negative window's start, or 4 l / L0 does
            ["spectrum", "--L0=1e160"],
            ["spectrum", "--L0=1e-310"],
        ],
    )
    def test_refused_with_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pointspec: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("point", [[], ["--xi", "0", "--alpha-re", "-1"]], ids=["default", "c2-zero"])
    def test_large_L0_matches_its_neighbour(self, capsys, point):
        # (v lam)**2 overflows at L0 / l = 1e78 but not at 1e76; the levels
        # have converged by then, so only the printed L0 differs
        outputs = []
        for L0 in ("1e76", "1e78"):
            assert main(["spectrum", f"--L0={L0}", *point]) == 0
            outputs.append(capsys.readouterr().out.replace(f'"L0": {float(L0)!r}', '"L0": _'))
        assert outputs[0] == outputs[1] and '"L0": _' in outputs[0]


class TestScipyImports:
    def test_no_command_loads_scipy(self):
        # every command runs on numpy alone, the oracle's count included
        script = """
import contextlib, io, json, sys
import pointspec, pointspec.cli as cli
runs = [["classify"], ["spectrum", "--levels", "3"], ["eigenstate", "--levels", "3"],
        ["scan", "--sweep", "L0:0.5:2:3"], ["kernel-compare", "--xi", "0", "--alpha-re", "-1", "--grid", "3"],
        ["oracle-check", "--grid", "64", "--levels", "3"]]
scipy = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes, loaded = [], []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append(scipy())
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["codes"] == [0] * 6
        assert result["loaded"] == [[]] * 6


class TestConfigFile:
    def test_file_plus_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "xi=0\nalpha-re=-1\nalpha-im=0\nbeta-re=0\nbeta-im=0\n"
            "mass=0.5\nlevels=2\n"
        )
        code, text = run(tmp_path, "spectrum", "--config", str(cfg), "--levels", "3")
        assert code == 0
        doc = json.loads(text)
        assert len(doc["levels"]) == 3  # flag overrides file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        code, _ = run(tmp_path, "spectrum", "--config", str(cfg))
        assert code == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi 0.5\n")
        code, _ = run(tmp_path, "spectrum", "--config", str(cfg))
        assert code == 2

    def test_second_run_sees_no_earlier_flags_or_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=0.7\ngrid=3\nmass=0.5\nL0=2\n")
        assert main(["kernel-compare", "--tau=0.3", "--config", str(cfg)]) == 0
        first = json.loads(capsys.readouterr().out)
        assert [r["tau"] for r in first["results"]] == [0.3]
        assert first["grid"] == 3 and first["geometry"]["mass"] == 0.5
        assert main(["kernel-compare"]) == 0
        second = json.loads(capsys.readouterr().out)
        # hbar = mass = l = 1: tau = 2 m l^2 / hbar times each default time
        assert [r["tau"] for r in second["results"]] == [2.0 * t for t in DEFAULT_KERNEL_TIMES]
        assert second["grid"] == 5
        assert second["geometry"] == {"length": 1, "hbar": 1, "mass": 1}
        assert second["point"] == {
            "xi": 0, "alpha": {"re": 1, "im": 0}, "beta": {"re": 0, "im": 0}, "L0": 1,
        }

    @pytest.mark.parametrize("line", ["k-max = 5", "k_max = 5"])
    def test_k_max_key_rejected(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, _ = run(tmp_path, "spectrum", "--config", str(cfg))
        assert code == 2


# one payload reaching every branch of the writers
GOLDEN_PAYLOAD = {
    "none": None, "true": True, "false": False, "np_bool": np.bool_(True),
    "int": 7, "np_int": np.int64(-3),
    "pi": math.pi, "one": 1.0, "neg_zero": -0.0, "tenth": 0.1,
    "tiny": 1e-300, "huge": 1e300, "np_float": np.float64(2.5),
    "complex": complex(1.5, -0.25), "np_complex": np.complex128(-1 + 2j),
    "text": 'say "hi" \\ bye',
    "100% %s key": "50% off, %.17g %% %(x)s",
    'a "quoted" \\ key': 1,
    "empty_dict": {}, "empty_list": [], "tuple": (1, 0.5),
    "nested": {"a": [{"b": [1, {"c": None}]}]},
}
GOLDEN_JSON = r"""{
  "none": null,
  "true": true,
  "false": false,
  "np_bool": true,
  "int": 7,
  "np_int": -3,
  "pi": 3.1415926535897931,
  "one": 1,
  "neg_zero": -0,
  "tenth": 0.10000000000000001,
  "tiny": 1e-300,
  "huge": 1.0000000000000001e+300,
  "np_float": 2.5,
  "complex": {
    "re": 1.5,
    "im": -0.25
  },
  "np_complex": {
    "re": -1,
    "im": 2
  },
  "text": "say \"hi\" \\ bye",
  "100% %s key": "50% off, %.17g %% %(x)s",
  "a \"quoted\" \\ key": 1,
  "empty_dict": {},
  "empty_list": [],
  "tuple": [
    1,
    0.5
  ],
  "nested": {
    "a": [
      {
        "b": [
          1,
          {
            "c": null
          }
        ]
      }
    ]
  }
}
"""
GOLDEN_ROWS = [
    {"index": 0, "z": complex(0.1, -2.0), "note": None, "flag": np.bool_(False),
     "x": np.float64(0.1), "n": np.int64(3), "s": "a,b"},
    {"index": 1, "z": np.complex128(1j), "note": "x", "flag": True, "x": -0.0, "n": 4,
     "s": 'q"'},
]
GOLDEN_CSV = (
    "index,z_re,z_im,note,flag,x,n,s\n"
    '0,0.10000000000000001,-2,,false,0.10000000000000001,3,"a,b"\n'
    '1,0,1,x,true,-0,4,"q"""\n'
)


def emitted(payload, rows, fmt, capsys):
    cli._emit(payload, rows, {"format": fmt, "out": None})
    return capsys.readouterr().out


class TestSerialization:
    def test_golden_json(self, capsys):
        assert emitted(GOLDEN_PAYLOAD, [], "json", capsys) == GOLDEN_JSON
        doc = json.loads(GOLDEN_JSON)
        assert doc["pi"] == math.pi and doc["tenth"] == 0.1 and doc["huge"] == 1e300
        assert doc["text"] == GOLDEN_PAYLOAD["text"]
        assert doc["100% %s key"] == GOLDEN_PAYLOAD["100% %s key"]
        assert doc['a "quoted" \\ key'] == 1

    def test_golden_csv(self, capsys):
        # complex columns split into _re/_im, None is an empty cell
        assert emitted({}, GOLDEN_ROWS, "csv", capsys) == GOLDEN_CSV

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unsupported_type_exits_2(self, monkeypatch, capsys, fmt):
        bad = {"bad": set()}
        monkeypatch.setitem(cli._COMMANDS, "spectrum", lambda cfg: cli._emit(bad, [bad], cfg))
        assert main(["spectrum", "--format", fmt]) == 2
        assert "cannot serialize set" in capsys.readouterr().err

    def test_reals_roundtrip_17_digits(self, tmp_path):
        code, text = run(tmp_path, "spectrum", *DIRICHLET_ARGS, "--levels", "1")
        doc = json.loads(text)
        assert doc["levels"][0]["parameter"] == math.pi

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--short", "1"])
        assert exc.value.code == 2

    def test_k_max_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--k-max", "5"])
        assert exc.value.code == 2
