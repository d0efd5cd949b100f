import cmath
import json
import math

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
from pointspec import kernels
from pointspec.cli import main

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


class TestSpectrumCommand:
    def test_dirichlet_json(self, tmp_path):
        code, text = run(tmp_path, "spectrum", *DIRICHLET_ARGS, "--levels", "3")
        assert code == 0
        doc = json.loads(text)
        energies = [lv["energy"] for lv in doc["levels"]]
        assert np.allclose(energies, [math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rtol=1e-12)

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
        with pytest.warns(RuntimeWarning, match="tangential"):
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

        def planted(terms, a, b, tau, n_images):
            at = (np.asarray(a) == xs[i]) & (np.asarray(b) == xs[j])
            return exact(terms, a, b, tau, n_images) + np.where(
                at, 1e-10 * gaussian_prefactor(g, tau), 0.0)

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

    @pytest.mark.parametrize("line", ["k-max = 5", "k_max = 5"])
    def test_k_max_key_rejected(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, _ = run(tmp_path, "spectrum", "--config", str(cfg))
        assert code == 2


class TestSerialization:
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
