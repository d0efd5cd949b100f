"""Derandomized property tests over the U(2) sphere, with a bounded example count."""

import contextlib
import io
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pointspec import (
    BoxGeometry,
    build_image_terms,
    eigenbasis,
    gaussian_prefactor,
    image_heat_kernel,
    images_needed,
    make_u2,
    mode_inner,
    spectral_heat_kernel,
    spectral_levels_needed,
    spectrum,
)
from pointspec import cli
from helpers import eigenstate_payload, fingerprint_pair, haar_point, point_args, scan_payload

G = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_levels=st.integers(1, 8))
def test_haar_point_modes_and_output(seed, n_levels):
    p = haar_point(np.random.default_rng(seed))
    p = make_u2(p.xi, p.alpha, p.beta, p.L0)  # the point the CLI builds from p's flags
    basis = eigenbasis(p, G, n_levels)
    # the nullspace rank of each level is its multiplicity
    assert np.diff(basis.offsets).tolist() == [lv.multiplicity for lv in basis.levels]
    modes = [m for _, level_modes in basis for m in level_modes]
    gram = np.array([[mode_inner(m1, m2, G) for m2 in modes] for m1 in modes])
    assert np.max(np.abs(gram - np.eye(len(modes)))) <= 1e-12
    # the templated JSON writer prints what the generic one prints for the payload dicts
    payload, _ = eigenstate_payload(p, G, n_levels)
    out = io.StringIO()
    argv = ["eigenstate", *point_args(p.xi, p.alpha, p.beta, p.L0), "--mass=0.5", "--levels", str(n_levels)]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == cli._json_text(payload) + "\n"


#: sweepable axes and the range their ends are drawn from: at most two of
#: them leave every row a point of U(2) after the rescale
SWEEP_RANGES = {"xi": (0.05, 3.0), "L0": (0.1, 10.0), "alpha-re": (-0.6, 0.6), "alpha-im": (-0.6, 0.6),
                "beta-re": (-0.6, 0.6), "beta-im": (-0.6, 0.6)}
#: xi = 0, alpha = 1: the Neumann-Neumann box, a zero mode at every L0
ZERO_MODE_BASE = make_u2(0.0, 1.0, 0.0)


@st.composite
def scan_cases(draw):
    """(base point, sweep specs): a Haar base with one or two axes, or the zero-mode base with an L0 axis."""
    if draw(st.booleans()):
        base, names = ZERO_MODE_BASE, ["L0"]
    else:
        base = haar_point(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        names = draw(st.lists(st.sampled_from(sorted(SWEEP_RANGES)), min_size=1, max_size=2, unique=True))
    ends = [(draw(st.floats(*SWEEP_RANGES[n])), draw(st.floats(*SWEEP_RANGES[n]))) for n in names]
    return base, [f"{n}:{a!r}:{b!r}:{draw(st.integers(1, 4))}" for n, (a, b) in zip(names, ends)]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(case=scan_cases(), n_levels=st.integers(1, 8))
# rows with 0, 1 and 2 bound states in one scan, and zero-mode rows
@example(case=(haar_point(np.random.default_rng(11)), ["xi:0.1:3:4", "L0:0.2:5:3"]), n_levels=3)
@example(case=(ZERO_MODE_BASE, ["L0:0.2:5:7"]), n_levels=8)
def test_scan_rows_and_output(case, n_levels):
    p, sweeps = case
    payload, rows = scan_payload(p, G, sweeps, n_levels)
    # at most two bound states, and the Neumann-Neumann box has its zero mode at every L0
    assert all(row["negative_count"] <= 2 for row in rows)
    assert p != ZERO_MODE_BASE or all(row["zero_mode"] for row in rows)
    # the templated JSON writer prints what the generic one prints for the row dicts, and the CSV is theirs
    argv = ["scan", *point_args(p.xi, p.alpha, p.beta, p.L0), "--mass=0.5", "--levels", str(n_levels)]
    argv += [f"--sweep={spec}" for spec in sweeps]
    for fmt, want in (("json", cli._json_text(payload) + "\n"), ("csv", cli._csv_text(rows))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([*argv, "--format", fmt]) == 0
        assert out.getvalue() == want


# the four scale-free wall pairs: Dirichlet, Neumann and the two mixed ones
WALLS = [make_u2(0.0, -1.0, 0.0), make_u2(0.0, 1.0, 0.0),
         make_u2(np.pi / 2, 1j, 0.0), make_u2(np.pi / 2, -1j, 0.0)]


def _sphere_point(b_i, phi):
    """The scale-invariant point (xi = pi/2, Re alpha = 0) at Im beta = b_i and azimuth phi."""
    r = np.sqrt((1.0 - b_i) * (1.0 + b_i))
    return make_u2(np.pi / 2, complex(0.0, r * np.cos(phi)), complex(r * np.sin(phi), b_i))


SOLVABLE = st.one_of(
    st.sampled_from(WALLS),
    st.builds(_sphere_point, st.floats(-1.0 + 1e-3, 1.0 - 1e-3), st.floats(0.0, 2.0 * np.pi)),
)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(p=SOLVABLE)
def test_solvable_kernels_agree_and_are_hermitian(p):
    # kernel-compare's sums at its four default times on a 5x5 grid
    taus = [th * 2.0 * G.mass * G.l**2 / G.hbar for th in cli.DEFAULT_KERNEL_TIMES]
    a, b = np.meshgrid(np.linspace(0.0, G.l, 5), np.linspace(0.0, G.l, 5), indexing="ij", sparse=True)
    images = [images_needed(G, tau) for tau in taus]
    needs = [spectral_levels_needed(p, G, tau) for tau in taus]
    s_vals = spectral_heat_kernel(eigenbasis(p, G, max(needs)), G, a, b, taus, tol=1e-9, n_levels=needs)
    i_vals = image_heat_kernel(build_image_terms(p, G, max(images)), a, b, taus, images)
    for tau, s, i in zip(taus, s_vals, i_vals):
        pref = gaussian_prefactor(G, tau)
        assert np.max(np.abs(s - i)) <= cli.KERNEL_BOUND * pref
        # K(a, b) = conj K(b, a) on the symmetric grid
        for K in (s, i):
            assert np.max(np.abs(K - K.conj().T)) <= 1e-12 * pref


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(a_r=st.floats(-0.9, 0.9), log_lam=st.floats(-3.0, 3.0), phi=st.floats(0.0, 2.0 * np.pi))
def test_isospectral_sphere(a_r, log_lam, phi):
    # xi = 0, Im beta = 0: the Dirichlet levels k l = n pi, exactly, over one
    # bound state at kappa L0 = sqrt((1 - Re alpha) / (1 + Re alpha))
    r, L0 = math.sqrt((1.0 - a_r) * (1.0 + a_r)), 10.0**log_lam * G.l
    spec = spectrum(make_u2(0.0, complex(a_r, r * math.cos(phi)), complex(r * math.sin(phi), 0.0), L0), G, 6)
    assert spec.sector.tolist() == ["negative"] + ["positive"] * 5
    assert spec.multiplicity.tolist() == [1] * 6
    assert spec.parameter[1:].tolist() == [n * math.pi / G.l for n in range(1, 6)]
    kappa = math.sqrt((1.0 - a_r) / (1.0 + a_r)) / L0
    assert abs(spec.parameter[0] - kappa) * G.l <= 1e-15 + 1e-12 * kappa * G.l


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_counting_bound(seed):
    # at most two states at or below zero energy, and at every positive level
    # the count of states exceeds the Dirichlet count floor(k l / pi) by 0 to 2
    spec = spectrum(haar_point(np.random.default_rng(seed)), G, 16)
    states, positive = np.cumsum(spec.multiplicity), spec.sector == "positive"
    assert states[~positive].max(initial=0) <= 2
    excess = states[positive] - np.floor(spec.parameter[positive] * G.l / np.pi)
    assert excess.min() >= 0 and excess.max() <= 2


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), log_lam=st.floats(-3.0, 3.0))
def test_fingerprint_invariance(seed, log_lam):
    # points that share (xi, Re alpha, Im beta, L0) have bitwise-equal spectra
    one, other = (spectrum(p, G, 8) for p in fingerprint_pair(np.random.default_rng(seed), 10.0**log_lam * G.l))
    for field in ("sector", "parameter", "energy", "multiplicity"):
        a, b = getattr(one, field), getattr(other, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
