"""Derandomized property tests over the U(2) sphere, with a bounded example count."""

import contextlib
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from pointspec import BoxGeometry, eigenbasis, make_u2, mode_inner
from pointspec import cli
from helpers import eigenstate_payload, haar_point, point_args

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
