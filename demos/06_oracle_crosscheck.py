"""Finite-difference oracle: an independent check on the transcendental spectra.

The Hamiltonian is discretized with central differences; the two boundary
conditions enter through one-sided derivative stencils that eliminate the
wall values.  The discrete eigenvalues converge at second order to the
transcendental ones, for every sector including bound states.
"""

import time

import numpy as np

from pointspec import BoxGeometry, FdConfig, fd_spectrum, make_u2, spectrum

g = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)

print("Second-order convergence on the Dirichlet ground state:")
exact = np.pi**2
prev = None
for n in (250, 500, 1000, 2000):
    err = abs(fd_spectrum(make_u2(0.0, -1.0, 0.0), g, FdConfig(n_points=n), 1)[0] - exact)
    ratio = f"   error ratio vs half resolution: {prev / err:.3f}" if prev else ""
    print(f"   n = {n:5d}: |error| = {err:.3e}{ratio}")
    prev = err

print("\nGeneric boundary point, five lowest levels at n = 4000:")
rng = np.random.default_rng(12)
v = rng.normal(size=4)
v /= np.linalg.norm(v)
p = make_u2(float(rng.uniform(0, np.pi)), complex(v[0], v[1]), complex(v[2], v[3]))
t0 = time.perf_counter()
fd = fd_spectrum(p, g, FdConfig(n_points=4000), 5)
dt = time.perf_counter() - t0
spec = spectrum(p, g, 5)
exact_list = []
for lv in spec.levels:
    exact_list.extend([lv.energy] * lv.multiplicity)
print(f"   (search on the closed-form level count took {dt * 1e3:.0f} ms)")
print("   sector        exact              finite-difference   rel error")
for lv_e, e_fd in zip(exact_list, fd):
    rel = abs(e_fd - lv_e) / max(abs(lv_e), g.energy_scale)
    print(f"   {lv_e:+.12f}   {e_fd:+.12f}   {rel:.2e}")

print("\nBound states are reproduced too (deep symmetric well):")
p = make_u2(np.pi / 2, 1.0, 0.0, 1.0)
g10 = BoxGeometry(l=10.0, hbar=1.0, mass=0.5)
fd = fd_spectrum(p, g10, FdConfig(n_points=4000), 2)
tr = [lv.energy for lv in spectrum(p, g10, 2).levels]
for a, b in zip(tr, fd):
    print(f"   exact {a:+.9f}   discrete {b:+.9f}")
