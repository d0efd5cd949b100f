"""Propagators two ways: spectral sums against classical-image sums.

At Euclidean time tau the propagator is both a sum over levels and, for the
solvable families, a Gaussian sum over classical reflected/winding paths.
Poisson summation makes the two identical; numerically they agree to full
precision, which is the desk-scale shadow of the semiclassical exactness of
these families.  On a twisted circle the winding weights are phases and the
off-diagonal kernel is genuinely complex (Hermitian in the endpoints).
"""

import numpy as np

from pointspec import (
    BoxGeometry,
    build_image_terms,
    eigenbasis,
    gaussian_prefactor,
    image_heat_kernel,
    images_needed,
    make_u2,
    spectral_heat_kernel,
    spectral_levels_needed,
    theta3,
)

g = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)
tau = 0.3 * 2 * g.mass * g.l**2 / g.hbar


def both_kernels(p, a, b):
    n_img = images_needed(g, tau)
    n_lev = spectral_levels_needed(p, g, tau)
    terms = build_image_terms(p, g, n_img)
    sv = spectral_heat_kernel(eigenbasis(p, g, n_lev), g, a, b, tau)
    iv = image_heat_kernel(terms, a, b, tau, n_img)
    return sv, iv


cases = [
    ("Dirichlet (0,0): direct - mirror images on the 2nl lattice", make_u2(0.0, -1.0, 0.0)),
    ("Neumann (inf,inf): direct + mirror", make_u2(0.0, 1.0, 0.0)),
    ("mixed (0,inf): alternating (-1)^n weights", make_u2(np.pi / 2, 1j, 0.0)),
    ("periodic circle: windings on the nl lattice", make_u2(np.pi / 2, 0.0, -1j)),
    ("generic scale-invariant point", make_u2(np.pi / 2, 0.6j, complex(0.64, -0.48))),
]

def fmt(z):
    return f"{z.real:.15f}" if abs(z.imag) < 1e-13 else f"{z:.15f}"


for name, p in cases:
    sv, iv = both_kernels(p, 0.3, 0.75)
    print(f"== {name}")
    print(f"   spectral K = {fmt(sv)}")
    print(f"   images   K = {fmt(iv)}")
    print(f"   |difference| = {abs(sv - iv):.2e}\n")

print("Winding weights on the twisted circle carry phases e^{-i theta n}:")
theta = 1.0
p = make_u2(np.pi / 2, 0.0, complex(-np.sin(theta), -np.cos(theta)))
terms = build_image_terms(p, g, 3)
for t in terms.terms:
    if t.kind == "direct" and abs(t.shift) <= 2:
        print(f"   winding {t.shift:+.0f}: weight {t.weight:.6f}")
sv, iv = both_kernels(p, 0.2, 0.8)
print(f"   complex kernel at (0.2, 0.8): {sv:.12f} (images: |diff| {abs(sv - iv):.2e})")

print("\nCoincident points reduce to the Jacobi theta function:")
for th in (0.0, np.pi / 3):
    p = make_u2(np.pi / 2, 0.0, complex(-np.sin(th), -np.cos(th)))
    n_img = images_needed(g, tau, tol=1e-15)
    terms = build_image_terms(p, g, n_img)
    img = image_heat_kernel(terms, 0.37, 0.37, tau, n_img, tol=1e-14)
    ref = gaussian_prefactor(g, tau) * theta3(
        -th / (2 * np.pi), 1j * g.mass * g.l**2 / (2 * np.pi * g.hbar * tau)
    )
    print(f"   twist {th:.4f}: image sum {img.real:.15f}, theta3 form {ref.real:.15f}")
