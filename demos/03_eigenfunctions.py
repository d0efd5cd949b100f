"""Eigenfunctions: nullspace construction, degeneracy, probability current.

Each level's coefficients span the nullspace of a 2x2 boundary matrix; rank
2 certifies a doubly degenerate level.  Separated points block current at
the walls; circle-like points only conserve it globally, j(0) = j(l).
"""

import numpy as np

from pointspec import (
    BoxGeometry,
    eigenbasis,
    make_u2,
    mode_inner,
    probability_current,
    residuals_and_norms,
    scale_invariant_mode,
)

g = BoxGeometry(l=1.0, hbar=1.0, mass=0.5)


def lowest_positive_mode(p):
    """The first mode of the lowest positive level; at most two negative and one zero level lie below it."""
    return next(modes[0] for lv, modes in eigenbasis(p, g, 5) if lv.sector == "positive")


print("Dirichlet ground state is sqrt(2) sin(pi x):")
_, (m,) = eigenbasis(make_u2(0.0, -1.0, 0.0), g, 1)[0]
xs = np.linspace(0, 1, 5)
print("   psi:", np.round(m.psi(xs).real, 9))
print("   max |psi - sqrt(2) sin(pi x)| =",
      float(np.max(np.abs(m.psi(xs) - np.sqrt(2) * np.sin(np.pi * xs)))))

print("\nDegenerate pole (twist pi): rank-2 nullspace, orthonormal pair:")
p = make_u2(np.pi / 2, 0.0, 1j)
basis = eigenbasis(p, g, 1)
_, pair = basis[0]
print(f"   modes found: {len(pair)}")
print(f"   <m1, m2> = {mode_inner(pair[0], pair[1], g):.2e}")
print(f"   residuals: {[f'{r:.2e}' for r in residuals_and_norms(basis, p, g)[0]]}")

print("\nZero mode on the Neumann box is the constant 1/sqrt(l):")
_, (m0,) = eigenbasis(make_u2(0.0, 1.0, 0.0), g, 1)[0]
print("   psi(0.3) =", m0.psi(0.3))

print("\nTwisted circle carries a running wave with uniform current:")
theta = np.pi / 2
p = make_u2(np.pi / 2, 0.0, -1.0)
m = scale_invariant_mode(p, g, +1, 0)
for x in (0.0, 0.5, 1.0):
    print(f"   j({x}) = {probability_current(m, g, x):.10f}  (hbar k / m l = {m.parameter / 0.5:.10f})")

print("\nSeparated Robin walls block the current entirely:")
m = lowest_positive_mode(make_u2(1.1, np.exp(0.6j), 0.0, 2.0))
print(f"   j(0) = {probability_current(m, g, 0.0):.2e},"
      f" j(l) = {probability_current(m, g, 1.0):.2e}")

print("\nGeneric circle point: current nonzero but conserved end to end:")
b_i = -np.sqrt(1.0 - 0.4**2 - 0.53**2 - 0.6**2)
m = lowest_positive_mode(make_u2(0.9, complex(0.4, 0.53), complex(0.6, b_i)))
j0 = probability_current(m, g, 0.0)
jl = probability_current(m, g, 1.0)
print(f"   j(0) = {j0:.10f}, j(l) = {jl:.10f}, difference {abs(j0 - jl):.2e}")
