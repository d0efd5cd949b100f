"""Tour of the U(2) boundary-condition family and its named subfamilies.

A particle in a box [0, l] (equivalently on a circle with one marked point)
admits a whole U(2) of self-adjoint dynamics, encoded in boundary conditions

    (U - I) Psi + i L0 (U + I) Psi' = 0,

with Psi = (psi(0), psi(l)) and Psi' = (psi'(0), -psi'(l)).  Matrices are
stored as (xi, alpha, beta) with U = exp(i xi) [[alpha, beta], [-b*, a*]].
This script classifies a few landmark points and prints what makes each
subfamily special.
"""

import numpy as np

from pointspec import (
    classify,
    make_u2,
    separated_lengths,
    to_matrix,
    twist_angle,
)

# a semi-isospectral point needs Im(beta) = sin(xi); fill alpha to unit norm
_xi = np.pi / 4
_b = complex(0.28, np.sin(_xi))
_a = np.sqrt(1.0 - abs(_b) ** 2) * np.exp(0.3j)

landmarks = [
    ("Dirichlet box, U = -I", make_u2(0.0, -1.0, 0.0)),
    ("Neumann box, U = +I", make_u2(0.0, 1.0, 0.0)),
    ("mixed walls (0, inf)", make_u2(np.pi / 2, 1j, 0.0)),
    ("generic Robin walls", make_u2(1.1, np.exp(0.6j), 0.0, 2.0)),
    ("smooth circle, twist pi/2", make_u2(np.pi / 2, 0.0, -1.0)),
    ("scale-invariant, generic", make_u2(np.pi / 2, 0.6j, complex(0.64, -0.48))),
    ("isospectral sphere point", make_u2(0.0, 0.6 + 0.8j, 0.0)),
    ("semi-isospectral (+ branch)", make_u2(_xi, _a, _b)),
]

for name, p in landmarks:
    flags = classify(p)
    U = to_matrix(p)
    tags = [t for t, on in [
        ("separated", flags.separated),
        ("scale-invariant", flags.scale_invariant),
        ("smooth-circle", flags.smooth_circle),
        ("isospectral", flags.isospectral),
        ("semi-iso+", flags.semi_iso_plus),
        ("semi-iso-", flags.semi_iso_minus),
    ] if on]
    print(f"== {name}")
    print(f"   U = {np.round(U, 6).tolist()}")
    print(f"   subfamilies: {', '.join(tags) if tags else '(generic point)'}")
    if flags.separated:
        sl = separated_lengths(p)
        print(f"   Robin lengths: L+ = {sl.l_plus:.6g}, L- = {sl.l_minus:.6g}"
              "   (walls decouple: a box in the strict sense)")
    if flags.scale_invariant:
        print(f"   twist angle theta = {twist_angle(p):.6f}"
              "   (L0 drops out; theta alone fixes the spectrum)")
    print()

print("The scale-invariant sphere has Hermitian U with eigenvalues +1 and -1:")
p = make_u2(np.pi / 2, 0.6j, complex(0.64, -0.48))
U = to_matrix(p)
print("  ||U - U^dagger|| =", np.linalg.norm(U - U.conj().T))
print("  eigenvalues     =", np.round(np.linalg.eigvalsh(U), 12))
