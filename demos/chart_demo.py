"""The affine chart at a fixed point: coordinates, matrix pattern, weights.

The chart at beta is an affine space of dimension n(n+1)/2 realized as a
space of 2n x n matrices: identity rows at the positions of beta, and an
antidiagonally-symmetric block of coordinates on the complementary rows.
"""

from lgrass import (ChartIndexSet, IsotropicIndex, coordinate_weight_h,
                    coordinate_weight_k, enumerate_ssyt, sigma,
                    subspace_of_tableau)
from lgrass.render import ascii_chart_matrix

beta = IsotropicIndex.from_signed(4, (1, 4, -3, -2))
print("rank 4, beta =", beta, " beta' =", beta.complement().values)

pairs = ChartIndexSet(beta)
print(f"|R_beta| = {len(pairs)} coordinate pairs:")
print("  ", " ".join(f"({a},{b})" for a, b in pairs))
print()
print("matrix pattern (rows 1..8, columns indexed by beta):")
print(ascii_chart_matrix(beta))
print()

# Torus weights of the coordinates, for a rank-3 point.
beta3 = IsotropicIndex.from_signed(3, (3, -2, -1))
print("weights at", beta3, ":")
for a, b in ChartIndexSet(beta3):
    wk = coordinate_weight_k(a, b, 3)
    wh = coordinate_weight_h(a, b, 3)
    print(f"  y[{a},{b}]  K-weight {wk.pretty():>12}   H-weight {wh.pretty()}")
print()

# Tableaux cut out coordinate subspaces; their classes assemble restrictions.
lam, mu = (2,), sigma(beta3)
for t in enumerate_ssyt(lam, mu):
    spec = subspace_of_tableau(t, beta3)
    print(f"tableau {t!r} cuts {spec.cut}, class {spec.class_k().pretty()}")
