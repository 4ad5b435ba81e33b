"""
Covering radii of codes built from Butson matrices
==================================================

The code C_H of a BH(n, k) collects the exponent vectors of all scalar
multiples of rows: kn words of length n over Z_k.  For phase 3
a bent vector squeezes the exhaustive covering radius between an exact
lower bound (2/3)(n - sqrt(n)) and an upper bound (T - sqrt(n))/q, both
computed as exact surds.
"""

from butson import (
    bent_lower_bound,
    character_table,
    code_from_matrix,
    covering_radius,
    ksw_vector,
    leducq_upper_bound,
    min_distance,
    reed_muller_1,
    schmidt_rho,
)

h = character_table([3, 3])
_, c_h = code_from_matrix(h)
print("C_H for BH(9, 3):", len(c_h), "words of length", c_h.length,
      "over Z_3, min distance", min_distance(c_h))

# Exhaustive scan of all 3^9 ambient vectors, exact by construction.
radius = covering_radius(c_h, "exhaustive", workers=1)
print("covering radius:", radius.value, "(exact:", radius.exact, ")")

lower = bent_lower_bound(h, ksw_vector(3, 2))
upper = leducq_upper_bound(9, 3)
print("bent lower bound:", lower.bound)
print("upper bound:", f"{upper.rational_part} + {upper.root_coefficient}"
      f"*sqrt({upper.radicand})", "floor", upper.floor)
assert lower.bound <= radius.value <= upper.floor

# Sampling gives a certified lower bound when the ambient space is
# too large to scan; the seed makes it reproducible.
sampled = covering_radius(c_h, "sampled", samples=500, seed=7)
print("sampled lower bound:", sampled.value, "(exact:", sampled.exact, ")")

# First-order generalized Reed-Muller codes give the comparison point:
# their covering radius has a closed form for even m.
rm = reed_muller_1(3, 2)
print("\nR_3(1,2):", len(rm), "words of length", rm.length,
      "min distance", min_distance(rm))
print("covering radius:", covering_radius(rm, "exhaustive").value,
      "= closed form", schmidt_rho(3, 2))
