"""
Arithmetic obstructions to bent vectors
=======================================

A bent vector forces |(Hx)_i|^2 = n, an equation in the cyclotomic
integers Z[zeta_k].  When a prime p dividing n is self-conjugate mod k,
ideal arithmetic forces the p-part of n to be an even power; phases 3
and 4 add an entry-shape constraint.  These predicates rule out whole
parameter pairs without any search.
"""

from butson.numtheory import (
    bent_obstructions,
    circulant_real_obstruction,
    is_self_conjugate_prime,
    splitting_profile,
)

# 5 is self-conjugate mod 13: some power of 5 is -1 mod 13.
print("5 self-conjugate mod 13:", is_self_conjugate_prime(5, 13))
profile = splitting_profile(5, 13)
print("splitting of 5 in Z[zeta_13]: f =", profile.f, " g =", profile.g,
      " ramification =", profile.ramification_exponent)

# Hence no bent vector (indeed no matrix solution) exists at n=5, k=13:
# the 5-part of 5 is an odd power.
report = bent_obstructions(5, 13)
print("\nobstruction report for (n, k) = (5, 13):")
for v in report.verdicts:
    status = "violated" if v.violated else ("clear" if v.applicable else "n/a")
    print(f"  {v.rule:<16} {status:<9} {v.witness}")
print("any violated:", report.any_violated)

# Clear parameters stay clear: BH(9, 3) has verified bent vectors.
print("\n(9, 3) violated:", bent_obstructions(9, 3).any_violated)

# Real circulant Hadamard matrices of order 4p^2, p = 3 mod 8 prime,
# cannot exist; 36 = 4 * 3^2 is the first case.
print("circulant_real_obstruction(36):", circulant_real_obstruction(36))
