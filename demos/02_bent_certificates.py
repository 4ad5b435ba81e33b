"""
Bent vectors and their exact certificates
=========================================

A vector x with k-th root of unity entries is H-bent when every entry of
the transform H x has squared modulus n.  Special bent vectors reproduce
themselves: self-dual ones satisfy H x = u sqrt(n) x and conjugate
self-dual ones H x = u sqrt(n) conj(x), with u a root of unity times a
rational scale.  check_bent decides all three properties exactly.
"""

from butson.bent import (
    check_bent,
    circulant_bent_bridge,
    ksw_vector,
    search_bent,
    tensor_bent,
    tensor_corollary_check,
)
from butson.bush import bush_circulant
from butson.matrices import LogVector, character_table, fourier_matrix, kronecker, verify_hadamard

# The quadratic form x(c, c') = zeta^(c . c') gives a conjugate self-dual
# bent vector on the character table of C_k^m for every k and even m.
h = character_table([3, 3])
x = ksw_vector(3, 2)
cert = check_bent(h, x)
print("KSW vector on F(C_3^2):", x.entries)
print("certificate kind:", cert.kind)
print("conjugate self-dual unit:", cert.conjugate_self_dual_unit)
print("dual entry orders:", cert.dual_entry_orders)

# Exhaustive search over all 3^9 = 19683 candidates streams every hit
# with its candidate index; the stream is identical for any worker count.
hits = list(search_bent(h, mode="conjugate_self_dual", budget=3**9, workers=1))
print("\nconjugate self-dual vectors in the full space:", len(hits))
print("first three hits:")
for hit in hits[:3]:
    print(f"  {hit.index}: {hit.vector.entries}")
assert any(hit.vector == x for hit in hits)
print("the KSW vector is among them.")

# The tensor constructions: phi(H), H read row by row, is conjugate self-dual
# for H* (x) H*, and phi(M) is self-dual for H (x) conj(H) whenever H M = M H,
# here with M = H.  Each certificate is exact.
f3 = fourier_matrix(3)
cert = tensor_corollary_check(f3, variant=1)
print("\nphi(F(C_3)) for F(C_3)* (x) F(C_3)*:", cert.kind, "unit", cert.unit)
cert = tensor_corollary_check(f3, f3, variant=2)
print("phi(F(C_3)) for F(C_3) (x) conj(F(C_3)):", cert.kind, "unit", cert.unit)
# A symmetric M with H M* = M H* makes phi(M) conjugate self-dual for
# conj(H) (x) H*; the Bush matrix B_1 at p = 3 is amicable with itself.
b1 = bush_circulant(3, 1)
cert = tensor_corollary_check(b1, b1, variant=3)
print("phi(B_1) for conj(B_1) (x) B_1*:", cert.kind, "unit", cert.unit)

# Conjugate self-dual bent vectors compose: the KSW vector tensored with
# itself is conjugate self-dual for F(C_3^2) (x) F(C_3^2), of order 81.
cert = check_bent(kronecker(h, h), tensor_bent(x, x))
print("\nKSW (x) KSW for F(C_3^2) (x) F(C_3^2):", cert.kind, "unit", cert.unit)

# x is bent for F(C_n) exactly when the circulant matrix with first column x
# is Hadamard; circulant_bent_bridge lifts both to phase lcm(n, k).
print("\ncirculant with first column x is Hadamard <=> x is bent for F(C_n):")
for v in (LogVector(3, (0, 0, 1)), LogVector(2, (0, 0, 0, 1)), LogVector(2, (0, 0, 0, 0))):
    circ, cert = circulant_bent_bridge(v)
    print(f"  x = {v.entries} (phase {v.phase}): Hadamard {verify_hadamard(circ)}, {cert.kind}")
