"""
Bush-type matrices, projector algebra, and a falsified prediction
=================================================================

Bush-type BH(p^2, p) matrices are built from the rank-one projectors
R_a = v_a v_a* of Fourier characters: the block circulant B_a places
R_((j-i)a) at block (i, j).  The blocks obey an exact algebra, and the
columns of a partner matrix are conjugate self-dual bent vectors.

Scaling the diagonal blocks by zeta^(u_i) preserves the Hadamard
property.  A block-constant candidate vector was predicted to stay
self-dual after scaling; exact certification shows that prediction
fails for every non-constant u, while its conjugate self-dual twin
survives unconditionally.  bush_modify reports the discrepancy rather
than assuming it away.
"""

from butson.bent import check_bent
from butson.bush import (
    bush_circulant,
    bush_modify,
    bush_quaternary_bents,
    bush_real_order4,
    conjugate_self_bent_check,
    verify_projector_algebra,
)
from butson.matrices import LogVector, verify_hadamard

print("projector algebra exact for p = 3, 5, 7:",
      all(verify_projector_algebra(p) for p in (3, 5, 7)))

b1 = bush_circulant(3, 1)
print("\nB_1 at p = 3: order", b1.order, "phase", b1.phase)
cert = check_bent(b1, b1.column(0))
print("first column certificate:", cert.kind, "unit", cert.unit)

# Diagonal scaling with constant u: both predicted vectors certify.
result = bush_modify(b1, (1, 1, 1))
print("\nu = (1, 1, 1):")
print("  self-dual candidate:", result.self_dual_certificate.kind)
print("  conjugate candidate:", result.conjugate_self_dual_certificate.kind)
print("  falsified:", result.falsified)

# Non-constant u: the matrix is still Hadamard and the conjugate
# self-dual prediction holds, but the self-dual candidate is only bent.
# Block row i of H x carries the ratio n zeta^(u_i), which cannot be a
# single scalar unless all u_i agree.
result = bush_modify(b1, (1, 2, 0))
print("\nu = (1, 2, 0):")
print("  still Hadamard:", verify_hadamard(result.matrix))
print("  self-dual candidate:", result.self_dual_certificate.kind)
print("  conjugate candidate:", result.conjugate_self_dual_certificate.kind,
      "unit", result.conjugate_self_dual_certificate.unit)
print("  falsified:", result.falsified)

# The scaled matrix is not short of self-dual vectors, though: vectors
# whose blocks are nontrivial characters are annihilated by the all-ones
# diagonal blocks, so the scaling never sees them.
chi = LogVector(3, (0, 1, 2, 0, 1, 2, 0, 1, 2))
print("\ncharacter-patterned vector on the scaled matrix:",
      check_bent(result.matrix, chi).kind)

# Quaternary Bush-type BH(4, 4): each of the 2^2 block-constant vectors with
# entries zeta_4 or -zeta_4 (log 1 or 3) is self-dual bent for H and
# conjugate self-dual bent for -H; bush_quaternary_bents certifies both.
print("\nquaternary bent vectors of the order-4 Bush matrix:")
for x in bush_quaternary_bents(bush_real_order4()):
    print(" ", x.entries)

# M M = sqrt(n) conj(M) makes every column of M a conjugate self-dual
# M-bent vector.  B_1 meets the identity at p = 3, where its first column
# certified above; at p = 5 it does not, and that column is bent only.
print()
for p in (3, 5):
    b = bush_circulant(p, 1)
    print(f"B_1 at p = {p}: M M = {p} conj(M) {conjugate_self_bent_check(b)}, "
          f"first column {check_bent(b, b.column(0)).kind}")
