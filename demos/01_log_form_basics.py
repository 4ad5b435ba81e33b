"""
Log-form matrices: construction, verification, file round trips
================================================================

A Butson Hadamard matrix BH(n, k) has entries that are k-th roots of
unity and satisfies H H* = n I.  Storing the exponent table instead of
the complex entries keeps every check exact.
"""

from butson.fileio import parse_matrix, serialize_matrix
from butson.matrices import fourier_matrix, kronecker, sylvester_matrix, verify_hadamard

# The Fourier matrix of the cyclic group C_n: entry (i, j) is i*j mod n.
f3 = fourier_matrix(3)
print("F(C_3) exponent table:")
for row in f3.rows():
    print("  ", row)
print("Hadamard:", verify_hadamard(f3))

# Sylvester matrices are iterated Kronecker squares of F(C_2).
s3 = sylvester_matrix(3)
print("\nSylvester order", s3.order, "phase", s3.phase,
      "Hadamard:", verify_hadamard(s3))

# Kronecker products multiply orders and take lcm of phases.
prod = kronecker(f3, fourier_matrix(2))
print("\nF(C_3) x F(C_2): order", prod.order, "phase", prod.phase,
      "Hadamard:", verify_hadamard(prod))

# The text format round-trips losslessly: header `BH n k`, one row per line.
text = serialize_matrix(f3, comments=("Fourier matrix of C_3",))
print("\nSerialized:")
print(text)
assert parse_matrix(text, "<demo>") == f3
print("Round trip exact.")
