"""Exact arithmetic in Z[zeta_k], the ring of k-th cyclotomic integers.

Elements are stored in the group-ring basis: a length-k integer vector whose
j-th entry is the coefficient of zeta_k^j, so k is read off the length of the
coefficient axis and is never passed beside it.  That basis is redundant (the
power basis has only phi(k) coordinates), but conjugation is an index
permutation and the Hermitian inner products of unit vectors are plain entry
counts there, so all hot paths stay permutation-and-add.  Equality and other
decisions reduce to the canonical representative: the remainder modulo the
k-th cyclotomic polynomial, re-expanded with zeros in positions >= phi(k).

One routine, reduce, does every reduction: a product with the table
reduction_matrix(k) in the dtype of its input.  canonical pads it; CycInt.reduce,
the one canonical spelling of a CycInt that hashing and printing read, runs
canonical on object arrays of Python integers, so its arithmetic is exact at
every scale and never touches floating point.
Reduction is linear, so A = B exactly when A - B reduces to zero: is_zero is
the one test of an exact identity, a difference reduced once.  One rule,
check_exact, decides exactness: callers state the bound their integers stay
within and get back the first candidate dtype that holds it, or an error.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable

import numpy as np

from .numtheory import check_phase, divisors, factorize, moebius, totient


def _times_binomial(c: list[int], d: int) -> list[int]:
    """c * (x^d - 1): a shift by d places and a subtraction."""
    return [a - b for a, b in zip([0] * d + c, c + [0] * d)]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, constant term first: the monic minimal polynomial
    of zeta_k, of degree phi(k), as the Moebius product of (x^d - 1)^mu(k/d)
    over d | k.  The factors with mu = 1 are multiplied in first; each factor
    with mu = -1 then divides the product exactly, its quotient q read off
    p = q (x^d - 1) by the recurrence q[i] = q[i - d] - p[i]."""
    if k < 1:
        raise ValueError(f"order must be positive, got {k}")
    mu = {d: moebius(k // d) for d in divisors(k)}
    phi = [1]
    for d in (d for d in mu if mu[d] == 1):
        phi = _times_binomial(phi, d)
    for d in (d for d in mu if mu[d] == -1):
        q = [0] * d
        for c in phi[: len(phi) - d]:
            q.append(q[-d] - c)
        if _times_binomial(q[d:], d) != phi:
            raise AssertionError(f"x^{d}-1 does not divide the Moebius product for Phi_{k}")
        phi = q[d:]
    if len(phi) - 1 != totient(k):
        raise AssertionError(f"Phi_{k} has degree {len(phi) - 1}, expected {totient(k)}")
    return tuple(phi)


@lru_cache(maxsize=None)
def reduction_matrix(k: int) -> np.ndarray:
    """The read-only k x phi(k) int64 matrix whose row j is x^j mod Phi_k, which
    reduce multiplies by."""
    low = np.array(cyclotomic_polynomial(k)[:-1], dtype=np.int64)  # Phi_k = x^phi(k) + low
    m = np.eye(k, len(low), dtype=np.int64)
    for j in range(len(low), k):
        # multiply the previous row by x and fold x^phi(k) = -low
        m[j, 1:] = m[j - 1, :-1]
        m[j] -= m[j - 1, -1] * low
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def max_reduction(k: int) -> int:
    """max|reduction_matrix(k)|: reducing coefficients whose magnitudes sum to s
    gives no coefficient past max_reduction(k) * s."""
    return int(np.abs(reduction_matrix(k)).max())


def exact_limit(dtype) -> int:
    """Integers of smaller magnitude are exact in dtype: floats hold them below
    2**(mantissa bits + 1); signed ints are held two bits short of their width
    (2**62 for int64) and unsigned ints one bit short (2**7 for uint8), which
    leaves headroom for one more addition."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return 2 ** (np.finfo(dtype).nmant + 1)
    return 2 ** (np.iinfo(dtype).bits - (dtype.kind == "i") - 1)


def check_exact(bound: int, *dtypes):
    """The one exactness rule: the first of dtypes that holds every integer of
    magnitude up to bound, result or partial sum, below its exact_limit; object
    (Python ints) holds any.  Raise ValueError, naming the last, when none does."""
    for dtype in dtypes:
        if dtype is object or bound < exact_limit(dtype):
            return dtype
    bits = exact_limit(dtype).bit_length() - 1
    raise ValueError(f"{bound} passes the exact integer range of {np.dtype(dtype)}, 2**{bits}")


def reduce(c: np.ndarray) -> np.ndarray:
    """The remainders mod Phi_k of a batch of coefficient rows c (shape (..., k)),
    shape (..., phi(k)) in c's dtype: the one product with reduction_matrix(k).
    Object arrays of Python ints are exact at any size; other dtypes are the
    caller's to clear with check_exact: no partial sum of a reduced row passes
    max_reduction(k) times the sum of the row's magnitudes."""
    return c @ reduction_matrix(c.shape[-1]).astype(c.dtype, copy=False)


def canonical(c: np.ndarray) -> np.ndarray:
    """Canonical form of a batch of coefficient rows (shape (..., k), k the length of
    the last axis) in c's dtype: reduce(c), zero-padded to length k."""
    red = reduce(c)
    out = np.zeros(c.shape, dtype=c.dtype)
    out[..., : red.shape[-1]] = red
    return out


def is_zero(c: np.ndarray) -> bool:
    """Is every coefficient row of c (shape (..., k)) zero in Z[zeta_k]?  Reduced in
    c's dtype, as by reduce."""
    return not reduce(c).any()


def square_root(n: int, k: int) -> CycInt | None:
    """+sqrt(n) as an element of Z[zeta_k], or None when Q(zeta_k) does not hold it.

    Write n = a^2 m with m squarefree.  For an odd prime p the Gauss sum
    g_p = sum_x (x|p) zeta_p^x is sqrt(p) when p = 1 mod 4 and i sqrt(p) when
    p = 3 mod 4, and zeta_8 + zeta_8^-1 = sqrt(2); so sqrt(n) is a (-i)^c times
    the g_p over the odd p | m, times sqrt(2) for even m, c counting the p = 3
    mod 4.  That lies in Q(zeta_k) exactly when the conductor of Q(sqrt(m))
    divides k: every odd p | m divides k, 4 | k when c is odd, 8 | k when m is even.
    The product is left unreduced, so its coefficients sum to at most n in magnitude.
    """
    factors = factorize(n)
    odd = [p for p, e in factors.items() if e % 2 and p > 2]
    c = sum(p % 4 == 3 for p in odd)
    even = factors.get(2, 0) % 2
    if k % (prod(odd) * (8 if even else 4 if c % 2 else 1)):
        return None
    root = CycInt.integer(k, prod(p ** (e // 2) for p, e in factors.items()) * (-1) ** (c // 2))
    for p in odd:
        gauss = [0] * k
        for x in range(1, p):
            gauss[x * k // p] = 1 if pow(x, (p - 1) // 2, p) == 1 else -1  # Euler's criterion
        root = root * CycInt(gauss)
    if c % 2:
        root = root.times_root(3 * k // 4)  # -i
    if even:
        root = root * (CycInt.root(k, k // 8) + CycInt.root(k, -k // 8))
    return root


class CycInt:
    """An element of Z[zeta_k] in the group-ring basis, k = phase = len(coeffs).

    Immutable.  Arithmetic never reduces; equality, hashing and norm tests
    reduce modulo Phi_k first, so two representations of the same ring
    element always compare equal.
    """

    __slots__ = ("phase", "coeffs")

    def __init__(self, coeffs: Iterable[int]):
        c = tuple(map(int, coeffs))
        object.__setattr__(self, "phase", check_phase(len(c)))
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycInt is immutable")

    def __reduce__(self):
        return CycInt, (self.coeffs,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def integer(cls, phase: int, value: int) -> CycInt:
        return cls((value,) + (0,) * (check_phase(phase) - 1))

    @classmethod
    def root(cls, phase: int, exponent: int) -> CycInt:
        """zeta_phase ** exponent."""
        c = [0] * check_phase(phase)
        c[exponent % phase] = 1
        return cls(c)

    # -- ring operations ---------------------------------------------------

    def _same_phase(self, other: CycInt) -> None:
        if self.phase != other.phase:
            raise ValueError(f"phase mismatch: {self.phase} vs {other.phase}")

    def __add__(self, other: CycInt) -> CycInt:
        self._same_phase(other)
        return CycInt(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CycInt:
        return CycInt(tuple(-a for a in self.coeffs))

    def __mul__(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            return CycInt(tuple(a * other for a in self.coeffs))
        self._same_phase(other)
        k = self.phase
        out = [0] * k
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % k] += a * b
        return CycInt(out)

    __rmul__ = __mul__

    def times_root(self, exponent: int) -> CycInt:
        """Multiply by zeta^exponent: a cyclic shift of the coefficients."""
        k = self.phase
        t = exponent % k
        if t == 0:
            return self
        return CycInt(self.coeffs[-t:] + self.coeffs[:-t])

    def conj(self) -> CycInt:
        """Complex conjugate: coefficient at j moves to (k - j) mod k."""
        k = self.phase
        c = self.coeffs
        return CycInt(tuple(c[(k - j) % k] for j in range(k)))

    def norm_sq(self) -> CycInt:
        """z * conj(z), canonically reduced; a rational integer for |z|^2 in Z."""
        return (self * self.conj()).reduce()

    # -- canonical form and predicates --------------------------------------

    def reduce(self) -> CycInt:
        """Canonical representative modulo Phi_k: the remainder, zero-padded to length k."""
        return CycInt(canonical(np.array(self.coeffs, dtype=object)).tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = CycInt.integer(self.phase, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.phase != other.phase:
            return False
        return is_zero(np.array([a - b for a, b in zip(self.coeffs, other.coeffs)], dtype=object))

    def __hash__(self) -> int:
        return hash(self.reduce().coeffs)  # its length is the phase

    def embed(self, new_phase: int) -> CycInt:
        """The same ring element expressed in Z[zeta_new]: zeta_k -> zeta_new^(new/k)."""
        k = self.phase
        if new_phase % k != 0:
            raise ValueError(f"phase {k} does not divide {new_phase}")
        step = new_phase // k
        c = [0] * new_phase
        for j, a in enumerate(self.coeffs):
            c[j * step] += a
        return CycInt(c)

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"CycInt({self.coeffs})"

    def __str__(self) -> str:
        terms = []
        for j, a in enumerate(self.reduce().coeffs):
            if a == 0:
                continue
            mag = "" if abs(a) == 1 and j > 0 else str(abs(a))
            var = "" if j == 0 else ("z" if j == 1 else f"z^{j}")
            sep = "*" if mag and var else ""
            term = f"{mag}{sep}{var}"
            terms.append(("- " if a < 0 else "+ ") + term)
        if not terms:
            return "0"
        head = terms[0].replace("+ ", "").replace("- ", "-")
        return " ".join([head] + terms[1:])
