"""Independent slow checkers used to pin expected values in the test suite.

Everything here goes through complex floats or brute-force enumeration and is
deliberately written with no reference to the library internals, so agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def complex_value(coeffs, k: int) -> complex:
    """Evaluate a group-ring coefficient vector at zeta_k numerically."""
    return sum(c * cmath.exp(2j * cmath.pi * j / k) for j, c in enumerate(coeffs))


def dual_entry_order_float(coeffs, k: int, n: int, ambient: int, tol: float = 1e-8) -> int | None:
    """Order of z / sqrt(n) as a root of unity of phase `ambient`, z the value of
    coeffs at zeta_k, read off its angle; None when it is no such root."""
    w = complex_value(coeffs, k) / np.sqrt(n)
    t = round(cmath.phase(w) * ambient / (2 * cmath.pi)) % ambient
    if abs(w - cmath.exp(2j * cmath.pi * t / ambient)) > tol:
        return None
    return ambient // math.gcd(ambient, t)


def unit_matrix(entries: np.ndarray, k: int) -> np.ndarray:
    """Complex matrix whose (i, j) entry is zeta_k ** entries[i, j]."""
    return np.exp(2j * np.pi * np.asarray(entries) / k)


def unitary_order_float(entries: np.ndarray, k: int, max_t: int, tol: float = 1e-8) -> int | None:
    """Least t <= max_t with (H / sqrt(n))^t close to I, H = unit_matrix(entries, k), by
    repeated complex products; None when there is none."""
    u = unit_matrix(entries, k)
    u = u / np.sqrt(len(u))
    power = np.eye(len(u))
    for t in range(1, max_t + 1):
        power = power @ u
        if np.allclose(power, np.eye(len(u)), atol=tol):
            return t
    return None


def is_hadamard_float(entries: np.ndarray, k: int, tol: float = 1e-8) -> bool:
    h = unit_matrix(entries, k)
    n = h.shape[0]
    return bool(np.allclose(h @ h.conj().T, n * np.eye(n), atol=tol))


def bent_kinds_float(entries: np.ndarray, k: int, x, tol: float = 1e-8):
    """(bent, self_dual, conjugate_self_dual) for vector x against matrix entries."""
    h = unit_matrix(entries, k)
    n = h.shape[0]
    xv = np.exp(2j * np.pi * np.asarray(x) / k)
    y = h @ xv
    bent = bool(np.allclose(np.abs(y), np.sqrt(n), atol=tol))
    sd = bent and bool(np.allclose(y / xv, (y / xv)[0], atol=tol))
    csd = bent and bool(np.allclose(y * xv, (y * xv)[0], atol=tol))
    return bent, sd, csd


def brute_force_bent_vectors(entries: np.ndarray, k: int):
    """All x in Z_k^n that are bent for the matrix, by float filtering."""
    n = np.asarray(entries).shape[0]
    hits = []
    for x in itertools.product(range(k), repeat=n):
        bent, sd, csd = bent_kinds_float(entries, k, x)
        if bent:
            hits.append((x, sd, csd))
    return hits


def hamming_distance(v, w) -> int:
    """Number of coordinates where v and w differ."""
    if len(v) != len(w):
        raise ValueError(f"length mismatch: {len(v)} vs {len(w)}")
    return sum(1 for a, b in zip(v, w) if a != b)


# For phase 3 the identity d(L(v), L(w)) = (2/3)(n - R<v, w>) recovers the Hamming
# distance from the real part of the inner product z = s0 + s1 zeta + s2 zeta^2,
# the rational s0 - (s1 + s2)/2; codes.bent_lower_bound reads its distances from
# the coefficients of its bent certificate's dual instead, and the tests check the
# two against each other.


def ternary_real_inner(v, w) -> Fraction:
    """Real part of <zeta^v, zeta^w> over phase 3, as an exact rational: s0 - (s1 + s2)/2,
    s_j counting the coordinates with v_i - w_i = j mod 3."""
    if len(v) != len(w):
        raise ValueError(f"length mismatch: {len(v)} vs {len(w)}")
    counts = [0, 0, 0]
    for a, b in zip(v, w):
        counts[(a - b) % 3] += 1
    return Fraction(counts[0]) - Fraction(counts[1] + counts[2], 2)


def ternary_distance(v, w) -> int:
    """Hamming distance recovered from the exact real part: d = (2/3)(n - R<zeta^v, zeta^w>),
    always an integer."""
    d = Fraction(2, 3) * (len(v) - ternary_real_inner(v, w))
    if d.denominator != 1:
        raise ArithmeticError(f"non-integral distance {d}")
    return int(d)


def covering_radius_brute(words: list[tuple[int, ...]], k: int) -> int:
    """Max over ambient space of min Hamming distance to the code, by enumeration."""
    n = len(words[0])
    arr = np.array(words)
    radius = 0
    for v in itertools.product(range(k), repeat=n):
        d = int((arr != np.array(v)).sum(axis=1).min())
        radius = max(radius, d)
    return radius


def difference_counts_brute(a, b, k: int) -> np.ndarray:
    """counts[i, j, t] = #{m : a[i][m] - b[j][m] = t mod k}, by direct loops."""
    return np.array(
        [[[sum((x - y) % k == t for x, y in zip(ra, rb)) for t in range(k)] for rb in b] for ra in a],
        dtype=np.int64,
    ).reshape(len(a), len(b), k)


def product_counts_brute(a, b, k: int) -> np.ndarray:
    """counts[i, j, t] = #{m : a[i][m] + b[m][j] = t mod k}, by direct loops."""
    n = len(b)
    return np.array(
        [[[sum((ra[m] + b[m][j]) % k == t for m in range(n)) for t in range(k)]
          for j in range(len(b[0]))] for ra in a],
        dtype=np.int64,
    ).reshape(len(a), len(b[0]), k)


def strength_2_brute(words, k: int) -> bool:
    """Every pair of coordinates i < j shows each value pair (a, b) in Z_k^2 in
    exactly len(words) / k^2 of the distinct words, counted one by one.  The
    premise needs a pair of coordinates, so a code of length below 2 fails it."""
    n = len(words[0])
    if n < 2:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(k):
                for b in range(k):
                    hits = sum(1 for w in words if w[i] % k == a and w[j] % k == b)
                    if hits * k * k != len(words):
                        return False
    return True


def self_complementary_brute(words, k: int) -> bool:
    """Every translate w + alpha (1, ..., 1) of every word is again a word."""
    present = {tuple(e % k for e in w) for w in words}
    return all(tuple((e + alpha) % k for e in w) in present for w in present for alpha in range(k))


def _poly_mul_brute(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod_brute(num, den):
    """Quotient and remainder (length len(den) - 1) of num by a monic den, lists of
    Python ints, constant term first, by schoolbook long division."""
    rem, d = list(num), len(den) - 1
    quo = [0] * max(1, len(num) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        quo[i - d] = c
        for j, dj in enumerate(den):
            rem[i - d + j] -= c * dj
    return quo, rem[:d]


def multiplicative_order_brute(a: int, m: int) -> int:
    """Least t >= 1 with a^t = 1 mod m, by stepping through the powers of a."""
    t, x = 1, a % m
    while x != 1 % m:
        x = x * a % m
        t += 1
    return t


def _mobius_brute(m: int) -> int:
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def cyclotomic_polynomial_brute(k: int) -> list[int]:
    """Phi_k, constant term first, from the Moebius product prod_{d | k} (x^d - 1)^mu(k/d)."""
    num, den = [1], [1]
    for d in (d for d in range(1, k + 1) if k % d == 0):
        mu, factor = _mobius_brute(k // d), [-1] + [0] * (d - 1) + [1]
        if mu > 0:
            num = _poly_mul_brute(num, factor)
        elif mu < 0:
            den = _poly_mul_brute(den, factor)
    quo, rem = _poly_divmod_brute(num, den)
    assert not any(rem)
    return quo


def reduce_mod_phi_brute(coeffs, k: int) -> tuple[int, ...]:
    """coeffs (constant term first) modulo Phi_k by long division in Python ints,
    zero-padded to length k."""
    _, rem = _poly_divmod_brute([int(c) for c in coeffs], cyclotomic_polynomial_brute(k))
    return tuple(rem) + (0,) * (k - len(rem))
