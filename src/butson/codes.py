"""Z_k codes attached to Butson Hadamard matrices and their covering radii.

A Z_k code of length n is a nonempty set of vectors in Z_k^n.  From a
Hadamard matrix H in log form we take R_H, the rows of L(H), and the
translate-closed code C_H = union over alpha of (R_H + alpha 1).  The
covering radius r(C) = max over ambient x of min over codewords of the
Hamming distance is computed by an exhaustive scan through the digit-sum
kernel of bent: coordinate j with value v adds [w_j != v] to the distance of
every codeword w, so an ambient vector costs one addition and one comparison
per codeword on top of its prefix's distances.  The sampled radius sums the
same table over blocks of seeded draws.

Exact arithmetic backs the bound computations: the upper bound
(q-1)n/q - sqrt(n)/q and the phase-3 lower bound ceil((2/3)(n - sqrt(n)))
are evaluated as rational/surd expressions with integer floors and ceilings
decided by integer-square comparisons, never by floating point.  For phase 3
the Hamming distance between log vectors is also available through the
identity d(L(v), L(w)) = (2/3)(n - R<v, w>), where the real part of the
inner product z = s0 + s1 zeta + s2 zeta^2 is the rational s0 - (s1+s2)/2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import ceil, isqrt
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bent import block_size, check_bent, digit_blocks, digit_sum, fan_out, index_digits, suffix_table
from .cyclotomic import check_exact, exact_limit
from .matrices import LogMatrix, LogVector, NotHadamardError, verify_hadamard
from .numtheory import is_prime


class BudgetExceededError(ValueError):
    """The ambient space is too large for an exhaustive scan."""


class ZkCode:
    """A set of distinct words in Z_k^n with cached distance statistics."""

    def __init__(self, modulus: int, words: Iterable[Sequence[int]]):
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {modulus}")
        normalized = [tuple(int(e) % modulus for e in w) for w in words]
        if not normalized:
            raise ValueError("a code must contain at least one word")
        distinct = tuple(dict.fromkeys(normalized))
        lengths = {len(w) for w in distinct}
        if len(lengths) != 1:
            raise ValueError(f"words of mixed lengths {sorted(lengths)}")
        self.modulus = modulus
        self.words = distinct
        self.length = len(distinct[0])
        self.duplicates_removed = len(normalized) - len(distinct)
        self._word_set = frozenset(distinct)
        self._min_distance: int | None = None

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: Sequence[int]) -> bool:
        return tuple(int(e) % self.modulus for e in w) in self._word_set

    def __repr__(self) -> str:
        return f"ZkCode(length={self.length}, modulus={self.modulus}, size={len(self.words)})"

    def word_array(self) -> np.ndarray:
        return np.array(self.words, dtype=np.int64)


def hamming_distance(v: Sequence[int], w: Sequence[int]) -> int:
    """Number of coordinates where v and w differ."""
    if len(v) != len(w):
        raise ValueError(f"length mismatch: {len(v)} vs {len(w)}")
    return sum(1 for a, b in zip(v, w) if a != b)


def code_from_matrix(h: LogMatrix) -> tuple[ZkCode, ZkCode]:
    """The row code R_H and its translate closure C_H.

    Rows of a Hadamard matrix never differ by a constant vector (that would
    make their inner product a nonzero multiple of a root of unity), so for
    Hadamard input C_H always has exactly phase * order words; the
    deduplication in ZkCode is a formality.
    """
    if not verify_hadamard(h):
        raise NotHadamardError(f"matrix of order {h.order} is not Butson Hadamard")
    k = h.phase
    rows = [tuple(int(e) for e in row) for row in h.entries]
    r_code = ZkCode(k, rows)
    translates = [tuple((e + alpha) % k for e in row) for row in rows for alpha in range(k)]
    return r_code, ZkCode(k, translates)


def min_distance(c: ZkCode) -> int:
    """Exact minimum pairwise Hamming distance; needs at least two words."""
    if len(c) < 2:
        raise ValueError("minimum distance needs at least two words")
    if c._min_distance is None:
        w = c.word_array()
        best = c.length
        for i in range(len(c) - 1):
            d = int((w[i + 1 :] != w[i]).sum(axis=1).min())
            if d < best:
                best = d
        c._min_distance = best
    return c._min_distance


class CoveringRadiusResult(NamedTuple):
    value: int
    exact: bool


def _scan_radius_range(start: int, stop: int, head: np.ndarray, table: np.ndarray) -> int:
    """Largest min-distance over ambient indices [start, stop), lexicographic."""
    return max(int(sums.min(axis=0).max()) for _, sums in digit_blocks(start, stop, head, table))


def covering_radius(
    c: ZkCode,
    strategy: str = "exhaustive",
    *,
    budget: int = 2**30,
    samples: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> CoveringRadiusResult:
    """Covering radius of c, exact or as a certified lower bound.

    The exhaustive strategy scans all modulus**length ambient vectors (guarded
    by `budget`, raising BudgetExceededError otherwise) and returns the exact
    radius.  The sampled strategy draws `samples` ambient vectors from the
    seeded generator and returns the largest observed min-distance, which is
    a lower bound on the radius and is flagged exact=False.  Multi-worker
    scans partition the ambient space into contiguous index ranges and reduce
    by max, so the result does not depend on the worker count.  Distances and
    their sums are at most length, held in int16 or int32 under check_exact.
    """
    k, n = c.modulus, c.length
    dtype = np.int16 if n < exact_limit(np.int16) else np.int32
    check_exact(n, dtype)
    # contrib[j, v, w] = [w_j != v]: the distance coordinate j adds to codeword w
    contrib = (c.word_array().T[:, None, :] != np.arange(k)[:, None]).astype(dtype)
    if strategy == "exhaustive":
        total = k**n
        if total > budget:
            raise BudgetExceededError(
                f"ambient space {k}^{n} = {total} vectors exceeds budget {budget}"
            )
        head, table = suffix_table(contrib, dtype)
        scan = partial(_scan_radius_range, head=head, table=table)
        return CoveringRadiusResult(max(fan_out(scan, total, workers)), True)
    if strategy == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be positive, got {samples}")
        rng = random.Random(seed)
        step = block_size(len(c))
        best = 0
        for lo in range(0, samples, step):
            draws = [rng.randrange(k) for _ in range(min(step, samples - lo) * n)]
            x = np.array(draws).reshape(-1, n).T
            best = max(best, int(digit_sum(contrib, x, dtype).min(axis=0).max()))
        return CoveringRadiusResult(best, False)
    raise ValueError(f"unknown strategy {strategy!r}; use 'exhaustive' or 'sampled'")


class LeducqBound(NamedTuple):
    """Exact value of (q-1)n/q - sqrt(n)/q as rational_part + root_coefficient*sqrt(radicand)."""

    rational_part: Fraction
    root_coefficient: Fraction
    radicand: int
    floor: int

    def __float__(self) -> float:
        return float(self.rational_part) + float(self.root_coefficient) * self.radicand**0.5


def leducq_upper_bound(n: int, q: int) -> LeducqBound:
    """Upper bound (q-1)n/q - sqrt(n)/q on the covering radius of a
    self-complementary strength-2 code from a BH(n, q), q an odd prime.

    The floor is exact: with T = (q-1)n the bound is (T - sqrt(n))/q, and
    floor((T - sqrt(n))/q) = m iff mq <= T - sqrt(n), decided by comparing
    (T - mq)^2 against n in integers.
    """
    if not is_prime(q) or q == 2:
        raise ValueError(f"q must be an odd prime, got {q}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    t = (q - 1) * n
    s = isqrt(n)
    if s * s == n:
        fl = (t - s) // q
    else:
        # (t - s - 1)/q < value < (t - s)/q, so the floor is one of two
        # adjacent integers; m <= value iff t - mq > sqrt(n), an integer
        # comparison of squares (equality impossible for non-square n)
        hi = (t - s) // q
        fl = hi if t - hi * q >= 0 and (t - hi * q) ** 2 > n else hi - 1
    return LeducqBound(Fraction(t, q), Fraction(-1, q), n, fl)


def ternary_real_inner(v: Sequence[int], w: Sequence[int]) -> Fraction:
    """Real part of <zeta^v, zeta^w> over phase 3, as an exact rational.

    The inner product is s0 + s1 zeta + s2 zeta^2 where s_j counts the
    coordinates with v_i - w_i = j mod 3; its real part is s0 - (s1+s2)/2.
    """
    if len(v) != len(w):
        raise ValueError(f"length mismatch: {len(v)} vs {len(w)}")
    counts = [0, 0, 0]
    for a, b in zip(v, w):
        counts[(a - b) % 3] += 1
    return Fraction(counts[0]) - Fraction(counts[1] + counts[2], 2)


def ternary_distance(v: Sequence[int], w: Sequence[int]) -> int:
    """Hamming distance recovered from the exact real part:
    d = (2/3)(n - R<zeta^v, zeta^w>), always an integer."""
    d = Fraction(2, 3) * (len(v) - ternary_real_inner(v, w))
    if d.denominator != 1:
        raise ArithmeticError(f"non-integral distance {d}")
    return int(d)


def _ceil_two_thirds_gap(n: int) -> int:
    """Exact ceil((2/3)(n - sqrt(n))), by integer-square comparison when
    sqrt(n) is irrational."""
    s = isqrt(n)
    if s * s == n:
        return ceil(Fraction(2 * (n - s), 3))
    # (2/3)(n - s - 1) < value < (2/3)(n - s), so the ceiling is one of two
    # adjacent integers; m >= value iff 2 sqrt(n) >= 2n - 3m, an integer
    # comparison of squares (equality impossible for non-square n)
    hi = ceil(Fraction(2 * (n - s), 3))
    lo = hi - 1
    if 2 * n - 3 * lo <= 0 or (2 * n - 3 * lo) ** 2 < 4 * n:
        return lo
    return hi


class BentBound(NamedTuple):
    """Lower bound on r(C_H) from a bent vector x, with the witness -x and its
    exact distance to every codeword of C_H."""

    bound: int
    distances: tuple[int, ...]
    witness: tuple[int, ...]

    @property
    def min_distance(self) -> int:
        return min(self.distances)


def bent_lower_bound(h: LogMatrix, x: LogVector) -> BentBound:
    """Certified lower bound ceil((2/3)(n - sqrt(n))) <= r(C_H) for phase 3.

    Entry i of Hx is sum_j zeta^(h_ij + x_j) = <r_i, -x> for row r_i, so a bent
    x has |<r, -x>|^2 = n against every row, hence against every word of C_H
    (translates only rotate the inner product by a root of unity).  Then
    R<w, -x> <= sqrt(n) and the distance identity puts the witness -x at
    distance at least (2/3)(n - sqrt(n)) from the whole code.  x itself can be
    a codeword.  The returned distances are from the witness, computed through
    the exact rational real parts, one per codeword of C_H in code order.
    """
    if h.phase != 3:
        raise ValueError(f"the distance identity needs phase 3, got {h.phase}")
    cert = check_bent(h, x)
    if not cert.bent:
        raise ValueError("x is not a bent vector for h")
    n = h.order
    _, c_code = code_from_matrix(h)
    witness = tuple(-e % 3 for e in x.entries)
    distances = tuple(ternary_distance(witness, w) for w in c_code.words)
    return BentBound(_ceil_two_thirds_gap(n), distances, witness)


def is_self_complementary(c: ZkCode) -> bool:
    """True iff the code is closed under adding alpha*1 for every alpha."""
    word_set = set(c.words)
    k = c.modulus
    return all(
        tuple((e + alpha) % k for e in w) in word_set for w in c.words for alpha in range(1, k)
    )


def has_strength_2(c: ZkCode) -> bool:
    """True iff every ordered coordinate pair shows each value pair in Z_k^2
    equally often over the codewords."""
    k = c.modulus
    m = len(c)
    if c.length < 2:
        return False
    if m % (k * k) != 0:
        return False
    target = m // (k * k)
    w = c.word_array()
    for i in range(c.length - 1):
        for j in range(i + 1, c.length):
            counts = np.bincount(w[:, i] * k + w[:, j], minlength=k * k)
            if not (counts == target).all():
                return False
    return True


def reed_muller_1(q: int, m: int, *, budget: int = 2**22) -> ZkCode:
    """First-order generalized Reed-Muller code: all affine functions
    a0 + sum a_i x_i on the lexicographically ordered points of Z_q^m.

    The result is a (q^m, q^{m+1}, (q-1) q^{m-1}) code: a nonzero affine
    function with nonzero linear part vanishes on exactly q^{m-1} points,
    and a nonzero constant vanishes nowhere, so the minimum weight over this
    linear code is q^m - q^{m-1}.  All three parameters are asserted after
    construction.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if q ** (2 * m + 1) > budget:
        raise BudgetExceededError(
            f"{q}^{m + 1} words of length {q}^{m} = {q ** (2 * m + 1)} entries exceed budget {budget}"
        )
    points = index_digits(np.arange(q**m), q, m)  # lexicographic, most significant digit first
    coeffs = index_digits(np.arange(q ** (m + 1)), q, m + 1)
    words = ((coeffs[0][:, None] + coeffs[1:].T @ points) % q).tolist()
    code = ZkCode(q, words)
    assert code.length == q**m and len(code) == q ** (m + 1)
    assert min_distance(code) == (q - 1) * q ** (m - 1)
    return code


def schmidt_rho(q: int, m: int) -> int:
    """Covering radius q^{m-1}(q-1) - q^{m/2-1} of the first-order
    generalized Reed-Muller code, for prime q and even m."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if m % 2 != 0 or m < 2:
        raise ValueError(f"the formula needs even m >= 2, got {m}")
    return q ** (m - 1) * (q - 1) - q ** (m // 2 - 1)
