"""Z_k codes attached to Butson Hadamard matrices and their covering radii.

A Z_k code of length n is a nonempty set of vectors in Z_k^n, held in a ZkCode
as one read-only int64 array.  From a Hadamard matrix H in log form we take
R_H, the rows of L(H), and the translate-closed code C_H = union over alpha of
(R_H + alpha 1).  The covering radius r(C) = max over ambient x of min over
codewords of the Hamming distance is computed by an exhaustive scan through
the digit-sum kernel of bent: coordinate j with value v adds [w_j != v] to the
distance of every codeword w, so an ambient vector costs one addition and one
comparison per codeword on top of its prefix's distances.  A self-complementary
code (closed under adding alpha 1) puts x and x - x_0 1 at the same distance, so
its scan covers only the k**(n-1) vectors with x_0 = 0; the budget still counts
all k**n.  Distances are held in the narrowest of uint8, int16 and int32 that is
exact for the length, so codes shorter than 128 scan one byte per codeword.  The
sampled radius sums the same table over blocks of seeded draws: the values
random.Random(seed).randrange(modulus) gives, coordinate by coordinate, read in
bulk from the generator's 32-bit words, so the modulus must be below 2**32.  A
draw's sum reads one row per group of g coordinates, from a table of the k**g
sums of that group, for the widest g whose tables together hold at most
_BLOCK_BYTES.  A sampled block holds at most _BLOCK_BYTES of sums and at most as
much of draws, one byte each when the modulus is at most 256.

Exact arithmetic backs the bound computations: the upper bound
(q-1)n/q - sqrt(n)/q and the phase-3 lower bound ceil((2/3)(n - sqrt(n)))
are evaluated as rational/surd expressions whose floors and ceilings come
from one integer square root (_floor_surd), never from floating point; the
strength-2 pair counts are float32 matmuls over tiles of coordinates, exact
for codes of under 2**24 words.
"""

from __future__ import annotations

import random
from functools import partial
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bent import _INDICES, block_size, check_bent, digit_blocks, digit_sum, fan_out, index_digits, suffix_table
from .cyclotomic import check_exact
from .matrices import LogMatrix, LogVector, NotHadamardError, _one_hot, verify_hadamard
from .numtheory import is_prime

if TYPE_CHECKING:
    from fractions import Fraction

_TILE_CELLS = 2**19  # float32 cells (2 MiB) of one tile's one-hot and of one tile pair's counts
_RM_ENTRIES = 2**22  # most entries reed_muller_1 builds


class BudgetExceededError(ValueError):
    """The ambient space is too large for an exhaustive scan."""


class ZkCode:
    """The distinct words of a code in Z_k^n, first occurrences in order, as one read-only
    int64 array of shape (size, length); its words are read from it."""

    def __init__(self, modulus: int, words: np.ndarray | Sequence[Sequence[int]]):
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {modulus}")
        array = np.array(words, dtype=np.int64)  # the code's own array, the one copy of words
        array %= modulus
        if array.ndim != 2 or not array.size:
            raise ValueError(f"a code needs one or more words of one positive length, got shape {array.shape}")
        array = _distinct_rows(array, modulus)
        array.flags.writeable = False
        self.modulus = modulus
        self.length = array.shape[1]
        self._array = array
        self._min_distance: int | None = None

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._array.tolist()))

    def __len__(self) -> int:
        return len(self._array)

    def __repr__(self) -> str:
        return f"ZkCode(length={self.length}, modulus={self.modulus}, size={len(self)})"

    def word_array(self) -> np.ndarray:
        return self._array


def _distinct_rows(a: np.ndarray, modulus: int) -> np.ndarray:
    """Distinct rows of a, entries in [0, modulus), first occurrences in order, by one byte sort."""
    small = np.ascontiguousarray(a, dtype=np.min_scalar_type(int(modulus) - 1))
    first = np.unique(small.view(np.dtype((np.void, small.strides[0]))).ravel(), return_index=True)[1]
    return a if len(first) == len(a) else a[np.sort(first)]


def code_from_matrix(h: LogMatrix) -> tuple[ZkCode, ZkCode]:
    """The row code R_H and its translate closure C_H.

    Rows of a Hadamard matrix never differ by a constant vector (that would
    make their inner product a nonzero multiple of a root of unity), so for
    Hadamard input C_H always has exactly phase * order words; the
    deduplication in ZkCode is a formality.
    """
    if not verify_hadamard(h):
        raise NotHadamardError(f"matrix of order {h.order} is not Butson Hadamard")
    k, n = h.phase, h.order
    # row by row, alpha = 0, ..., k - 1, in the narrowest dtype: ZkCode's int64 copy is the only wide one
    narrow = np.min_scalar_type(2 * k - 2)
    translates = h.entries.astype(narrow)[:, None, :] + np.arange(k, dtype=narrow)[:, None]
    return ZkCode(k, h.entries), ZkCode(k, translates.reshape(k * n, n))


def min_distance(c: ZkCode) -> int:
    """Exact minimum pairwise Hamming distance; needs at least two words."""
    if len(c) < 2:
        raise ValueError("minimum distance needs at least two words")
    if c._min_distance is None:
        w = c.word_array()
        c._min_distance = min(int((w[i + 1 :] != w[i]).sum(axis=1).min()) for i in range(len(c) - 1))
    return c._min_distance


class CoveringRadiusResult(NamedTuple):
    value: int
    exact: bool


def _scan_radius_range(start: int, stop: int, head: np.ndarray, table: np.ndarray) -> int:
    """Largest min-distance over ambient indices [start, stop), lexicographic."""
    return max(int(sums.min(axis=0).max()) for _, sums in digit_blocks(start, stop, head, table))


def _randrange_blocks(rng: random.Random, k: int, sizes: Iterable[int]) -> Iterator[np.ndarray]:
    """rng.randrange(k) drawn sizes[0], sizes[1], ... values at a time, the same values
    in the same order, read in bulk for 1 < k < 2**32 and held in the narrowest unsigned
    dtype, one byte each when k <= 256.  randrange(k) keeps the top b = k.bit_length()
    bits of one 32-bit word of the generator, trying the next word while they reach k;
    getrandbits(32 m) holds the next m words, least significant first.  Words are read
    at most 2**14 at a time, so a read adds 64 KiB or so to the block it fills, and
    words read past one block carry over to the next."""
    shift = 32 - k.bit_length()
    pool = np.empty(0, np.min_scalar_type(k - 1))
    for size in sizes:
        pieces, have = [pool], len(pool)
        while have < size:
            m = min(2 * (size - have), 1 << 14)  # 2**(b-1) <= k: half the words or more pass, on average
            words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4") >> shift
            pieces.append(words[words < k].astype(pool.dtype))
            have += len(pieces[-1])
        pool = np.concatenate(pieces)
        yield pool[:size]
        pool = pool[size:]


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
    radius; its indices are int64, so 2**63 or more vectors raise ValueError
    whatever the budget.  A self-complementary code scans only the
    modulus**(length-1) vectors whose first coordinate is 0, and both guards
    still count modulus**length.  The sampled strategy draws `samples` ambient
    vectors, coordinate by coordinate, as random.Random(seed).randrange(modulus)
    would, and returns the largest observed min-distance, which is a lower bound
    on the radius and is flagged exact=False; it needs a modulus below 2**32.
    Multi-worker scans partition the ambient space into contiguous index ranges
    and reduce by max, so the result does not depend on the worker count.
    Distances and their sums are at most length, held in uint8, int16 or int32,
    the first that check_exact finds holds the length.  Every argument is
    checked before anything is allocated.
    """
    k, n = int(c.modulus), c.length
    dtype = check_exact(n, np.uint8, np.int16, np.int32)
    if strategy == "exhaustive" and k**n > budget:
        raise BudgetExceededError(f"ambient space {k}^{n} = {k**n} vectors exceeds budget {budget}")
    if strategy == "exhaustive" and k**n >= _INDICES:
        raise ValueError(f"ambient space {k}^{n} = {k**n} vectors passes the int64 index range")
    if strategy == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be positive, got {samples}")
        if k >= 2**32:
            raise ValueError(f"sampled draws need a modulus below 2**32, got {k}")
    elif strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}; use 'exhaustive' or 'sampled'")
    # contrib[j, v, w] = [w_j != v]: the distance coordinate j adds to codeword w
    contrib = (c.word_array().T[:, None, :] != np.arange(k)[:, None]).astype(dtype)
    if strategy == "exhaustive":
        head, table = suffix_table(contrib)
        scan = partial(_scan_radius_range, head=head, table=table)
        # x and x - x_0 1 lie at the same distance from a translate-closed code: x_0 = 0 suffices
        total = k ** (n - 1) if is_self_complementary(c) else k**n
        return CoveringRadiusResult(max(fan_out(scan, total, workers)), True)
    # a block holds at most _BLOCK_BYTES of sums and at most as much of draws; the sums
    # read one table of g coordinates at a time, g the widest whose tables hold as much together
    fit = block_size(len(c), dtype)
    g = max((g for g in range(2, min(n, fit.bit_length()) + 1) if -(-n // g) * k**g <= fit), default=1)
    tables = _group_tables(contrib, g)
    step = min(fit, block_size(n, np.min_scalar_type(k - 1)))
    sizes = (min(step, samples - lo) * n for lo in range(0, samples, step))
    best = 0
    for draws in _randrange_blocks(random.Random(seed), k, sizes):
        digits = _group_digits(draws.reshape(-1, n).T, k, g)
        best = max(best, int(digit_sum(tables, digits).min(axis=0).max()))
    return CoveringRadiusResult(best, False)


def _group_tables(contrib: np.ndarray, g: int) -> np.ndarray:
    """(ceil(n / g), k**g, F) digit sums of each group of g coordinates of contrib, read
    by _group_digits: the group's suffix table, the last group's, on fewer coordinates,
    in its first rows; contrib itself for g = 1."""
    if g == 1:
        return contrib
    n, k, f = contrib.shape
    tables = np.zeros((-(-n // g), k**g, f), contrib.dtype)
    for table, lo in zip(tables, range(0, n, g)):
        part = suffix_table(contrib[lo : lo + g])[1]
        table[: part.shape[1]] = part.T
    return tables


def _group_digits(x: np.ndarray, k: int, g: int) -> np.ndarray:
    """(ceil(n / g), B) base-k numbers of each group of g rows of the (n, B) digits x,
    most significant first, in the narrowest dtype that holds k**g - 1; x itself for g = 1."""
    if g == 1:
        return x
    out = np.zeros((-(-len(x) // g), x.shape[1]), np.min_scalar_type(k**g - 1))
    for t in range(g):
        rows = x[t::g]
        part = out[: len(rows)]
        part *= k
        part += rows
    return out


class LeducqBound(NamedTuple):
    """Exact value of (q-1)n/q - sqrt(n)/q as rational_part + root_coefficient*sqrt(radicand)."""

    rational_part: Fraction
    root_coefficient: Fraction
    radicand: int
    floor: int


def leducq_upper_bound(n: int, q: int) -> LeducqBound:
    """Upper bound (q-1)n/q - sqrt(n)/q on the covering radius of a
    self-complementary strength-2 code from a BH(n, q), q an odd prime.
    The floor is exact, by _floor_surd."""
    from fractions import Fraction  # only a printed Leducq bound loads it

    if not is_prime(q) or q == 2:
        raise ValueError(f"q must be an odd prime, got {q}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    t = (q - 1) * n
    return LeducqBound(Fraction(t, q), Fraction(-1, q), n, _floor_surd(t, -1, n, q))


def _floor_surd(a: int, b: int, n: int, c: int) -> int:
    """Exact floor((a + b sqrt(n)) / c) for c > 0: b sqrt(n) lies in [r, r + 1)
    for r = isqrt(b**2 n) when b >= 0, and its floor is -ceil(sqrt(b**2 n)) when
    b < 0; floor division by c then ignores the fractional part."""
    r = isqrt(b * b * n)
    if b < 0:
        r = -(r + (r * r != b * b * n))
    return (a + r) // c


def _ceil_two_thirds_gap(n: int) -> int:
    """Exact ceil((2/3)(n - sqrt(n))) = -floor((-2n + 2 sqrt(n)) / 3)."""
    return -_floor_surd(-2 * n, 2, n, 3)


class BentBound(NamedTuple):
    """Lower bound on r(C_H) from a bent vector x, with the witness -x and its
    exact distance to every codeword of C_H."""

    bound: int
    distances: tuple[int, ...]
    witness: tuple[int, ...]


def bent_lower_bound(h: LogMatrix, x: LogVector) -> BentBound:
    """Certified lower bound ceil((2/3)(n - sqrt(n))) <= r(C_H) for phase 3.

    Entry i of Hx is sum_j zeta^(h_ij + x_j) = <r_i, -x> for row r_i, so a bent
    x has |<r, -x>|^2 = n against every row, hence against every word of C_H
    (translates only rotate the inner product by a root of unity).  Then
    R<w, -x> <= sqrt(n) and the phase-3 distance identity d(w, v) =
    (2/3)(n - R<w, v>) puts the witness -x at distance at least
    (2/3)(n - sqrt(n)) from the whole code.  x itself can be
    a codeword.  The returned distances are from the witness, one per codeword
    of C_H in code order (row i, then alpha), read from the certificate's dual
    without building C_H: coefficient t of dual entry i counts the m with
    h_im + x_m = t, and the witness agrees with r_i + alpha exactly where
    h_im + x_m = -alpha, so its distance is n minus coefficient -alpha.
    """
    if h.phase != 3:
        raise ValueError(f"the distance identity needs phase 3, got {h.phase}")
    cert = check_bent(h, x)
    if not cert.bent:
        raise ValueError("x is not a bent vector for h")
    n = h.order
    witness = tuple(-e % 3 for e in x.entries)
    distances = tuple(n - z.coeffs[-alpha % 3] for z in cert.dual for alpha in range(3))
    return BentBound(_ceil_two_thirds_gap(n), distances, witness)


def is_self_complementary(c: ZkCode) -> bool:
    """True iff the code is closed under adding alpha*1: translates share the shape w - w_0 1,
    a shape holds at most k words, so closure means len(c) / k distinct shapes."""
    w = c.word_array()
    shapes = w - w[:, :1]
    shapes %= c.modulus
    return len(_distinct_rows(shapes, c.modulus)) * c.modulus == len(c)


def has_strength_2(c: ZkCode) -> bool:
    """True iff each pair of coordinates i != j shows every value pair (a, b) in len(c) / k^2
    words, counted per pair of coordinate tiles (i-tile <= j-tile) by one float32 matmul of
    one-hots built when used, hot[i k + a, w] = [w_i = a]; exact as no count passes len(c)."""
    k, m, n = c.modulus, len(c), c.length
    if n < 2 or m % (k * k) != 0:
        return False
    target = m // (k * k)
    check_exact(m, np.float32)
    step = max(1, min(_TILE_CELLS // (k * m), isqrt(_TILE_CELLS) // k))
    tiles = [c.word_array()[:, i : i + step].T for i in range(0, n, step)]  # views, no copies
    for j, tile in enumerate(tiles):
        hot_j = _one_hot(tile, k, np.float32).reshape(-1, m)
        for i in range(j + 1):
            hot_i = hot_j if i == j else _one_hot(tiles[i], k, np.float32).reshape(-1, m)
            counts = (hot_i @ hot_j.T).reshape(-1, k, len(tile), k)
            if i == j:  # a coordinate with itself is no pair
                counts[np.arange(len(tile)), :, np.arange(len(tile))] = target
            if (counts != target).any():
                return False
    return True


def reed_muller_1(q: int, m: int) -> ZkCode:
    """First-order generalized Reed-Muller code: all affine functions
    a0 + sum a_i x_i on the lexicographically ordered points of Z_q^m.

    The result is a (q^m, q^{m+1}, (q-1) q^{m-1}) code: a nonzero affine
    function with nonzero linear part vanishes on exactly q^{m-1} points,
    and a nonzero constant vanishes nowhere, so the minimum weight over this
    linear code is q^m - q^{m-1}.  All three parameters are asserted after
    construction; the distance is the least weight after the zero word 0.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if 2 * m + 1 > 64:  # q >= 2 passes the budget: decided without building q^(2m+1)
        raise BudgetExceededError(f"{q}^{m + 1} words of length {q}^{m} exceed budget {_RM_ENTRIES}")
    if q ** (2 * m + 1) > _RM_ENTRIES:
        raise BudgetExceededError(
            f"{q}^{m + 1} words of length {q}^{m} = {q ** (2 * m + 1)} entries exceed budget {_RM_ENTRIES}"
        )
    points = index_digits(np.arange(q**m), q, m)  # lexicographic, most significant digit first
    coeffs = index_digits(np.arange(q ** (m + 1)), q, m + 1)
    code = ZkCode(q, coeffs[0][:, None] + coeffs[1:].T @ points)
    assert code.length == q**m and len(code) == q ** (m + 1)
    code._min_distance = int(np.count_nonzero(code.word_array()[1:], axis=1).min())
    assert code._min_distance == (q - 1) * q ** (m - 1)
    return code


def schmidt_rho(q: int, m: int) -> int:
    """Covering radius q^{m-1}(q-1) - q^{m/2-1} of the first-order
    generalized Reed-Muller code, for prime q and even m."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if m % 2 != 0 or m < 2:
        raise ValueError(f"the formula needs even m >= 2, got {m}")
    return q ** (m - 1) * (q - 1) - q ** (m // 2 - 1)
