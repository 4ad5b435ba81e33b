from __future__ import annotations

import gc
import itertools
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (covering_radius_brute, hamming_distance, self_complementary_brute, strength_2_brute,
                     ternary_distance, ternary_real_inner)

from butson import bent, codes
from butson.codes import (
    BentBound,
    BudgetExceededError,
    ZkCode,
    bent_lower_bound,
    code_from_matrix,
    covering_radius,
    has_strength_2,
    is_self_complementary,
    leducq_upper_bound,
    min_distance,
    reed_muller_1,
    schmidt_rho,
)
from butson.bent import ksw_vector, search_bent
from butson.bush import bush_circulant
from butson.matrices import (LogMatrix, LogVector, character_table, fourier_matrix, kronecker,
                             sylvester_matrix, verify_hadamard)

BH48 = LogMatrix(8, [[0, 0, 0, 0], [0, 2, 4, 6], [0, 4, 0, 4], [0, 6, 4, 2]])


def test_hamming_distance_examples():
    assert hamming_distance((0, 0, 0, 0), (0, 2, 4, 6)) == 3
    assert hamming_distance((1, 2, 3), (1, 2, 3)) == 0
    v = (0, 3, 0, 5, 1)
    assert hamming_distance(v, (0,) * 5) == sum(1 for e in v if e != 0)
    try:
        hamming_distance((0, 1), (0, 1, 2))
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_zkcode_dedup_and_normalization():
    c = ZkCode(3, [(0, 1), (3, 4), (2, 2), (0, 1)])
    assert c.words == ((0, 1), (2, 2))
    assert c.length == 2 and c.modulus == 3
    assert (0, 1) in c.words and (1, 0) not in c.words
    try:
        ZkCode(3, [(0, 1), (0, 1, 2)])
        raise AssertionError("expected ValueError")
    except ValueError:
        pass
    try:
        ZkCode(3, [])
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_c_h_is_held_once():
    # C_H of F(C_3^5): ZkCode reduces the translates in place and keeps them, so
    # only the byte-wise dedup's temporaries come on top of the arrays kept
    h = character_table([3] * 5)
    assert verify_hadamard(h)  # memoized: the count kernel's own peak stays out of the trace
    tracemalloc.start()
    try:
        r_code, c_code = code_from_matrix(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(r_code), len(c_code)) == (243, 729)
    kept = r_code.word_array().nbytes + c_code.word_array().nbytes
    assert peak < kept + c_code.word_array().nbytes
    assert not h.entries.flags.writeable and (r_code.word_array() == h.entries).all()


def test_code_from_matrix_bh48():
    r_code, c_code = code_from_matrix(BH48)
    assert r_code.words == ((0, 0, 0, 0), (0, 2, 4, 6), (0, 4, 0, 4), (0, 6, 4, 2))
    assert len(c_code) == 32 and c_code.length == 4 and c_code.modulus == 8
    # every word is row + constant
    for w in c_code.words:
        alpha = w[0]
        assert tuple((e - alpha) % 8 for e in w) in r_code.words


def test_code_from_matrix_f2():
    _, c_code = code_from_matrix(fourier_matrix(2))
    assert set(c_code.words) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_code_from_matrix_size_bound():
    for h in [BH48, fourier_matrix(3), kronecker(fourier_matrix(3), fourier_matrix(3))]:
        _, c_code = code_from_matrix(h)
        assert len(c_code) == h.phase * h.order  # no coincident translates
    try:
        code_from_matrix(LogMatrix(3, [[0, 0], [0, 0]]))
        raise AssertionError("expected NotHadamardError")
    except ValueError:
        pass


def test_min_distance_examples():
    _, c_code = code_from_matrix(BH48)
    assert min_distance(c_code) == 2
    assert min_distance(ZkCode(2, [(0, 0), (1, 1)])) == 2
    _, c3 = code_from_matrix(fourier_matrix(3))
    brute = min(
        hamming_distance(v, w) for v in c3.words for w in c3.words if v != w
    )
    assert min_distance(c3) == brute == 2
    try:
        min_distance(ZkCode(2, [(0, 0)]))
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_covering_radius_full_space_is_zero():
    full = ZkCode(2, [(a, b) for a in range(2) for b in range(2)])
    assert covering_radius(full) == (0, True)


def test_covering_radius_example53_regression():
    _, c_code = code_from_matrix(BH48)
    res = covering_radius(c_code)
    assert res.exact
    assert res.value == 3  # exhaustive scan over 8^4 = 4096 ambient vectors


def test_covering_radius_bh93():
    _, c_code = code_from_matrix(kronecker(fourier_matrix(3), fourier_matrix(3)))
    res = covering_radius(c_code)
    assert res == (5, True)
    assert 4 <= res.value <= 5


def test_covering_radius_matches_brute_force():
    rng = random.Random(11)
    for _ in range(12):
        k = rng.choice([2, 3, 4])
        n = rng.randrange(2, 5)
        words = [tuple(rng.randrange(k) for _ in range(n)) for _ in range(rng.randrange(1, 7))]
        c = ZkCode(k, words)
        assert covering_radius(c).value == covering_radius_brute(c.words, k)


def test_covering_radius_worker_invariance(monkeypatch):
    rng = random.Random(13)
    for _ in range(5):
        words = [tuple(rng.randrange(3) for _ in range(5)) for _ in range(4)]
        single = covering_radius(ZkCode(3, words), workers=1)
        double = covering_radius(ZkCode(3, words), workers=2)
        assert single == double
    # forced pool: the first 50-vector chunk runs inline, the other four in two spawned workers
    monkeypatch.setattr(bent, "_CHUNK", 50)
    monkeypatch.setattr(bent, "_POOL_SECONDS", 0)
    assert covering_radius(ZkCode(3, words), workers=2) == single
    # a translate-closed code: its 81 vectors with x_0 = 0, 50 inline and 31 in the pool
    closed = ZkCode(3, [[(e + alpha) % 3 for e in w] for w in words for alpha in range(3)])
    assert covering_radius(closed, workers=2) == (covering_radius_brute(closed.words, 3), True)


def test_covering_radius_budget_guard():
    big = ZkCode(2, [(0,) * 31])
    try:
        covering_radius(big)
        raise AssertionError("expected BudgetExceededError")
    except BudgetExceededError as e:
        assert "2^31" in str(e) and str(2**31) in str(e)
    # override lets it through on a smaller instance
    c = ZkCode(2, [(0,) * 12])
    try:
        covering_radius(c, budget=2**10)
        raise AssertionError("expected BudgetExceededError")
    except BudgetExceededError:
        pass
    assert covering_radius(c, budget=2**12) == (12, True)
    # a numpy integer modulus: 2**64 would wrap to 0 in int64 and pass both guards
    with pytest.raises(BudgetExceededError, match=r"2\^64 = 18446744073709551616"):
        covering_radius(ZkCode(np.int64(2), [(0,) * 64]))


def test_covering_radius_checks_the_budget_on_every_call():
    # an earlier full scan of the same code must not let a later call skip its budget
    rm = reed_muller_1(3, 2)
    assert covering_radius(rm) == (5, True)
    with pytest.raises(BudgetExceededError):
        covering_radius(rm, budget=10)


def test_covering_radius_sampled_lower_bound():
    _, c_code = code_from_matrix(BH48)
    exact = covering_radius(c_code).value
    sampled = covering_radius(c_code, "sampled", samples=200, seed=7)
    assert not sampled.exact
    assert 0 <= sampled.value <= exact
    again = covering_radius(c_code, "sampled", samples=200, seed=7)
    assert again == sampled  # seeded draw is reproducible
    try:
        covering_radius(c_code, "guess")
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_covering_radius_sampled_rejects_a_non_positive_count():
    c = ZkCode(3, [(0, 1, 2)])
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be positive"):
            covering_radius(c, "sampled", samples=samples)


# the largest n per modulus keeps k**n <= 4096 for the brute-force oracle
_MAX_LENGTH = {2: 7, 3: 7, 4: 6, 5: 5}


@st.composite
def _code_and_cells(draw):
    """A small code and a distance-block cap in cells that fixes the suffix length s, 0 <= s <= n."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, _MAX_LENGTH[k]))
    word = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    c = ZkCode(k, draw(st.lists(word, min_size=1, max_size=12)))
    s = draw(st.integers(0, n))
    table = len(c) * k**s
    cells = table + draw(st.integers(0, table * (k - 1) - 1 if s < n else 4 * table))
    return c, s, cells


def _min_distances(c: ZkCode) -> np.ndarray:
    """Min distance to c of every ambient vector, in index (lexicographic) order."""
    ambient = np.array(list(itertools.product(range(c.modulus), repeat=c.length)))
    return (ambient[:, None, :] != c.word_array()[None]).sum(axis=2).min(axis=1)


def _sampled_loop(c: ZkCode, samples: int, seed: int) -> int:
    """The per-draw loop the blocked sampler replaced."""
    rng = random.Random(seed)
    words = c.word_array()
    best = 0
    for _ in range(samples):
        x = np.array([rng.randrange(c.modulus) for _ in range(c.length)], dtype=np.int64)
        best = max(best, int((words != x).sum(axis=1).min()))
    return best


@settings(max_examples=60, deadline=None)
@given(_code_and_cells(), st.data())
def test_blocked_scan_matches_brute_force(case, data):
    c, s, cells = case
    k, n = c.modulus, c.length
    total = k**n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bent, "_BLOCK_BYTES", cells * np.dtype(np.uint8).itemsize)
        assert covering_radius(c) == (covering_radius_brute(c.words, k), True)
        scans = []
        mp.setattr(codes, "fan_out", lambda scan, total, workers: scans.append(scan) or [0])
        covering_radius(c)
        scan = scans[0]
        assert scan.keywords["table"].shape == (len(c), k**s)
        # the range scan on arbitrary bounds, aligned to k**s or not
        mins = _min_distances(c)
        for _ in range(3):
            start = data.draw(st.integers(0, total - 1))
            stop = data.draw(st.integers(start + 1, total))
            assert scan(start, stop) == mins[start:stop].max()
        for seed in range(3):
            samples = data.draw(st.integers(1, 40))
            got = covering_radius(c, "sampled", samples=samples, seed=seed)
            assert got == (_sampled_loop(c, samples, seed), False)


@settings(max_examples=8, deadline=None)
@given(_code_and_cells())
def test_blocked_scan_is_the_same_at_two_workers(case):
    c, _, cells = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bent, "_BLOCK_BYTES", cells * np.dtype(np.uint8).itemsize)
        assert covering_radius(c, workers=2) == covering_radius(c, workers=1)


@st.composite
def _closed_or_not(draw):
    """Random words of length n, as drawn or with every translate w + alpha 1 added."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, _MAX_LENGTH[k]))
    word = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    words = draw(st.lists(word, min_size=1, max_size=6))
    if draw(st.booleans()):
        words = [[(e + alpha) % k for e in w] for w in words for alpha in range(k)]
    return ZkCode(k, words)


@settings(max_examples=60, deadline=None)
@given(_closed_or_not(), st.sampled_from([1, 2]))
def test_a_translate_closed_code_scans_only_the_vectors_with_x0_zero(c, workers):
    # x and x - x_0 1 lie at the same distance from a translate-closed code, so its
    # scan covers the k**(n - 1) indices below k**(n - 1); any other code all k**n
    k, n = c.modulus, c.length
    assert covering_radius(c, workers=workers) == (covering_radius_brute(c.words, k), True)
    totals = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "fan_out", lambda scan, total, workers: totals.append(total) or [0])
        covering_radius(c, workers=workers)
    assert totals == [k ** (n - 1) if self_complementary_brute(c.words, k) else k**n]


@st.composite
def _long_code(draw):
    """Words of length n <= 127 that share their first n - m coordinates, as
    (k, shared prefix, tails of length m)."""
    k = draw(st.integers(2, 4))
    m = draw(st.integers(1, {2: 7, 3: 5, 4: 4}[k]))
    n = draw(st.one_of(st.just(127), st.integers(m, 127)))
    value = draw(st.sampled_from([st.integers(0, k - 1), st.integers(1, k - 1)]))  # or full weight
    prefix = draw(st.lists(value, min_size=n - m, max_size=n - m))
    tail = st.tuples(*[st.integers(0, k - 1)] * m)
    return k, prefix, draw(st.lists(tail, min_size=1, max_size=12))


@settings(max_examples=60, deadline=None)
@given(_long_code())
def test_uint8_scans_match_brute_force_up_to_length_127(case):
    # the first k**m ambient vectors are 0 on the shared prefix and run over every
    # tail, so their largest min-distance is the prefix weight plus the tails' radius.
    # Only those are scanned, so the int64 guard on the whole space is lifted
    k, prefix, tails = case
    c = ZkCode(k, [(*prefix, *t) for t in tails])
    scans = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "fan_out", lambda scan, total, workers: scans.append(scan) or [0])
        mp.setattr(codes, "_INDICES", math.inf)
        covering_radius(c, budget=k**c.length)
    assert scans[0].keywords["table"].dtype == np.uint8
    weight = sum(e != 0 for e in prefix)
    assert scans[0](0, k ** len(tails[0])) == weight + covering_radius_brute(tails, k)


def test_distance_dtype_is_guarded_before_any_allocation(monkeypatch):
    # zero-row, zero-stride words: the guard reads only the length, and a length it
    # lets through gets as far as the strategy check without allocating
    def stub(n):
        return SimpleNamespace(modulus=2, length=n,
                               word_array=lambda: np.broadcast_to(np.int64(0), (0, n)))
    for strategy in ("exhaustive", "sampled"):
        with pytest.raises(ValueError, match=r"int32, 2\*\*30"):
            covering_radius(stub(2**30), strategy)
    with pytest.raises(ValueError, match="unknown strategy"):
        covering_radius(stub(2**30 - 1), "guess")
    # distances take the narrowest of uint8, int16 and int32 whose exact range holds the length
    seen = []
    digit_sum = codes.digit_sum
    monkeypatch.setattr(codes, "digit_sum",
                        lambda contrib, x: seen.append(contrib.dtype) or digit_sum(contrib, x))
    for n in (2**7 - 1, 2**7, 2**14 - 1, 2**14):
        covering_radius(ZkCode(2, [(0,) * n]), "sampled", samples=1)
    assert seen == [np.uint8, np.int16, np.int16, np.int32]


def test_an_exhaustive_scan_past_the_int64_index_range_raises_at_once(monkeypatch):
    # ambient indices are int64: 2**63 or more vectors raise whatever the budget,
    # before the words are read or a scan starts; 2**62 gets past the guard
    def stub(n):
        return SimpleNamespace(modulus=2, length=n, word_array=None)
    monkeypatch.setattr(codes, "fan_out", None)
    with pytest.raises(ValueError, match="2\\^63 = 9223372036854775808 vectors passes the int64"):
        covering_radius(stub(63), budget=2**64)
    with pytest.raises(TypeError):  # word_array is read after the guard
        covering_radius(stub(62), budget=2**64)
    with pytest.raises(ValueError, match="int64 index range"):
        covering_radius(reed_muller_1(3, 4), budget=10**40)


class _CountingRandom(random.Random):
    """random.Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


_MODULI = st.one_of(
    st.integers(2, 300),
    st.builds(lambda b, d: 2**b + d, st.integers(1, 31), st.integers(0, 1)),
    st.just(2**32 - 1),
)
_SEEDS = st.one_of(st.integers(-1000, 1000), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)))


@settings(max_examples=150, deadline=None)
@given(_MODULI, _SEEDS, st.integers(1, 100),
       st.lists(st.one_of(st.integers(0, 300), st.integers(2**14, 2**15)), max_size=4))
def test_bulk_draws_are_the_randrange_stream(k, seed, first, middle):
    # the last block passes what the first read can hold, 2 * first words, and
    # blocks of 2**14 values or more take several reads of at most 2**14 words
    sizes = [first, *middle, 2 * first + 1]
    rng = _CountingRandom(seed)
    blocks = list(codes._randrange_blocks(rng, k, sizes))
    assert [len(b) for b in blocks] == sizes
    assert rng.calls >= 2
    reference = random.Random(seed)
    assert np.concatenate(blocks).tolist() == [reference.randrange(k) for _ in range(sum(sizes))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_radius_of_f3_4_matches_the_per_draw_loop(seed):
    _, c = code_from_matrix(character_table([3, 3, 3, 3]))
    assert covering_radius(c, "sampled", samples=2000, seed=seed) == (_sampled_loop(c, 2000, seed), False)


_RNG = np.random.default_rng(3)


@pytest.mark.parametrize("c,width", [
    (reed_muller_1(2, 4), 12),  # 16 coordinates: groups of 12 and 4
    (code_from_matrix(fourier_matrix(7))[1], 4),
    (ZkCode(np.int64(3), code_from_matrix(character_table([3, 3]))[1].word_array()), 7),
    (ZkCode(257, _RNG.integers(0, 257, (1, 5))), 2),  # uint16 draws
    (ZkCode(300, _RNG.integers(0, 300, (5, 6))), 1),
    (ZkCode(2, _RNG.integers(0, 2, (300, 300))), 1),
], ids=["rm2_4", "f7", "np-int64-modulus", "k257", "k300", "n300"])
def test_grouped_sampled_sums_match_the_per_draw_loop(c, width, monkeypatch):
    # the sums read one table of `width` coordinates per group, the last group shorter
    # when the width does not divide the length; width 1 reads contrib itself
    shapes = []
    digit_sum = codes.digit_sum
    monkeypatch.setattr(codes, "digit_sum",
                        lambda tables, x: shapes.append((tables.shape, x.shape)) or digit_sum(tables, x))
    assert covering_radius(c, "sampled", samples=300, seed=3) == (_sampled_loop(c, 300, 3), False)
    groups = -(-c.length // width)
    assert {(tables, x[0]) for tables, x in shapes} == {((groups, int(c.modulus) ** width, len(c)), groups)}


def test_sampled_memory_is_bounded_by_the_block():
    # a block holds at most _BLOCK_BYTES of sums and at most as much of draws, so the
    # peak is the sums, one gathered block, the draws with their concatenated copy and
    # one read of at most 2**14 words, whatever the length against the number of words
    rng = np.random.default_rng(5)
    cases = [code_from_matrix(character_table([3] * 4))[1], reed_muller_1(2, 4),
             ZkCode(2, rng.integers(0, 2, (300, 300))), ZkCode(11, rng.integers(0, 11, (5, 40))),
             ZkCode(2, rng.integers(0, 2, (2, 300)))]
    gc.disable()  # as in a CLI process: what a block leaves behind is freed without the collector
    try:
        for c in cases:
            tracemalloc.start()
            try:
                covering_radius(c, "sampled", samples=20000, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * bent._BLOCK_BYTES, c
    finally:
        gc.enable()


def test_sampled_modulus_is_guarded_before_any_allocation():
    # reading the words would build np.arange(modulus); a stub whose words raise
    # shows where each modulus stops
    class Reached(Exception):
        pass

    def stub(k):
        def words():
            raise Reached
        return SimpleNamespace(modulus=k, length=81, word_array=words)
    for k in (2**32, 2**32 + 1, 2**40, np.uint64(2**32)):
        with pytest.raises(ValueError, match=r"modulus below 2\*\*32"):
            covering_radius(stub(k), "sampled")
    for k in (2**32 - 1, np.uint64(2**32 - 1)):
        with pytest.raises(Reached):
            covering_radius(stub(k), "sampled")
    # a numpy integer modulus draws what the same int draws
    words = [(0, 1, 2, 0), (1, 1, 1, 2)]
    assert (covering_radius(ZkCode(np.int64(3), words), "sampled", samples=50, seed=1)
            == covering_radius(ZkCode(3, words), "sampled", samples=50, seed=1))


def test_leducq_upper_bound_values():
    b9 = leducq_upper_bound(9, 3)
    assert b9.floor == 5
    assert b9.rational_part == 6 and b9.root_coefficient == Fraction(-1, 3) and b9.radicand == 9
    assert leducq_upper_bound(81, 3).floor == 51
    assert leducq_upper_bound(25, 5).floor == 19
    for q in (2, 9, 15):
        try:
            leducq_upper_bound(9, q)
            raise AssertionError("expected ValueError")
        except ValueError:
            pass


@given(st.integers(-10**6, 10**6), st.integers(-10**3, 10**3), st.integers(0, 10**6),
       st.integers(1, 10**3))
def test_floor_surd_matches_decimal(a, b, n, c):
    # (a + b sqrt(n)) / c is rational with denominator <= c, or irrational and at
    # least 1e-10 from every integer here; 50 digits resolve both
    with localcontext() as ctx:
        ctx.prec = 50
        value = (a + b * Decimal(n).sqrt()) / c
    assert codes._floor_surd(a, b, n, c) == math.floor(value)


def test_leducq_floor_matches_float():
    import math

    for q in (3, 5, 7):
        for n in range(1, 400):
            b = leducq_upper_bound(n, q)
            approx = (q - 1) * n / q - math.sqrt(n) / q
            # the float value sits within 1e-9 of the surd, so the exact
            # floor can differ from floor(approx) only at integer boundaries
            value = float(b.rational_part) + float(b.root_coefficient) * b.radicand ** 0.5
            assert abs(value - approx) < 1e-9
            assert b.floor - 1e-6 <= approx < b.floor + 1 + 1e-6


def test_ternary_identity_random_pairs():
    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randrange(1, 12)
        v = [rng.randrange(3) for _ in range(n)]
        w = [rng.randrange(3) for _ in range(n)]
        assert ternary_distance(v, w) == hamming_distance(v, w)


def test_ternary_real_inner_exact():
    import cmath

    rng = random.Random(19)
    assert ternary_real_inner((0, 1, 2), (0, 1, 2)) == 3  # <v, v> = n
    assert ternary_distance((0, 1, 2), (0, 1, 2)) == 0
    for _ in range(50):
        n = rng.randrange(1, 10)
        v = [rng.randrange(3) for _ in range(n)]
        w = [rng.randrange(3) for _ in range(n)]
        z = sum(cmath.exp(2j * cmath.pi * (a - b) / 3) for a, b in zip(v, w))
        assert abs(float(ternary_real_inner(v, w)) - z.real) < 1e-9


def test_bent_lower_bound_f9():
    h = kronecker(fourier_matrix(3), fourier_matrix(3))
    x = ksw_vector(3, 2)
    bound = bent_lower_bound(h, x)
    assert isinstance(bound, BentBound)
    assert bound.bound == 4  # ceil((2/3)(9 - 3))
    assert min(bound.distances) >= 4
    _, c_code = code_from_matrix(h)
    assert len(bound.distances) == len(c_code)
    assert bound.witness == tuple(-e % 3 for e in x.entries)
    for d, w in zip(bound.distances, c_code.words):
        assert d == hamming_distance(bound.witness, w)


def test_bent_lower_bound_sandwich():
    h = kronecker(fourier_matrix(3), fourier_matrix(3))
    x = ksw_vector(3, 2)
    lower = bent_lower_bound(h, x).bound
    _, c_code = code_from_matrix(h)
    radius = covering_radius(c_code).value
    upper = leducq_upper_bound(9, 3).floor
    assert lower <= radius <= upper
    assert (lower, radius, upper) == (4, 5, 5)


PHASE_3_BASES = [fourier_matrix(3), kronecker(fourier_matrix(3), fourier_matrix(3)),
                 bush_circulant(3, 1), bush_circulant(3, 2)]


@lru_cache(maxsize=None)
def _bent_vectors(h: LogMatrix) -> tuple[tuple[int, ...], ...]:
    return tuple(hit.vector.entries for hit in search_bent(h))


@st.composite
def _matrix_and_bent_vector(draw):
    """A phase-3 Hadamard matrix, monomially transformed, and one of its bent vectors."""
    base = draw(st.sampled_from(PHASE_3_BASES))
    n = base.order
    perm = lambda: draw(st.permutations(range(n)))  # noqa: E731
    shifts = lambda: draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))  # noqa: E731
    row_perm, row_shift, col_perm, col_shift = perm(), shifts(), perm(), shifts()
    h = base.monomial_transform(row_perm, row_shift, col_perm, col_shift)
    x = draw(st.sampled_from(_bent_vectors(base)))
    c = draw(st.integers(0, 2))  # a constant multiple of a bent vector is bent
    return h, LogVector(3, [(x[j] - t + c) % 3 for j, t in zip(col_perm, col_shift)])


@settings(max_examples=40, deadline=None)
@given(_matrix_and_bent_vector())
def test_bent_lower_bound_distances_are_hamming_distances(case):
    h, x = case
    _, c_code = code_from_matrix(h)
    got = bent_lower_bound(h, x)
    assert got.distances == tuple(hamming_distance(got.witness, w) for w in c_code.words)
    assert got.distances == tuple(ternary_distance(got.witness, w) for w in c_code.words)
    assert min(got.distances) >= got.bound


def test_bent_lower_bound_witness_is_the_negated_vector():
    # F(C_3) with its last column times zeta: x = (0, 0, 1) is bent and is itself a
    # word of C_H, while -x lies at distance >= the bound from the whole code
    h = LogMatrix(3, [[0, 0, 1], [0, 1, 0], [0, 2, 2]])
    x = LogVector(3, (0, 0, 1))
    _, c_code = code_from_matrix(h)
    assert tuple(x.entries) in c_code.words
    got = bent_lower_bound(h, x)
    assert got.witness == (0, 0, 2)
    assert got.bound == 1 and min(got.distances) == 1


def test_bent_lower_bound_rejections():
    try:
        bent_lower_bound(BH48, LogVector(8, (0, 0, 0, 0)))
        raise AssertionError("expected ValueError")
    except ValueError:
        pass
    h = kronecker(fourier_matrix(3), fourier_matrix(3))
    try:
        bent_lower_bound(h, LogVector(3, (0,) * 9))  # all-ones is not bent here
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_ceil_two_thirds_gap_exact():
    import math

    from butson.codes import _ceil_two_thirds_gap

    for n in range(1, 2000):
        m = _ceil_two_thirds_gap(n)
        v = 2 * (n - math.sqrt(n)) / 3
        assert m - 1 < v + 1e-9 and v - 1e-9 <= m


def test_self_complementary():
    for h in [BH48, fourier_matrix(3), kronecker(fourier_matrix(3), fourier_matrix(3))]:
        r_code, c_code = code_from_matrix(h)
        assert is_self_complementary(c_code)
    r3, _ = code_from_matrix(fourier_matrix(3))
    assert not is_self_complementary(r3)


def test_strength_2():
    _, c9 = code_from_matrix(kronecker(fourier_matrix(3), fourier_matrix(3)))
    assert has_strength_2(c9)
    _, c3 = code_from_matrix(fourier_matrix(3))
    assert has_strength_2(c3)
    # 32 words over Z_8: 32 is not a multiple of 64, so the premise fails
    _, c48 = code_from_matrix(BH48)
    assert not has_strength_2(c48)
    assert not has_strength_2(ZkCode(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]))
    assert not has_strength_2(ZkCode(2, [(0, 0), (1, 1)]))


def test_strength_2_and_complementary_for_prime_phase_catalog():
    catalog = [
        fourier_matrix(3),
        fourier_matrix(5),
        kronecker(fourier_matrix(3), fourier_matrix(3)),
        bush_circulant(3, 1),
        bush_circulant(3, 2),
    ]
    for h in catalog:
        _, c_code = code_from_matrix(h)
        assert is_self_complementary(c_code)
        assert has_strength_2(c_code)


@st.composite
def _premise_case(draw):
    """(k, words): k in 2..5, length 1..6, 1..30 words with unreduced entries.  The
    words are random, closed under translation by construction, distinct and as many
    as a multiple of k^2, or the k^2 affine words a + b x_j on points x_j whose
    differences are units mod k.  Those have strength 2 and are closed under
    translation; a last coordinate b keeps strength 2 and, after two points, breaks
    the closure."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    word = st.lists(st.integers(-k, 2 * k - 1), min_size=n, max_size=n)
    kind = draw(st.sampled_from(("random", "translates", "multiple", "affine")))
    if kind == "random":
        return k, draw(st.lists(word, min_size=1, max_size=30))
    if kind == "translates":
        base = draw(st.lists(word, min_size=1, max_size=30 // k))
        return k, [[e + alpha for e in w] for w in base for alpha in range(k)]
    if kind == "multiple":
        n = max(n, 2)
        size = k * k * draw(st.integers(1, min(30, k**n) // (k * k)))
        return k, draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * n), min_size=size,
                                max_size=size, unique=True))
    points = range(min(n, min(p for p in range(2, k + 1) if k % p == 0)))
    last = [[b] for b in range(k)] if draw(st.booleans()) else [[]] * k
    return k, draw(st.permutations([[a + b * x for x in points] + last[b] for a in range(k) for b in range(k)]))


@settings(max_examples=300, deadline=None)
@given(_premise_case())
def test_premises_match_brute_force(case):
    k, words = case
    c = ZkCode(k, words)
    # the normalisation the word array replaced: reduce, keep first occurrences in order
    assert c.words == tuple(dict.fromkeys(tuple(int(e) % k for e in w) for w in words))
    assert has_strength_2(c) == strength_2_brute(c.words, k)
    assert is_self_complementary(c) == self_complementary_brute(c.words, k)


def test_c_h_of_f3_5_keeps_the_tuple_order_and_both_premises():
    # n = 243 runs the strength-2 pair counts in two blocks of coordinates
    h = character_table([3] * 5)
    r_code, c_code = code_from_matrix(h)
    rows = [tuple(int(e) for e in row) for row in h.entries]
    assert r_code.words == tuple(rows)
    assert c_code.words == tuple(tuple((e + alpha) % 3 for e in row) for row in rows for alpha in range(3))
    assert is_self_complementary(c_code) and has_strength_2(c_code)


def test_strength_2_finds_a_failing_pair_in_a_later_block():
    # C_H of the Sylvester matrix of order 512 has strength 2; its pair counts run in
    # two blocks of 256 coordinates, and a copied last column breaks one pair in the second
    rows = sylvester_matrix(9).entries
    words = np.concatenate([rows, 1 - rows])
    assert has_strength_2(ZkCode(2, words))
    words[:, -1] = words[:, -2]
    assert not has_strength_2(ZkCode(2, words))


def test_strength_2_finds_a_failing_pair_in_an_off_diagonal_tile():
    # 1024 words over Z_2 make tiles of 256 coordinates, so coordinates 0 and 511
    # are only ever counted together by the matmul of the first tile with the second
    rows = sylvester_matrix(9).entries
    words = np.concatenate([rows, 1 - rows])
    words[:, -1] = words[:, 0]
    assert not has_strength_2(ZkCode(2, words))


def test_premises_match_brute_force_in_small_tiles(monkeypatch):
    # tiles of one or two coordinates: most pairs of coordinates sit in two different
    # tiles, and every diagonal tile masks its coordinates against themselves
    monkeypatch.setattr(codes, "_TILE_CELLS", 16)
    test_premises_match_brute_force()


def test_radius_below_leducq_for_small_prime_phase_codes():
    for h in [
        fourier_matrix(3),
        fourier_matrix(5),
        kronecker(fourier_matrix(3), fourier_matrix(3)),
        bush_circulant(3, 1),
    ]:
        _, c_code = code_from_matrix(h)
        radius = covering_radius(c_code).value
        assert radius <= leducq_upper_bound(h.order, h.phase).floor


def test_reed_muller_parameters():
    rm22 = reed_muller_1(2, 2)
    assert (rm22.length, len(rm22), min_distance(rm22)) == (4, 8, 2)
    assert set(rm22.words) == {
        (0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0),
        (0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1),
    }
    rm32 = reed_muller_1(3, 2)
    assert (rm32.length, len(rm32), min_distance(rm32)) == (9, 27, 6)
    brute = min(
        hamming_distance(v, w) for v in rm32.words for w in rm32.words if v != w
    )
    assert brute == 6  # (q-1) q^(m-1), attained by every nonconstant function


def test_reed_muller_minimum_distance_is_the_least_weight(monkeypatch):
    for q, m in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]:
        rm = reed_muller_1(q, m)
        assert min_distance(rm) == min_distance(ZkCode(q, rm.word_array().copy())) == (q - 1) * q ** (m - 1)

    def pairwise(code):
        raise AssertionError("reed_muller_1 counted pairs")

    monkeypatch.setattr(codes, "min_distance", pairwise)
    assert len(reed_muller_1(2, 10)) == 2**11  # 2**22 pairs would take seconds


def test_reed_muller_rejections():
    for q, m in [(4, 2), (1, 2), (3, 0)]:
        try:
            reed_muller_1(q, m)
            raise AssertionError("expected ValueError")
        except ValueError:
            pass
    try:
        reed_muller_1(3, 7)  # 3^15 entries pass the cap of 2^22
        raise AssertionError("expected BudgetExceededError")
    except BudgetExceededError:
        pass


def test_reed_muller_covering_radii_match_formula():
    assert covering_radius(reed_muller_1(3, 2)).value == schmidt_rho(3, 2) == 5
    assert covering_radius(reed_muller_1(2, 2)).value == schmidt_rho(2, 2) == 1


def test_schmidt_rho_validation():
    assert schmidt_rho(2, 4) == 6
    for q, m in [(6, 2), (3, 3), (3, 1)]:
        try:
            schmidt_rho(q, m)
            raise AssertionError("expected ValueError")
        except ValueError:
            pass


@pytest.mark.parametrize("call, error, message", [
    (lambda: ZkCode(1, [[0]]), ValueError, "modulus must be at least 2, got 1"),
    (lambda: leducq_upper_bound(0, 3), ValueError, "n must be positive, got 0"),
], ids=["modulus-1", "leducq-n-0"])
def test_guards_raise_before_any_work(call, error, message):
    with pytest.raises(error, match=message):
        call()
