from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson.cyclotomic import (
    CycInt,
    canonical,
    check_exact,
    cyclotomic_polynomial,
    is_zero,
    max_reduction,
    reduce,
    reduce_coeffs,
    reduction_matrix,
    square_root,
)
from butson.numtheory import is_prime, totient

from oracles import complex_value, cyclotomic_polynomial_brute, reduce_mod_phi_brute

PHASES = [2, 3, 4, 5, 6, 8, 9, 12, 13]


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for k in range(1, 40):
        assert len(cyclotomic_polynomial(k)) - 1 == totient(k)


def test_canonical_reduce_examples():
    # 1 + z + z^2 = 0 at phase 3
    z = CycInt((1, 1, 1))
    assert z == 0
    # zeta_4^2 = -1
    assert CycInt.root(4, 2) == CycInt.integer(4, -1)
    # zeta_8^5 = -zeta_8
    assert CycInt.root(8, 5) == -CycInt.root(8, 1)


def test_norm_sq_examples():
    one_plus = CycInt.integer(3, 1) + CycInt.root(3, 1)
    assert one_plus.norm_sq() == 1
    doubled = 2 * one_plus
    assert doubled.norm_sq() == 4
    assert CycInt.integer(5, 3).norm_sq() == 9


def test_embed_examples():
    z3 = CycInt.root(3, 1)
    assert z3.embed(6) == CycInt.root(6, 2)
    # 1 + zeta_3 = -zeta_3^2 is the sixth root of unity zeta_12^2, also written -zeta_12^8
    w = CycInt.integer(3, 1) + CycInt.root(3, 1)
    lifted = w.embed(12)
    assert lifted == CycInt.root(12, 2)
    assert lifted == -CycInt.root(12, 8)


def test_embed_preserves_value():
    rng = random.Random(8)
    for k in [2, 3, 4, 6]:
        for mult in [2, 3, 4]:
            for _ in range(20):
                z = CycInt([rng.randrange(-5, 6) for _ in range(k)])
                w = z.embed(k * mult)
                a = complex_value(z.coeffs, k)
                b = complex_value(w.coeffs, k * mult)
                assert abs(a - b) < 1e-9


def test_reduce_is_ring_homomorphism():
    rng = random.Random(5)
    for k in PHASES:
        for _ in range(50):
            a = CycInt([rng.randrange(-9, 10) for _ in range(k)])
            b = CycInt([rng.randrange(-9, 10) for _ in range(k)])
            assert (a + b).reduce() == (a.reduce() + b.reduce())
            assert (a * b).reduce() == (a.reduce() * b.reduce())


def test_float_oracle_agreement():
    # 1000 random elements per phase: the canonical form evaluates to the
    # same complex number as the raw coefficients.
    rng = random.Random(91)
    for k in PHASES:
        for _ in range(1000):
            coeffs = [rng.randrange(-20, 21) for _ in range(k)]
            z = CycInt(coeffs)
            exact = complex_value(z.reduce().coeffs, k)
            raw = complex_value(coeffs, k)
            assert abs(exact - raw) < 1e-9


def test_prime_phase_full_sum_vanishes():
    for k in PHASES:
        if not is_prime(k):
            continue
        total = CycInt.integer(k, 0)
        for t in range(k):
            total = total + CycInt.root(k, t)
        assert total == 0


def test_mul_commutative_associative():
    rng = random.Random(17)
    for k in PHASES:
        for _ in range(30):
            a = CycInt([rng.randrange(-6, 7) for _ in range(k)])
            b = CycInt([rng.randrange(-6, 7) for _ in range(k)])
            c = CycInt([rng.randrange(-6, 7) for _ in range(k)])
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_conj_properties():
    rng = random.Random(29)
    for k in PHASES:
        for _ in range(30):
            a = CycInt([rng.randrange(-6, 7) for _ in range(k)])
            b = CycInt([rng.randrange(-6, 7) for _ in range(k)])
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()
            n2 = a.norm_sq()
            # |a|^2 is a nonnegative rational integer
            assert n2 == n2.conj()
            val = complex_value(n2.coeffs, k)
            assert abs(val.imag) < 1e-9 and val.real >= -1e-9


def test_times_root_matches_mul():
    rng = random.Random(41)
    for k in PHASES:
        for _ in range(20):
            a = CycInt([rng.randrange(-6, 7) for _ in range(k)])
            t = rng.randrange(2 * k)
            assert a.times_root(t) == a * CycInt.root(k, t)


def test_reduction_matrix_matches_scalar_reduce():
    rng = random.Random(57)
    for k in PHASES:
        r = reduction_matrix(k)
        assert r.shape == (k, totient(k))
        batch = np.array([[rng.randrange(-9, 10) for _ in range(k)] for _ in range(40)])
        reduced = batch @ r
        for row, out in zip(batch, reduced):
            expect = CycInt([int(v) for v in row]).reduce().coeffs[: totient(k)]
            assert tuple(int(v) for v in out) == expect


def test_the_phase_is_the_length_of_the_coefficients():
    # 1 + zeta_4 + zeta_4^2 = zeta_4: four coefficients reduce mod Phi_4, never Phi_3
    assert canonical(np.array([1, 1, 1, 0])).tolist() == [0, 1, 0, 0]
    assert reduce_coeffs((1, 1, 1, 0)) == (0, 1, 0, 0)
    assert reduce_coeffs((1, 1, 1)) == (0, 0, 0)
    assert CycInt((1, 1, 1, 0)).phase == 4 and CycInt((1, 1, 1, 0)) == CycInt.root(4, 1)
    assert repr(CycInt((1, 2))) == "CycInt((1, 2))"
    for make in (lambda: CycInt(()), lambda: CycInt.integer(0, 1), lambda: CycInt.root(0, 1)):
        with pytest.raises(ValueError, match="phase must be positive, got 0"):
            make()
    with pytest.raises(ValueError, match="phase must be positive, got -2"):
        CycInt.root(-2, 1)


def test_integer_comparison_and_hash():
    assert CycInt.integer(6, 5) == 5
    assert CycInt.root(4, 2) == -1
    z1 = CycInt((2, 1, 1))
    z2 = CycInt((1, 0, 0))
    assert z1 == z2 and hash(z1) == hash(z2)


def test_str_rendering():
    assert str(CycInt.integer(5, 0)) == "0"
    assert str(CycInt.integer(5, -3)) == "-3"
    assert str(CycInt.root(5, 1)) == "z"
    s = str(CycInt((1, -1, 2, 0, 0)))
    assert "z^2" in s and s.startswith("1")


def test_cyclotomic_polynomial_matches_the_moebius_product():
    for k in range(1, 130):
        assert cyclotomic_polynomial(k) == tuple(cyclotomic_polynomial_brute(k))


def _coefficient_rows(k: int, bound: int, count: int):
    row = st.lists(st.integers(-bound, bound), min_size=k, max_size=k)
    return st.lists(row, min_size=count, max_size=count)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_reduction_is_long_division_by_phi(data):
    # reduce_coeffs, CycInt.reduce and canonical all read reduction_matrix; the
    # oracle divides by the Moebius form of Phi_k and never sees that table
    k = data.draw(st.integers(1, 64), label="k")
    big = data.draw(_coefficient_rows(k, 2**100, 6), label="big")
    small = data.draw(_coefficient_rows(k, 2**20, 6), label="small")
    for coeffs in big:
        want = reduce_mod_phi_brute(coeffs, k)
        assert reduce_coeffs(coeffs) == want
        assert CycInt(coeffs).reduce().coeffs == want
    for rows, dtype in ((big, object), (small, np.int64), (small, np.float64)):
        batch = np.array(rows, dtype=dtype).reshape(2, 3, k)
        got = canonical(batch)
        assert got.dtype == batch.dtype and got.shape == batch.shape
        assert [tuple(int(v) for v in row) for row in got.reshape(6, k)] == [
            reduce_mod_phi_brute(row, k) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduce_is_long_division_by_phi_in_its_input_dtype(data):
    # each dtype's rows are drawn within a bound that check_exact clears for it:
    # a reduced coefficient's partial sums stay below max_reduction(k) * k * bound
    k = data.draw(st.integers(1, 30), label="k")
    lead = data.draw(st.sampled_from([(), (4,), (2, 3)]), label="leading shape")
    for dtype, bound in ((np.float32, 2**12), (np.int64, 2**40), (object, 2**100)):
        assert check_exact(max_reduction(k) * k * bound, dtype) is dtype
        rows = data.draw(_coefficient_rows(k, bound, math.prod(lead)), label=f"{dtype} rows")
        got = reduce(np.array(rows, dtype=dtype).reshape(lead + (k,)))
        assert got.dtype == np.dtype(dtype) and got.shape == lead + (totient(k),)
        for row, out in zip(rows, got.reshape(-1, totient(k))):
            assert tuple(int(v) for v in out) == reduce_mod_phi_brute(row, k)[: totient(k)]


# (dtype, exact_limit): the integers of smaller magnitude are exact in dtype
LIMITS = [(np.uint8, 2**7), (np.int16, 2**14), (np.float32, 2**24), (np.float64, 2**53), (np.int64, 2**62)]


@pytest.mark.parametrize("i", range(len(LIMITS)))
def test_check_exact_picks_the_first_dtype_that_holds_the_bound(i):
    dtype, limit = LIMITS[i]
    wider = [d for d, _ in LIMITS[i:]]
    assert check_exact(limit - 1, dtype) is dtype
    assert check_exact(limit - 1, *wider) is dtype
    assert check_exact(limit - 1, dtype, object) is dtype
    assert check_exact(limit, dtype, object) is object
    assert check_exact(limit, object, dtype) is object
    if i + 1 < len(LIMITS):
        assert check_exact(limit, *wider) is LIMITS[i + 1][0]
    bits = limit.bit_length() - 1
    message = f"^{limit} passes the exact integer range of {np.dtype(dtype)}, 2\\*\\*{bits}$"
    with pytest.raises(ValueError, match=message):
        check_exact(limit, dtype)
    # no candidate holds the bound: the message names the last one
    with pytest.raises(ValueError, match=message):
        check_exact(limit, np.uint8, dtype)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_zero_agrees_with_long_division(data):
    # random rows are almost never zero, so each row is planted as a sum of rotated
    # copies of Phi_k (x^s Phi_k, read mod x^k - 1, is zero in Z[zeta_k]); then one
    # coefficient is perturbed, which leaves a nonzero row
    k = data.draw(st.integers(1, 30), label="k")
    phi = cyclotomic_polynomial_brute(k)
    rows = []
    for _ in range(6):
        row = [0] * k
        for s, m in data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(-9, 9)), max_size=5)):
            for j, c in enumerate(phi):
                row[(s + j) % k] += m * c
        rows.append(row)
    dtype = data.draw(st.sampled_from([np.int64, object]), label="dtype")
    batch = np.array(rows, dtype=dtype).reshape(2, 3, k)
    assert all(not any(reduce_mod_phi_brute(row, k)) for row in rows)
    assert is_zero(batch)
    i = data.draw(st.integers(0, 5), label="row")
    j = data.draw(st.integers(0, k - 1), label="coefficient")
    rows[i][j] += data.draw(st.integers(-9, 9).filter(bool), label="step")
    batch = np.array(rows, dtype=dtype).reshape(2, 3, k)
    assert any(reduce_mod_phi_brute(rows[i], k))
    assert not is_zero(batch)


@pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (9, 3), (2, 8), (3, 12), (5, 5), (7, 28), (21, 21),
                                  (15, 60), (13, 13), (12, 12), (8, 8), (10, 40), (45, 15), (6, 24)])
def test_square_root_squares_to_n(n, k):
    root = square_root(n, k)
    assert root is not None and root * root == n
    assert abs(complex_value(root.coeffs, k) - math.sqrt(n)) < 1e-9  # the positive root
    assert sum(map(abs, root.coeffs)) <= n


@pytest.mark.parametrize("n, k", [(3, 3), (2, 4), (7, 7), (3, 6), (6, 12), (10, 20), (2, 2), (5, 4)])
def test_square_root_is_none_outside_the_field(n, k):
    # the conductor of Q(sqrt(m)), m the squarefree part of n, does not divide k
    assert square_root(n, k) is None
