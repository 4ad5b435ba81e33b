from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson.bent import check_bent, index_digits, search_bent
from butson.matrices import LogVector, character_table, fourier_matrix
from butson.numtheory import (
    bent_obstructions,
    circulant_real_obstruction,
    dual_entry_ambient_phase,
    entry_root_obstruction,
    factorize,
    is_prime,
    is_self_conjugate,
    is_self_conjugate_prime,
    moebius,
    multiplicative_order,
    p_part,
    splitting_profile,
    totient,
)

from oracles import _mobius_brute, multiplicative_order_brute


def test_p_part_examples():
    assert p_part(12, 2) == 4
    assert p_part(4 * 9**2, 3) == 81
    assert p_part(7, 2) == 1
    assert p_part(-12, 2) == 4


def test_self_conjugate_prime_examples():
    # 5^2 = 25 = -1 mod 13
    assert is_self_conjugate_prime(5, 13) is True
    # powers of 2 mod 7 are {1, 2, 4}, never 6
    assert is_self_conjugate_prime(2, 7) is False
    # k/p_part(k, p) = 1, vacuously self conjugate
    assert is_self_conjugate_prime(3, 9) is True
    assert is_self_conjugate_prime(2, 2) is True


def test_self_conjugate_composite():
    p = 3
    n = 4 * p * p
    assert is_self_conjugate(n, n) is True
    assert is_self_conjugate(1, 13) is True
    # 10 = 2 * 5; both 2 and 5 have -1 in their power orbit mod 13
    assert is_self_conjugate(10, 13) is True
    assert is_self_conjugate_prime(2, 13) is True


def test_self_conjugate_brute_force_cross_check():
    # p self conjugate mod k  <=>  -1 is a power of p mod k/p_part(k, p),
    # checked directly against the orbit for every small prime and modulus.
    primes = [p for p in range(2, 50) if is_prime(p)]
    for p in primes:
        for k in range(2, 100):
            m = k // p_part(k, p)
            if m <= 2:
                expected = True
            else:
                orbit = set()
                x = p % m
                while x not in orbit:
                    orbit.add(x)
                    x = (x * p) % m
                expected = (m - 1) in orbit
            assert is_self_conjugate_prime(p, k) is expected, (p, k)


def test_splitting_profile_examples():
    prof = splitting_profile(5, 13)
    assert (prof.f, prof.g) == (4, 3)
    assert prof.ramification_exponent == 1

    # 9 = 3^2 divides the phase, so 3 ramifies with index phi(9) = 6
    prof = splitting_profile(3, 9)
    assert (prof.f, prof.g) == (1, 1)
    assert prof.ramification_exponent == 6

    prof = splitting_profile(2, 7)
    assert (prof.f, prof.g) == (3, 2)


def test_splitting_profile_fg_totient_invariant():
    primes = [p for p in range(2, 50) if is_prime(p)]
    for p in primes:
        for k in range(2, 100):
            prof = splitting_profile(p, k)
            m = k // p_part(k, p)
            assert prof.f * prof.g == totient(m), (p, k)
            if m > 1:
                assert prof.f == multiplicative_order(p, m)


def test_entry_root_obstruction():
    assert entry_root_obstruction(9, 3) is True
    assert entry_root_obstruction(36, 3) is True
    assert entry_root_obstruction(6, 3) is False
    assert entry_root_obstruction(16, 4) is True
    assert entry_root_obstruction(8, 4) is False
    try:
        entry_root_obstruction(9, 5)
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_bent_obstructions_per_prime_rule():
    # (6, 6): no per-prime violation; 3 is not self conjugate mod 2,
    # and 2 is handled by the even-part rule, not the odd per-prime one.
    report = bent_obstructions(6, 6)
    prime_rows = [v for v in report.verdicts if v.rule == "square-p-part"]
    assert prime_rows, "per-prime rows must always be present"
    assert not any(v.violated for v in prime_rows)

    # (5, 13): 5 is self conjugate mod 13 and appears to the first power in n = 5.
    report = bent_obstructions(5, 13)
    assert report.any_violated
    assert any(v.violated for v in report.verdicts if v.rule == "square-p-part")

    # (25, 13): exponent is even, no violation.
    report = bent_obstructions(25, 13)
    assert not any(v.violated for v in report.verdicts if v.rule == "square-p-part")


def test_bent_obstructions_even_part_rule():
    # k = 2 mod 4 with 2 self conjugate mod k and odd 2-part exponent in n.
    report = bent_obstructions(6, 6)
    rows = [v for v in report.verdicts if v.rule == "square-2-part"]
    assert len(rows) == 1
    assert rows[0].applicable and rows[0].violated

    report = bent_obstructions(12, 6)
    rows = [v for v in report.verdicts if v.rule == "square-2-part"]
    assert rows[0].applicable and not rows[0].violated

    # rule only applies when k = 2 mod 4
    report = bent_obstructions(6, 4)
    assert not any(v.rule == "square-2-part" for v in report.verdicts)


def test_bent_obstructions_entry_root_rule():
    report = bent_obstructions(6, 3)
    rows = [v for v in report.verdicts if v.rule == "entry-root-form"]
    assert len(rows) == 1 and rows[0].violated

    report = bent_obstructions(9, 3)
    rows = [v for v in report.verdicts if v.rule == "entry-root-form"]
    assert len(rows) == 1 and not rows[0].violated


def test_a_violated_entry_root_row_alone_leaves_bent_vectors_possible():
    # n = 3, 27 and 8 are not 9 m^2 or 4 m^2, yet bent vectors exist at (3, 3) and (27, 3)
    assert len(list(search_bent(fourier_matrix(3), "any"))) == 6
    c = index_digits(np.arange(27), 3, 3)
    x = LogVector(3, (c**2).sum(axis=0) % 3)  # x_c = c_1^2 + c_2^2 + c_3^2
    assert check_bent(character_table([3, 3, 3]), x).kind == "conjugate_self_dual"
    for n, k in ((3, 3), (27, 3), (8, 4)):
        report = bent_obstructions(n, k)
        assert [v.rule for v in report.verdicts if v.violated] == ["entry-root-form"]
        assert not report.any_violated
    assert bent_obstructions(6, 3).any_violated  # square-p-part still fires next to it


def test_no_obstruction_on_known_pairs():
    # sizes and phases carrying known bent vectors must come out clean
    # under the per-prime and entry-root rules.
    for n, k in [(4, 2), (16, 2), (9, 3), (81, 3), (16, 4), (25, 5), (49, 7), (4, 4)]:
        report = bent_obstructions(n, k)
        for v in report.verdicts:
            if v.rule in ("square-p-part", "entry-root-form"):
                assert not v.violated, (n, k, v)


def test_circulant_real_obstruction():
    assert circulant_real_obstruction(36) is True  # 36 = 4 * 3^2, 3 = 3 mod 8
    assert circulant_real_obstruction(4) is False
    assert circulant_real_obstruction(484) is True  # 484 = 4 * 11^2, 11 = 3 mod 8
    assert circulant_real_obstruction(100) is False  # 5 = 5 mod 8
    assert circulant_real_obstruction(16) is False


def test_dual_entry_ambient_phase():
    assert dual_entry_ambient_phase(9, 3) == 12
    assert dual_entry_ambient_phase(4, 4) == 8
    assert dual_entry_ambient_phase(5, 13) == 52
    assert dual_entry_ambient_phase(2, 7) is None


def test_factorize_round_trip():
    for n in list(range(2, 400)) + [2**31 - 1, 4294967291]:
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
    try:
        factorize(2**32)
        raise AssertionError("expected ValueError beyond trial-division bound")
    except ValueError:
        pass


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * (10**4 - 2)
    for p in range(2, 100):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [is_prime(n) for n in range(10**4)] == sieve
    assert is_prime(-7) is False and is_prime(2**32 - 5) is True
    with pytest.raises(ValueError):
        is_prime(2**32)


def test_moebius_matches_the_brute_force():
    assert [moebius(n) for n in range(1, 2000)] == [_mobius_brute(n) for n in range(1, 2000)]


def test_totient_agrees_with_gcd_count():
    for n in range(1, 200):
        assert totient(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.integers(-40, 40))
def test_multiplicative_order_matches_stepping_through_powers(m, a):
    if math.gcd(a, m) != 1:
        with pytest.raises(ValueError, match="not a unit"):
            multiplicative_order(a, m)
    else:
        assert multiplicative_order(a, m) == multiplicative_order_brute(a, m)


def test_multiplicative_order_past_the_reach_of_stepping():
    # 2**31 - 2 = 2 * 3**2 * 7 * 11 * 31 * 151 * 331: t is an order iff a^t = 1 and
    # no a^(t/p) is, for p among those primes
    m = 2**31 - 1
    for a in (3, 7, 16807):
        t = multiplicative_order(a, m)
        assert pow(a, t, m) == 1 and all(pow(a, t // p, m) != 1 for p in factorize(t))
