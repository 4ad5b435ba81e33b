from __future__ import annotations

import random

import numpy as np
import pytest

from butson.cyclotomic import CycInt
from butson.matrices import (
    LogMatrix,
    LogVector,
    NotHadamardError,
    character_table,
    circulant_from_row,
    fourier_matrix,
    hermitian_product_counts,
    is_unbiased,
    kronecker,
    product_counts,
    sylvester_matrix,
    unitary_order,
    verify_hadamard,
)

from oracles import is_hadamard_float, unit_matrix

BH48_ROWS = [[0, 0, 0, 0], [0, 2, 4, 6], [0, 4, 0, 4], [0, 6, 4, 2]]


def all_factor_tuples(max_order: int):
    """Every factor tuple (each >= 2) with product <= max_order."""
    out = [()]
    frontier = [((), 1)]
    while frontier:
        factors, prod = frontier.pop()
        for d in range(2, max_order // prod + 1):
            if factors and d < factors[-1]:
                continue  # canonical nondecreasing form avoids duplicates
            out.append(factors + (d,))
            frontier.append((factors + (d,), prod * d))
    return [t for t in out if t]


def test_character_table_examples():
    assert character_table([2]).entries.tolist() == [[0, 0], [0, 1]]
    assert character_table([3]).entries.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    assert character_table([2, 2]) == kronecker(fourier_matrix(2), fourier_matrix(2))
    assert character_table([2, 4]).phase == 4


def test_character_tables_verify():
    for orders in all_factor_tuples(16):
        h = character_table(orders)
        assert verify_hadamard(h), orders


def test_kronecker_entry_layout():
    a = fourier_matrix(2)
    b = fourier_matrix(3)
    c = kronecker(a, b)
    assert c.phase == 6 and c.order == 6
    for i in range(2):
        for s in range(3):
            for j in range(2):
                for t in range(3):
                    expect = (3 * a.entries[i, j] + 2 * b.entries[s, t]) % 6
                    assert c.entries[3 * i + s, 3 * j + t] == expect


def test_kronecker_preserves_hadamard():
    rng = random.Random(3)
    pool = [fourier_matrix(n) for n in range(2, 6)] + [sylvester_matrix(2), character_table([2, 4])]
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        assert verify_hadamard(kronecker(a, b))


def test_verify_hadamard_examples():
    assert verify_hadamard(LogMatrix(8, BH48_ROWS))
    assert not verify_hadamard(LogMatrix(2, [[0, 0], [0, 0]]))
    assert verify_hadamard(fourier_matrix(5))


def test_verify_hadamard_agrees_with_float():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 6)
        k = rng.choice([2, 3, 4, 6])
        m = LogMatrix(k, [[rng.randrange(k) for _ in range(n)] for _ in range(n)])
        assert verify_hadamard(m) == is_hadamard_float(m.entries, k)


def test_single_entry_mutation_breaks_hadamard():
    base = LogMatrix(8, BH48_ROWS)
    assert verify_hadamard(base)
    for i in range(4):
        for j in range(4):
            for delta in range(1, 8):
                e = base.entries.copy()
                e[i, j] = (e[i, j] + delta) % 8
                assert not verify_hadamard(LogMatrix(8, e)), (i, j, delta)


def test_dephase():
    # subtracting the first row and then the first column keeps a matrix Hadamard
    def dephase(m):
        return LogMatrix(m.phase, m.entries - m.entries[0] - m.entries[:, :1] + m.entries[0, 0])

    f3 = fourier_matrix(3)
    assert dephase(f3) == f3
    rng = random.Random(23)
    for _ in range(100):
        n = 4
        perm_r = rng.sample(range(n), n)
        perm_c = rng.sample(range(n), n)
        shifts_r = [rng.randrange(8) for _ in range(n)]
        shifts_c = [rng.randrange(8) for _ in range(n)]
        m = LogMatrix(8, BH48_ROWS).monomial_transform(perm_r, shifts_r, perm_c, shifts_c)
        d = dephase(m)
        assert (d.entries[0, :] == 0).all() and (d.entries[:, 0] == 0).all()
        assert verify_hadamard(d) and verify_hadamard(m)


def test_circulant_from_row():
    x = LogVector(4, (0, 0, 0, 2))
    h = circulant_from_row(x)
    assert verify_hadamard(h)
    n = 4
    for i in range(n):
        for j in range(n):
            assert h.entries[i, j] == x.entries[(i - j) % n]
    assert circulant_from_row(LogVector(3, (0,))).entries.tolist() == [[0]]
    assert not verify_hadamard(circulant_from_row(LogVector(2, (0, 0))))


def test_circulant_eigenvalue_characterization():
    # circulant is Hadamard iff every entry of F(C_n) x_hat has |.|^2 = n
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(2, 6)
        k = rng.choice([2, 3, 4])
        x = [rng.randrange(k) for _ in range(n)]
        h = circulant_from_row(LogVector(k, x))
        xv = np.exp(2j * np.pi * np.array(x) / k)
        f = unit_matrix(fourier_matrix(n).entries, n)
        eig = f @ xv
        expect = bool(np.allclose(np.abs(eig) ** 2, n, atol=1e-8))
        assert verify_hadamard(h) == expect


def test_product_counts_matches_float():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randrange(2, 6)
        k = rng.choice([2, 3, 4, 6, 8])
        a = LogMatrix(k, [[rng.randrange(k) for _ in range(n)] for _ in range(n)])
        b = LogMatrix(k, [[rng.randrange(k) for _ in range(n)] for _ in range(n)])
        counts = product_counts(a, b)
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        approx = counts @ roots
        exact = unit_matrix(a.entries, k) @ unit_matrix(b.entries, k)
        assert np.allclose(approx, exact, atol=1e-8)
        hcounts = hermitian_product_counts(a, b)
        exact_h = unit_matrix(a.entries, k) @ unit_matrix(b.entries, k).conj().T
        assert np.allclose(hcounts @ roots, exact_h, atol=1e-8)


def test_is_unbiased_self_is_empty():
    assert is_unbiased(fourier_matrix(3), fourier_matrix(3)) is None
    assert is_unbiased(sylvester_matrix(2), sylvester_matrix(2)) is None


def test_is_unbiased_sylvester_vs_circulant():
    # computed once exactly and frozen: these two real Hadamard matrices of
    # order 4 are unbiased with z = 2 after lifting to phase 4.
    a = sylvester_matrix(2).lift_phase(4)
    b = circulant_from_row(LogVector(4, (0, 0, 0, 2)))
    z = is_unbiased(a, b)
    assert z is not None
    assert z.norm_sq() == 4
    assert z == 2


def test_is_unbiased_rejects_a_phase_or_order_mismatch():
    with pytest.raises(ValueError, match="phase mismatch"):
        is_unbiased(fourier_matrix(2), fourier_matrix(2).lift_phase(4))
    with pytest.raises(ValueError, match="order mismatch"):
        is_unbiased(fourier_matrix(2), sylvester_matrix(2))


def test_unitary_order_fourier2():
    assert unitary_order(fourier_matrix(2), 8) == 2


def test_unitary_order_circulant_divides_lcm():
    h = circulant_from_row(LogVector(4, (0, 0, 0, 2)))
    t = unitary_order(h, 16)
    assert t is not None and 4 % t == 0  # lcm(4, n, k) = 4


def test_unitary_order_rejects_non_hadamard():
    try:
        unitary_order(LogMatrix(2, [[0, 0], [0, 0]]), 4)
        raise AssertionError("expected NotHadamardError")
    except NotHadamardError:
        pass


def test_lift_phase_and_negate():
    f2 = fourier_matrix(2)
    lifted = f2.lift_phase(8)
    assert lifted.phase == 8
    assert lifted.entries.tolist() == [[0, 0], [0, 4]]
    neg = lifted.negate()
    assert neg.entries.tolist() == [[4, 4], [4, 0]]
    assert verify_hadamard(neg)


def test_bh48_equals_lifted_fourier4():
    assert LogMatrix(8, BH48_ROWS) == fourier_matrix(4).lift_phase(8)
