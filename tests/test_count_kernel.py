"""The count kernel: brute-force agreement, exactness guards, bounded memory
at n = 2187, and the two coefficient paths of unitary_order."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import butson
from butson import matrices
from butson.bush import bush_circulant
from butson.cyclotomic import CycInt, is_zero, reduction_matrix
from butson.matrices import (
    LogMatrix,
    character_table,
    count_tensor,
    fourier_matrix,
    hermitian_product_counts,
    is_unbiased,
    product_counts,
    unitary_order,
    verify_hadamard,
)

from oracles import difference_counts_brute, product_counts_brute, unitary_order_float


def _tables(k: int, rows: int, width: int, lo: int = 0):
    return st.lists(st.lists(st.integers(lo, k - 1), min_size=width, max_size=width),
                    min_size=rows, max_size=rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_count_kernels_match_brute_force(data):
    k = data.draw(st.integers(1, 12), label="k")
    n = data.draw(st.integers(1, 12), label="n")
    a = data.draw(_tables(k, n, n), label="a")
    b = data.draw(_tables(k, n, n), label="b")
    # count_tensor itself takes rectangular tables of unreduced exponents
    c = data.draw(_tables(k, data.draw(st.integers(1, 12), label="rows"), n, lo=-30), label="c")
    assert (count_tensor(np.array(a), np.array(b), k) == difference_counts_brute(a, b, k)).all()
    assert (count_tensor(np.array(c), np.array(a), k) == difference_counts_brute(c, a, k)).all()
    ha, hb = LogMatrix(k, a), LogMatrix(k, b)
    assert (hermitian_product_counts(ha, hb) == difference_counts_brute(a, b, k)).all()
    assert (product_counts(ha, hb) == product_counts_brute(a, b, k)).all()


_HADAMARD = [fourier_matrix(k) for k in range(1, 17)] + [
    character_table([2, 2, 2]), character_table([4, 2]), character_table([3, 3]),
    bush_circulant(3, 1).base, bush_circulant(5, 2).base,
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gram_path_matches_the_general_path(data):
    # count_tensor(a, a, k) makes the matmuls for t = 1..k/2 only; a copy of a
    # is another object and goes through _times_unit for t = 1..k-1
    if data.draw(st.booleans(), label="hadamard"):
        h = data.draw(st.sampled_from(_HADAMARD), label="h")
        k, n = h.phase, h.order
        h = h.monomial_transform(data.draw(st.permutations(range(n))), [0] * n,
                                 data.draw(st.permutations(range(n))),
                                 data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        assert verify_hadamard(h)
        a = h.entries
    else:
        k = data.draw(st.integers(1, 16), label="k")
        rows, width = data.draw(st.integers(0, 12), label="rows"), data.draw(st.integers(1, 12), label="width")
        a = np.array(data.draw(_tables(k, rows, width, lo=-30), label="a"), dtype=np.int64)
        a = a.reshape(rows, width)
    assert (count_tensor(a, a, k) == count_tensor(a, a.copy(), k)).all()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_count_tensor_matches_per_entry_bincounts(data):
    # both paths fill t = 0 as the width less the other counts; zero widths and zero
    # rows give empty or all-zero tensors
    k = data.draw(st.integers(1, 13), label="k")
    width = data.draw(st.integers(0, 8), label="width")

    def table(label):
        rows = data.draw(st.integers(0, 6), label=f"{label} rows")
        cells = data.draw(_tables(k, rows, width, lo=-30), label=label)
        return np.array(cells, dtype=np.int64).reshape(rows, width)

    a = table("a")
    b = a if data.draw(st.booleans(), label="gram") else table("b")
    want = np.array([[np.bincount((x - y) % k, minlength=k) for y in b] for x in a], dtype=np.int64)
    got = count_tensor(a, b, k)
    assert got.dtype == np.int64 and got.shape == (len(a), len(b), k)
    assert (got == want.reshape(got.shape)).all()


def test_the_empty_matrix_is_hadamard():
    assert verify_hadamard(LogMatrix(3, np.zeros((0, 0))))


@pytest.mark.parametrize("k,rows,width", [(3, 81, 81), (8, 16, 16), (5, 2 * 5**3, 5), (7, 2 * 7**3, 7)])
def test_one_row_table_gives_per_row_bincounts(k, rows, width):
    # check_bent counts H against the one-row table -x; the Bush sums count the
    # (2 p^3, p) block lines against a zero row
    rng = np.random.default_rng(k * rows)
    a = rng.integers(0, k, (rows, width))
    for b in (-rng.integers(0, k, (1, width)), np.zeros((1, width), np.int64)):
        want = np.array([np.bincount((row - b[0]) % k, minlength=k) for row in a])
        got = count_tensor(a, b, k)
        assert got.shape == (rows, 1, k) and got.dtype == np.int64
        assert (got[:, 0] == want).all()


def test_is_zero_compares_in_the_ring():
    zero = np.array([[[1, 1, 1]]])  # 1 + zeta_3 + zeta_3^2 = 0
    one = np.array([1, 0, 0])
    assert is_zero(zero)
    assert is_zero(zero - np.zeros(3, dtype=np.int64))
    assert is_zero(np.array([[[2, 1, 1]]]) - one)
    assert not is_zero(np.array([[[2, 1, 1]]]) - 2 * one)
    assert not is_zero(np.array([[[0, 1, 0]]]))  # zeta_3 on the diagonal
    assert not is_zero(np.array([[[1, 0, 0], [0, 1, 0]]]) - [[[1, 0, 0], [0, 0, 0]]])  # off-diagonal zeta_3


def test_exactness_guards_raise_before_allocating(monkeypatch):
    # zero-stride views: neither shape costs memory, and the guards run first
    wide = np.broadcast_to(np.int8(0), (1, 2**24))
    with pytest.raises(ValueError, match=r"2\*\*24"):
        count_tensor(wide, wide, 3)
    huge = np.broadcast_to(np.int8(0), (1, 2**61))
    assert int(np.abs(reduction_matrix(105)).max()) == 2  # so 2 * 2**61 reaches 2**62
    with pytest.raises(ValueError, match="int64"):
        count_tensor(huge, huge, 105)
    # the widest table both guards allow reaches the kernel; with zero rows only
    # the one-hot column index (128 MiB) is allocated
    calls, times_unit = [], matrices._times_unit

    def spy(left, right, shifts):
        calls.append((left.shape, right.shape, right is left, list(shifts)))
        return times_unit(left, right, shifts)

    monkeypatch.setattr(matrices, "_times_unit", spy)
    widest = np.broadcast_to(np.int8(0), (0, 2**24 - 1))
    assert count_tensor(widest, widest.copy(), 105).shape == (0, 0, 105)
    # a table counted against itself takes the Gram path: the same loop on its one
    # one-hot stack, for t = 1..k/2 only
    assert count_tensor(widest, widest, 105).shape == (0, 0, 105)
    hot = (0, 105, 2**24 - 1)
    assert calls == [(hot, hot, False, list(range(1, 105))), (hot, hot, True, list(range(1, 53)))]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB and RLIMIT_AS is enforced on Linux")
def test_verify_hadamard_n2187_memory_is_bounded():
    # The address-space cap turns a memory regression into a MemoryError in
    # the child instead of pressure on the machine.
    cap = 1024 * 2**20
    code = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from butson.matrices import character_table, verify_hadamard\n"
        "print(verify_hadamard(character_table([3] * 7)))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(butson.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    verdict, maxrss_kib = run.stdout.split()
    assert verdict == "True"
    assert int(maxrss_kib) <= 400 * 1024


def test_one_entry_mutations_of_f3_6_fail():
    h = character_table([3] * 6)
    assert verify_hadamard(h)
    rng = random.Random(729)
    for _ in range(3):
        e = h.entries.copy()
        i, j = rng.randrange(729), rng.randrange(729)
        e[i, j] = (e[i, j] + rng.randrange(1, 3)) % 3
        assert not verify_hadamard(LogMatrix(3, e)), (i, j)


def _random_equivalent(base: LogMatrix, rng: random.Random) -> LogMatrix:
    n, k = base.order, base.phase
    return base.monomial_transform(rng.sample(range(n), n), [rng.randrange(k) for _ in range(n)],
                                   rng.sample(range(n), n), [rng.randrange(k) for _ in range(n)])


def _is_unbiased_reference(a: LogMatrix, b: LogMatrix) -> CycInt | None:
    """is_unbiased by CycInt entries and a per-entry search over rotations of z."""
    n, k = a.order, a.phase
    prod = [[sum((CycInt.root(k, int(a.entries[i, m])) * CycInt.root(k, int(b.entries[j, m])).conj()
                  for m in range(n)), CycInt.integer(k, 0))
             for j in range(n)] for i in range(n)]
    z = prod[0][0]
    if z.norm_sq() != n:
        return None
    quotient = []
    for row in prod:
        q = [next((t for t in range(k) if z.times_root(t) == w), None) for w in row]
        if None in q:
            return None
        quotient.append(q)
    return z if verify_hadamard(LogMatrix(k, quotient)) else None


def test_is_unbiased_matches_reference():
    rng = random.Random(17)
    pairs = [(bush_circulant(3, 1).base, bush_circulant(3, 2).base),
             (bush_circulant(3, 1).base, bush_circulant(3, 1).base)]
    for base in (fourier_matrix(4), character_table([2, 2]).lift_phase(4), fourier_matrix(3)):
        pairs += [(_random_equivalent(base, rng), _random_equivalent(base, rng)) for _ in range(6)]
    results = [is_unbiased(a, b) for a, b in pairs]
    assert results == [_is_unbiased_reference(a, b) for a, b in pairs]
    assert any(r is None for r in results) and any(r is not None for r in results)


def _unitary_order_reference(h: LogMatrix, max_t: int) -> int | None:
    """Least t with H^t = sqrt(n)^t I, by CycInt powers with no rescaling.  It compares
    with isqrt(n**t), so for non-square n it finds only even t: give it no matrix whose
    order is odd there (unitary_order finds those through cyclotomic.square_root)."""
    n, k = h.order, h.phase
    rows = [[CycInt.root(k, int(h.entries[i, j])) for j in range(n)] for i in range(n)]
    p = rows
    for t in range(1, max_t + 1):
        if t > 1:
            p = [[sum((p[i][m] * rows[m][j] for m in range(n)), CycInt.integer(k, 0)).reduce()
                  for j in range(n)] for i in range(n)]
        c = isqrt(n**t)
        if c * c == n**t and all(p[i][j] == (c if i == j else 0) for i in range(n) for j in range(n)):
            return t
    return None


def _record_dtypes(monkeypatch, force=None) -> list:
    """Record the matmul dtype unitary_order picks per step, optionally overriding it:
    its products are the check_exact calls with candidates (float64, object)."""
    chosen = []
    pick = matrices.check_exact

    def record(bound, *dtypes):
        if dtypes != (np.float64, object):
            return pick(bound, *dtypes)
        chosen.append(pick(bound, *dtypes) if force is None else force)
        return chosen[-1]

    monkeypatch.setattr(matrices, "check_exact", record)
    return chosen


def test_unitary_order_paths_match_reference(monkeypatch):
    rng = random.Random(9)
    cases = [bush_circulant(3, 1).base]
    for base in (fourier_matrix(3), fourier_matrix(4), character_table([2, 2])):
        cases += [_random_equivalent(base, rng) for _ in range(2)]
    expected = [_unitary_order_reference(h, 40) for h in cases]
    assert None in expected and 3 in expected
    for force in (None, object):
        chosen = _record_dtypes(monkeypatch, force)
        assert [unitary_order(h, 40) for h in cases] == expected
        assert set(chosen) == {np.float64 if force is None else object}


def test_unitary_order_falls_back_to_python_ints(monkeypatch):
    # No finite order: the coefficient bound grows by about half a bit per
    # power, passes 2**53 near H^100, and the remaining products use Python
    # ints.  Only the powers up to H^(max_t/2) are made.
    h = LogMatrix(4, [[1, 0, 0, 0], [0, 2, 0, 1], [1, 1, 3, 2], [2, 3, 3, 1]])
    chosen = _record_dtypes(monkeypatch)
    assert unitary_order(h, 320) is None
    assert chosen[0] is np.float64 and chosen[-1] is object
    assert _unitary_order_reference(h, 320) is None
    assert matrices.check_exact(2**53 - 1, np.float64, object) is np.float64
    assert matrices.check_exact(2**53, np.float64, object) is object


def test_unitary_order_stays_in_float64_without_an_order(monkeypatch):
    # a chirped F(C_16): H^s / n^j stays small, so every product is a float64 matmul
    k, i = 32, np.arange(16)
    h = LogMatrix(k, fourier_matrix(16).lift_phase(k).entries + ((3 * i * i + 5 * i) % k)[:, None])
    chosen = _record_dtypes(monkeypatch)
    assert unitary_order(h, 64) is None
    assert unitary_order_float(h.entries, k, 64) is None
    assert chosen and set(chosen) == {np.float64}
