from __future__ import annotations

import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson.bent import (
    NotAmicableError,
    NotCommutingError,
    NotSymmetricError,
    check_bent,
    circulant_bent_bridge,
    ksw_vector,
    search_bent,
    tensor_bent,
    tensor_corollary_check,
    vectorize,
)
from butson.bush import bush_circulant, bush_modify
from butson.cyclotomic import CycInt
from butson.matrices import (
    LogMatrix,
    LogVector,
    character_table,
    circulant_from_row,
    fourier_matrix,
    kronecker,
    verify_hadamard,
)
from butson.numtheory import bent_obstructions, is_self_conjugate

from catalog import catalog, sample_bh48
from oracles import bent_kinds_float, brute_force_bent_vectors, dual_entry_order_float


def test_ksw_is_conjugate_self_dual():
    h = character_table([3, 3])
    cert = check_bent(h, ksw_vector(3, 2))
    assert cert.bent and cert.conjugate_self_dual
    # F(C_k^m) x = k^(m/2) conj(x): the unit (Hx)_i x_i equals k^(m/2) = 3
    assert cert.conjugate_self_dual_unit == 3
    assert cert.conjugate_self_dual_unit.norm_sq() == 9


def test_ksw_smallest_case():
    h = character_table([2, 2])
    cert = check_bent(h, ksw_vector(2, 2))
    assert ksw_vector(2, 2).entries == (0, 0, 0, 1)
    assert cert.conjugate_self_dual
    # real case: also self-dual
    assert cert.self_dual


def test_ksw_m4():
    h = character_table([2, 2, 2, 2])
    x = ksw_vector(2, 4)
    cert = check_bent(h, x)
    assert cert.conjugate_self_dual


def test_ksw_range():
    for k in range(2, 8):
        cert = check_bent(character_table([k, k]), ksw_vector(k, 2))
        assert cert.conjugate_self_dual, k


def test_ksw_rejects_odd_m():
    try:
        ksw_vector(3, 3)
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_not_bent_example():
    cert = check_bent(fourier_matrix(3), LogVector(3, (0, 0, 0)))
    assert not cert.bent
    assert cert.kind == "not_bent"
    assert cert.dual[0] == 3 and cert.dual[1] == 0 and cert.dual[2] == 0


def test_certificate_norms():
    h = character_table([3, 3])
    cert = check_bent(h, ksw_vector(3, 2))
    for e in cert.dual:
        assert e.norm_sq() == 9


def test_dual_entry_orders_present_when_self_conjugate():
    # n is self-conjugate mod the odd phase k in each, so dual entries live in phase 4k
    for h, x in [(character_table([3, 3]), ksw_vector(3, 2)),
                 (fourier_matrix(5), LogVector(5, (0, 0, 1, 3, 1))),  # the first hit of search_bent
                 (character_table([7, 7]), ksw_vector(7, 2))]:
        cert = check_bent(h, x)
        assert cert.dual_entry_orders is not None
        assert all(o is not None for o in cert.dual_entry_orders)
        n, ambient = h.order, 4 * h.phase
        for e, o in zip(cert.dual, cert.dual_entry_orders):
            # entry**o = sqrt(n)**o, checked by powers in phase `ambient`
            y_pow = CycInt.integer(ambient, 1)
            for _ in range(o):
                y_pow = y_pow * e.embed(ambient)
            assert isqrt(n**o) ** 2 == n**o and y_pow == isqrt(n**o)


def test_dual_entries_are_ambient_roots_when_self_conjugate():
    # for self-conjugate (n, k) every dual entry of a bent vector is
    # sqrt(n) times a root of unity of phase 2k (even k) or 4k (odd k)
    cases = [
        (fourier_matrix(4), 8, 2),  # n=4, k=4: ambient 8, sqrt = 2
        (character_table([3, 3]), 12, 3),  # n=9, k=3: ambient 12, sqrt = 3
    ]
    for h, ambient, s in cases:
        hits = list(search_bent(h, mode="any", budget=200))
        assert hits
        for hit in hits:
            cert = check_bent(h, hit.vector)
            assert cert.dual_entry_orders is not None
            for e, order in zip(cert.dual, cert.dual_entry_orders):
                assert order is not None
                lifted = e.embed(ambient)
                y = CycInt(tuple(c // s for c in lifted.reduce().coeffs))
                p = CycInt.integer(ambient, 1)
                for _ in range(order):
                    p = p * y
                assert p == 1


@pytest.mark.parametrize("h", [
    # non-square n: the reported order is the least even exponent
    fourier_matrix(3), fourier_matrix(5), fourier_matrix(7), fourier_matrix(2).lift_phase(4),
    character_table([4, 2]),
    # square n: the reported order is the order of entry / sqrt(n)
    fourier_matrix(4), character_table([3, 3]), sample_bh48(), character_table([2, 2, 2, 2]),
], ids=["F3", "F5", "F7", "F2@4", "F4xF2", "F4", "F3^2", "BH48", "F2^4"])
def test_dual_entry_orders_match_the_float_order(h):
    k, n = h.phase, h.order
    ambient = 2 * k if k % 2 == 0 else 4 * k
    square = isqrt(n) ** 2 == n
    hits = list(search_bent(h, mode="any"))
    assert hits
    for hit in hits:
        cert = check_bent(h, hit.vector)
        for e, got in zip(cert.dual, cert.dual_entry_orders):
            o = dual_entry_order_float(e.coeffs, k, n, ambient)
            assert o is not None
            assert got == (o if square or o % 2 == 0 else 2 * o), (hit.index, e)


def _scannable():
    """Every instance small enough to scan "any" in full here."""
    yield from ((f"F(C_{k})", fourier_matrix(k)) for k in range(2, 9))
    yield from ((f"F(C_2^{m})", character_table([2] * m)) for m in (2, 3, 4))
    yield "F(C_3^2)", character_table([3, 3])
    yield "BH(4,8)", sample_bh48()
    yield "order-4 circulant", circulant_from_row(LogVector(4, (0, 0, 0, 2)))
    yield "B_1, p=3", bush_circulant(3, 1)
    yield "B_2, p=3", bush_circulant(3, 2)
    for u in range(27):
        scaling = (u // 9, u // 3 % 3, u % 3)
        yield f"B_1 scaled by {scaling}", bush_modify(bush_circulant(3, 1), scaling).matrix


def test_obstructions_and_the_order_condition_by_enumeration():
    # a sound non-existence rule leaves the full scan empty, and where n is
    # self-conjugate mod k every dual entry of every hit has an order
    fired, ordered = [], 0
    for label, h in _scannable():
        n, k = h.order, h.phase
        hits = list(search_bent(h, mode="any"))
        if bent_obstructions(n, k).any_violated:
            fired.append(label)
            assert not hits, label
        if hits and is_self_conjugate(n, k):
            ordered += 1
            for hit in hits:
                orders = check_bent(h, hit.vector).dual_entry_orders
                assert orders is not None and None not in orders, (label, hit.index)
    assert fired == ["F(C_2)", "F(C_6)", "F(C_2^3)"]
    assert ordered > 30


def test_scalar_invariance_preserves_kind():
    rng = random.Random(13)
    h = character_table([3, 3])
    x = ksw_vector(3, 2)
    base = check_bent(h, x)
    for _ in range(100):
        c = rng.randrange(3)
        shifted = LogVector(3, [(e + c) % 3 for e in x.entries])
        cert = check_bent(h, shifted)
        assert cert.bent == base.bent
        assert cert.self_dual == base.self_dual
        assert cert.conjugate_self_dual == base.conjugate_self_dual


def test_check_bent_agrees_with_float():
    rng = random.Random(37)
    for _ in range(150):
        n, k = rng.choice([(2, 2), (4, 2), (3, 3), (4, 4), (9, 3)])
        if (n, k) == (4, 2):
            h = character_table([2, 2])
        elif (n, k) == (9, 3):
            h = character_table([3, 3])
        else:
            h = fourier_matrix(n)
        x = LogVector(k, [rng.randrange(k) for _ in range(n)])
        cert = check_bent(h, x)
        bent, sd, csd = bent_kinds_float(h.entries, k, x.entries)
        assert cert.bent == bent
        if bent:
            assert cert.self_dual == sd and cert.conjugate_self_dual == csd


def test_search_fc2_empty():
    assert list(search_bent(fourier_matrix(2), mode="any")) == []


def test_search_fc22_completeness():
    h = character_table([2, 2])
    hits = list(search_bent(h, mode="any"))
    found = {hit.vector.entries for hit in hits}
    brute = brute_force_bent_vectors(h.entries, 2)
    pinned = {x for x, _, _ in brute if x[0] == 0}
    assert found == pinned
    # every bent vector is a scalar shift of a pinned hit
    assert len(brute) == 2 * len(pinned)
    for index, vector, kind in hits:
        assert check_bent(h, vector).bent


def test_search_fc4_count_regression():
    # 4^3 = 64 pinned candidates; full space 256 has 4x as many bent vectors.
    hits = list(search_bent(fourier_matrix(4), mode="any"))
    assert len(hits) == 8
    brute = brute_force_bent_vectors(fourier_matrix(4).entries, 4)
    assert len(brute) == 4 * len(hits)
    assert any(hit.vector.entries == (0, 0, 0, 2) for hit in hits)


def test_search_finds_ksw():
    h = character_table([3, 3])
    hits = list(search_bent(h, mode="conjugate_self_dual"))
    assert ksw_vector(3, 2).entries in {hit.vector.entries for hit in hits}
    for hit in hits:
        assert check_bent(h, hit.vector).conjugate_self_dual


def test_search_budget_prefix():
    h = fourier_matrix(4)
    full = list(search_bent(h, mode="any"))
    part = list(search_bent(h, mode="any", budget=30))
    assert part == [hit for hit in full if hit.index < 30]


def test_search_worker_determinism():
    h = character_table([3, 3])
    one = [(hit.index, hit.vector.entries) for hit in search_bent(h, mode="conjugate_self_dual", budget=2000)]
    two = [(hit.index, hit.vector.entries) for hit in search_bent(h, mode="conjugate_self_dual", budget=2000, workers=2)]
    assert one == two


def test_search_index_encodes_candidate():
    h = fourier_matrix(4)
    for hit in search_bent(h, mode="any", budget=64):
        # index digits base k, most significant first, after the pinned 0
        digits = []
        rem = hit.index
        for _ in range(3):
            rem, d = divmod(rem, 4)
            digits.append(d)
        assert (0,) + tuple(reversed(digits)) == hit.vector.entries


def test_tensor_bent():
    x = ksw_vector(3, 2)
    xx = tensor_bent(x, x)
    h = character_table([3, 3])
    hh = kronecker(h, h)
    cert = check_bent(hh, xx)
    assert cert.conjugate_self_dual

    a = tensor_bent(ksw_vector(2, 2), ksw_vector(2, 2))
    b = ksw_vector(2, 4)
    h4 = character_table([2, 2, 2, 2])
    assert check_bent(h4, a).conjugate_self_dual
    assert check_bent(h4, b).conjugate_self_dual

    try:
        tensor_bent(x, LogVector(4, (0,)))
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_vectorize_round_trip():
    m = LogMatrix(8, [[0, 0, 0, 0], [0, 2, 4, 6], [0, 4, 0, 4], [0, 6, 4, 2]])
    x = vectorize(m)
    assert len(x) == 16
    assert x.entries == (0, 0, 0, 0, 0, 2, 4, 6, 0, 4, 0, 4, 0, 6, 4, 2)
    assert vectorize(LogMatrix(3, [[2]])).entries == (2,)


def test_tensor_corollary_variant1():
    cert = tensor_corollary_check(fourier_matrix(3), variant=1)
    assert cert.conjugate_self_dual


def test_tensor_corollary_variant2():
    f2 = fourier_matrix(2)
    cert = tensor_corollary_check(f2, f2, variant=2)
    assert cert.self_dual
    # F(C_3) and a column-permuted copy do not commute
    h = fourier_matrix(3)
    m = h.monomial_transform([0, 1, 2], [0, 0, 0], [1, 2, 0], [0, 0, 0])
    try:
        tensor_corollary_check(h, m, variant=2)
        raise AssertionError("expected NotCommutingError")
    except NotCommutingError:
        pass


def test_tensor_corollary_variant3():
    f2 = fourier_matrix(2)
    cert = tensor_corollary_check(f2, f2, variant=3)
    assert cert.conjugate_self_dual


@pytest.mark.parametrize("p", [3, 5])
def test_tensor_corollary_variant3_on_complex_bush_matrices(p):
    # conj(H) M conj(H) = n conj(M) needs the conjugate of H, which a real H hides
    b = bush_circulant(p, 1)
    cert = tensor_corollary_check(b, b, variant=3)
    assert cert.conjugate_self_dual and cert.conjugate_self_dual_unit == b.order


_SYMMETRIC = [m for m in (e.matrix for e in catalog()) if m.order <= 25 and (m.entries == m.entries.T).all()]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_tensor_corollary_variant3_on_symmetric_monomial_transforms(data):
    # D P M P^T D stays symmetric and, like any matrix, is amicable with itself
    m = data.draw(st.sampled_from(_SYMMETRIC), label="m")
    n, k = m.order, m.phase
    perm = data.draw(st.permutations(range(n)), label="perm")
    d = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label="d")
    m = m.monomial_transform(perm, d, perm, d)
    cert = tensor_corollary_check(m, m, variant=3)
    assert cert.conjugate_self_dual and cert.conjugate_self_dual_unit == n


def test_tensor_corollary_variant3_rejections():
    f3 = fourier_matrix(3)
    # any matrix is amicable with itself, so an asymmetric M hits the
    # symmetry check
    asym = f3.monomial_transform([1, 0, 2], [0, 0, 0], [0, 1, 2], [0, 0, 0])
    try:
        tensor_corollary_check(asym, asym, variant=3)
        raise AssertionError("expected NotSymmetricError")
    except NotSymmetricError:
        pass
    # multiplying one row by zeta breaks H M* = M H*
    shifted = f3.monomial_transform([0, 1, 2], [1, 0, 0], [0, 1, 2], [0, 0, 0])
    try:
        tensor_corollary_check(f3, shifted, variant=3)
        raise AssertionError("expected NotAmicableError")
    except NotAmicableError:
        pass


@pytest.mark.parametrize("variant", [2, 3])
def test_tensor_corollary_rejects_a_phase_or_order_mismatch(variant):
    f2 = fourier_matrix(2)
    with pytest.raises(ValueError, match="phase mismatch"):
        tensor_corollary_check(f2, f2.lift_phase(4), variant=variant)
    with pytest.raises(ValueError, match="order mismatch"):
        tensor_corollary_check(f2, kronecker(f2, f2), variant=variant)


def test_circulant_bridge():
    h, cert = circulant_bent_bridge(LogVector(4, (0, 0, 0, 2)))
    assert verify_hadamard(h) and cert.bent

    h, cert = circulant_bent_bridge(LogVector(4, (0, 0, 0, 0)))
    assert not verify_hadamard(h) and not cert.bent

    rng = random.Random(71)
    for _ in range(100):
        n = rng.randrange(2, 6)
        k = rng.choice([2, 3, 4])
        x = LogVector(k, [rng.randrange(k) for _ in range(n)])
        h, cert = circulant_bent_bridge(x)
        assert verify_hadamard(h) == cert.bent


@pytest.mark.parametrize("call, error, message", [
    (lambda: next(search_bent(fourier_matrix(3), "bogus")), ValueError, "unknown mode 'bogus'"),
    (lambda: tensor_bent(LogVector(3, []), LogVector(3, [0])), ValueError, "tensor_bent needs nonempty vectors"),
    (lambda: tensor_corollary_check(fourier_matrix(3), variant=2), ValueError, "variant 2 needs a second matrix"),
    (lambda: tensor_corollary_check(fourier_matrix(3), variant=4), ValueError, "variant must be 1, 2 or 3, got 4"),
], ids=["search-mode", "tensor-empty", "variant-2-without-m", "variant-4"])
def test_guards_raise_before_any_work(call, error, message):
    with pytest.raises(error, match=message):
        call()
