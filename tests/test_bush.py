from __future__ import annotations

import random

import numpy as np
import pytest

from butson import bush
from butson.bent import check_bent
from butson.bush import (
    BushMatrix,
    BushStructureError,
    _block_sums_hold,
    bush_circulant,
    bush_modify,
    bush_quaternary_bents,
    bush_real_order4,
    conjugate_self_bent_check,
    projector,
    verify_projector_algebra,
)
from butson.cyclotomic import reduction_matrix
from butson.matrices import (
    LogMatrix,
    LogVector,
    fourier_matrix,
    is_unbiased,
    kronecker,
    product_counts,
    verify_hadamard,
)


def test_projector_examples():
    assert projector(3, 0).entries.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert projector(3, 1).entries.tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    for p in (3, 5, 7):
        for a in range(p):
            assert LogMatrix(p, projector(p, a).entries.T) == projector(p, (p - a) % p)
    try:
        projector(4, 1)
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_projector_algebra():
    for p in (3, 5, 7, 11, 13):
        assert verify_projector_algebra(p), p


def test_projector_algebra_needs_an_odd_prime():
    for p in (2, 9):
        with pytest.raises(ValueError, match="odd prime"):
            verify_projector_algebra(p)


def test_projector_algebra_rejects_broken_blocks(monkeypatch):
    def one_entry_off(p, a):
        r = projector(p, a)
        if a != 1:
            return r
        entries = r.entries.copy()
        entries[0, 1] += 1
        return LogMatrix(p, entries)

    monkeypatch.setattr(bush, "projector", one_entry_off)
    assert verify_projector_algebra(5) is False
    monkeypatch.setattr(bush, "projector", lambda p, a: projector(p, 0))
    assert verify_projector_algebra(5) is False


def test_projector_algebra_counts_reject_symmetric_blocks(monkeypatch):
    # R_1 and R_(p-1) change at (0, 1) and (1, 0) so that R_a* = R_a and R_a^T = R_(-a)
    # still hold; R_1^2 = p R_1 fails, so the count is what rejects them
    steps = {1: 1, 4: -1}

    def symmetric_but_wrong(p, a):
        r = projector(p, a)
        if a not in steps:
            return r
        entries = r.entries.copy()
        entries[0, 1] += steps[a]
        entries[1, 0] -= steps[a]
        return LogMatrix(p, entries)

    monkeypatch.setattr(bush, "projector", symmetric_but_wrong)
    blocks = [symmetric_but_wrong(5, a) for a in range(5)]
    assert all(r.conj_transpose() == r and LogMatrix(5, blocks[-a % 5].entries.T) == r
               for a, r in enumerate(blocks))
    assert verify_projector_algebra(5) is False


def test_bush_circulant_structure():
    for p in (3, 5, 7, 11):
        for a in range(1, p):
            b = bush_circulant(p, a)
            assert verify_hadamard(b.base)
            # symmetry
            assert LogMatrix(p, b.base.entries.T) == b.base
            # conjugation identity
            assert b.base.conjugate() == bush_circulant(p, p - a).base


def test_bush_example_p3():
    b1 = bush_circulant(3, 1)
    r = [projector(3, a).entries for a in range(3)]
    e = b1.base.entries
    # first block row is [R0, R1, R2]
    assert (e[0:3, 0:3] == r[0]).all()
    assert (e[0:3, 3:6] == r[1]).all()
    assert (e[0:3, 6:9] == r[2]).all()
    # circulant block structure: row 1 is [R2, R0, R1]
    assert (e[3:6, 0:3] == r[2]).all()


def test_bush_product_identity():
    # B_a B_((p-2)a) = p B_(2a)
    for p in (3, 5, 7):
        for a in range(1, p):
            ba = bush_circulant(p, a).base
            bb = bush_circulant(p, ((p - 2) * a) % p or p).base if ((p - 2) * a) % p else None
            if bb is None:
                continue
            counts = product_counts(ba, bb)
            target = bush_circulant(p, (2 * a) % p).base
            r = reduction_matrix(p)
            want = p * np.eye(p, dtype=np.int64)[target.entries] @ r
            assert ((counts @ r) == want).all(), (p, a)


def test_bush_p5_product_example():
    counts = product_counts(bush_circulant(5, 1).base, bush_circulant(5, 3).base)
    target = bush_circulant(5, 2).base
    r = reduction_matrix(5)
    want = 5 * np.eye(5, dtype=np.int64)[target.entries] @ r
    assert ((counts @ r) == want).all()


def test_conjugate_self_bent_check():
    assert conjugate_self_bent_check(bush_circulant(3, 1).base) is True
    assert conjugate_self_bent_check(bush_circulant(3, 2).base) is True
    assert conjugate_self_bent_check(bush_circulant(5, 1).base) is False
    assert conjugate_self_bent_check(kronecker(fourier_matrix(2), fourier_matrix(2))) is False


def test_bush_columns_conjugate_self_dual():
    # columns of B_((p-2)a) are conjugate self-dual B_a-bent
    for p in (3, 5, 7):
        a = 1
        ba = bush_circulant(p, a).base
        other = bush_circulant(p, ((p - 2) * a) % p).base
        for j in range(0, p * p, p):  # one column per block suffices for speed
            cert = check_bent(ba, other.column(j))
            assert cert.conjugate_self_dual, (p, j)
    # B1 at p=3: every column of B1 itself is conjugate self-dual (M^2 = 3 conj(M))
    b1 = bush_circulant(3, 1).base
    for j in range(9):
        assert check_bent(b1, b1.column(j)).conjugate_self_dual


def test_bush_pair_unbiased():
    b1 = bush_circulant(3, 1).base
    b2 = bush_circulant(3, 2).base
    z = is_unbiased(b1, b2)
    assert z is not None and z == 3


def test_bush_modify_identity_scaling():
    b1 = bush_circulant(3, 1)
    result = bush_modify(b1, (0, 0, 0))
    modified, sd, csd = result[:3]
    assert modified == b1.base
    assert csd.entries == (0,) * 9
    assert result.self_dual_certificate.self_dual
    assert result.conjugate_self_dual_certificate.conjugate_self_dual
    assert result.falsified == ()


def test_bush_modify_constant_u_certifies_both():
    # constant scalings are the exact regime where the self-dual candidate works
    for p in (3, 5):
        b = bush_circulant(p, 1)
        for c in range(p):
            result = bush_modify(b, (c,) * p)
            assert verify_hadamard(result.matrix)
            assert result.self_dual_certificate.self_dual
            assert result.conjugate_self_dual_certificate.conjugate_self_dual
            assert result.falsified == ()


def test_bush_modify_example_u120():
    result = bush_modify(bush_circulant(3, 1), (1, 2, 0))
    modified, sd, csd = result[:3]
    assert verify_hadamard(modified)
    # alpha = 2 and 1 for k = 3
    assert sd.entries == (2, 2, 2, 1, 1, 1, 0, 0, 0)
    assert csd.entries == (1, 1, 1, 2, 2, 2, 0, 0, 0)
    # the conjugate candidate certifies; the self-dual candidate is only bent,
    # because block row i of Hx carries the non-constant ratio 3 zeta^(u_i)
    assert result.conjugate_self_dual_certificate.conjugate_self_dual
    assert result.conjugate_self_dual_certificate.unit == 3
    sd_cert = result.self_dual_certificate
    assert sd_cert.bent and not sd_cert.self_dual and not sd_cert.conjugate_self_dual
    assert sd_cert.kind == "bent"
    assert result.falsified == ("self_dual candidate (alpha=2) certified only as bent",)


def test_bush_modify_self_dual_iff_constant_u():
    rng = random.Random(97)
    for p in (3, 5):
        b = bush_circulant(p, 1)
        for _ in range(50):
            u = tuple(rng.randrange(p) for _ in range(p))
            result = bush_modify(b, u)
            assert verify_hadamard(result.matrix)
            # both candidates are always bent, and the conjugate claim always holds
            assert result.self_dual_certificate.bent
            assert result.conjugate_self_dual_certificate.conjugate_self_dual
            # the self-dual claim holds exactly when the scaling is constant
            assert result.self_dual_certificate.self_dual == (len(set(u)) == 1)
            if len(set(u)) == 1:
                assert result.falsified == ()
            else:
                assert len(result.falsified) == 1
                assert "self_dual" in result.falsified[0]


def test_scaled_matrices_still_admit_self_dual_vectors():
    # character-patterned blocks are annihilated by the all-ones diagonal
    # blocks, so this vector stays self-dual no matter how the diagonal is
    # scaled (found by exhaustive search over 3^9 candidates)
    x = LogVector(3, (0, 1, 2, 0, 1, 2, 0, 1, 2))
    b = bush_circulant(3, 1)
    for u in [(1, 2, 0), (0, 1, 1), (2, 2, 1)]:
        result = bush_modify(b, u)
        assert check_bent(result.matrix, x).self_dual


def test_bush_modify_rejects_even_phase():
    try:
        bush_modify(bush_real_order4(), (0, 0))
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_real_order4_instance():
    b = bush_real_order4()
    assert verify_hadamard(b.base)
    assert b.block_size == 2
    assert b.base.entries.tolist() == [[0, 0, 0, 2], [0, 0, 2, 0], [0, 2, 0, 0], [2, 0, 0, 0]]


def test_quaternary_bents():
    b = bush_real_order4()
    vectors = list(bush_quaternary_bents(b))
    assert len(vectors) == 4
    assert vectors[0].entries == (1, 1, 1, 1)
    assert vectors[-1].entries == (3, 3, 3, 3)
    for x in vectors:
        cert = check_bent(b.base, x)
        assert cert.self_dual
        neg_cert = check_bent(b.base.negate(), x)
        assert neg_cert.conjugate_self_dual


def test_bush_structure_error():
    # F(C_9) has order 9 but is not Bush-type
    try:
        BushMatrix(fourier_matrix(9), 3)
        raise AssertionError("expected BushStructureError")
    except BushStructureError:
        pass


def test_block_sums_check_block_rows_and_block_columns():
    # Off-diagonal blocks [[0, 1], [0, 1]]: every block row sums as Bush-type
    # requires, two block columns do not; the transpose swaps the two roles.
    m = LogMatrix(2, [[0, 0, 0, 1], [0, 0, 0, 1], [0, 1, 0, 0], [0, 1, 0, 0]])
    assert not _block_sums_hold(m, 2)
    assert not _block_sums_hold(LogMatrix(2, m.entries.T), 2)
