from __future__ import annotations

from math import lcm

from butson.bent import check_bent
from butson.bush import bush_circulant
from butson.matrices import unitary_order, verify_hadamard
from butson.numtheory import bent_obstructions

from catalog import KSW_PAIRS, SQUARE_SUM_KINDS, bent_orders_and_phases, catalog, sample_bh48
from oracles import bent_kinds_float


def test_sample_bh48_is_hadamard():
    h = sample_bh48()
    assert (h.order, h.phase) == (4, 8)
    assert verify_hadamard(h)


def test_catalog_matrices_verify():
    for entry in catalog():
        assert verify_hadamard(entry.matrix), entry.label


def test_catalog_kinds_certify():
    for entry in catalog():
        if entry.vector is None:
            assert entry.kinds == ()
            continue
        cert = check_bent(entry.matrix, entry.vector)
        for kind in entry.kinds:
            assert getattr(cert, kind if kind != "bent" else "bent"), (entry.label, kind)


def test_catalog_labels_unique():
    labels = [e.label for e in catalog()]
    assert len(labels) == len(set(labels))


def test_catalog_covers_quadratic_pairs():
    labels = "\n".join(e.label for e in catalog())
    for k, m in KSW_PAIRS:
        assert f"F(C_{k}^{m})" in labels


def test_square_sum_vectors_certify_exactly_their_kinds():
    # c_1^2 + ... + c_m^2 on F(C_p^m): conjugate self-dual for p = 3, self-dual
    # for p = 5 and bent only for p = 7, exactly and in floats
    squares = [e for e in catalog() if e.label.startswith("sum-of-squares")]
    assert [(e.matrix.phase, e.matrix.order) for e in squares] == [(3, 3), (3, 27), (5, 5), (7, 7)]
    for entry, kinds in zip(squares, SQUARE_SUM_KINDS.values()):
        h, x = entry.matrix, entry.vector
        assert check_bent(h, x).kind == ("+".join(kinds[1:]) or "bent")
        want = tuple(kind in kinds for kind in ("bent", "self_dual", "conjugate_self_dual"))
        assert bent_kinds_float(h.entries, h.phase, x.entries) == want
    assert {(3, 3), (27, 3), (5, 5), (7, 7)} <= set(bent_orders_and_phases())


def test_no_obstruction_on_certified_pairs():
    pairs = bent_orders_and_phases()
    assert len(pairs) >= 8
    for n, k in pairs:
        report = bent_obstructions(n, k)
        assert not report.any_violated, (n, k, report.verdicts)


def test_unitary_order_divides_lcm():
    # the rescaled matrix has finite multiplicative order dividing lcm(4, n, k)
    # for the real circulant and the block-circulant family
    circ = next(e.matrix for e in catalog() if "circulant" in e.label and e.vector is None)
    bound = lcm(4, circ.order, circ.phase)
    t = unitary_order(circ, bound)
    assert t is not None and bound % t == 0
    for p in (3, 5):
        b = bush_circulant(p, 1)
        bound = lcm(4, b.order, b.phase)
        t = unitary_order(b, bound)
        assert t is not None and bound % t == 0
        assert t == p  # cubes of the rescaled p=3 matrix and fifth powers at p=5 hit the identity
