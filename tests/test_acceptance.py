"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
assertion is exact; runtime limits are part of the criteria and asserted
with time.perf_counter.  The multi-worker speedup clause of criterion 3
needs at least 4 CPUs and is skipped (loudly) on smaller machines.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from butson.bent import check_bent, ksw_vector, search_bent
from butson.bush import bush_circulant, bush_modify, verify_projector_algebra
from butson.codes import (
    bent_lower_bound,
    code_from_matrix,
    covering_radius,
    leducq_upper_bound,
    min_distance,
    reed_muller_1,
    schmidt_rho,
)
from butson.cyclotomic import CycInt, reduction_matrix
from butson.matrices import (
    LogMatrix,
    LogVector,
    character_table,
    product_counts,
    verify_hadamard,
)
from butson.numtheory import (
    bent_obstructions,
    circulant_real_obstruction,
    is_self_conjugate_prime,
    splitting_profile,
)

from catalog import bent_orders_and_phases, sample_bh48
from oracles import hamming_distance, ternary_distance


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_shipped_matrix_verifies_and_mutations_fail():
    rows = sample_bh48().rows()
    best = min(
        _timed_verify(LogMatrix(8, rows)) for _ in range(5)
    )
    fresh = LogMatrix(8, rows)
    ok = verify_hadamard(fresh)
    failures = 0
    for i in range(4):
        for j in range(4):
            for delta in range(1, 8):
                e = np.array(rows, dtype=np.int64)
                e[i, j] = (e[i, j] + delta) % 8
                if not verify_hadamard(LogMatrix(8, e)):
                    failures += 1
    ok = ok and failures == 4 * 4 * 7 and best < 1e-3
    report(1, ok, f"BH(4,8) verifies in {best * 1e3:.3f} ms; "
                  f"{failures}/112 single-entry mutations fail")


def _timed_verify(h: LogMatrix) -> float:
    t0 = time.perf_counter()
    assert verify_hadamard(h)
    return time.perf_counter() - t0


def test_criterion_2_ksw_vectors_conjugate_self_dual():
    pairs = ((2, 2), (2, 4), (3, 2), (3, 4), (4, 2), (5, 2), (7, 2))
    t0 = time.perf_counter()
    kinds = []
    for k, m in pairs:
        cert = check_bent(character_table([k] * m), ksw_vector(k, m))
        kinds.append(cert.conjugate_self_dual)
    elapsed = time.perf_counter() - t0
    ok = all(kinds) and elapsed < 10.0
    report(2, ok, f"{sum(kinds)}/{len(pairs)} KSW vectors certify "
                  f"conjugate self-dual in {elapsed:.2f} s")


def test_criterion_3_exhaustive_search_finds_ksw():
    h = character_table([3, 3])
    t0 = time.perf_counter()
    hits = list(search_bent(h, mode="conjugate_self_dual", budget=3**9, workers=1))
    elapsed = time.perf_counter() - t0
    ksw = ksw_vector(3, 2)
    found_ksw = any(hit.vector == ksw for hit in hits)
    ok = len(hits) >= 1 and found_ksw and elapsed < 30.0
    report(3, ok, f"{len(hits)} conjugate self-dual vectors over 3^9=19683 "
                  f"candidates in {elapsed:.2f} s single-worker; KSW vector "
                  f"{'found' if found_ksw else 'missing'} "
                  f"(speedup clause: separate test, needs >= 4 CPUs)")


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="criterion 3 speedup clause: SKIPPED — requires 4 CPUs, sandbox has "
           f"{os.cpu_count() or 1}; single-worker correctness asserted above",
)
def test_criterion_3_speedup_to_four_workers():
    h = character_table([3, 3])
    t0 = time.perf_counter()
    one = list(search_bent(h, mode="conjugate_self_dual", budget=3**9, workers=1))
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    four = list(search_bent(h, mode="conjugate_self_dual", budget=3**9, workers=4))
    t4 = time.perf_counter() - t0
    ok = [h.vector for h in one] == [h.vector for h in four] and t1 / t4 >= 3.0
    report(3, ok, f"speedup x{t1 / t4:.2f} at 4 workers (need >= 3.0), "
                  f"identical hit stream")


def test_criterion_4_projector_algebra_and_products():
    t0 = time.perf_counter()
    algebra = all(verify_projector_algebra(p) for p in (3, 5, 7, 11))
    products = conjugates = True
    for p in (3, 5, 7, 11):
        r = reduction_matrix(p)
        eye = np.eye(p, dtype=np.int64)
        for a in range(1, p):
            ba = bush_circulant(p, a).base
            bb = bush_circulant(p, ((p - 2) * a) % p).base
            target = bush_circulant(p, (2 * a) % p).base
            counts = product_counts(ba, bb)
            products &= bool(((counts @ r) == p * eye[target.entries] @ r).all())
            conjugates &= ba.conjugate() == bush_circulant(p, p - a).base
    b1 = bush_circulant(3, 1).base
    counts = product_counts(b1, b1)
    r = reduction_matrix(3)
    eye = np.eye(3, dtype=np.int64)
    squares = bool(((counts @ r) == 3 * eye[b1.conjugate().entries] @ r).all())
    columns = all(check_bent(b1, b1.column(j)).conjugate_self_dual for j in range(9))
    elapsed = time.perf_counter() - t0
    ok = algebra and products and conjugates and squares and columns and elapsed < 5.0
    report(4, ok, f"projector algebra p in (3,5,7,11); B_a B_((p-2)a) = p B_(2a) "
                  f"and conj(B_a) = B_(p-a) for all a; at p=3, M^2 = 3 conj(M) and "
                  f"all 9 columns conjugate self-dual; {elapsed:.2f} s")


def test_criterion_5_diagonal_scaling_family_with_falsification_report():
    rng = random.Random(45)
    hadamard_ok = csd_ok = sd_match = cases = 0
    counterexamples = []
    for p in (3, 5):
        b = bush_circulant(p, 1)
        for _ in range(50):
            u = tuple(rng.randrange(p) for _ in range(p))
            result = bush_modify(b, u)
            cases += 1
            hadamard_ok += verify_hadamard(result.matrix)
            csd_ok += result.conjugate_self_dual_certificate.conjugate_self_dual
            predicted_sd = len(set(u)) == 1
            actual_sd = result.self_dual_certificate.self_dual
            sd_match += actual_sd == predicted_sd
            if result.falsified and len(counterexamples) < 3:
                counterexamples.append((p, u, result.falsified[0],
                                        result.self_dual_certificate.kind))
    ok = (hadamard_ok == cases and csd_ok == cases and sd_match == cases
          and len(counterexamples) > 0)
    p0, u0, what, kind = counterexamples[0]
    report(5, ok,
           f"all {cases} modified matrices Butson Hadamard; conjugate self-dual "
           f"claim held {csd_ok}/{cases}; self-dual claim FALSIFIED for non-constant "
           f"u and held only for constant u (characterization exact {sd_match}/{cases}) "
           f"— e.g. p={p0}, u={u0}: {what} (certified kind: {kind}); reported, "
           f"not skipped")


def test_criterion_6_covering_radius_sandwich():
    h = character_table([3, 3])
    x = ksw_vector(3, 2)
    cert = check_bent(h, x)
    _, code = code_from_matrix(h)
    t0 = time.perf_counter()
    result = covering_radius(code, "exhaustive", workers=1)
    elapsed = time.perf_counter() - t0
    lower = bent_lower_bound(h, x).bound
    upper = leducq_upper_bound(9, 3).floor
    ok = (cert.bent and result.exact and lower == 4 and upper == 5
          and lower <= result.value <= upper and elapsed < 5.0)
    report(6, ok, f"BH(9,3) with certified bent vector: radius {result.value} in "
                  f"[{lower}, {upper}], 19683 ambient vectors in {elapsed:.2f} s")


def test_criterion_7_example_code_parameters_and_radius():
    _, code = code_from_matrix(sample_bh48())
    radius = covering_radius(code, "exhaustive", workers=1)
    ok = (len(code) == 32 and code.length == 4 and min_distance(code) == 2
          and radius.exact and radius.value == 3)
    report(7, ok, f"C_H is a (4, {len(code)}, {min_distance(code)}) code over Z_8; "
                  f"radius {radius.value} over 8^4=4096 ambient vectors "
                  f"(regression value 3)")


def test_criterion_8_reed_muller_radii_match_formula():
    t0 = time.perf_counter()
    r32 = covering_radius(reed_muller_1(3, 2), "exhaustive", workers=1)
    r22 = covering_radius(reed_muller_1(2, 2), "exhaustive", workers=1)
    elapsed = time.perf_counter() - t0
    ok = (r32.value == 5 == schmidt_rho(3, 2) and r22.value == 1 == schmidt_rho(2, 2)
          and r32.exact and r22.exact and elapsed < 5.0)
    report(8, ok, f"rho(R_3(1,2)) = {r32.value}, rho(R_2(1,2)) = {r22.value}, "
                  f"both matching q^(m-1)(q-1) - q^(m/2-1); {elapsed:.2f} s")


def test_criterion_9_obstruction_predicates():
    profile = splitting_profile(5, 13)
    fires = bent_obstructions(5, 13)
    clear = [(n, k) for (n, k) in bent_orders_and_phases()
             if bent_obstructions(n, k).any_violated]
    ok = (is_self_conjugate_prime(5, 13) and profile.g == 3 and fires.any_violated
          and circulant_real_obstruction(36) and not clear)
    report(9, ok, f"5 self-conjugate mod 13 with g = {profile.g} prime ideals; "
                  f"bent_obstructions(5,13) violated: {[v.rule for v in fires.verdicts if v.violated]}; "
                  f"circulant_real_obstruction(36) = True; no obstruction on "
                  f"{len(bent_orders_and_phases())} catalog (n,k) pairs "
                  f"with verified bent vectors")


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(2024)

    # cyclotomic ring laws, 1000 randomized cases per phase
    for k in (2, 3, 4, 5, 6, 8, 9, 12, 13):
        for _ in range(1000):
            a = CycInt([rng.randrange(-9, 10) for _ in range(k)])
            b = CycInt([rng.randrange(-9, 10) for _ in range(k)])
            c = CycInt([rng.randrange(-9, 10) for _ in range(k)])
            assert a + b == b + a and a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    # scalar invariance of bent certificates, 100 cases
    h = character_table([3, 3])
    x = ksw_vector(3, 2)
    base = check_bent(h, x)
    for _ in range(100):
        shift = rng.randrange(3)
        moved = LogVector(3, [(e + shift) % 3 for e in x.entries])
        cert = check_bent(h, moved)
        assert (cert.bent, cert.self_dual, cert.conjugate_self_dual) == (
            base.bent, base.self_dual, base.conjugate_self_dual)

    # ternary distance identity, 1000 cases
    for _ in range(1000):
        n = rng.randrange(1, 14)
        v = [rng.randrange(3) for _ in range(n)]
        w = [rng.randrange(3) for _ in range(n)]
        assert ternary_distance(v, w) == hamming_distance(v, w)

    # dephase / monomial invariance of verify_hadamard, 100 cases
    rows = sample_bh48().rows()
    for _ in range(100):
        perm_r = rng.sample(range(4), 4)
        perm_c = rng.sample(range(4), 4)
        shifts_r = [rng.randrange(8) for _ in range(4)]
        shifts_c = [rng.randrange(8) for _ in range(4)]
        m = LogMatrix(8, rows).monomial_transform(perm_r, shifts_r, perm_c, shifts_c)
        d = LogMatrix(8, m.entries - m.entries[0] - m.entries[:, :1] + m.entries[0, 0])
        assert verify_hadamard(m) and verify_hadamard(d)
        assert (d.entries[0, :] == 0).all() and (d.entries[:, 0] == 0).all()

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(10, ok, f"ring laws (9 phases x 1000), scalar invariance (100), "
                   f"distance identity (1000), dephase/monomial (100) all green "
                   f"in {elapsed:.1f} s")


def test_catalog_note_order_substitution():
    # substitute for the out-of-scope 519-matrix catalog observation:
    # (M / sqrt(n))^t = I with t dividing lcm(4, n, k) on local constructions
    from math import lcm

    from butson.matrices import circulant_from_row, unitary_order

    h = circulant_from_row(LogVector(4, (0, 0, 0, 2)))
    t = unitary_order(h, 64)
    assert t is not None and lcm(4, h.order, h.phase) % t == 0
    for p in (3, 5):
        for a in range(1, p):
            b = bush_circulant(p, a).base
            t = unitary_order(b, 64)
            assert t == p and lcm(4, b.order, b.phase) % t == 0
