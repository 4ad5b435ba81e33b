"""Hypothesis properties of the operations the paper's constructions rest on:
verify_hadamard and bentness under monomial transforms, Hadamard closure of
kronecker, and tensor_bent composition of bent and conjugate self-dual vectors."""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from butson.bent import check_bent, search_bent, tensor_bent
from butson.bush import bush_circulant
from butson.matrices import (
    LogMatrix,
    LogVector,
    character_table,
    fourier_matrix,
    kronecker,
    sylvester_matrix,
    verify_hadamard,
)
from butson.numtheory import _MODES

B1_3 = bush_circulant(3, 1)
BH48 = LogMatrix(8, [[0, 0, 0, 0], [0, 2, 4, 6], [0, 4, 0, 4], [0, 6, 4, 2]])
HADAMARD = [fourier_matrix(2), fourier_matrix(3), fourier_matrix(4), fourier_matrix(5),
            character_table([2, 2]), character_table([3, 3]), character_table([2, 4]),
            sylvester_matrix(3), BH48, B1_3]
WITH_BENT = [fourier_matrix(3), fourier_matrix(4), character_table([2, 2]),
             character_table([3, 3]), B1_3]


@lru_cache(maxsize=None)
def _hits(h: LogMatrix, mode: str) -> list[tuple[int, ...]]:
    return [hit.vector.entries for hit in search_bent(h, mode)]


def _transform(data, h: LogMatrix):
    """A random monomial transform of h, with its column permutation and column shifts."""
    n, k = h.order, h.phase
    perm = st.permutations(range(n))
    shifts = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    cols, col_shifts = data.draw(perm), data.draw(shifts)
    return h.monomial_transform(data.draw(perm), data.draw(shifts), cols, col_shifts), cols, col_shifts


def _mutant(data, h: LogMatrix) -> LogMatrix:
    """h with one entry moved by a nonzero exponent, which breaks one row's orthogonality."""
    i, j = (data.draw(st.integers(0, h.order - 1)) for _ in range(2))
    entries = h.entries.copy()
    entries[i, j] = (entries[i, j] + data.draw(st.integers(1, h.phase - 1))) % h.phase
    return LogMatrix(h.phase, entries)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(HADAMARD), st.data())
def test_verify_hadamard_is_invariant_under_monomial_transforms(h, data):
    for m, want in ((h, True), (_mutant(data, h), False)):
        assert verify_hadamard(m) == want
        assert verify_hadamard(_transform(data, m)[0]) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WITH_BENT), st.data())
def test_bentness_follows_the_column_moves(h, data):
    # (H'x')_a = zeta^(row shift a) (Hx)_(row perm a) for x'_b = x_(cols b) - (col shift b)
    k, n = h.phase, h.order
    moved, cols, shifts = _transform(data, h)
    vec = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    known = data.draw(st.lists(st.sampled_from(_hits(h, "any")), min_size=1, max_size=3))
    for x in data.draw(st.lists(vec, max_size=3)) + known:
        image = LogVector(k, [x[c] - t for c, t in zip(cols, shifts)])
        assert check_bent(h, LogVector(k, x)).bent == check_bent(moved, image).bent
    assert all(check_bent(h, LogVector(k, x)).bent for x in known)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HADAMARD[:8]), st.sampled_from(HADAMARD[:8]), st.data())
def test_kronecker_is_hadamard_exactly_when_both_factors_are(a, b, data):
    assert verify_hadamard(kronecker(a, b))
    assert not verify_hadamard(kronecker(_mutant(data, a), b))
    assert not verify_hadamard(kronecker(a, _mutant(data, b)))
    assert not verify_hadamard(kronecker(_mutant(data, a), _mutant(data, b)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(character_table([3, 3]), B1_3), (fourier_matrix(3), fourier_matrix(3))]),
       st.data())
def test_tensor_bent_composes_bent_and_conjugate_self_dual_vectors(pair, data):
    h, g = pair
    big = kronecker(h, g)
    for mode in ("any", "conjugate_self_dual"):
        x, y = (LogVector(3, data.draw(st.sampled_from(_hits(m, mode)))) for m in pair)
        assert check_bent(big, tensor_bent(x, y))[_MODES.index(mode)]
