"""Phi_k and the reduction modulo Phi_k against sympy, an independent implementation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson.cyclotomic import cyclotomic_polynomial, reduce_coeffs

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def _phi(k: int):
    return sympy.Poly(sympy.cyclotomic_poly(k, X), X)


def test_cyclotomic_polynomial_matches_sympy():
    for k in range(1, 121):
        want = tuple(int(c) for c in reversed(_phi(k).all_coeffs()))  # constant term first
        assert cyclotomic_polynomial(k) == want, k


@st.composite
def _phase_and_coeffs(draw):
    k = draw(st.integers(1, 60))
    return k, draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k))


@settings(max_examples=80, deadline=None)
@given(_phase_and_coeffs())
def test_reduce_coeffs_is_the_remainder_mod_phi(case):
    k, coeffs = case
    rem = sympy.rem(sympy.Poly(list(reversed(coeffs)), X), _phi(k))
    want = [int(c) for c in reversed(rem.all_coeffs())]
    assert reduce_coeffs(coeffs) == tuple(want + [0] * (k - len(want)))
