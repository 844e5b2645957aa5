"""Randomised differential test of the scalar Smith engine against sympy.

sympy's Smith normal form over ZZ is an independent implementation: the
p-adic valuations of its invariant factors, saturated at M, must be exactly
the valuations ``smith_valuations_raw`` computes over Z/p^M.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from repcount.linalg import smith_valuations_raw
from repcount.modp import int_valuation


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    M = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    entry = st.builds(lambda x, s: x * p ** s, st.integers(-60, 60), st.integers(0, 2))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return p, M, rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_smith_valuations_match_sympy(case):
    p, M, rows = case
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    want = sorted(M if snf[i, i] == 0 else min(int_valuation(int(snf[i, i]), p), M)
                  for i in range(len(rows)))
    assert smith_valuations_raw(rows, p, M) == want
