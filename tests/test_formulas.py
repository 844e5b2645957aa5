"""Closed-form evaluators: theorem C's polynomials, exponent products, piecewise x24."""

import math
from functools import reduce

import pytest

from matrix_helpers import x24_piecewise_check, x24_simplified
from repcount.catalog import KINDS, GroupSpec, parse_spec
from repcount.errors import SpecInvalid
from repcount.formulas import theorem_a, theorem_c


def test_theorem_c_k1_values():
    assert theorem_c("x12", 1) == 2
    assert theorem_c("x24", 1) == 2
    assert theorem_c("x29", 1) == 5
    assert theorem_c("x31", 1) == 3
    assert theorem_c("x34", 1) == 7


def test_theorem_c_x34_numerator_factor():
    # the k=1 numerator, the row's coefficients at q = 7, is exactly 7 times |W|
    numerator = reduce(lambda total, c: total * 7 + c, KINDS["g34"].coefficients)
    assert numerator == 274337280 == 7 * GroupSpec("g34").expected_order


def test_theorem_c_k2_k3():
    assert theorem_c("x12", 2) == 5
    assert theorem_c("x12", 3) == 23
    assert theorem_c("x24", 2) == 4
    assert theorem_c("x29", 2) == 185
    assert theorem_c("x31", 3) == 8303


def test_theorem_c_accepts_aliases():
    assert theorem_c("g29", 2) == theorem_c("x29", 2)
    assert theorem_c("G24", 1) == 2


def test_theorem_c_x34_integral_for_small_k():
    for k in range(1, 9):
        theorem_c("x34", k)  # InvariantViolation would mean a transcription bug


def test_theorem_c_rejects_unknown():
    with pytest.raises(SpecInvalid):
        theorem_c("x13", 1)
    with pytest.raises(SpecInvalid):
        theorem_c("x12", 0)


def test_theorem_a_sphere_exponent():
    # single exponent m-1 gives 1 + (p^k - 1)/m
    for m, p, k in [(4, 5, 1), (4, 5, 2), (3, 7, 2), (6, 7, 1)]:
        assert theorem_a([m - 1], p, k) == 1 + (p ** k - 1) // m


def test_theorem_a_dihedral_example():
    # exponents (1, 4) at p=11: (1+11)/2 * (4+11)/5 = 18
    assert theorem_a([1, 4], 11, 1) == 18


def test_theorem_a_rejects_modular_exponents():
    # on the modular pair (5,7) at p=3 the plain product is never integral:
    # the true count exceeds it by exactly 16/48 = 1/3 for every k; the
    # exponents are the caller's, so the remainder is a spec error
    for k in (1, 2, 3):
        with pytest.raises(SpecInvalid, match="not non-modular data at p=3"):
            theorem_a([5, 7], 3, k)


def test_modular_product_off_by_one_third():
    # each odd-prime numerator exceeds the plain product prod(q + m_i) by |W|/p,
    # so at g12 the product misses the count by 16/48 = 1/3
    for name, p, exps, excess in [("x12", 3, (5, 7), 16),
                                  ("x29", 5, (3, 7, 11, 19), 1536),
                                  ("x31", 5, (7, 11, 19, 23), 9216),
                                  ("x34", 7, (5, 11, 17, 23, 29, 41), 5598720)]:
        order = parse_spec(name).expected_order
        assert excess * p == order == math.prod(m + 1 for m in exps)
        for k in range(1, 6):
            product_numerator = math.prod(m + p ** k for m in exps)
            assert order * theorem_c(name, k) - product_numerator == excess, (name, k)


def test_x24_simplified_values():
    assert x24_simplified(2) == 4
    assert x24_simplified(3) == 10


def test_x24_piecewise():
    for k in (1, 2, 3, 4, 5, 9):
        assert x24_piecewise_check(k)
