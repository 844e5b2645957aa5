"""Brute-force oracle: flood-fill orbit counts and naive fixed-point scans."""

import random

import pytest

from matrix_helpers import minus_identity
from repcount.counting import count_burnside_full
from repcount.errors import SpaceTooLarge
from repcount.groups import close
from repcount.linalg import SquareMatrix, kernel_size
from repcount.modp import Modulus
from repcount.oracle import fixed_points_bruteforce, orbit_count_bruteforce


def test_trivial_group_orbit_count():
    g = close([SquareMatrix.identity(3, Modulus(5, 2))])
    assert orbit_count_bruteforce(g, 1) == 125
    assert orbit_count_bruteforce(g, 2) == 5 ** 6


def test_orbit_count_g12(g12):
    assert orbit_count_bruteforce(g12, 1) == 2
    assert orbit_count_bruteforce(g12, 2) == 5
    # above the closure's precision the generators come from the factory
    assert g12.modulus.M == 3
    assert orbit_count_bruteforce(g12, 4) == count_burnside_full(g12, 4).count


def test_orbit_count_matches_burnside_small(g24):
    for n in (1, 2, 3):
        assert orbit_count_bruteforce(g24, n) == count_burnside_full(g24, n).count


def test_space_too_large():
    g = close([SquareMatrix.identity(4, Modulus(5, 4))])
    with pytest.raises(SpaceTooLarge):
        orbit_count_bruteforce(g, 4, cap=2 ** 20)


def test_fixed_points_identity():
    ident = SquareMatrix.identity(3, Modulus(3, 2))
    assert fixed_points_bruteforce(ident, 2) == 3 ** 6


def test_fixed_points_minus_identity():
    m = Modulus(2, 3)
    neg = SquareMatrix.from_rows(
        [[-1 if i == j else 0 for j in range(3)] for i in range(3)], m
    )
    # -2v = 0 mod 4 leaves one factor of 2 per coordinate
    assert fixed_points_bruteforce(neg, 2) == 8


def test_fixed_points_order5_element(g29):
    # some element with a 5-dimensional fixed-point set mod 5: t of order 5
    counts = set()
    for rec in g29.conjugacy_classes():
        if rec.element_order == 5 and rec.torsion_vals:
            counts.add(fixed_points_bruteforce(rec.representative, 1))
    assert counts == {5}


def test_fixed_points_match_kernel_size(g12, g24, g29):
    rng = random.Random(42)
    for group in (g12, g24, g29):
        sample = rng.sample(range(group.order), min(60, group.order))
        for i in sample:
            w = group.element(i)
            diff = minus_identity(w, group.modulus)
            for n in (1, 2):
                assert fixed_points_bruteforce(w, n) == kernel_size(diff, n)
