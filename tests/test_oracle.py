"""Brute-force oracle: label-propagation orbit counts and naive fixed-point scans."""

import functools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrix_helpers import admissible_tuples, minus_identity, orbit_count_reference
from repcount import oracle
from repcount.catalog import build, parse_spec
from repcount.counting import count_burnside_full
from repcount.errors import SpaceTooLarge
from repcount.grassmannian import theorem_b
from repcount.groups import close
from repcount.linalg import SquareMatrix, kernel_size
from repcount.modp import Modulus
from repcount.oracle import fixed_points_bruteforce, orbit_count_bruteforce


def test_trivial_group_orbit_count():
    g = close([SquareMatrix.identity(3, Modulus(5, 2))], order=1)
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


def test_sphere_k2_matches_theorem_b():
    # 1451^2 points in 1052701 orbits of at most two points each
    count = orbit_count_bruteforce(build(parse_spec("sphere:m=2,p=1451")), 2, cap=2 ** 22)
    assert count == theorem_b(2, 1, 1, 1451, 2) == 1052701


SMALL_FAMILY = [
    (f"family2a:m={m},s={s},n={n},p={p}", k)
    for cases in admissible_tuples(max_order=2000, max_points=2 ** 11).values()
    for m, s, n, p, k in cases
]
SPHERES = [(f"sphere:m={m},p={p}", k)
           for m, p in ((2, 3), (2, 5), (3, 7), (4, 13), (6, 7), (2, 1451))
           for k in (1, 2) if p ** k <= 2 ** 12]
EXCEPTIONAL = [(name, k) for name in ("g12", "g24") for k in (1, 2, 3)]


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build(parse_spec(spec))


# g24 at k = 2: 4^2 trailing-digit points exceed a block of 5, so a block is
# one leading digit; g12 at k = 3 and the sphere at p = 1451: 27 and 1451
# leading digits are no multiple of the 4 and 100 a block holds
@example(("g24", 2), 5)
@example(("g12", 3), 110)
@example(("sphere:m=2,p=1451", 1), 100)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_FAMILY + SPHERES + EXCEPTIONAL),
       st.one_of(st.integers(1, 100), st.just(oracle._BLOCK)))
def test_orbit_count_matches_reference_search(case, block):
    spec, k = case
    group = _group(spec)
    expected = orbit_count_reference(group.generators_at(k), group.modulus.p ** k)
    with mock.patch.object(oracle, "_BLOCK", block):
        assert orbit_count_bruteforce(group, k) == expected


def test_space_too_large():
    g = close([SquareMatrix.identity(4, Modulus(5, 4))], order=1)
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
            counts.add(fixed_points_bruteforce(g29.element(rec.rep_index), 1))
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
