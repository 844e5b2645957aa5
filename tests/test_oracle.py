"""Brute-force oracle: orbit counts over scalar classes, and naive fixed-point scans."""

import functools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrix_helpers import (
    admissible_tuples,
    element,
    fixed_points_bruteforce,
    identity,
    kernel_size,
    minus_identity,
    orbit_count_reference,
)
from repcount import oracle
from repcount.catalog import build, parse_spec
from repcount.counting import count_burnside_full
from repcount.errors import SpaceTooLarge
from repcount.formulas import theorem_c
from repcount.grassmannian import theorem_b
from repcount.groups import close
from repcount.linalg import SquareMatrix
from repcount.modp import Modulus, smallest_primitive_root, teichmuller
from repcount.oracle import orbit_count_bruteforce


def test_trivial_group_orbit_count():
    g = close([identity(3, Modulus(5, 2))], order=1)
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


def test_g24_k7_matches_theorem_c(g24):
    # 2^21 points; the units mod 2^m are not cyclic from m = 3 on
    assert orbit_count_bruteforce(g24, 7) == theorem_c("g24", 7) == 7320


SMALL_FAMILY = [
    (f"family2a:m={m},s={s},n={n},p={p}", k)
    for cases in admissible_tuples(max_order=2000, max_points=2 ** 11).values()
    for m, s, n, p, k in cases
]
SPHERES = [(f"sphere:m={m},p={p}", k)
           for m, p in ((2, 3), (2, 5), (3, 7), (4, 13), (6, 7), (2, 1451))
           for k in (1, 2, 3) if p ** k <= 2 ** 12]
EXCEPTIONAL = [(name, k) for name in ("g12", "g24") for k in (1, 2, 3)] + [("g24", 4)]
# the trivial group as (dimension, p): p = 2 up to k = 5, and l = 1
TRIVIAL = [((l, p), k) for l, p, kmax in ((1, 2, 5), (2, 2, 5), (3, 2, 3), (1, 3, 4), (2, 3, 3))
           for k in range(1, kmax + 1)]


@functools.lru_cache(maxsize=None)
def _group(key):
    if isinstance(key, str):
        return build(parse_spec(key))
    l, p = key
    return close([identity(l, Modulus(p, 5))], order=1)


# Node chunks of the edges hold _CHUNK // (g l) nodes, and the sweeps
# _CHUNK nodes.  g24 at k = 3 has blocks of 128, 64 and 32 nodes at m = 3:
# 100 // 9 = 11 nodes cut them mid-block, and 7 // 9 = 0 falls back to one
# node a chunk; g12 at k = 3 has 36 nodes at m = 3, more than a sweep
# chunk of 5; the trivial group at p = 2 has two cosets of scalars.
@example(("g24", 3), 100)
@example(("g24", 4), 7)
@example(("g12", 3), 5)
@example(((2, 2), 5), 3)
@example(("sphere:m=2,p=1451", 1), 1)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_FAMILY + SPHERES + EXCEPTIONAL + TRIVIAL),
       st.one_of(st.integers(1, 100), st.just(oracle._CHUNK)))
def test_orbit_count_matches_reference_search(case, chunk):
    key, k = case
    group = _group(key)
    expected = orbit_count_reference(group.generators_at(k), group.modulus.p ** k)
    with mock.patch.object(oracle, "_CHUNK", chunk):
        assert orbit_count_bruteforce(group, k) == expected


@pytest.mark.parametrize("p,m", [(2, m) for m in range(1, 6)] + [(3, 1), (3, 3), (5, 2), (5, 3),
                                                                    (1451, 1), (1451, 2)])
def test_unit_table(p, m):
    q, phi = p ** m, p ** m - p ** (m - 1)
    zeta = teichmuller(smallest_primitive_root(p), Modulus(p, m)) * (1 + p) % q
    powers, reps, table = oracle._unit_table(p, m)
    d = powers.size
    # zeta generates every unit for odd p; for p = 2 it is 3, of order 2^(m-2) from m = 3 on:
    # the d powers are distinct and zeta^d = 1, so d is zeta's order
    if p == 2:
        assert zeta == 3 % q
        assert d == (2 ** (m - 2) if m >= 3 else m)
        assert reps.tolist() == ([1, 5] if m >= 3 else [1])
    else:
        assert (d, reps.tolist()) == (phi, [1])
    assert powers[0] == 1 and pow(zeta, d, q) == 1
    assert (powers[1:] == powers[:-1].astype(np.int64) * zeta % q).all()
    assert np.bincount(powers, minlength=q).max() == 1 and reps.size * d == phi
    units = np.arange(q)[np.arange(q) % p != 0]
    assert (table[np.arange(0, q, p)] == -1).all()
    code = table[units].astype(np.int64)
    # each unit is its coset's least unit times the power of zeta its log names
    assert (reps[code // d] * powers[code % d] % q == units).all()
    assert [units[code // d == t].min() for t in range(reps.size)] == reps.tolist()


def test_space_too_large(g24):
    g = close([identity(4, Modulus(5, 4))], order=1)
    with pytest.raises(SpaceTooLarge):
        orbit_count_bruteforce(g, 4, cap=2 ** 20)
    # the cap counts points of (Z/p^k)^l, not the scalar classes the oracle stores
    with pytest.raises(SpaceTooLarge):
        orbit_count_bruteforce(g24, 7, cap=2 ** 21 - 1)


def test_levels_carry_across_calls(g24):
    # one list kept across k counts each level once and changes no total
    levels = []
    for k in range(1, 6):
        assert orbit_count_bruteforce(g24, k, levels=levels) == orbit_count_bruteforce(g24, k)
        assert len(levels) == k
    assert orbit_count_bruteforce(g24, 3, levels=levels) == orbit_count_bruteforce(g24, 3)
    assert len(levels) == 5
    # counted levels do not lift the cap: it still cuts at the same k
    with pytest.raises(SpaceTooLarge):
        orbit_count_bruteforce(g24, 5, cap=2 ** 15 - 1, levels=levels)


def test_fixed_points_identity():
    ident = identity(3, Modulus(3, 2))
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
            counts.add(fixed_points_bruteforce(element(g29, rec.rep_index), 1))
    assert counts == {5}


def test_fixed_points_match_kernel_size(g12, g24, g29):
    rng = random.Random(42)
    for group in (g12, g24, g29):
        sample = rng.sample(range(group.order), min(60, group.order))
        for i in sample:
            w = element(group, i)
            diff = minus_identity(w, group.modulus)
            for n in (1, 2):
                assert fixed_points_bruteforce(w, n) == kernel_size(diff, n)
