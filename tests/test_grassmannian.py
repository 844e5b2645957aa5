"""Orbit tables, distinguished-tuple enumeration, and the closed form.

The hard oracle here is the matrix group itself: enumerate_distinguished
and theorem_b must both equal the Burnside count of the monomial group,
and a materialized fundamental domain must hit every orbit exactly once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_helpers import admissible_tuples, sub_orbit_minima
from repcount.catalog import GroupSpec, build
from repcount.counting import count_burnside_full
from repcount import grassmannian
from repcount.errors import SpaceTooLarge, SpecInvalid
from repcount.grassmannian import (
    build_orbits,
    enumerate_distinguished,
    theorem_b,
)

# every G(m,s,n) small enough to close the group and enumerate the domain
ADMISSIBLE = admissible_tuples(max_order=5000, max_points=2 ** 20)


def test_build_orbits_small():
    table = build_orbits(3, 1, 7, 1)
    assert table.nonzero_orbit_count == 2
    for orb in table.orbits[1:]:
        assert len(orb.elements) == 3
        assert len(orb.k_orbit_minima) == 1
    assert table.orbits[0].elements == (0,)


def test_build_orbits_partition():
    table = build_orbits(4, 2, 5, 2)
    assert table.nonzero_orbit_count == 6
    everything = sorted(x for orb in table.orbits for x in orb.elements)
    assert everything == list(range(25))
    for orb in table.orbits[1:]:
        assert len(orb.k_orbit_minima) == 2
        assert orb.minimum == orb.elements[0]
    # every admissible table's sub-orbit minima are those of the walk under c^s
    scalars = {(m, s, p, k) for cases in ADMISSIBLE.values() for m, s, _, p, k in cases}
    for m, s, p, k in sorted(t for t in scalars if t[2] ** t[3] <= 5000):
        table = build_orbits(m, s, p, k)
        for orb in table.orbits[1:]:
            minima = sub_orbit_minima(orb.elements, table.c, s, p ** k)
            assert list(orb.k_orbit_minima) == minima and len(minima) == s, (m, s, p, k)


def test_build_orbits_k_trivial_when_s_equals_m():
    table = build_orbits(4, 4, 5, 1)
    for orb in table.orbits[1:]:
        # K is trivial, so every element is its own K-orbit minimum
        assert orb.k_orbit_minima == orb.elements


def test_build_orbits_invalid():
    with pytest.raises(SpecInvalid):
        build_orbits(3, 1, 5, 1)  # p != 1 mod m
    with pytest.raises(SpecInvalid):
        build_orbits(4, 3, 5, 1)  # s does not divide m
    with pytest.raises(SpaceTooLarge):
        build_orbits(3, 1, 7, 8)  # table over the point cap


def test_enumerate_bounds_its_multiset_walk(monkeypatch):
    # G(3,1,4) at p = 7, k = 1: nz = 2 nonzero orbits, so the loops visit
    # C(nz + n, n) = C(6, 4) = 15 multisets; the table has 7 points
    monkeypatch.setattr(grassmannian, "MAX_TABLE_POINTS", 15)
    assert enumerate_distinguished(3, 1, 4, 7, 1)[0] == theorem_b(3, 1, 4, 7, 1)
    monkeypatch.setattr(grassmannian, "MAX_TABLE_POINTS", 14)
    with pytest.raises(SpaceTooLarge):
        enumerate_distinguished(3, 1, 4, 7, 1)


def test_enumerate_includes_zero_tuple():
    count, tuples = enumerate_distinguished(3, 1, 2, 7, 1, materialize=True)
    assert (0, 0) in tuples
    assert len(tuples) == count == 6


def test_enumerate_matches_matrix_group():
    count, _ = enumerate_distinguished(3, 1, 2, 7, 1)
    g = build(GroupSpec("family2a", m=3, s=1, n=2, p=7))
    assert count == count_burnside_full(g, 1).count == 6


def test_domain_is_a_transversal():
    # every orbit of the matrix group contains exactly one distinguished tuple
    import numpy as np
    g = build(GroupSpec("family2a", m=4, s=2, n=2, p=5))
    count, tuples = enumerate_distinguished(4, 2, 2, 5, 1, materialize=True)
    pn = 5
    gens = g.generators_at(1)
    seen = set()
    for t in tuples:
        orbit = {t}
        frontier = [np.array(t, dtype=np.int64)]
        while frontier:
            nxt = []
            for v in frontier:
                for a in gens:
                    w = tuple((a @ v) % pn)
                    if w not in orbit:
                        orbit.add(w)
                        nxt.append(np.array(w, dtype=np.int64))
            frontier = nxt
        members = frozenset(orbit)
        assert members not in seen
        seen.add(members)
        assert len([u for u in tuples if u in orbit]) == 1
    total_points = sum(len(o) for o in seen)
    assert total_points == pn ** 2
    assert len(seen) == count


def test_theorem_b_values():
    assert theorem_b(3, 1, 2, 7, 1) == 6
    assert theorem_b(4, 4, 3, 5, 1) == enumerate_distinguished(4, 4, 3, 5, 1)[0]
    assert theorem_b(4, 2, 3, 5, 1) == enumerate_distinguished(4, 2, 3, 5, 1)[0]


def test_theorem_b_rejects_invalid():
    with pytest.raises(SpecInvalid):
        theorem_b(4, 4, 2, 5, 1)  # m = s with n = 2
    with pytest.raises(SpecInvalid):
        theorem_b(2, 1, 3, 5, 1)  # m too small for n >= 2
    with pytest.raises(SpecInvalid):
        theorem_b(3, 1, 2, 4, 1)  # p not prime


def _spec_admits(m, s, n, p):
    try:
        GroupSpec("family2a" if n >= 2 else "sphere", m=m, s=s, n=n, p=p)
    except SpecInvalid:
        return False
    return True


@pytest.mark.parametrize("m", range(1, 9))
def test_closed_form_and_domain_admit_exactly_the_specs(m):
    # each s dividing m, plus m + 1, which never does
    for s in [d for d in range(1, m + 1) if m % d == 0] + [m + 1]:
        for n in range(0, 5):
            for p in (2, 3, 5, 7, 9, 11, 13):
                if _spec_admits(m, s, n, p):
                    assert theorem_b(m, s, n, p, 1) == enumerate_distinguished(m, s, n, p, 1)[0]
                    continue
                with pytest.raises(SpecInvalid):
                    theorem_b(m, s, n, p, 1)
                with pytest.raises(SpecInvalid):
                    enumerate_distinguished(m, s, n, p, 1)


THREE_WAY_GRID = [
    (3, 1, 2, 7), (3, 3, 3, 7), (4, 2, 3, 5), (4, 1, 2, 5), (6, 2, 2, 7),
]


@pytest.mark.parametrize("m,s,n,p", THREE_WAY_GRID)
def test_three_way_agreement(m, s, n, p):
    spec = GroupSpec("family2a", m=m, s=s, n=n, p=p)
    g = build(spec)
    for k in (1, 2):
        if p ** (k * n) > 2 ** 24:
            continue
        closed = theorem_b(m, s, n, p, k)
        enum, _ = enumerate_distinguished(m, s, n, p, k)
        group_count = count_burnside_full(g, k).count
        assert closed == enum == group_count, (m, s, n, p, k)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ADMISSIBLE)).flatmap(lambda n: st.sampled_from(ADMISSIBLE[n])))
def test_random_admissible_tuples_four_way(case):
    m, s, n, p, k = case
    g = build(GroupSpec("family2a", m=m, s=s, n=n, p=p))
    closed = theorem_b(m, s, n, p, k)
    assert enumerate_distinguished(m, s, n, p, k)[0] == closed
    assert count_burnside_full(g, k).count == closed
    assert count_burnside_full(g, k, per_element=True).count == closed


def test_sphere_theorem_b_matches_theorem_a_form():
    # for G(m,1,1), 1 + (p^k - 1)/m equals the exponent product (m-1+p^k)/m
    for m, p in [(4, 5), (3, 7), (6, 7), (2, 5)]:
        for k in (1, 2, 3):
            assert theorem_b(m, 1, 1, p, k) == (m - 1 + p ** k) // m
            assert (m - 1 + p ** k) % m == 0


def test_sphere_theorem_b_matches_group():
    g = build(GroupSpec("sphere", m=4, p=5))
    for k in (1, 2):
        assert theorem_b(4, 1, 1, 5, k) == count_burnside_full(g, k).count
