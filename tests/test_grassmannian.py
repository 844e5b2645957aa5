"""The closed form of theorem B and the fundamental domain it counts.

The hard oracle here is the matrix group itself: theorem_b must equal the
Burnside count of the monomial group, and the reference domain
(``matrix_helpers.distinguished_tuples``) must hit every orbit exactly once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_helpers import admissible_tuples, distinguished_tuples
from repcount.catalog import GroupSpec, build, exponents
from repcount.counting import count_burnside_classes, count_burnside_full, torsion_census
from repcount.errors import SpecInvalid
from repcount.formulas import theorem_a
from repcount.grassmannian import theorem_b

# every G(m,s,n) small enough to close the group and count on its point space
ADMISSIBLE = admissible_tuples(max_order=5000, max_points=2 ** 20)


#: (3,3,3,7,1) is the module docstring's zero-collapse counterexample; every
#: s > 1 case fails if tuples with a zero also run over the <c^s>-orbit minima.
TRANSVERSAL_CASES = [
    (3, 3, 3, 7, 1), (4, 2, 2, 5, 2), (4, 4, 3, 5, 1), (3, 1, 2, 7, 2),
    (6, 2, 2, 7, 2), (6, 3, 3, 7, 1), (4, 2, 3, 5, 2),
]


@pytest.mark.parametrize("m,s,n,p,k", TRANSVERSAL_CASES)
def test_domain_is_a_transversal(m, s, n, p, k):
    # every orbit of the matrix group on (Z/p^k)^n holds exactly one distinguished
    # tuple: the orbits walked from the tuples are disjoint and cover the space
    gens = build(GroupSpec("family2a", m=m, s=s, n=n, p=p)).generators_at(k).tolist()
    pk = p ** k
    tuples = distinguished_tuples(m, s, n, p, k)
    seen = set()
    for t in tuples:
        assert t not in seen, t  # t shares its orbit with an earlier tuple
        seen.add(t)
        frontier = [t]
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = tuple(sum(a * x for a, x in zip(row, v)) % pk for row in g)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    assert len(seen) == pk ** n
    assert len(tuples) == theorem_b(m, s, n, p, k)


def test_theorem_b_values():
    assert theorem_b(3, 1, 2, 7, 1) == 6


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
                    assert theorem_b(m, s, n, p, 1) >= 1
                    continue
                with pytest.raises(SpecInvalid):
                    theorem_b(m, s, n, p, 1)


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
        assert count_burnside_full(g, k).count == closed, (m, s, n, p, k)
        assert count_burnside_full(g, k, per_element=True).count == closed, (m, s, n, p, k)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ADMISSIBLE)).flatmap(lambda n: st.sampled_from(ADMISSIBLE[n])))
def test_random_admissible_tuples_four_way(case):
    m, s, n, p, k = case
    g = build(GroupSpec("family2a", m=m, s=s, n=n, p=p))
    closed = theorem_b(m, s, n, p, k)
    assert count_burnside_full(g, k).count == closed
    assert count_burnside_full(g, k, per_element=True).count == closed


@pytest.mark.parametrize("s", [1, 2, 4])
def test_theorem_a_holds_at_a_modular_prime(s):
    # 5 divides |G(4,s,5)|, yet no Coker(w - I) has torsion (catalog._MONOMIAL
    # says why), so the class count is theorem A's product at every k
    spec = GroupSpec("family2a", m=4, s=s, n=5, p=5)
    assert spec.expected_order % 5 == 0
    group = build(spec)
    assert {rec.torsion_order for rec in torsion_census(group)} == {1}
    for k in (1, 2, 3):
        counts = {count_burnside_classes(group, k).count, theorem_a(exponents(spec), 5, k),
                  theorem_b(4, s, 5, 5, k)}
        assert len(counts) == 1, (s, k, counts)


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
