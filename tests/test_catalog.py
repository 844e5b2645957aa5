"""Catalog builds: generator matrices, orders, exponents, spec parsing."""

import math
from collections import Counter

import pytest

from matrix_helpers import (
    class_of,
    close_rows,
    derive_exponents,
    element,
    generator_rows,
    identity,
    index_of,
    minus_identity,
    monomial_generators_reference,
    order,
    power,
    prod,
    rank_fixed_space,
)
from repcount import catalog
from repcount.catalog import (
    KINDS,
    GroupSpec,
    build,
    exponents,
    generators,
    monomial_generators,
    parse_spec,
)
from repcount.errors import CapExceeded, SpecInvalid
from repcount.linalg import diagonal, smith_valuations
from repcount.modp import Modulus


def test_exceptional_orders(exceptional_groups):
    expected = {"g12": 48, "g24": 336, "g29": 7680, "g31": 46080}
    for name, group in exceptional_groups.items():
        assert group.order == expected[name]


def test_g24_presentation_relations(g24):
    s1, s2, s3 = g24.generators
    mod = g24.modulus
    ident = identity(3)
    assert prod(mod, s1, s1) == ident
    assert prod(mod, s2, s2) == ident
    assert prod(mod, s3, s3) == ident
    assert power(prod(mod, s2, s3, s2, s1), 4, mod) == ident
    assert power(prod(mod, s1, s3), 3, mod) == ident
    assert power(prod(mod, s2, s3), 3, mod) == ident
    assert power(prod(mod, s1, s2), 4, mod) == ident


def test_g29_central_element(g29):
    r1, r2, r3, r4 = g29.generators
    z = power(prod(g29.modulus, r1, r2, r3, r4), 5, g29.modulus)
    # z must be omega * I for the order-4 unit omega = 2 mod 5
    omega = z[0][0]
    assert omega % 5 == 2
    assert pow(omega, 4, g29.modulus.pM) == 1
    assert z == tuple(
        tuple(omega if i == j else 0 for j in range(4)) for i in range(4)
    )
    assert z in index_of(g29)


def test_g29_subgroup_of_g31(g29, g31):
    assert g29.modulus == g31.modulus
    members = index_of(g31)
    for i in range(g29.order):
        assert element(g29, i) in members


def test_generators_are_reflections(exceptional_groups):
    # the g24/g29/g31 generator sets consist of reflections; the published
    # g12 set mixes in rotations, but the group is still generated by its
    # reflections (checked separately below)
    for name in ("g24", "g29", "g31"):
        group = exceptional_groups[name]
        for g in generator_rows(group):
            d = order(g, group.modulus)
            assert d == 2
            assert rank_fixed_space(g, group.modulus, d) == group.dim - 1


def test_g12_generated_by_its_reflections(g12):
    reflections = [
        element(g12, rec.rep_index)
        for rec in g12.conjugacy_classes()
        if rec.element_order == 2 and rec.rank == g12.dim - 1
    ]
    assert reflections
    records = g12.conjugacy_classes()
    classes = class_of(g12)
    regenerated = close_rows(
        [element(g12, i) for i in range(g12.order)
         if records[classes[i]].element_order > 1
         and records[classes[i]].rank == g12.dim - 1],
        g12.modulus, order=g12.order,
    )
    assert regenerated.order == g12.order


def test_family2a_build_order():
    spec = GroupSpec("family2a", m=3, s=1, n=2, p=7)
    g = build(spec)
    assert g.order == 18


@pytest.mark.parametrize("m,s,n,p", [(3, 1, 2, 7), (3, 3, 3, 7), (4, 2, 3, 5),
                                     (4, 1, 2, 5), (6, 2, 2, 7)])
def test_family2a_orders(m, s, n, p):
    g = build(GroupSpec("family2a", m=m, s=s, n=n, p=p))
    assert g.order == m ** n * math.factorial(n) // s


def test_family2a_invalid_specs():
    with pytest.raises(SpecInvalid):
        GroupSpec("family2a", m=4, s=4, n=2, p=5)  # m = s with n = 2
    with pytest.raises(SpecInvalid):
        GroupSpec("family2a", m=2, s=1, n=3, p=5)  # m too small
    with pytest.raises(SpecInvalid):
        GroupSpec("family2a", m=3, s=2, n=3, p=7)  # s does not divide m
    with pytest.raises(SpecInvalid):
        GroupSpec("family2a", m=3, s=1, n=1, p=7)  # n too small
    with pytest.raises(SpecInvalid):
        GroupSpec("family2a", m=3, s=1, n=2, p=5)  # p != 1 mod m
    with pytest.raises(SpecInvalid):
        GroupSpec("family2a", m=3, s=1, n=2, p=9)  # not prime


@pytest.mark.parametrize("kwargs", [
    dict(kind="g29", p=13),        # an exceptional kind lives at its home prime
    dict(kind="g12", m=7, n=9),    # ... and takes no m, s or n
    dict(kind="g34", s=1),
    dict(kind="sphere", m=4, s=2, p=5),   # a sphere is G(m,1,1)
    dict(kind="sphere", m=4, n=3, p=5),
], ids=["g29-p13", "g12-m-n", "g34-s", "sphere-s2", "sphere-n3"])
def test_spec_rejects_parameters_its_kind_fixes(kwargs):
    with pytest.raises(SpecInvalid):
        GroupSpec(**kwargs)


def test_spec_fills_in_what_its_kind_fixes():
    assert GroupSpec("g29", p=5) == GroupSpec("g29")
    assert GroupSpec("g29").p == 5
    sphere = GroupSpec("sphere", m=4, p=5)
    assert (sphere.s, sphere.n) == (1, 1)
    assert GroupSpec("sphere", m=4, s=1, n=1, p=5) == sphere


def test_sphere_build():
    g = build(GroupSpec("sphere", m=4, p=5))
    assert g.order == 4
    assert g.dim == 1


def test_monomial_entries_are_roots_of_unity():
    mod = Modulus(7, 2)
    gens = monomial_generators(3, 1, 2, mod)
    g = close_rows(gens, mod, order=18)
    for i in range(g.order):
        for row in element(g, i):
            for x in row:
                if x != 0:
                    assert pow(x, 3, mod.pM) == 1


@pytest.mark.parametrize("m", [0, -2])
def test_monomial_generators_reject_an_order_below_one(m):
    # m = 0 used to divide p - 1 by zero, and m = -2 passed as a divisor of 6
    with pytest.raises(SpecInvalid):
        monomial_generators(m, 1, 2, Modulus(7, 2))


# s = 1, 1 < s < m and s = m, at n = 2..4, two primes each
MONOMIAL_GRID = [(4, s, n, p) for s in (1, 2, 4) for n in (2, 3, 4) for p in (5, 13)]


def _class_multiset(group):
    p, M = group.modulus.p, group.modulus.M
    return Counter((r.element_order, r.class_size, r.centralizer_order, r.rank,
                    diagonal(r.smith_vals, p, M))
                   for r in group.conjugacy_classes())


@pytest.mark.parametrize("m,s,n,p", MONOMIAL_GRID)
def test_monomial_generators_close_to_the_reference_group(m, s, n, p):
    mod = Modulus(p, 3)
    size = m ** n * math.factorial(n) // s
    ours = close_rows(monomial_generators(m, s, n, mod), mod, order=size)
    ref = close_rows(monomial_generators_reference(m, s, n, mod), mod, order=size)
    assert _class_multiset(ours) == _class_multiset(ref)


@pytest.mark.parametrize("m,s,n,p", MONOMIAL_GRID)
def test_monomial_generators_are_reflections(m, s, n, p):
    mod = Modulus(p, 3)
    gens = monomial_generators(m, s, n, mod)
    assert len(gens) == n + (1 if 1 < s < m else 0)
    for g in gens:
        assert g != identity(n)
        vals = smith_valuations(minus_identity(g, mod), mod.p, mod.M)
        assert sum(e < mod.M for e in vals) == 1, (g, vals)


def test_g552_order_ten():
    # Not an admissible family-2a spec (m = s, n = 2) but a fine matrix group.
    mod = Modulus(11, 2)
    g = close_rows(monomial_generators(5, 5, 2, mod), mod, order=10)
    assert g.order == 10


def test_exponents_tables():
    assert tuple(exponents(GroupSpec("g12"))) == (5, 7)
    assert tuple(exponents(GroupSpec("g24"))) == (3, 5, 13)
    assert tuple(exponents(GroupSpec("g29"))) == (3, 7, 11, 19)
    assert tuple(exponents(GroupSpec("g31"))) == (7, 11, 19, 23)
    assert tuple(exponents(GroupSpec("sphere", m=6, p=7))) == (5,)
    assert tuple(exponents(GroupSpec("family2a", m=3, s=1, n=2, p=7))) == (2, 5)
    assert tuple(exponents(GroupSpec("family2a", m=4, s=2, n=3, p=5))) == (3, 5, 7)


def test_shephard_todd_order_identity():
    specs = [
        GroupSpec("g12"), GroupSpec("g24"), GroupSpec("g29"), GroupSpec("g31"),
        GroupSpec("family2a", m=3, s=1, n=2, p=7),
        GroupSpec("family2a", m=4, s=2, n=3, p=5),
        GroupSpec("family2a", m=6, s=2, n=2, p=7),
        GroupSpec("sphere", m=4, p=5),
    ]
    for spec in specs:
        assert math.prod(m + 1 for m in exponents(spec)) == spec.expected_order


def test_rank_is_the_exponent_count_and_the_closed_form_degree():
    for kind, row in KINDS.items():
        if row.coefficients is None:
            continue
        spec = GroupSpec(kind)
        assert spec.rank == len(row.coefficients) - 1
        if spec.buildable:
            assert spec.rank == len(exponents(spec)) == build(spec).dim
    for spec in (GroupSpec("family2a", m=4, s=2, n=3, p=5), GroupSpec("sphere", m=4, p=5)):
        assert spec.rank == len(exponents(spec)) == build(spec).dim


def test_derive_exponents_small_groups():
    for spec in [GroupSpec("g12"), GroupSpec("g24"),
                 GroupSpec("family2a", m=3, s=1, n=2, p=7),
                 GroupSpec("sphere", m=4, p=5)]:
        g = build(spec)
        assert tuple(derive_exponents(g)) == tuple(exponents(spec))


def test_derive_exponents_g29(g29):
    assert tuple(derive_exponents(g29)) == (3, 7, 11, 19)


def test_derive_exponents_g31(g31):
    assert tuple(derive_exponents(g31)) == (7, 11, 19, 23)


def test_g12_class_equation(g12):
    # the class equation of the 2x2 general linear group over three elements
    sizes = sorted(r.class_size for r in g12.conjugacy_classes())
    assert sizes == [1, 1, 6, 6, 6, 8, 8, 12]


def test_g24_class_equation_doubles_simple_part(g24):
    # direct product with a central order-2 element doubles the class
    # equation 1 + 21 + 24 + 24 + 42 + 56 = 168 of the simple part
    sizes = sorted(r.class_size for r in g24.conjugacy_classes())
    assert sizes == sorted([1, 21, 24, 24, 42, 56] * 2)


def test_g29_g31_centers_have_order_four(g29, g31):
    for group, n_classes in [(g29, 37), (g31, 59)]:
        recs = group.conjugacy_classes()
        central = [r for r in recs if r.class_size == 1]
        assert len(central) == 4
        orders = sorted(r.element_order for r in central)
        assert orders == [1, 2, 4, 4]
        assert len(recs) == n_classes  # regression pin, validated by the
        # counting identities that consume the class data


def test_derive_exponents_trivial():
    g = close_rows([identity(2)], Modulus(5, 2), order=1)
    assert tuple(derive_exponents(g)) == ()


def test_parse_spec_grammar():
    assert parse_spec("g12").kind == "g12"
    assert parse_spec("X31").kind == "g31"
    assert parse_spec("x34").kind == "g34"
    spec = parse_spec("family2a:m=3,s=1,n=2,p=7")
    assert (spec.m, spec.s, spec.n, spec.p) == (3, 1, 2, 7)
    sph = parse_spec("sphere:m=4,p=5")
    assert (sph.m, sph.p) == (4, 5)
    with pytest.raises(SpecInvalid):
        parse_spec("g99")
    with pytest.raises(SpecInvalid):
        parse_spec("family2a:m=3")
    with pytest.raises(SpecInvalid):
        parse_spec("family2a:m=three,s=1,n=2,p=7")


#: One spec of every kind in ``KINDS``.
SPEC_OF_EVERY_KIND = [GroupSpec("g12"), GroupSpec("g24"), GroupSpec("g29"), GroupSpec("g31"),
                      GroupSpec("g34"), GroupSpec("family2a", m=4, s=2, n=3, p=5),
                      GroupSpec("sphere", m=4, p=5)]


def test_every_kind_has_a_spec_here():
    assert sorted(spec.kind for spec in SPEC_OF_EVERY_KIND) == sorted(KINDS)


@pytest.mark.parametrize("spec", SPEC_OF_EVERY_KIND, ids=lambda spec: spec.kind)
def test_label_parses_back_to_its_spec(spec):
    assert parse_spec(spec.label()) == spec
    assert parse_spec(spec.label().upper()) == spec


def test_every_monomial_spec_offers_theorem_a():
    # no Coker(w - I) of a G(m,s,n) has torsion, so theorem A holds at every
    # p, a p that divides |W| included
    primes = [p for p in range(3, 60) if all(p % d for d in range(2, p))]
    modular = set()
    for m in range(3, 9):
        for s in (d for d in range(1, m + 1) if m % d == 0):
            for n in range(2, 9):
                for p in (p for p in primes if p % m == 1):
                    if n == 2 and m == s:
                        continue
                    spec = GroupSpec("family2a", m=m, s=s, n=n, p=p)
                    modular.add(spec.expected_order % p == 0)
                    assert spec.methods == (
                        "burnside", "classes", "formula", "theoremB", "theoremA", "oracle")
    assert modular == {True, False}
    for m, p in ((2, 3), (4, 5), (6, 7), (12, 13)):
        assert GroupSpec("sphere", m=m, p=p).methods == (
            "burnside", "classes", "formula", "theoremB", "theoremA", "oracle")


@pytest.mark.parametrize("n", [20, 128], ids=["order-over-cap", "rank-over-generators"])
def test_build_refuses_before_building_generators(monkeypatch, n):
    def built(*args):
        raise AssertionError("generators were built")

    monkeypatch.setattr(catalog, "generators", built)
    with pytest.raises(CapExceeded):
        build(GroupSpec("family2a", m=3, s=1, n=n, p=7))


def test_x34_not_buildable():
    spec = parse_spec("x34")
    assert not spec.buildable
    with pytest.raises(SpecInvalid):
        build(spec)
    with pytest.raises(SpecInvalid):
        exponents(spec)


def test_build_rejects_wrong_prime():
    with pytest.raises(SpecInvalid):
        generators(GroupSpec("g12"), Modulus(5, 3))
