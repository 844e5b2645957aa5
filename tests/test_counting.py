"""Counting engines: Burnside sums, torsion resolution, census, closed cross-checks.

Frozen expected counts come from the fixed polynomials, which the engines
must reproduce from the matrix groups alone; censuses pin the exact
class-size / torsion-order data.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrix_helpers import (
    admissible_tuples,
    class_of,
    close_rows,
    element,
    fixed_points_reference,
    generator_rows,
    identity,
    index_of,
    kernel_size,
    minus_identity,
    orbit_count_reference,
    prod,
    solomon_sum,
)
from repcount import counting
from repcount.catalog import GroupSpec, build, exponents, generators, parse_spec
from repcount.cli import main
from repcount.counting import (
    BURNSIDE_CHUNK,
    CountReport,
    count_burnside_classes,
    count_burnside_full,
    count_formula_general,
    torsion_census,
    torsion_classes,
)
from repcount.errors import InvariantViolation
from repcount.formulas import theorem_c
from repcount.grassmannian import theorem_b
from repcount.groups import FiniteMatrixGroup
from repcount.linalg import diagonal, smith_valuations, smith_valuations_lanes
from repcount.modp import Modulus

# Values of the closed forms at k = 1, 2, 3, frozen after independent
# evaluation of the polynomials.
EXPECTED = {
    "g12": {1: 2, 2: 5, 3: 23},
    "g24": {1: 2, 2: 4, 3: 10},
    "g29": {1: 5, 2: 185, 3: 43085},
    "g31": {1: 3, 2: 53, 3: 8303},
}


def test_burnside_full_trivial_group():
    g = close_rows([identity(3)], Modulus(5, 2), order=1, name="trivial")
    assert count_burnside_full(g, 1).count == 125
    assert count_burnside_full(g, 2).count == 5 ** 6


def test_burnside_full_g12(g12):
    assert count_burnside_full(g12, 1).count == 2
    assert count_burnside_full(g12, 2).count == 5


def test_burnside_full_per_element_matches_classwise(g12, g24, g29):
    # every k above m = v_p(|W|) + 1 (2 for g12 and g29, 5 for g24) reads the
    # same batches at p^m; only the free part's exponent grows with k
    for group, k in [(g12, 2), (g24, 3), (g29, 1),
                     (g12, g12.modulus.M + 1), (g24, g24.modulus.M + 1),
                     (g12, 19), (g12, 20), (g29, 13), (g29, 14)]:
        assert (count_burnside_full(group, k, per_element=True).count
                == count_burnside_full(group, k).count)


@pytest.mark.parametrize("spec,k,lane", [
    ("g31", 2, np.int16),                                 # p^m = 25
    ("g31", 3, np.int16),
    ("family2a:m=4,s=1,n=4,p=5", 4, np.int16),            # 5, at k > M with no lift
    ("sphere:m=2,p=1451", 7, np.int32),                   # 1451
    ("sphere:m=2,p=46349", 3, np.int64),                  # 46349
    ("family2a:m=3,s=1,n=2,p=4294967311", 2, object),     # 4294967311
])
def test_per_element_burnside_matches_classwise_in_every_lane(request, monkeypatch, spec, k, lane):
    # the elimination runs in the lane of p^m, m = min(k, v_p(|W|) + 1), not of p^k
    parsed = parse_spec(spec)
    g = request.getfixturevalue(spec) if "theoremC" in parsed.methods else build(parsed)
    lanes = []

    def recording(b, p, M):
        lanes.append(b.dtype)
        return smith_valuations_lanes(b, p, M)

    monkeypatch.setattr(counting, "smith_valuations_lanes", recording)
    if "theoremC" in parsed.methods:
        want = theorem_c(spec, k)
    else:
        want = theorem_b(parsed.m, parsed.s or 1, parsed.n or 1, parsed.p, k)
    assert count_burnside_full(g, k, per_element=True).count == want
    assert count_burnside_full(g, k).count == want
    assert count_burnside_classes(g, k).count == want
    assert set(lanes) == {np.dtype(lane)}


@pytest.mark.parametrize("spec,k", [("sphere:m=2,p=1451", 7),
                                    ("family2a:m=4,s=2,n=3,p=1297", 3)])
def test_per_element_burnside_on_object_stores(spec, k):
    # the row orbit is held in object, and Burnside reduces it to p^m = p
    parsed = parse_spec(spec)
    g = build(parsed)
    assert g.rows_at([0], g.modulus.M).dtype == object
    want = theorem_b(parsed.m, parsed.s or 1, parsed.n or 1, parsed.p, k)
    assert count_burnside_full(g, k, per_element=True).count == want
    assert count_burnside_full(g, k).count == want


def test_per_element_burnside_across_chunk_boundary(g31):
    # 46080 = 11 * 4096 + 1024: full chunks and a short last one
    assert g31.order > BURNSIDE_CHUNK and g31.order % BURNSIDE_CHUNK != 0
    want = theorem_c("g31", 2)
    assert count_burnside_full(g31, 2, per_element=True).count == want
    assert count_burnside_full(g31, 2).count == want


def test_per_element_burnside_lifts_one_chunk_at_a_time(g31, monkeypatch):
    # only one chunk of elements is alive at a time: every batch of w - I is
    # at most BURNSIDE_CHUNK elements, and together they cover the group once
    sizes = []
    lanes = FiniteMatrixGroup.minus_identity_lanes

    def counting_lanes(self, idx, n):
        sizes.append(len(idx))
        return lanes(self, idx, n)

    monkeypatch.setattr(FiniteMatrixGroup, "minus_identity_lanes", counting_lanes)
    assert count_burnside_full(g31, 2, per_element=True).count == theorem_c("g31", 2)
    assert max(sizes) <= BURNSIDE_CHUNK
    assert sum(sizes) == g31.order


def test_burnside_needs_no_factory_at_any_k():
    # g12 closed without a generator factory: v_3(48) + 1 = 2 <= M = 3, so
    # Burnside reads every k from the closure and lifts nothing
    mod = Modulus(3, 3)
    g = close_rows(generators(GroupSpec("g12"), mod), mod, order=48, name="g12")
    for k in (4, 40):
        assert count_burnside_full(g, k).count == theorem_c("g12", k)
        assert count_burnside_full(g, k, per_element=True).count == theorem_c("g12", k)


def _s3(modulus):
    # S3 permuting the coordinates, its rows canonical at every modulus
    return [((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0))]


def test_faithful_group_closed_at_two_to_the_first_counts():
    # close proves faithfulness by reaching the order, so a group closed at
    # 2^1, where -1 = 1, counts at every k: S3 has C(2^k + 2, 3) orbits
    g = close_rows(_s3(Modulus(2, 1)), Modulus(2, 1), order=6, generator_factory=_s3)
    for k, expected in zip((1, 2, 3, 4), (4, 20, 120, 816)):
        assert orbit_count_reference(g.generators_at(k), 2 ** k) == expected
        assert count_burnside_classes(g, k).count == expected
        assert count_burnside_full(g, k).count == expected
        assert count_burnside_full(g, k, per_element=True).count == expected


def _assert_burnside_matches_reference(group, k):
    fixed = fixed_points_reference(group, np.arange(group.order), k)
    classwise = count_burnside_full(group, k)
    assert [f for _, _, f in classwise.breakdown] == [fixed[i] for i, _, _ in classwise.breakdown]
    assert classwise.count * group.order == sum(fixed)
    assert count_burnside_full(group, k, per_element=True).count == classwise.count


@pytest.mark.parametrize("name", ["g12", "g24", "g29", "g31", "s3"])
def test_burnside_matches_the_full_precision_reference(exceptional_groups, name):
    # S3 closed at 2^1 reads at m = v_2(6) + 1 = 2 > M, so Burnside lifts its
    # elements by their words there
    if name == "s3":
        group = close_rows(_s3(Modulus(2, 1)), Modulus(2, 1), order=6, generator_factory=_s3)
    else:
        group = exceptional_groups[name]
    for k in range(1, 3 * group.modulus.M + 1):
        _assert_burnside_matches_reference(group, k)


MONOMIAL = sorted({
    f"family2a:m={m},s={s},n={n},p={p}"
    for cases in admissible_tuples(max_order=2000, max_points=2 ** 11).values()
    for m, s, n, p, _ in cases
})
# p = 5 divides |W|, so Burnside reads these at 5^2 rather than at 5^1
MODULAR = ["family2a:m=4,s=1,n=5,p=5", "family2a:m=4,s=2,n=5,p=5", "family2a:m=4,s=4,n=5,p=5"]


@functools.lru_cache(maxsize=None)
def _monomial(spec):
    return build(parse_spec(spec))


@example("family2a:m=4,s=2,n=5,p=5", 5)
@example("family2a:m=4,s=4,n=5,p=5", 9)
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MONOMIAL) | st.sampled_from(MODULAR), st.integers(1, 9))
def test_burnside_matches_the_full_precision_reference_on_monomial_groups(spec, k):
    group = _monomial(spec)
    assert group.modulus.M == 3  # so k runs over 1..3M
    _assert_burnside_matches_reference(group, k)


@pytest.mark.parametrize("name,k", [("g12", 24), ("g24", 35), ("g29", 16), ("g31", 14),
                                    ("g12", 4000)])
def test_counts_far_above_closure_precision(exceptional_groups, name, k):
    # one closure at the default precision serves every k
    group = exceptional_groups[name]
    assert k > group.modulus.M
    want = theorem_c(name, k)
    assert count_burnside_classes(group, k).count == want
    assert count_formula_general(group, exponents(GroupSpec(name)), k).count == want
    assert count_burnside_full(group, k).count == want


def test_classes_counts(g12, g29, g31):
    assert count_burnside_classes(g29, 1).count == 5
    assert count_burnside_classes(g31, 1).count == 3
    assert count_burnside_classes(g12, 2).count == 5


def test_three_way_agreement(exceptional_groups):
    for name, group in exceptional_groups.items():
        exps = exponents(GroupSpec(name))
        for k in (1, 2, 3):
            full = count_burnside_full(group, k).count
            cls = count_burnside_classes(group, k).count
            gen = count_formula_general(group, exps, k).count
            assert full == cls == gen == EXPECTED[name][k], (name, k)


def test_resolve_torsion_g29(g29):
    # exactly one class carries torsion; it is a single factor of valuation 1
    recs = g29.conjugacy_classes()
    tors = [rec for rec in recs if rec.torsion_vals]
    assert len(tors) == 1
    assert tors[0].torsion_vals == (1,)
    assert tors[0].class_size == 384
    assert tors[0].element_order == 5


def test_resolve_torsion_identity(g24):
    recs = g24.conjugacy_classes()
    ident = [rec for rec in recs if rec.class_size == 1 and rec.rank == 3]
    assert len(ident) == 1
    assert ident[0].torsion_vals == ()


def test_g24_table_of_smith_diagonals(g24):
    a, b, c = generator_rows(g24)
    ident = identity(3)
    mod = g24.modulus
    neg = prod(mod, [[-1 if i == j else 0 for j in range(3)] for i in range(3)])
    table = {
        "I": (ident, (0, 0, 0)),
        "-I": (neg, (2, 2, 2)),
        "c": (c, (1, 0, 0)),
        "-c": (prod(mod, neg, c), (1, 2, 0)),
        "ac": (prod(mod, a, c), (1, 1, 0)),
        "-ac": (prod(mod, neg, a, c), (1, 1, 2)),
        "ab": (prod(mod, a, b), (1, 1, 0)),
        "-ab": (prod(mod, neg, a, b), (1, 1, 4)),
    }
    for name, (x, diag) in table.items():
        vals = smith_valuations(minus_identity(x, mod), 2, mod.M)
        assert diagonal(vals, 2, mod.M) == diag, name


def test_g24_class_sizes(g24):
    s1, s2, s3 = generator_rows(g24)
    sizes = {}
    mod = g24.modulus
    classes, index = class_of(g24), index_of(g24)
    for label, x in [("I", identity(3)), ("c", s3),
                     ("ac", prod(mod, s1, s3)), ("ab", prod(mod, s1, s2))]:
        rec = g24.conjugacy_classes()[classes[index[x]]]
        sizes[label] = rec.class_size
    assert sizes == {"I": 1, "c": 21, "ac": 56, "ab": 42}


def test_torsion_census_exact(exceptional_groups):
    expected = {
        "g12": [(8, 3, 6)],
        "g24": [(1, 8, 336), (21, 2, 16), (42, 4, 8), (56, 2, 6)],
        "g29": [(384, 5, 20)],
        "g31": [(2304, 5, 20)],
    }
    for name, group in exceptional_groups.items():
        rows = torsion_classes(group)
        got = sorted(
            (r.class_size, r.torsion_order, r.centralizer_order)
            for r in rows
        )
        assert got == sorted(expected[name]), name


@pytest.mark.parametrize("label,torsion", [
    ("g12", 1), ("g24", 4), ("g29", 1), ("g31", 1),
    ("family2a:m=4,s=2,n=5,p=5", 0), ("family2a:m=4,s=4,n=3,p=5", 0),
    ("family2a:m=3,s=1,n=4,p=7", 0), ("sphere:m=4,p=5", 0),
])
def test_torsion_only_on_elements_of_order_divisible_by_p(exceptional_groups, label, torsion):
    # torsion_census raises unless every class with |A_w| > 1 has p | ord(w)
    group = exceptional_groups.get(label) or build(parse_spec(label))
    rows = [rec for rec in torsion_census(group) if rec.torsion_order > 1]
    assert len(rows) == torsion
    assert all(rec.element_order % group.modulus.p == 0 for rec in rows)


def test_torsion_on_a_p_prime_element_is_an_internal_error(g12, monkeypatch, capsys):
    # the identity's class (order 1) given torsion Z/3: the invariant must catch it
    real = FiniteMatrixGroup.conjugacy_classes

    def forged(self):
        ident, *rest = real(self)
        return [ident._replace(torsion_vals=(1,), torsion_order=3), *rest]

    monkeypatch.setattr(FiniteMatrixGroup, "conjugacy_classes", forged)
    with pytest.raises(InvariantViolation, match="element order 1 prime to p = 3"):
        torsion_census(g12)
    assert main(["census", "--group", "g12"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "InvariantViolation"


def test_census_covers_every_class(g24):
    rows = torsion_census(g24)
    assert len(rows) == len(g24.conjugacy_classes())
    assert sum(r.class_size for r in rows) == g24.order


def test_formula_general_g31(g31):
    # (7+5)(11+5)(19+5)(23+5) + 4 * 2304, all over 46080
    exps = (7, 11, 19, 23)
    assert (12 * 16 * 24 * 28 + 4 * 2304) // 46080 == 3
    assert count_formula_general(g31, exps, 1).count == 3


def test_formula_general_trivial_torsion():
    # A non-modular group has no torsion classes, so the formula is the
    # plain exponent product.
    spec = GroupSpec("family2a", m=3, s=1, n=2, p=7)
    g = build(spec)
    assert not torsion_classes(g)
    got = count_formula_general(g, exponents(spec), 1).count
    num = (2 + 7) * (5 + 7)
    assert got == num // 18 == 6


def test_formula_general_rational_form(g24):
    # same count written as exponent-quotient plus per-class rational
    # corrections p^(k*rank) * (t_k - 1) / centralizer
    from fractions import Fraction
    exps = exponents(GroupSpec("g24"))
    p = 2
    for k in (1, 2, 3):
        total = Fraction(1)
        for m in exps:
            total *= Fraction(m + p ** k, m + 1)
        for rec in g24.conjugacy_classes():
            tors = rec.torsion_vals
            if not tors:
                continue
            t_k = p ** sum(min(e, k) for e in tors)
            total += Fraction(p ** (k * rec.rank) * (t_k - 1), rec.centralizer_order)
        assert total == count_formula_general(g24, exps, k).count


def test_solomon_identity(exceptional_groups):
    for name, group in exceptional_groups.items():
        exps = exponents(GroupSpec(name))
        p = group.modulus.p
        for k in (1, 2):
            lhs = solomon_sum(group, k)
            rhs = 1
            for m in exps:
                rhs *= m + p ** k
            assert lhs == rhs, (name, k)


def test_sylow_divisibility(exceptional_groups):
    for group in exceptional_groups.values():
        p = group.modulus.p
        p_part = 1
        order = group.order
        while order % p == 0:
            order //= p
            p_part *= p
        for row in torsion_census(group):
            assert p_part % row.torsion_order == 0


def test_kernel_lifting_property(g12, g24):
    # A nontrivial kernel at precision n > 1 forces one at precision 1.
    for group in (g12, g24):
        for i in range(group.order):
            diff = minus_identity(element(group, i), group.modulus)
            if kernel_size(diff, group.modulus, group.modulus.M) > 1:
                assert kernel_size(diff, group.modulus, 1) > 1


def test_burnside_integrality(exceptional_groups):
    for group in exceptional_groups.values():
        for k in (1, 2):
            total = sum(size * fixed for _, size, fixed
                        in count_burnside_full(group, k).breakdown)
            assert total % group.order == 0


def test_report_serialization(g12):
    rep = count_burnside_full(g12, 1)
    payload = json.loads(rep.to_json(include_timing=False))
    assert payload["count"] == "2"
    assert payload["group"] == "g12"
    assert "elapsed" not in payload
    assert sum(c["size"] for c in payload["classes"]) == 48
    timed = json.loads(rep.to_json(include_timing=True))
    assert "elapsed" in timed
    csv = rep.to_csv()
    assert csv.splitlines()[1] == "g12,3,1,burnside,2"
    text = rep.to_text()
    assert "count=2" in text


def test_report_invariant_checked():
    with pytest.raises(InvariantViolation):
        CountReport("x", 3, 1, "burnside", 2, breakdown=[(0, 4, 3)])
