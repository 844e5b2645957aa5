"""Cross-module invariants: spec examples that tie several layers together,
low-precision adaptive paths, and broader property sweeps."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repcount
from matrix_helpers import (
    class_of,
    det_permanent_expansion,
    element,
    fixed_points_bruteforce,
    generator_matrices,
    index_of,
    inverse,
    kernel_size,
    minus_identity,
    prod,
    solomon_sum,
)
from repcount.catalog import GroupSpec, build, exponents, monomial_generators, parse_spec
from repcount.counting import count_burnside_full, torsion_classes
from repcount.errors import CapExceeded, RepcountError
from repcount.formulas import theorem_a
from repcount.grassmannian import theorem_b
from repcount.groups import close
from repcount.linalg import SquareMatrix, diagonal, smith_valuations
from repcount.modp import Modulus, mth_root_of_unity


def test_public_names_resolve():
    missing = [name for name in repcount.__all__ if not hasattr(repcount, name)]
    assert missing == []


def test_g29_order5_smith_diagonal(g29):
    # the unique torsion class consists of order-5 elements with diagonal (1,1,1,5)
    recs = [rec for rec in g29.conjugacy_classes()
            if rec.element_order == 5 and rec.torsion_vals]
    assert len(recs) == 1
    rec = recs[0]
    assert diagonal(rec.smith_vals, 5, g29.modulus.M) == (1, 1, 1, 5)
    assert rec.rank == 0


def test_g24_minus_c_kernel_example(g24):
    # diagonal (1,2,0) at n=3 gives kernel 2^0 * 2^1 * 2^3 = 16
    _, _, c = g24.generators
    neg = SquareMatrix.from_rows(
        [[-1 if i == j else 0 for j in range(3)] for i in range(3)], g24.modulus
    )
    neg_c = prod(g24.modulus, neg, c)
    diff = minus_identity(neg_c, g24.modulus)
    assert diagonal(smith_valuations(diff), 2, g24.modulus.M) == (1, 2, 0)
    assert kernel_size(diff, 3) == 16
    assert fixed_points_bruteforce(neg_c, 3) == 16


def test_g24_reflection_determinant(g24):
    for gen in g24.generators:
        assert det_permanent_expansion(gen.tolist(), g24.modulus.pM) == g24.modulus.pM - 1


def test_g24_rank_examples(g24):
    neg = SquareMatrix.from_rows(
        [[-1 if i == j else 0 for j in range(3)] for i in range(3)], g24.modulus
    )
    recs = g24.conjugacy_classes()
    classes, index = class_of(g24), index_of(g24)
    assert recs[classes[index[neg.rows]]].rank == 0
    c = generator_matrices(g24)[2]
    assert recs[classes[index[c.rows]]].rank == 2


def test_record_invariant_all_groups(exceptional_groups):
    for group in exceptional_groups.values():
        for rec in group.conjugacy_classes():
            units = rec.smith_vals.count(0)
            tors = len(rec.torsion_vals)
            assert rec.rank + tors + units == group.dim
            assert rec.class_size * rec.centralizer_order == group.order


def test_class_reps_conjugate_within_class(exceptional_groups):
    for group in exceptional_groups.values():
        recs = group.conjugacy_classes()
        pairs = [(g, inverse(g, group.modulus)) for g in group.generators]
        classes, index = class_of(group), index_of(group)
        for rec in recs:
            cid = classes[rec.rep_index]
            for g, ginv in pairs:
                conj = prod(group.modulus, ginv, element(group, rec.rep_index), g)
                assert classes[index[conj.rows]] == cid


def test_solomon_identity_monomial_groups():
    for m, s, n, p in [(3, 1, 2, 7), (4, 2, 3, 5), (6, 2, 2, 7)]:
        spec = GroupSpec("family2a", m=m, s=s, n=n, p=p)
        group = build(spec)
        for k in (1, 2):
            rhs = 1
            for e in exponents(spec):
                rhs *= e + p ** k
            assert solomon_sum(group, k) == rhs


def test_low_precision_build_resolves_torsion_by_lifting(g24):
    # at 2^2 the |A| = 4 class is not separated by the group's own precision
    g = build(GroupSpec("g24"), Modulus(2, 2))
    assert g.order == 336
    rows = torsion_classes(g)
    got = sorted((r.class_size, r.torsion_order) for r in rows)
    assert got == [(1, 8), (21, 2), (42, 4), (56, 2)]

    def triples(group):
        return sorted((r.class_size, r.rank, r.torsion_vals)
                      for r in group.conjugacy_classes())

    assert triples(g) == triples(g24)


@pytest.mark.parametrize("spec,modulus", [
    ("g29", Modulus(5, 1)), ("g29", Modulus(5, 2)), ("g31", Modulus(5, 2)),
    ("family2a:m=4,s=2,n=5,p=5", Modulus(5, 1)), ("family2a:m=3,s=1,n=5,p=7", Modulus(7, 1)),
])
def test_low_precision_tables_match_the_default_closure(spec, modulus):
    # the classes' own least precisions m >= M with p^m > d*l differ, so the
    # one precision of the table is above some class's own
    low = build(parse_spec(spec), modulus)
    p, M, l = modulus.p, modulus.M, low.dim
    own = {next(m for m in range(M, M + 64) if p ** m > r.element_order * l)
           for r in low.conjugacy_classes()}
    assert len(own) >= 2

    def table(group):
        return sorted((r.class_size, r.element_order, r.rank, r.torsion_vals)
                      for r in group.conjugacy_classes())

    assert table(low) == table(build(parse_spec(spec)))


def test_low_precision_counts_agree(g24):
    low = build(GroupSpec("g24"), Modulus(2, 2))
    for k in (1, 2):
        assert (count_burnside_full(low, k).count
                == count_burnside_full(g24, k).count)


def test_admissible_tuple_sweep():
    """theorem_b against Burnside over every admissible (m,s,n,p,k) in a bounded box.

    Bounds: p^k <= 125, n <= 4, group order <= 5000, point space <= 2^20.
    """
    checked = 0
    for p in (5, 7, 11, 13):
        for k in (1, 2, 3):
            if p ** k > 125:
                continue
            for m in range(3, p):
                if (p - 1) % m != 0:
                    continue
                for s in range(1, m + 1):
                    if m % s != 0:
                        continue
                    for n in (2, 3, 4):
                        if n == 2 and m == s:
                            continue
                        if m ** n * math.factorial(n) // s > 5000:
                            continue
                        if p ** (k * n) > 2 ** 20:
                            continue
                        group = build(GroupSpec("family2a", m=m, s=s, n=n, p=p))
                        closed = theorem_b(m, s, n, p, k)
                        counted = count_burnside_full(group, k).count
                        assert closed == counted, (m, s, n, p, k)
                        checked += 1
    assert checked >= 30


def test_oracle_kernel_500_samples(exceptional_groups):
    rng = random.Random(5)
    for group in exceptional_groups.values():
        n_samples = min(500, group.order)
        for i in rng.sample(range(group.order), n_samples):
            w = element(group, i)
            assert fixed_points_bruteforce(w, 1) == \
                kernel_size(minus_identity(w, group.modulus), 1)


def test_nonmodular_monomial_matches_theorem_a():
    # G(3,1,2) at p=7 has order 18, prime to 7, so the product formula applies
    spec = GroupSpec("family2a", m=3, s=1, n=2, p=7)
    group = build(spec)
    for k in (1, 2):
        assert theorem_a(exponents(spec), 7, k) == count_burnside_full(group, k).count


def test_closure_cap_on_monomial_group():
    with pytest.raises(CapExceeded):
        close(monomial_generators(4, 1, 3, Modulus(5, 2)), order=384, cap=50)


def test_rank_five_monomial_group():
    spec = GroupSpec("family2a", m=3, s=3, n=5, p=7)
    g = build(spec)
    assert g.order == 9720
    assert (count_burnside_full(g, 1).count
            == theorem_b(3, 3, 5, 7, 1)
            == 33)


def test_family_case_at_k3():
    g = build(GroupSpec("family2a", m=3, s=1, n=2, p=7))
    assert (count_burnside_full(g, 3).count
            == theorem_b(3, 1, 2, 7, 3)
            == 6670)


def test_high_precision_build_counts():
    # rebuilding at a precision covering k=4 keeps the engines in agreement
    from repcount.counting import count_burnside_classes
    from repcount.formulas import theorem_c
    g = build(GroupSpec("g29"), Modulus(5, 4))
    assert g.order == 7680
    assert count_burnside_classes(g, 4).count == theorem_c("x29", 4)
    assert count_burnside_full(g, 4).count == theorem_c("x29", 4)


_BROKEN_INVARIANTS = """
from repcount import catalog
from repcount.counting import CountReport
from repcount.errors import CapExceeded, InvariantViolation, OrderUnavailable
from repcount.groups import close
from repcount.modp import Modulus, smallest_primitive_root

def wrong_order(spec):
    return 47

cases = [
    lambda: CountReport("g", 3, 1, "x", 0),
    lambda: CountReport("g", 3, 1, "x", 5, breakdown=[(0, 1, 7)]),
    lambda: catalog.build(catalog.parse_spec("g12")),
]
typed = [
    (CapExceeded, lambda: close(catalog.generators(catalog.parse_spec("g12"), Modulus(3, 3)),
                                order=48, cap=2)),
    (OrderUnavailable, lambda: smallest_primitive_root(1)),
]
catalog.GroupSpec.expected_order = property(wrong_order)
for n, (error, case) in enumerate([(InvariantViolation, c) for c in cases] + typed):
    try:
        case()
    except error:
        continue
    raise SystemExit(f"case {n} accepted")
"""


def test_invariants_are_typed_errors_under_python_O():
    # assert statements vanish under -O; the typed checks must not
    src = os.path.dirname(os.path.dirname(repcount.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


#: Every builder that takes raw group parameters, at k = 1.
RAW_BUILDERS = {
    "monomial_generators": lambda m, s, n, p: monomial_generators(m, s, n, Modulus(p, 1)),
    "theorem_b": lambda m, s, n, p: theorem_b(m, s, n, p, 1),
    "mth_root_of_unity": lambda m, s, n, p: mth_root_of_unity(m, Modulus(p, 1)),
    "GroupSpec family2a": lambda m, s, n, p: GroupSpec("family2a", m=m, s=s, n=n, p=p),
    "GroupSpec sphere": lambda m, s, n, p: GroupSpec("sphere", m=m, s=s, n=n, p=p),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(RAW_BUILDERS)), st.integers(-2, 8), st.integers(-2, 8),
       st.integers(-1, 4), st.sampled_from([2, 3, 5, 7, 13]))
@example("monomial_generators", 0, 1, 2, 7)  # divided p - 1 by m = 0
def test_raw_parameters_raise_only_typed_errors(builder, m, s, n, p):
    try:
        RAW_BUILDERS[builder](m, s, n, p)
    except RepcountError:
        pass
