"""Group closure, conjugacy classes, fixed-space ranks, modulus changes."""

import numpy as np
import pytest

from matrix_helpers import generator_matrices, minus_identity, order, power, prod
from repcount import groups
from repcount.catalog import build, parse_spec
from repcount.errors import CapExceeded, InvariantViolation, PrecisionTooLow
from repcount.groups import close, rank_fixed_space
from repcount.linalg import SmithValuations, SquareMatrix, smith_valuations_raw
from repcount.modp import SATURATED, Modulus, int_valuation


def mat(rows, p, M):
    return SquareMatrix.from_rows(rows, Modulus(p, M))


def diff_at(group, i, n):
    """w - I mod p^n for element i, as rows."""
    return minus_identity(group.rows_at([i], n)[0], Modulus(group.modulus.p, n)).rows


def perm_matrices_s3(p, M):
    m = Modulus(p, M)
    swap = SquareMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]], m)
    cyc = SquareMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]], m)
    return [swap, cyc]


def test_close_trivial():
    g = close([SquareMatrix.identity(2, Modulus(5, 2))])
    assert g.order == 1


def test_close_cyclic4():
    rot = mat([[0, 1], [-1, 0]], 5, 2)
    g = close([rot])
    assert g.order == 4


def test_close_symmetric3():
    g = close(perm_matrices_s3(7, 2))
    assert g.order == 6


def test_close_cap():
    with pytest.raises(CapExceeded):
        close(perm_matrices_s3(7, 2), cap=3)


def test_close_deterministic_order():
    a = close(perm_matrices_s3(7, 2))
    b = close(perm_matrices_s3(7, 2))
    assert [a.element_rows(i) for i in range(a.order)] == \
           [b.element_rows(i) for i in range(b.order)]


def test_closure_idempotent():
    g = close(perm_matrices_s3(7, 2))
    again = close([g.element(i) for i in range(g.order)])
    assert again.order == g.order
    assert {g.element_rows(i) for i in range(g.order)} == \
           {again.element_rows(i) for i in range(again.order)}


def test_words_reconstruct_elements():
    g = close(perm_matrices_s3(7, 2))
    for i in range(g.order):
        acc = SquareMatrix.identity(3, g.modulus)
        for gi in g.word(i):
            acc = prod(g.modulus, acc, g.generators[gi])
        assert acc.rows == g.element_rows(i)


def test_conjugacy_classes_s3():
    g = close(perm_matrices_s3(7, 2))
    recs = g.conjugacy_classes()
    assert sorted(r.class_size for r in recs) == [1, 2, 3]
    assert sum(r.class_size for r in recs) == 6
    for r in recs:
        assert r.class_size * r.centralizer_order == g.order
        assert g.element_order(r.rep_index) == r.element_order


def test_conjugacy_closed_under_generators():
    g = close(perm_matrices_s3(5, 2))
    recs = g.conjugacy_classes()
    for rec in recs:
        cid = g.class_of(rec.rep_index)
        for h in g.generators:
            hinv = power(h, order(h, g.modulus) - 1, g.modulus)
            conj = prod(g.modulus, hinv, rec.representative, h)
            assert g.class_of(g.find(conj)) == cid


def test_trivial_group_single_class():
    g = close([SquareMatrix.identity(3, Modulus(5, 2))])
    recs = g.conjugacy_classes()
    assert len(recs) == 1 and recs[0].class_size == 1
    assert recs[0].rank == 3


def test_rank_fixed_space_identity():
    i4 = SquareMatrix.identity(4, Modulus(5, 3))
    assert rank_fixed_space(i4, 1) == 4


def test_rank_fixed_space_minus_identity():
    m = Modulus(5, 3)
    neg = SquareMatrix.from_rows([[-1 if i == j else 0 for j in range(4)]
                                  for i in range(4)], m)
    assert rank_fixed_space(neg, 2) == 0


def test_rank_fixed_space_reflection():
    swap = mat([[0, 1], [1, 0]], 7, 2)
    assert rank_fixed_space(swap, 2) == 1


def test_rank_fixed_space_precision_error():
    swap = mat([[0, 1], [1, 0]], 3, 1)  # p^M = 3 <= d*l = 4
    with pytest.raises(PrecisionTooLow):
        rank_fixed_space(swap, 2)


def test_rank_matches_smith_rank(g24):
    # At M0 = 6 every torsion of g24 is separated from the free part, so the
    # saturated count of the Smith form is exactly the fixed-space rank.
    for rec in g24.conjugacy_classes():
        assert rec.smith_vals.saturated_count() == rec.rank
        units = sum(1 for e in rec.smith_vals.vals
                    if e is not SATURATED and e == 0)
        tors = len(rec.smith_vals.finite_positive())
        assert rec.rank + tors + units == g24.dim


def test_rank_fixed_space_order_must_divide_d():
    cyc = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 7, 2)  # order 3
    with pytest.raises(InvariantViolation):
        rank_fixed_space(cyc, 2)
    with pytest.raises(InvariantViolation):
        rank_fixed_space(cyc, 4)
    assert rank_fixed_space(cyc, 6) == 1


def test_reduce_modulus_preserves_order():
    # closing at the lowest faithful precision keeps every element distinct
    assert build(parse_spec("g29"), Modulus(5, 1)).order == 7680
    assert build(parse_spec("g24"), Modulus(2, 2)).order == 336


def test_rows_at_lifts_via_words(g12):
    # Lifting elements beyond the build precision and reducing back
    # must reproduce the stored matrices.
    idx = list(range(0, g12.order, 7))
    high = g12.rows_at(idx, g12.modulus.M + 2)
    pM = g12.modulus.pM
    for i, rows in zip(idx, high.tolist()):
        reduced = tuple(tuple(x % pM for x in row) for row in rows)
        assert reduced == g12.element_rows(i)


def test_find_and_contains(g12):
    e = g12.element(5)
    assert g12.find(e) == 5
    assert e in g12
    stranger = SquareMatrix.from_rows([[2, 0], [0, 2]], g12.modulus)
    assert stranger not in g12


def test_store_lift_matches_reclosed_store(g12, g24):
    # lifting by words gives exactly the store a closure at p^n would give,
    # for the whole store and for any subset of it, repeats included
    for group in (g12, g24):
        M, N = group.modulus.M, group.order
        n = M + 2
        high = build(parse_spec(group.name), Modulus(group.modulus.p, n))
        whole = group.rows_at(np.arange(N), n)
        assert np.array_equal(whole, high.rows_at(np.arange(N), n))
        assert np.array_equal(high.rows_at(np.arange(N), M), group.rows_at(np.arange(N), M))
        subset = [N - 1, 0, 5, 5, N // 2]
        assert np.array_equal(group.rows_at(subset, n), whole[subset])
        assert np.array_equal(group.rows_at(subset, n), high.rows_at(subset, n))


def test_generators_at(g12):
    M, pM = g12.modulus.M, g12.modulus.pM
    assert np.array_equal(g12.generators_at(M), g12.generators)
    assert np.array_equal(g12.generators_at(M - 1), g12.generators % (pM // 3))
    high = g12.generators_at(M + 1)
    assert np.array_equal(high % pM, g12.generators)


@pytest.mark.parametrize("spec,small", [
    ("family2a:m=4,s=2,n=3,p=1297", "family2a:m=4,s=2,n=3,p=5"),
    ("sphere:m=2,p=1451", "sphere:m=2,p=3"),
])
def test_object_dtype_store(spec, small):
    # p^M is too large for int64 matmuls, so entries are Python integers;
    # the same group over a small prime closes in the int64 store
    g = build(parse_spec(spec))
    store = g.rows_at(np.arange(g.order), g.modulus.M)
    assert store.dtype == object
    assert all(g.find(g.element(i)) == i for i in range(g.order))
    lifted = g.rows_at(np.arange(g.order), g.modulus.M + 1)
    assert np.array_equal(lifted % g.modulus.pM, store)
    h = build(parse_spec(small))
    assert h.rows_at(np.arange(h.order), h.modulus.M).dtype == np.int64
    assert sorted((r.class_size, r.rank) for r in g.conjugacy_classes()) == \
           sorted((r.class_size, r.rank) for r in h.conjugacy_classes())


@pytest.mark.parametrize("spec,modulus", [
    ("g12", None), ("g24", None), ("g24", Modulus(2, 2)), ("g29", Modulus(5, 1)),
])
def test_one_smith_form_and_at_most_one_lift_per_class(monkeypatch, spec, modulus):
    group = build(parse_spec(spec), modulus)
    smith_rows, reads, lifts = [], [], []
    smith = groups.smith_valuations_batch
    rows_at = groups.FiniteMatrixGroup.rows_at

    def counting_smith(a, p, M):
        smith_rows.append(len(a))
        return smith(a, p, M)

    def counting_rows_at(self, idx, n):
        reads.extend(idx)
        if n > self.modulus.M:
            lifts.extend(idx)
        return rows_at(self, idx, n)

    monkeypatch.setattr(groups, "smith_valuations_batch", counting_smith)
    monkeypatch.setattr(groups.FiniteMatrixGroup, "rows_at", counting_rows_at)
    records = group.conjugacy_classes()
    p, M, l = group.modulus.p, group.modulus.M, group.dim
    # every class is read, and sits in exactly one Smith row, of one batch
    # per read precision: the least m >= M with p^m > d*l
    assert sum(smith_rows) == len(records)
    assert sorted(reads) == sorted(r.rep_index for r in records)
    precisions = {next(m for m in range(M, M + 64) if p ** m > r.element_order * l)
                  for r in records}
    assert len(smith_rows) == len(precisions)
    assert len(lifts) == len(set(lifts))
    # a class is lifted exactly when p^M does not exceed its order times l
    assert set(lifts) == {r.rep_index for r in records if p ** M <= r.element_order * l}
    if modulus is not None:
        assert lifts


def test_close_without_factory_raises_exactly_when_a_class_needs_a_lift():
    # g24 at 2^3: classes of order d with d*3 >= 8 need m > 3
    low = build(parse_spec("g24"), Modulus(2, 3))
    bare = close(generator_matrices(low))
    with pytest.raises(PrecisionTooLow):
        bare.conjugacy_classes()
    # at M0 no class needs a lift, so the bare closure classes fine
    g24 = build(parse_spec("g24"))
    bare = close(generator_matrices(g24))
    assert [(r.rank, r.torsion_vals, r.smith_vals) for r in bare.conjugacy_classes()] == \
           [(r.rank, r.torsion_vals, r.smith_vals) for r in g24.conjugacy_classes()]


def test_torsion_read_at_precision_derived_from_element_order(exceptional_groups):
    # The torsion of Coker(w - I) is killed by the order d of w, so each
    # valuation is at most v_p(d); an independent lift well above the derived
    # precision v_p(d) + 1 must find the same torsion.  The Smith form at M
    # that the record derives from its one read must equal a direct read at M.
    cases = list(exceptional_groups.values())
    cases.append(build(parse_spec("g24"), Modulus(2, 2)))
    cases.append(build(parse_spec("family2a:m=4,s=1,n=5,p=5")))
    for group in cases:
        p, M = group.modulus.p, group.modulus.M
        for rec in group.conjugacy_classes():
            v = int_valuation(rec.element_order, p)
            assert max(rec.torsion_vals, default=0) <= v
            vals = smith_valuations_raw(diff_at(group, rec.rep_index, v + 4), p, v + 4)
            assert rec.torsion_vals == tuple(e for e in vals if e is not SATURATED and e > 0)
            direct = smith_valuations_raw(diff_at(group, rec.rep_index, M), p, M)
            assert rec.smith_vals == SmithValuations(tuple(direct), group.modulus)
