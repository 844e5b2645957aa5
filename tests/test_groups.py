"""Group closure, conjugacy classes, fixed-space ranks, modulus changes."""

import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrix_helpers import (
    admissible_tuples,
    class_of,
    closure_reference,
    conjugacy_partition_reference,
    element,
    element_rows,
    generator_matrices,
    identity,
    index_of,
    mat_mul,
    minus_identity,
    order,
    perm_order,
    power,
    prod,
    rank_fixed_space,
    row_action,
    smith_valuations_raw,
    word,
)
from repcount import groups
from repcount.catalog import build, parse_spec
from repcount.errors import CapExceeded, InvariantViolation, PrecisionTooLow
from repcount.groups import close
from repcount.linalg import SquareMatrix, exact_dtype
from repcount.modp import Modulus, int_valuation


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
    g = close([identity(2, Modulus(5, 2))], order=1)
    assert g.order == 1


def test_close_cyclic4():
    rot = mat([[0, 1], [-1, 0]], 5, 2)
    g = close([rot], order=4)
    assert g.order == 4


def test_close_symmetric3():
    g = close(perm_matrices_s3(7, 2), order=6)
    assert g.order == 6


def test_close_cap():
    with pytest.raises(CapExceeded):
        close(perm_matrices_s3(7, 2), order=6, cap=3)


def test_close_deterministic_order():
    a = close(perm_matrices_s3(7, 2), order=6)
    b = close(perm_matrices_s3(7, 2), order=6)
    assert [element_rows(a, i) for i in range(a.order)] == \
           [element_rows(b, i) for i in range(b.order)]


def test_closure_idempotent():
    g = close(perm_matrices_s3(7, 2), order=6)
    again = close([element(g, i) for i in range(g.order)], order=g.order)
    assert again.order == g.order
    assert {element_rows(g, i) for i in range(g.order)} == \
           {element_rows(again, i) for i in range(again.order)}


def test_words_reconstruct_elements():
    g = close(perm_matrices_s3(7, 2), order=6)
    for i in range(g.order):
        acc = identity(3, g.modulus)
        for gi in word(g, i):
            acc = prod(g.modulus, acc, g.generators[gi])
        assert acc.rows == element_rows(g, i)


def test_conjugacy_classes_s3():
    g = close(perm_matrices_s3(7, 2), order=6)
    recs = g.conjugacy_classes()
    assert sorted(r.class_size for r in recs) == [1, 2, 3]
    assert sum(r.class_size for r in recs) == 6
    for r in recs:
        assert r.class_size * r.centralizer_order == g.order
        assert order(element(g, r.rep_index), g.modulus) == r.element_order


def test_conjugacy_closed_under_generators():
    g = close(perm_matrices_s3(5, 2), order=6)
    recs = g.conjugacy_classes()
    classes, index = class_of(g), index_of(g)
    for rec in recs:
        cid = classes[rec.rep_index]
        for h in g.generators:
            hinv = power(h, order(h, g.modulus) - 1, g.modulus)
            conj = prod(g.modulus, hinv, element(g, rec.rep_index), h)
            assert classes[index[conj.rows]] == cid


SMALL_MONOMIAL = sorted({
    f"family2a:m={m},s={s},n={n},p={p}"
    for cases in admissible_tuples(max_order=2000, max_points=2 ** 11).values()
    for m, s, n, p, _ in cases
})


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build(parse_spec(spec))


@example("g12")
@example("g24")
@example("g29")
@example("family2a:m=4,s=2,n=3,p=1297")  # object-dtype points
@example("family2a:m=3,s=1,n=4,p=7")  # 1944 elements, a window of 3 levels
@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_MONOMIAL))
def test_conjugacy_classes_match_reference_search(spec):
    group = _group(spec)
    classes, want = conjugacy_partition_reference(group)
    records = group.conjugacy_classes()
    assert [(r.rep_index, r.class_size) for r in records] == \
           [(min(members, key=functools.partial(element_rows, group)), len(members))
            for members in classes]
    got = class_of(group)
    assert got == want
    assert all(type(c) is int for c in got)


@pytest.mark.parametrize("name,sample", [("g24", None), ("g31", 500)])
def test_right_cayley_table(exceptional_groups, name, sample):
    group = exceptional_groups[name]
    right = group._right.T  # the table is stored generator-major, (g, N)
    assert right.dtype == np.int32 and right.shape == (group.order, len(group.generators))
    idx = range(group.order) if sample is None else \
        random.Random(0).sample(range(group.order), sample)
    index = index_of(group)
    for i in idx:
        for j, g in enumerate(group.generators):
            assert right[i, j] == index[prod(group.modulus, element(group, i), g).rows]
    # an involution's row is its own inverse: the closure fills half of it by symmetry
    gens = generator_matrices(group)
    involutions = [j for j, g in enumerate(gens) if order(g, group.modulus) == 2]
    assert involutions
    for j in involutions:
        assert np.array_equal(group._right[j][group._right[j]], np.arange(group.order))


def _first_row_keys(monkeypatch, div):
    # every product's key reads only its first row's rank, divided by div;
    # the identity keeps its true key
    key_table = groups._key_table

    def merged(act, base, dim):
        table = key_table(act, base, dim)
        table[0] //= div * base ** (dim - 1)
        table[1:] = 0
        return table

    monkeypatch.setattr(groups, "_key_table", merged)


def test_close_rejects_a_table_that_is_not_a_permutation(g24, monkeypatch):
    # keys that read only the first row's rank merge g24 elements whose
    # products by a generator differ, so the closure stops short of |G24| ...
    _first_row_keys(monkeypatch, 1)
    with pytest.raises(InvariantViolation, match="closed to 57 elements, expected 336"):
        close(generator_matrices(g24), order=g24.order)
    # ... and at the 57 it stops at, right multiplication no longer permutes the elements
    with pytest.raises(InvariantViolation, match="not a permutation"):
        close(generator_matrices(g24), order=57)
    # halved, they also give a product the key of an element from a level that
    # is no longer searched, so that element is numbered again and the closure
    # grows past |G24|
    monkeypatch.undo()
    _first_row_keys(monkeypatch, 2)
    with pytest.raises(InvariantViolation, match="grew past its order 336"):
        close(generator_matrices(g24), order=g24.order)


def test_close_window_must_cover_every_generator_order(monkeypatch):
    # G(3,1,3) has a generator of order 3, so a product can lie two levels
    # back; a window of one level misses it and numbers it again
    group = _group("family2a:m=3,s=1,n=3,p=7")
    window = groups._window
    monkeypatch.setattr(groups, "_window", lambda orders: (1, window(orders)[1]))
    with pytest.raises(InvariantViolation, match="grew past its order 162"):
        close(generator_matrices(group), order=group.order)


@pytest.mark.parametrize("label", [
    "g12", "g24", "g29", "g31", "family2a:m=3,s=1,n=3,p=7", "family2a:m=6,s=1,n=3,p=7",
    "family2a:m=100,s=1,n=2,p=101",  # a generator of order 100
    "sphere:m=6,p=7",
])
def test_close_reads_the_generator_orders_of_their_row_action(label, monkeypatch):
    # the orders close passes to its window, read by _powers from the matrices,
    # are the lcm of the cycle lengths of each generator's permutation of the
    # row orbit, built in plain Python
    group = _group(label)
    gens = generator_matrices(group)
    seen = []
    window = groups._window
    monkeypatch.setattr(groups, "_window", lambda orders: seen.append(orders) or window(orders))
    close(gens, order=group.order)
    assert seen == [[perm_order(perm) for perm in row_action(gens)]]


@pytest.mark.parametrize("label", [
    "g12", "g24", "g29", "family2a:m=3,s=1,n=3,p=7", "family2a:m=4,s=2,n=4,p=5",
    "family2a:m=4,s=2,n=3,p=1297",  # object points
    "family2a:m=6,s=1,n=3,p=7",  # a generator of order 6
    "family2a:m=4,s=1,n=3,p=5",  # a generator of order 4
    "sphere:m=6,p=7",  # every level in the window
    "family2a:m=10,s=1,n=2,p=11",  # order 200, a window of 10 levels
    "family2a:m=3,s=1,n=4,p=7",  # 1944 elements, a window of 3 levels
])
def test_close_matches_plain_breadth_first_search(label):
    assert_matches_plain_breadth_first_search(build(parse_spec(label)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_MONOMIAL))
def test_close_matches_plain_breadth_first_search_over_small_monomial_groups(spec):
    assert_matches_plain_breadth_first_search(_group(spec))


def assert_matches_plain_breadth_first_search(group):
    # rows, words, right Cayley table and level starts, against closure_reference
    gens = generator_matrices(group)
    # the row orbit is sorted, holds the basis rows and is closed under every generator
    points = [tuple(x) for x in group._points.tolist()]
    assert points == sorted(set(points))
    assert set(element_rows(group, 0)) <= set(points)
    assert {mat_mul([x], g.rows, group.modulus.pM)[0] for x in points for g in gens} \
        <= set(points)
    rows, parent, gen, right = closure_reference(gens)
    assert [element_rows(group, i) for i in range(group.order)] == rows
    assert group._parent.tolist() == parent
    assert group._gen.tolist() == gen
    assert group._right.T.tolist() == right
    assert group._parent.dtype == np.int32 and group._gen.dtype == np.int8
    depth = [0]
    for i in parent[1:]:
        depth.append(depth[i] + 1)
    assert list(group._starts) == [depth.index(d) for d in range(depth[-1] + 1)] + [len(rows)]


@pytest.mark.parametrize("label", ["g24", "g31", "family2a:m=4,s=2,n=5,p=17"])
def test_closed_group_holds_only_its_per_element_arrays(label):
    # an element costs l rank bytes of the narrowest width for |P|, its word
    # (int32 parent, int8 generator) and its int32 column of the right table:
    # l * b + 5 + 4g bytes, before and after the classes are read
    group = build(parse_spec(label))
    n, l, g = group.order, group.dim, len(group.generators)
    b = next(w for w in (1, 2, 4) if len(group._points) <= 256 ** w)
    kept = ("_rows", "_parent", "_gen", "_right")
    for _ in range(2):
        assert sum(getattr(group, name).nbytes for name in kept) == n * (l * b + 5 + 4 * g)
        assert [name for name, value in vars(group).items()
                if isinstance(value, np.ndarray) and n in value.shape] == list(kept)
        group.conjugacy_classes()


@pytest.mark.parametrize("order,message", [
    (47, "grew past its order 47"),
    (49, "closed to 48 elements, expected 49"),
], ids=["47", "49"])
def test_close_rejects_a_wrong_order(g12, order, message):
    with pytest.raises(InvariantViolation, match=message):
        close(generator_matrices(g12), order=order)


def test_close_checks_the_cap_before_allocating(g12):
    # 10^12 element rows could not be allocated, so CapExceeded comes first
    with pytest.raises(CapExceeded):
        close(generator_matrices(g12), order=10 ** 12)


def test_close_checks_the_generator_count_before_allocating(monkeypatch):
    # a generator index is one signed byte; 10^12 elements could not be
    # allocated and the row orbit is never computed, so CapExceeded comes first
    def unreachable(*args):
        raise AssertionError("close went past its generator check")

    monkeypatch.setattr(groups, "_row_orbit", unreachable)
    many = [mat([[1]], 5, 1)] * (groups.MAX_GENERATORS + 1)
    with pytest.raises(CapExceeded, match="128 generators exceed the closure's 127"):
        close(many, order=10 ** 12, cap=10 ** 13)


def test_close_bounds_the_row_orbit_by_the_order(g12):
    # each basis row has at most |W| images, so 24 points cannot belong to a
    # 2-dimensional group of order 4
    with pytest.raises(InvariantViolation, match="row orbit grew past 8 points"):
        close(generator_matrices(g12), order=4)


def test_close_rejects_keys_that_overflow_int64():
    # b * I_8 for a primitive root b mod 31 moves each basis row through 30
    # multiples, so |P| = 240 and a key of 8 ranks needs 240^8 > 2^63
    b = 3
    scalar = SquareMatrix.from_rows([[b * (i == j) for j in range(8)] for i in range(8)],
                                    Modulus(31, 1))
    with pytest.raises(CapExceeded, match="240 points"):
        close([scalar], order=30)


def test_trivial_group_single_class():
    g = close([identity(3, Modulus(5, 2))], order=1)
    recs = g.conjugacy_classes()
    assert len(recs) == 1 and recs[0].class_size == 1
    assert recs[0].rank == 3


def test_rank_fixed_space_identity():
    i4 = identity(4, Modulus(5, 3))
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
    M = g24.modulus.M
    for rec in g24.conjugacy_classes():
        assert rec.smith_vals.count(M) == rec.rank
        units = rec.smith_vals.count(0)
        tors = sum(1 for e in rec.smith_vals if 0 < e < M)
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
        assert reduced == element_rows(g12, i)


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


def test_rows_at_empty_index(g12):
    # an empty index reads nothing, below the group's precision and above it
    for n in (g12.modulus.M, g12.modulus.M + 2):
        rows = g12.rows_at([], n)
        assert rows.shape == (0, 2, 2)
        assert rows.dtype == exact_dtype(g12.modulus.p ** n, 2)


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
    # the same group over a small prime closes with int64 points
    g = build(parse_spec(spec))
    store = g.rows_at(np.arange(g.order), g.modulus.M)
    assert store.dtype == object
    index = index_of(g)
    assert all(index[element(g, i).rows] == i for i in range(g.order))
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
        (lifts if n > self.modulus.M else reads).extend(idx)
        return rows_at(self, idx, n)

    monkeypatch.setattr(groups, "smith_valuations_batch", counting_smith)
    monkeypatch.setattr(groups.FiniteMatrixGroup, "rows_at", counting_rows_at)
    records = group.conjugacy_classes()
    p, M, l = group.modulus.p, group.modulus.M, group.dim
    reps = sorted(r.rep_index for r in records)
    # every class sits in exactly one Smith row, of one batch, and every
    # representative is read at M once
    assert smith_rows == [len(records)]
    assert sorted(reads) == reps
    # the representatives are lifted at most once each, and all of them
    # exactly when p^M does not exceed the largest class order times l
    assert len(lifts) == len(set(lifts))
    needs_lift = p ** M <= max(r.element_order for r in records) * l
    assert sorted(lifts) == (reps if needs_lift else [])
    if modulus is not None:
        assert lifts


def test_close_without_factory_raises_exactly_when_a_class_needs_a_lift():
    # g24 at 2^3: classes of order d with d*3 >= 8 need m > 3
    low = build(parse_spec("g24"), Modulus(2, 3))
    bare = close(generator_matrices(low), order=low.order)
    with pytest.raises(PrecisionTooLow):
        bare.conjugacy_classes()
    # at M0 no class needs a lift, so the bare closure classes fine
    g24 = build(parse_spec("g24"))
    bare = close(generator_matrices(g24), order=g24.order)
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
            assert rec.torsion_vals == tuple(e for e in vals if 0 < e < v + 4)
            direct = smith_valuations_raw(diff_at(group, rec.rep_index, M), p, M)
            assert rec.smith_vals == tuple(direct)
