"""Finite matrix groups over Z/p^M: closure, conjugacy classes, ranks.

Groups are closed once, at one precision and at an order known in advance,
and then immutable.  Row i of w @ g is (row i of w) @ g, so every row of
every element lies in the row orbit P: the orbit of the basis rows under
x -> x @ g for each generator g, a few dozen to a few hundred points for
every catalog group.  ``close`` computes P, sorts it lexicographically and
stores an element as its l rows' ranks in P, one (N, l) array of the
narrowest unsigned width that holds |P| - 1; right multiplication by a
generator is then a gather through that generator's permutation of P, with
no matrix product.  An element's key is the mixed-radix int64 of its ranks
in base |P|, so keys order elements exactly as their rows order
lexicographically; the closure searches by them, and a class's
representative is its member with the least key, recomputed once from the
ranks after the partition.  Points are int64 when matmul entry sums cannot
overflow and object (Python integers) otherwise, and both dtypes share
every code path.  Every element also carries a word in the generators,
kept as two arrays (parent index as int32, generator index as int8), and
the group keeps the index at which each BFS level starts, so any set of
elements can be re-evaluated at a higher precision without re-closing the
group: ``rows_at`` is the one lift, and ``_powers`` the one routine for
orders and trace sums.  The class table is read at one precision, from at
most one lift of all the class representatives (see
``FiniteMatrixGroup.conjugacy_classes``).  The closure also keeps its
right Cayley table, a (g, N) int32 array of element indices, one
contiguous row per generator; conjugacy classes are read from it by
integer gathers alone, with no matrix product and no key lookup.  An
element costs l + 4 + 1 + 4g bytes: its ranks, its word and its column of
the table.
The closure skips work it already has the answer to: an involution's row
of the table is its own inverse, so half of it is filled by symmetry, and
a level's other products are searched only among the keys of the last few
levels, as many as the largest order of a generator that is not an
involution (see ``close``).  The closure and the partition index nothing
in two dimensions: every gather and scatter in their loops is a 1-D
``take`` or ``put`` on a flat view, with the row offsets precomputed
(j * |P| into the generators' action, j * N into the table), which costs
a few nanoseconds an element less than numpy's multi-axis fancy indexing.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapExceeded, InvariantViolation, PrecisionTooLow
from .linalg import (SquareMatrix, _mod, entry_major, exact_dtype, lane_dtype,
                     smith_valuations_batch)
from .modp import Modulus

DEFAULT_CLOSURE_CAP = 10 ** 8

#: The most generators a closure takes: a generator index is one signed byte.
MAX_GENERATORS = np.iinfo(np.int8).max

#: Generators as canonical integer rows mod p^n, for re-evaluating element words.
GeneratorFactory = Callable[[Modulus], list]


def _row_keys(ranks: np.ndarray, base: int) -> np.ndarray:
    """Mixed-radix int64 key of each (..., l) row of ranks in P, in base |P|.

    The first rank is the most significant digit, so keys order elements
    as their rows order lexicographically.  ``close`` checks that base^l
    is below 2^63 before it keys anything.
    """
    key = np.zeros(ranks.shape[:-1], dtype=np.int64)
    for c in range(ranks.shape[-1]):
        key *= base
        key += ranks[..., c]
    return key


class ConjugacyClassRecord(NamedTuple):
    """One conjugacy class with its fixed-space data, all plain ints and tuples.

    ``rep_index`` is the representative's element index: its rows mod p^n
    are ``group.rows_at([rep_index], n)[0]``.  ``smith_vals`` are the Smith
    valuations of (w - I) at the group's precision M, non-decreasing, with M
    standing for saturated.  ``torsion_vals`` are the valuations of the finite part
    of Coker(w - I), read at a precision that always separates them from
    the free part (see ``FiniteMatrixGroup.conjugacy_classes``), and
    ``torsion_order`` is |A_w|, p to their sum.
    """

    rep_index: int
    class_size: int
    centralizer_order: int
    element_order: int
    rank: int
    smith_vals: tuple
    torsion_vals: tuple
    torsion_order: int


class FiniteMatrixGroup:
    """A finite group of invertible l x l matrices over Z/p^M."""

    def __init__(self, modulus, dim, generators, points, rows, parent, gen, right, starts,
                 generator_factory=None, name=None):
        self.modulus = modulus
        self.dim = dim
        self.generators = generators  # (g, l, l) array, the points' dtype
        self._points = points      # (|P|, l) row orbit, sorted, dtype exact_dtype(modulus.pM, dim)
        self._rows = rows          # (N, l): row r of element i is points[rows[i, r]]
        self._parent = parent      # (N,) int32: element i = element parent[i] @ generator gen[i]
        self._gen = gen            # (N,) int8; parent and gen are -1 at the identity
        self._right = right        # (g, N) int32: element i @ generator j is element right[j, i]
        self._starts = starts      # BFS level i is elements starts[i]:starts[i + 1]; ends at N
        self.generator_factory = generator_factory
        self.name = name
        self._classes: Optional[list] = None

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._rows)

    # -- precision changes -------------------------------------------------

    def generators_at(self, n: int) -> np.ndarray:
        """The generators mod p^n, as a (g, l, l) array of dtype exact_dtype(p^n, l).

        At or below the group's precision these are the stored generators
        reduced; above it they come from the generator factory.
        """
        pn = self.modulus.p ** n
        dtype = exact_dtype(pn, self.dim)
        if n <= self.modulus.M:
            return (self.generators % pn).astype(dtype, copy=False)
        if self.generator_factory is None:
            raise PrecisionTooLow(
                f"group built at {self.modulus} has no generator factory to reach M={n}"
            )
        return np.array(self.generator_factory(Modulus(self.modulus.p, n)), dtype=dtype)

    def rows_at(self, idx, n: int) -> np.ndarray:
        """Elements ``idx`` mod p^n, as an (len(idx), l, l) array of dtype exact_dtype(p^n, l).

        At or below the group's precision the rows are read from the row
        orbit and reduced.  Above it the elements are re-evaluated from their
        words: the ancestors of ``idx`` in index order, cut at the closure's
        BFS level starts, then one batched product of their parents' lifts
        with the generators at p^n per level, so nothing is looked up or
        re-closed.
        """
        pn = self.modulus.p ** n
        dtype = exact_dtype(pn, self.dim)
        idx = np.asarray(idx, dtype=np.intp)
        if n <= self.modulus.M:
            rows = self._points[self._rows[idx]]  # a copy, reduced in place
            rows %= pn
            return rows.astype(dtype, copy=False)
        gens = self.generators_at(n)
        need = np.zeros(self.order, dtype=bool)
        need[0] = True  # the identity, which heads every word, even for an empty idx
        front = idx
        while front.size:
            need[front] = True
            front = self._parent[front]
            front = front[front >= 0]
            front = front[~need[front]]
        sel = np.flatnonzero(need)  # closed under parents, so sel[0] == 0
        pos = np.empty(self.order, dtype=np.intp)
        pos[sel] = np.arange(sel.size)
        parent, gen = pos[self._parent[sel]], self._gen[sel]
        out = np.empty((sel.size, self.dim, self.dim), dtype=dtype)
        out[0] = np.eye(self.dim, dtype=dtype)
        cuts = np.searchsorted(sel, self._starts).tolist()
        for lo, hi in zip(cuts[1:], cuts[2:]):
            out[lo:hi] = out[parent[lo:hi]] @ gens[gen[lo:hi]] % pn
        return out[pos[idx]]

    def minus_identity_lanes(self, idx, n: int) -> np.ndarray:
        """w - I mod p^n for the elements ``idx``, laid out for the Smith engine.

        Returns the (l*l, len(idx)) array of ``lane_dtype(p^n)`` whose row
        i*l + j holds entry (i, j) of each w - I, canonical in [0, p^n) (see
        ``linalg.entry_major``).  At or below the group's precision row r of
        w - I is a point of the row orbit minus e_r, so the orbit is reduced,
        shifted by e_r and narrowed once per row position r, and the l lanes
        of row r are one gather of it by the elements' ranks.  Above it the
        elements come from ``rows_at`` and ``entry_major`` lays them out.
        """
        pn, l = self.modulus.p ** n, self.dim
        idx = np.asarray(idx, dtype=np.intp)
        if n > self.modulus.M:
            rows = self.rows_at(idx, n)
            return entry_major(rows - np.eye(l, dtype=rows.dtype), pn)
        points = self._points.T  # entry c of point x at [c, x]
        ranks = self._rows[idx].T.astype(np.intp)
        out = np.empty((l, l, idx.size), dtype=lane_dtype(pn))
        for r in range(l):
            shifted = _mod(points - np.eye(l, 1, -r, dtype=points.dtype), pn)  # less e_r
            out[r] = shifted.astype(out.dtype).take(ranks[r], axis=1)
        return out.reshape(l * l, idx.size)

    # -- orders, ranks, classes ---------------------------------------------

    def conjugacy_classes(self) -> list:
        """Partition into conjugacy classes with fixed-space annotations.

        Classes are the orbits of the conjugation permutations of the
        generators, found by label propagation over the right Cayley table
        (see ``_partition``) and numbered by their least element index; the
        representative is the member with the least key, whose rows are
        lexicographically smallest, found by one ``np.minimum.at`` of the
        keys over the class indices.  The keys are recomputed from the
        ranks once the partition has returned, so they are never alive with
        its conjugation permutations.
        Cached after first call.

        The whole table is read at one precision: the least m >= M with
        p^m > d*l, where d is the largest order of a representative.  For
        each representative w, of order d_w <= d, the trace average over <w>
        there recovers the integer rank.  The torsion of Coker(w - I) is
        killed by d_w: the norm 1 + w + ... + w^(d_w - 1) kills the image of
        w - I and maps the cokernel into the torsion-free fixed lattice.  So
        every torsion valuation is at most v_p(d_w) < m (as d_w*l >=
        p^v_p(d_w)), and the one Smith form of w - I mod p^m is ``rank``
        saturated valuations, zeros and exactly the torsion valuations.
        Reduced mod p^M it is the Smith form at the group's precision:
        valuations of M or more read M, saturated.  The representatives are
        gathered once at M, and one ``_powers`` call there gives every order
        and trace sum; only when m > M are they all lifted by their words,
        by one ``rows_at`` call, and their trace sums walked again at p^m.
        One batched Smith elimination then reads every class.
        """
        if self._classes is not None:
            return self._classes
        class_of = self._partition()
        p, M, l = self.modulus.p, self.modulus.M, self.dim
        sizes = np.bincount(class_of).tolist()
        # keys are unique, so exactly one member of each class holds its least key
        keys = _row_keys(self._rows, len(self._points))
        least = np.full(len(sizes), np.iinfo(np.int64).max)
        np.minimum.at(least, class_of, keys)
        is_rep = keys == least[class_of]
        reps = np.empty(len(sizes), dtype=np.intp)
        reps[class_of[is_rep]] = is_rep.nonzero()[0]
        reps = reps.tolist()
        for rep, size in zip(reps, sizes):
            if self.order % size != 0:
                raise InvariantViolation(
                    f"class of element {rep} has size {size}, not dividing |W|={self.order}"
                )
        rows = self.rows_at(reps, M)
        orders, trace_sums = _powers(rows, p ** M, self.order)
        m = M
        while p ** m <= int(orders.max()) * l:
            m += 1
        if m > M:
            rows = self.rows_at(reps, m)
            trace_sums = _powers(rows, p ** m, self.order)[1]
        smith = smith_valuations_batch(rows - np.eye(l, dtype=rows.dtype), p, m).tolist()
        records = []
        for rep, size, d, trace_sum, vals in zip(reps, sizes, orders.tolist(),
                                                 trace_sums.tolist(), smith):
            rank = _rank_from_trace_sum(trace_sum, d, l, p ** m)
            if vals.count(m) != rank:
                raise InvariantViolation(
                    f"element {rep} of order {d}: Smith form mod {p}^{m} does not "
                    f"separate its torsion from its rank-{rank} fixed space"
                )
            torsion_vals = tuple(e for e in vals if 0 < e < m)
            records.append(ConjugacyClassRecord(
                rep_index=rep,
                class_size=size,
                centralizer_order=self.order // size,
                element_order=d,
                rank=rank,
                smith_vals=tuple(min(e, M) for e in vals),
                torsion_vals=torsion_vals,
                torsion_order=p ** sum(torsion_vals),
            ))
        self._classes = records
        return records

    def _partition(self) -> np.ndarray:
        """Class index of every element, classes numbered by their least member.

        Left multiplication by each generator g_j in turn is read from the
        words, one BFS level at a time from the level starts the closure
        kept: element i = element parent[i] @ generator gen[i], so g_j @
        element i is element right[gen[i], left[parent[i]]], where left is
        the row of g_j being filled, read as one gather of the flat table at
        gen[i] * N + left[parent[i]].  Undoing right multiplication by g_j
        then turns that row into the conjugation permutation i -> g_j @
        element i @ g_j^-1, so only one left row is alive at a time.
        Every element starts labelled by its own index; each sweep, for
        every permutation, pulls the smaller label from the image to the
        point, then jumps pointers twice.  While labels differ along a cycle
        of a permutation, some point on it has an image with a smaller
        label, so every sweep lowers a label until each permutation maps
        each label onto itself.  A label is never above its element's index
        and is always a member of its element's class, so labels are then
        constant on classes and each is the least element index in its
        class.  The sweeps stop after the first one that changes no label,
        and the rule is exact.  Every step of a sweep only lowers labels
        (label[label[x]] <= label[x], as no label is above its index), so a
        sweep that leaves the sum of the labels where it was changed no
        label at any step: label[x] <= label[conj[x]] for every point x and
        every permutation conj.
        Along a cycle of conj the labels then never fall and return to
        where they started, so they are equal, and label o conj = label.
        """
        right, parent, gen, starts = self._right, self._parent, self._gen, self._starts
        g, n = right.shape
        flat_right = right.reshape(-1)  # element i @ generator j is flat_right[j * n + i]
        index = np.arange(n, dtype=np.int32)
        left = np.empty(n, dtype=np.int32)
        undo = np.empty(n, dtype=np.int32)
        perms = []
        for j in range(g):
            left[0] = right[j, 0]
            for lo, hi in zip(starts[1:], starts[2:]):
                at = np.multiply(gen[lo:hi], n, dtype=np.intp)  # the rows of their generators
                at += left.take(parent[lo:hi])
                left[lo:hi] = flat_right.take(at)
            undo.put(right[j], index)
            perms.append(undo.take(left))
        del left, undo  # each take below holds an intp copy of its indices
        label = index.copy()
        total = label.sum(dtype=np.int64)  # labels only fall: an equal sum moved none
        while True:
            for conj in perms:
                np.minimum(label, label.take(conj), out=label)
            label = label.take(label)
            label = label.take(label)
            total, before = label.sum(dtype=np.int64), total
            if total == before:
                break
        first = np.cumsum(label == index, dtype=np.int32) - 1
        return first.take(label)


def _powers(w: np.ndarray, pm: int, bound: int):
    """Order and trace sum of each matrix in an (n, l, l) batch mod pm.

    For matrix t of order d: d and the sum of the traces of w^0, ...,
    w^(d-1) mod pm.  Every matrix is powered in one batch until it reaches
    the identity.  Raises InvariantViolation when an order exceeds
    ``bound``.
    """
    n, l = w.shape[0], w.shape[1]
    ident = np.eye(l, dtype=w.dtype)
    order = np.zeros(n, dtype=np.int64)
    trace_sum = np.full(n, l % pm, dtype=w.dtype)  # trace of w^0
    live, acc = np.arange(n), w
    d = 1
    while live.size:
        done = (acc == ident).all(axis=(1, 2))
        order[live[done]] = d
        keep = ~done
        live, acc = live[keep], acc[keep]
        trace_sum[live] = (trace_sum[live] + np.trace(acc, axis1=1, axis2=2)) % pm
        acc = acc @ w[live] % pm
        d += 1
        if d > bound and live.size:
            raise InvariantViolation(f"matrix has order above {bound}")
    return order, trace_sum


def _rank_from_trace_sum(trace_sum: int, d: int, dim: int, pM: int) -> int:
    # trace_sum is d * rank as an element of Z/p^M; with p^M > d*dim the
    # canonical representative recovers the integer exactly.
    if trace_sum > d * dim or trace_sum % d != 0:
        raise InvariantViolation(
            f"trace sum {trace_sum} has no representative in [0, {d * dim}] divisible by {d}"
        )
    return trace_sum // d


def _row_orbit(gens: np.ndarray, pM: int, bound: int, label: str):
    """The row orbit P of the basis rows under x -> x @ g mod pM, and its action.

    ``gens`` is the (g, l, l) generator array; a BFS level's images are one
    matmul of its points by it.  Returns P as a sorted list of row tuples
    and, for each generator g, the list of the ranks in P of the points
    x @ g, x in P.  Raises InvariantViolation when P grows past ``bound``
    points: the orbit of each of the l basis rows has at most |W| points.
    """
    dim = gens.shape[1]
    front = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    images = dict.fromkeys(front)
    while front:
        level = (np.array(front, dtype=gens.dtype) @ gens % pM).tolist()  # [g][x][c]
        nxt = []
        for x, ys in zip(front, zip(*level)):
            images[x] = ys = [tuple(y) for y in ys]
            for y in ys:
                if y not in images:
                    images[y] = None
                    nxt.append(y)
        if len(images) > bound:
            raise InvariantViolation(f"{label}: the row orbit grew past {bound} points")
        front = nxt
    points = sorted(images)
    rank = {x: r for r, x in enumerate(points)}
    act = [[rank[images[x][j]] for x in points] for j in range(len(gens))]
    return points, act


def _window(orders: list) -> tuple:
    """Levels searched for the generator ``orders``, and the involutions' indices.

    x @ g lies in the level after x's or at most ord(g) - 1 levels before
    it.  For an involution (or the identity) the level before is exactly
    what the symmetric fill already knows, so x's own level suffices; any
    other generator needs ord(g) levels.
    """
    return (max([d for d in orders if d > 2], default=1),
            np.array([j for j, d in enumerate(orders) if d <= 2], dtype=np.intp))


def _key_table(act: np.ndarray, base: int, dim: int) -> np.ndarray:
    """Each generator's keys digit by digit: an (l, g, |P|) int64 table.

    Row c of x @ g_j is point act[j, r] when row c of x is point r, and it
    weighs base^(l - 1 - c) in the key (see ``_row_keys``), so the key of
    x @ g_j is the sum over c of table[c, j, rank of row c of x].
    """
    weights = base ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    return weights[:, None, None] * act.astype(np.int64)


def _merge(window: np.ndarray, old: np.ndarray, new: np.ndarray, values: np.ndarray):
    """``window`` spread over the slots ``old`` marks, ``values`` at the indices ``new``."""
    out = np.empty(old.size, dtype=window.dtype)
    out[old] = window
    out.put(new, values)
    return out


def close(
    generators: Sequence[SquareMatrix],
    order: int,
    cap: int = DEFAULT_CLOSURE_CAP,
    generator_factory: Optional[GeneratorFactory] = None,
    name: Optional[str] = None,
) -> FiniteMatrixGroup:
    """Breadth-first closure of a generator list into a group of known order.

    The generators become one (g, l, l) array of dtype exact_dtype(p^M, l),
    the array the group keeps, and every step reads it.  The row orbit P
    (see ``_row_orbit``) is sorted and each generator's action on it
    becomes one row of a (g, |P|) gather table.
    An element is then its l row ranks in P and its key their mixed-radix
    int64 (see ``_row_keys``); the key of x @ g_j is read straight from x's
    ranks through a per-generator key table (see ``_key_table``).  The
    ranks, the words and the right Cayley table are allocated once, with
    ``order`` rows each, and filled level by level.
    Row j of the table of an involution g_j is its own inverse, so once
    x @ g_j = y is known, y @ g_j = x is filled in as well, and a level
    looks up only the products whose entries are still unset, generator by
    generator in the listed order.  Their keys are sorted and deduplicated,
    each distinct key keeping the least position at which it occurs (one
    ``np.minimum.at`` over the runs of equal keys), and looked up with one
    ``searchsorted`` in a window: the sorted keys of the last ``width``
    levels.  x @ g lies in the next level or at most
    ord(g) - 1 levels back, and for an involution the level back is exactly
    the entries filled by symmetry; so width is 1 for a set of involutions
    and otherwise the largest order of a generator that is not one, as
    ``_powers`` reads the orders.  Every width levels, all but the last
    width - 1 levels leave the window before the new keys join it, so it
    holds width to 2 * width - 1 levels, at width 1 exactly the new level;
    while width covers every level it is the whole store.  The new keys are
    sorted and none is in the window, so the t-th of them lands at its
    insertion point plus t: keys and element indices are merged by one mask
    of the slots the old entries keep, with no ``np.insert`` and its sort.
    The keys not found are numbered in order of first occurrence, the order
    in which a sequential search would meet them: an entry filled by
    symmetry never holds a new element, so skipping it changes no number.
    Only the new elements' ranks are gathered, as one ``take`` of the flat
    action at j * |P| + the parent's ranks; the keys gather each row of the
    key table by one column of ranks, and the involutions' entries are
    filled by one ``put`` into the flat table at j * N + i.  Each BFS level
    is one contiguous block of elements whose parents all lie in the
    previous level; its start is kept for ``rows_at`` and ``_partition``.  A key is
    kept only while its level is in the window; nothing is sorted after the
    search.
    The table is generator-major, (g, N), so a level writes, and the
    partition reads, one contiguous run per generator.  An element costs
    l + 5 + 4g bytes: its ranks, its word (an int32 parent and an int8
    generator) and its column of the table; while its level is in the
    window its key and index cost 12 bytes more.
    Raises CapExceeded, before the group's arrays are allocated, when
    ``order`` is above ``cap``, when there are more than MAX_GENERATORS
    generators or when a key of l ranks in base |P| could overflow int64;
    InvariantViolation when the row orbit, a generator's order or the
    closure grows past its bound, the closure stops short of ``order``, or
    a row of the table is not a permutation of the elements.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    modulus = generators[0].modulus
    dim = generators[0].dim
    for g in generators:
        if g.modulus != modulus or g.dim != dim:
            raise ValueError("generators must share a modulus and dimension")
    if order > cap:
        raise CapExceeded(f"group order {order} exceeds closure cap {cap}")
    if len(generators) > MAX_GENERATORS:
        raise CapExceeded(f"{len(generators)} generators exceed the closure's "
                          f"{MAX_GENERATORS}")
    label = name or "closure"
    dtype = exact_dtype(modulus.pM, dim)
    gens = np.array([g.rows for g in generators], dtype=dtype)
    points, act = _row_orbit(gens, modulus.pM, dim * order, label)
    base = len(points)
    if base ** dim >= 2 ** 63:
        raise CapExceeded(f"{label}: keys of {dim} ranks in a row orbit of {base} points "
                          f"overflow int64")
    width, involutions = _window(_powers(gens, modulus.pM, order)[0].tolist())
    rank_dtype = next(t for t in (np.uint8, np.uint16, np.uint32) if base <= np.iinfo(t).max + 1)
    act = np.array(act, dtype=rank_dtype)
    table = _key_table(act, base, dim)
    flat_act = act.reshape(-1)  # x @ g_j has rank flat_act[j * |P| + r] where x has rank r
    rows = np.empty((order, dim), dtype=rank_dtype)
    parent = np.empty(order, dtype=np.int32)  # element i = element parent[i] @ generator gen[i]
    gen = np.empty(order, dtype=np.int8)
    right = np.full((len(act), order), -1, dtype=np.int32)  # -1: not yet known
    flat_right = right.reshape(-1)  # element i @ generator j is flat_right[j * N + i]
    involution_rows = involutions[:, None] * order
    rows[0] = [points.index(tuple(int(i == j) for j in range(dim))) for i in range(dim)]
    parent[0], gen[0] = -1, -1
    win_keys, win_ids = _row_keys(rows[0], base)[None], np.zeros(1, dtype=np.int32)
    starts, size = [0], 1
    while starts[-1] < size:
        lo, hi = starts[-1], size
        starts.append(hi)
        n = hi - lo
        slab = right[:, lo:hi]
        unset = slab < 0  # the entries that no earlier level filled by symmetry
        todo = unset.ravel().nonzero()[0]  # generator-major: j * n + (i - lo)
        if not todo.size:  # the last level: every product lies in the level before
            continue
        keys = table[0].take(rows[lo:hi, 0], axis=1)
        for c in range(1, dim):
            keys += table[c].take(rows[lo:hi, c], axis=1)
        keys = keys.ravel().take(todo)
        perm = keys.argsort()  # unstable, so ties are resolved by ``first`` below
        keys = keys.take(perm)
        head = np.empty(keys.size, dtype=bool)  # the first of each run of equal keys
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        keys = keys[head]
        run = head.cumsum(dtype=np.int32) - 1  # the distinct key of each sorted product
        first = np.full(keys.size, perm.size)  # first occurrence of each distinct key
        np.minimum.at(first, run, perm)
        pos = win_keys.searchsorted(keys)
        at = np.minimum(pos, win_keys.size - 1)
        add = win_keys.take(at) != keys
        fresh = add.nonzero()[0]
        fresh = fresh.take(first.take(fresh).argsort())  # in order of first occurrence
        size = hi + fresh.size
        if size > order:
            raise InvariantViolation(f"{label} grew past its order {order}")
        ids = win_ids.take(at)  # right where the key is known
        ids.put(fresh, np.arange(hi, size))
        j, i = np.divmod(todo.take(first.take(fresh)), n)  # the first products with new keys
        parent[hi:size] = lo + i
        gen[hi:size] = j
        rows[hi:size] = flat_act.take((j * base)[:, None] + rows[lo:hi].take(i, axis=0))
        col = np.empty(perm.size, dtype=np.int32)
        col.put(perm, ids.take(run))
        slab[unset] = col
        if involutions.size:  # x @ g = y gives y @ g = x for an involution g
            flat_right.put(involution_rows + right[involutions, lo:hi], np.arange(lo, hi))
        if len(starts) % width == 0:  # every width levels, all but the last width - 1 leave
            stay = win_ids >= starts[-width]
            win_keys, win_ids = win_keys[stay], win_ids[stay]
            pos = win_keys.searchsorted(keys)
        # the new keys are sorted and absent, so the t-th lands at its insertion point + t
        new = pos[add] + np.arange(fresh.size)
        old = np.ones(win_keys.size + new.size, dtype=bool)
        old[new] = False
        win_keys = _merge(win_keys, old, new, keys[add])
        win_ids = _merge(win_ids, old, new, ids[add])
    if size != order:
        raise InvariantViolation(f"{label} closed to {size} elements, expected {order}")
    if any((np.bincount(row, minlength=order) != 1).any() for row in right):
        raise InvariantViolation("a row of the right Cayley table is not a permutation")
    return FiniteMatrixGroup(modulus, dim, gens, np.array(points, dtype=dtype), rows, parent, gen,
                             right, tuple(starts), generator_factory=generator_factory, name=name)
