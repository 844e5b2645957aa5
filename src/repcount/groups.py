"""Finite matrix groups over Z/p^M: closure, conjugacy classes, ranks.

Groups are closed once, at one precision, and then immutable.  Elements live
in one numpy (N, l, l) store indexed by canonical byte keys, and the
generators in one (g, l, l) array; the dtype is int64 when matmul entry sums
cannot overflow and object (Python integers) otherwise, and both dtypes
share every code path.  Every element also carries a word in the
generators, kept as two int arrays (parent index, generator index), so any
set of elements can be re-evaluated at a higher precision without
re-closing the group: ``rows_at`` is the one lift, and ``_powers`` the one
routine for orders, trace sums and inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapExceeded, InvariantViolation, NonIntegralRank, PrecisionTooLow
from .linalg import SmithValuations, SquareMatrix, exact_dtype, smith_valuations_batch
from .modp import SATURATED, Modulus

DEFAULT_CLOSURE_CAP = 10 ** 8

#: Generator matrices at a requested precision, for re-evaluating element words.
GeneratorFactory = Callable[[Modulus], list]


def _keys(batch: np.ndarray, pM: int):
    """Canonical byte key of each matrix in an (n, l, l) batch, in order.

    Entries are fixed-width big-endian, row-major, so byte order agrees with
    entrywise numeric order whatever the width.  This is the only code that
    depends on the store dtype.
    """
    if batch.dtype == object:
        width = ((pM - 1).bit_length() + 7) // 8
        blob = b"".join(int(x).to_bytes(width, "big") for x in batch.flat)
    else:
        width = 8
        blob = batch.astype(">u8").tobytes()
    step = width * batch.shape[1] * batch.shape[2]
    return (blob[t * step:(t + 1) * step] for t in range(batch.shape[0]))


@dataclass(frozen=True)
class ConjugacyClassRecord:
    """One conjugacy class with its fixed-space data.

    ``smith_vals`` are the Smith valuations of (w - I) at the group's
    precision.  ``torsion_vals`` are the valuations of the finite part of
    Coker(w - I), read at a precision that always separates them from the
    free part (see ``FiniteMatrixGroup.conjugacy_classes``).
    """

    rep_index: int
    representative: SquareMatrix
    class_size: int
    centralizer_order: int
    element_order: int
    rank: int
    smith_vals: SmithValuations
    torsion_vals: tuple

    @property
    def torsion_order(self) -> int:
        """|A_w|, the order of the torsion of Coker(w - I)."""
        return self.representative.modulus.p ** sum(self.torsion_vals)


class FiniteMatrixGroup:
    """A finite group of invertible l x l matrices over Z/p^M."""

    def __init__(self, modulus, dim, generators, store, parent, gen, keys,
                 generator_factory=None, name=None):
        self.modulus = modulus
        self.dim = dim
        self.generators = generators  # (g, l, l) array, the store's dtype
        self._arr = store          # (N, l, l) array of dtype exact_dtype(modulus.pM, dim)
        self._parent = parent      # element i = element parent[i] @ generator gen[i]
        self._gen = gen
        self._keys = keys          # canonical byte key -> element index
        self._key_list = list(keys.keys())
        self.generator_factory = generator_factory
        self.name = name
        self._classes: Optional[list] = None
        self._class_of: Optional[list] = None

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._key_list)

    def __len__(self) -> int:
        return self.order

    def element_rows(self, i: int) -> tuple:
        return tuple(map(tuple, self._arr[i].tolist()))

    def element(self, i: int) -> SquareMatrix:
        return SquareMatrix(self.element_rows(i), self.modulus)

    def _encode_rows(self, rows) -> bytes:
        return next(_keys(np.array([rows], dtype=self._arr.dtype), self.modulus.pM))

    def find(self, mat: SquareMatrix) -> int:
        """Index of a matrix in the element store; KeyError if absent."""
        return self._keys[self._encode_rows(mat.rows)]

    def __contains__(self, mat: SquareMatrix) -> bool:
        return self._encode_rows(mat.rows) in self._keys

    def word(self, i: int) -> list:
        """Generator indices whose left-to-right product is element i."""
        out = []
        while i != 0:
            out.append(int(self._gen[i]))
            i = int(self._parent[i])
        out.reverse()
        return out

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
        gens = self.generator_factory(Modulus(self.modulus.p, n))
        return np.array([g.rows for g in gens], dtype=dtype)

    def rows_at(self, idx, n: int) -> np.ndarray:
        """Elements ``idx`` mod p^n, as an (len(idx), l, l) array of dtype exact_dtype(p^n, l).

        At or below the group's precision the stored rows are reduced.  Above
        it the elements are re-evaluated from their words: the ancestors of
        ``idx`` in store order, one batched product of their parents' lifts
        with the generators at p^n per BFS level, so nothing is hashed or
        re-closed.
        """
        pn = self.modulus.p ** n
        dtype = exact_dtype(pn, self.dim)
        idx = np.asarray(idx, dtype=np.intp)
        if n <= self.modulus.M:
            rows = self._arr[idx]  # a copy, reduced in place
            rows %= pn
            return rows.astype(dtype, copy=False)
        gens = self.generators_at(n)
        need = np.zeros(self.order, dtype=bool)
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
        lo = 1
        while lo < sel.size:
            # a level is contiguous and ends at the first element whose parent is in it
            later = np.flatnonzero(parent[lo:] >= lo)
            hi = lo + int(later[0]) if later.size else sel.size
            out[lo:hi] = out[parent[lo:hi]] @ gens[gen[lo:hi]] % pn
            lo = hi
        return out[pos[idx]]

    # -- orders, ranks, classes ---------------------------------------------

    def element_order(self, i: int) -> int:
        return int(_powers(self._arr[i:i + 1], self.modulus.pM, self.order)[0][0])

    def conjugacy_classes(self) -> list:
        """Partition into conjugacy classes with fixed-space annotations.

        Orbit BFS under conjugation by the generators; the representative is
        the byte-lexicographically smallest member.  Cached after first call.

        Each class is read once, at the least m >= M with p^m > d*l, where d
        is the order of the representative w.  There the trace average over
        <w> recovers the integer rank.  The torsion of Coker(w - I) is killed
        by d: the norm 1 + w + ... + w^(d-1) kills the image of w - I and
        maps the cokernel into the torsion-free fixed lattice.  So every
        torsion valuation is at most v_p(d) < m (as d*l >= p^v_p(d)), and the
        one Smith form of w - I mod p^m is ``rank`` saturated valuations,
        zeros and exactly the torsion valuations.  Reduced mod p^M it is the
        Smith form at the group's precision: valuations of M or more become
        saturated.  One ``_powers`` call at M gives every order and trace
        sum; the classes that share an m are then read together, by one
        ``rows_at`` call (which lifts their representatives by their words
        when m > M) and one batched Smith elimination.
        """
        if self._classes is not None:
            return self._classes
        members_per_class, class_of = self._partition()
        p, M, l = self.modulus.p, self.modulus.M, self.dim
        reps = [min(members, key=self._key_list.__getitem__) for members in members_per_class]
        sizes = [len(members) for members in members_per_class]
        for rep, size in zip(reps, sizes):
            if self.order % size != 0:
                raise InvariantViolation(
                    f"class of element {rep} has size {size}, not dividing |W|={self.order}"
                )
        orders, trace_sums, _ = _powers(self._arr[reps], self.modulus.pM, self.order)
        orders, trace_sums = orders.tolist(), trace_sums.tolist()
        read_at = []
        for d in orders:
            m = M
            while p ** m <= d * l:
                m += 1
            read_at.append(m)
        records = [None] * len(reps)
        for m in sorted(set(read_at)):
            sub = [c for c, mc in enumerate(read_at) if mc == m]
            rows = self.rows_at([reps[c] for c in sub], m)
            if m > M:
                trace_sums_m = _powers(rows, p ** m, self.order)[1].tolist()
            else:
                trace_sums_m = [trace_sums[c] for c in sub]
            smith = smith_valuations_batch(rows - np.eye(l, dtype=rows.dtype), p, m).tolist()
            for c, trace_sum, vals in zip(sub, trace_sums_m, smith):
                rep, d = reps[c], orders[c]
                rank = _rank_from_trace_sum(trace_sum, d, l, p ** m)
                if vals.count(m) != rank:
                    raise InvariantViolation(
                        f"element {rep} of order {d}: Smith form mod {p}^{m} does not "
                        f"separate its torsion from its rank-{rank} fixed space"
                    )
                records[c] = ConjugacyClassRecord(
                    rep_index=rep,
                    representative=self.element(rep),
                    class_size=sizes[c],
                    centralizer_order=self.order // sizes[c],
                    element_order=d,
                    rank=rank,
                    smith_vals=SmithValuations(
                        tuple(SATURATED if e >= M else e for e in vals), self.modulus),
                    torsion_vals=tuple(e for e in vals if 0 < e < m),
                )
        if sum(sizes) != self.order:
            raise InvariantViolation(f"class sizes do not sum to |W|={self.order}")
        self._classes = records
        self._class_of = class_of
        return records

    def class_of(self, i: int) -> int:
        """Index into conjugacy_classes() of the class containing element i."""
        self.conjugacy_classes()
        return self._class_of[i]

    def _conjugation_pairs(self):
        """(g, g^-1) for each generator array."""
        inverses = _powers(self.generators, self.modulus.pM, self.order)[2]
        return list(zip(self.generators, inverses))

    def _partition(self):
        pM = self.modulus.pM
        arr = self._arr
        pairs = self._conjugation_pairs()
        n = self.order
        class_of = [-1] * n
        classes = []
        for start in range(n):
            if class_of[start] >= 0:
                continue
            cid = len(classes)
            members = [start]
            class_of[start] = cid
            frontier = [start]
            while frontier:
                batch = arr[frontier]
                nxt = []
                for g, ginv in pairs:
                    conj = (ginv @ batch % pM) @ g % pM
                    for key in _keys(conj, pM):
                        j = self._keys[key]
                        if class_of[j] < 0:
                            class_of[j] = cid
                            members.append(j)
                            nxt.append(j)
                frontier = nxt
            classes.append(members)
        return classes, class_of


def _powers(w: np.ndarray, pm: int, bound: int):
    """Order, trace sum and inverse of each matrix in an (n, l, l) batch mod pm.

    For matrix t of order d: d, the sum of the traces of w^0, ..., w^(d-1)
    mod pm, and w^(d-1).  Every matrix is powered in one batch until it
    reaches the identity.  Raises InvariantViolation when an order exceeds
    ``bound``.
    """
    n, l = w.shape[0], w.shape[1]
    ident = np.eye(l, dtype=w.dtype)
    order = np.zeros(n, dtype=np.int64)
    trace_sum = np.full(n, l % pm, dtype=w.dtype)  # trace of w^0
    inverse = np.empty_like(w)
    live = np.arange(n)
    prev, acc = np.broadcast_to(ident, w.shape), w
    d = 1
    while live.size:
        done = (acc == ident).all(axis=(1, 2))
        order[live[done]] = d
        inverse[live[done]] = prev[done]
        keep = ~done
        live, prev = live[keep], acc[keep]
        trace_sum[live] = (trace_sum[live] + np.trace(prev, axis1=1, axis2=2)) % pm
        acc = prev @ w[live] % pm
        d += 1
        if d > bound and live.size:
            raise InvariantViolation(f"matrix has order above {bound}")
    return order, trace_sum, inverse


def _rank_from_trace_sum(trace_sum: int, d: int, dim: int, pM: int) -> int:
    # trace_sum is d * rank as an element of Z/p^M; with p^M > d*dim the
    # canonical representative recovers the integer exactly.
    if trace_sum > d * dim or trace_sum % d != 0:
        raise NonIntegralRank(
            f"trace sum {trace_sum} has no representative in [0, {d * dim}] divisible by {d}"
        )
    return trace_sum // d


def rank_fixed_space(w: SquareMatrix, d: int) -> int:
    """Rank of the fixed sublattice of w, from the trace average over <w>.

    The sum of traces of w^j for j = 0..d-1 equals d times the fixed-space
    rank, so the rank is read off the canonical representative.  Requires
    p^M > d*l so that the integer is recoverable, and w^d = I.
    """
    pM = w.modulus.pM
    if pM <= d * w.dim:
        raise PrecisionTooLow(f"need p^M > {d * w.dim}, have {pM}")
    orders, trace_sums, _ = _powers(np.array([w.rows], dtype=exact_dtype(pM, w.dim)), pM, d)
    order, trace_sum = int(orders[0]), int(trace_sums[0])
    if d % order != 0:
        raise InvariantViolation(f"element order {order} does not divide d={d}")
    return _rank_from_trace_sum(trace_sum, order, w.dim, pM)


def close(
    generators: Sequence[SquareMatrix],
    cap: int = DEFAULT_CLOSURE_CAP,
    generator_factory: Optional[GeneratorFactory] = None,
    name: Optional[str] = None,
) -> FiniteMatrixGroup:
    """Breadth-first closure of a generator list under multiplication.

    Elements are discovered by right-multiplying the frontier by each
    generator in the listed order, which fixes a deterministic insertion
    order.  Each BFS level is one contiguous block of the store whose
    parents all lie in the previous level, which ``rows_at`` relies on.
    Raises CapExceeded once more than ``cap`` elements appear.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    modulus = generators[0].modulus
    dim = generators[0].dim
    for g in generators:
        if g.modulus != modulus or g.dim != dim:
            raise ValueError("generators must share a modulus and dimension")
    dtype = exact_dtype(modulus.pM, dim)
    pM = modulus.pM
    gen_arrs = np.array([g.rows for g in generators], dtype=dtype)
    ident = np.eye(dim, dtype=dtype)[None]
    keys = {next(_keys(ident, pM)): 0}
    parent, gen = [np.array([-1])], [np.array([-1])]
    levels = [ident]
    batch = ident
    lo = 0  # store index of the batch's first element
    while len(batch):
        fresh = []
        for gi, g in enumerate(gen_arrs):
            prod = batch @ g % pM
            new = []
            for t, key in enumerate(_keys(prod, pM)):
                if key not in keys:
                    keys[key] = len(keys)
                    new.append(t)
                    if len(keys) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
            fresh.append(prod[new])
            parent.append(lo + np.array(new, dtype=np.int64))
            gen.append(np.full(len(new), gi))
        lo += len(batch)
        batch = np.concatenate(fresh)
        levels.append(batch)
    return FiniteMatrixGroup(modulus, dim, gen_arrs, np.concatenate(levels),
                             np.concatenate(parent), np.concatenate(gen), keys,
                             generator_factory=generator_factory, name=name)
