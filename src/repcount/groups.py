"""Finite matrix groups over Z/p^M: closure, conjugacy classes, ranks.

Groups are closed once, at one precision, and then immutable.  Elements live
in one numpy (N, l, l) store indexed by canonical byte keys, and the
generators in one (g, l, l) array; the dtype is int64 when matmul entry sums
cannot overflow and object (Python integers) otherwise, and both dtypes
share every code path.  Every element also carries a word in the
generators, so one element, or the whole store, can be re-evaluated at any
higher precision without re-closing the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapExceeded, InvariantViolation, NonIntegralRank, PrecisionTooLow
from .linalg import (
    SmithValuations,
    SquareMatrix,
    exact_dtype,
    mat_mul_raw,
    smith_valuations_raw,
)
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

    def __init__(self, modulus, dim, generators, store, words, keys,
                 generator_factory=None, name=None):
        self.modulus = modulus
        self.dim = dim
        self.generators = generators  # (g, l, l) array, the store's dtype
        self._arr = store          # (N, l, l) array of dtype exact_dtype(modulus.pM, dim)
        self._words = words        # words[i] = (parent index, generator index)
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
            parent, gi = self._words[i]
            out.append(gi)
            i = parent
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

    def element_rows_at(self, i: int, target_M: int) -> tuple:
        """Element i re-expressed mod p^target_M.

        Reduction is entrywise; raising precision re-evaluates the element's
        generator word, which requires a generator factory.
        """
        pn = self.modulus.p ** target_M
        if target_M <= self.modulus.M:
            return tuple(tuple(x % pn for x in row) for row in self.element_rows(i))
        gens = self.generators_at(target_M)
        acc = np.eye(self.dim, dtype=gens.dtype)
        for gi in self.word(i):
            acc = acc @ gens[gi] % pn
        return tuple(map(tuple, acc.tolist()))

    def diff_rows_at(self, i: int, m: int) -> tuple:
        """w - I mod p^m for element i, evaluated at precision m."""
        return _minus_identity(self.element_rows_at(i, m), self.modulus.p ** m)

    def store_at(self, n: int) -> np.ndarray:
        """Every element mod p^n, as an (N, l, l) array in store order.

        Reduction is entrywise.  Above the group's precision each BFS level
        is one batched product of its parents' lifts with the generators at
        p^n, read off the stored words, so nothing is hashed or re-closed.
        """
        pn = self.modulus.p ** n
        dtype = exact_dtype(pn, self.dim)
        if n <= self.modulus.M:
            return (self._arr % pn).astype(dtype, copy=False)
        gens = self.generators_at(n)
        parent = np.array([w[0] for w in self._words])
        gen = np.array([w[1] for w in self._words])
        out = np.empty(self._arr.shape, dtype=dtype)
        out[0] = np.eye(self.dim, dtype=dtype)
        lo = 1
        while lo < self.order:
            # a level is contiguous and ends at the first element whose parent is in it
            later = np.flatnonzero(parent[lo:] >= lo)
            hi = lo + int(later[0]) if later.size else self.order
            out[lo:hi] = out[parent[lo:hi]] @ gens[gen[lo:hi]] % pn
            lo = hi
        return out

    # -- orders, ranks, classes ---------------------------------------------

    def element_order(self, i: int) -> int:
        return _order_and_trace_sum(self.element_rows(i), self.modulus.pM, self.order)[0]

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
        saturated.  Above M the representative is lifted once, by its word.
        """
        if self._classes is not None:
            return self._classes
        members_per_class, class_of = self._partition()
        records = []
        p, M = self.modulus.p, self.modulus.M
        for members in members_per_class:
            rep = min(members, key=lambda j: self._key_list[j])
            size = len(members)
            if self.order % size != 0:
                raise InvariantViolation(
                    f"class of element {rep} has size {size}, not dividing |W|={self.order}"
                )
            rows = self.element_rows(rep)
            d, trace_sum = _order_and_trace_sum(rows, self.modulus.pM, self.order)
            m = M
            while p ** m <= d * self.dim:
                m += 1
            if m > M:
                rows = self.element_rows_at(rep, m)
                _, trace_sum = _order_and_trace_sum(rows, p ** m, d)
            rank = _rank_from_trace_sum(trace_sum, d, self.dim, p ** m)
            vals = smith_valuations_raw(_minus_identity(rows, p ** m), p, m)
            if sum(1 for e in vals if e is SATURATED) != rank:
                raise InvariantViolation(
                    f"element {rep} of order {d}: Smith form mod {p}^{m} does not "
                    f"separate its torsion from its rank-{rank} fixed space"
                )
            at_M = tuple(SATURATED if e is SATURATED or e >= M else e for e in vals)
            records.append(
                ConjugacyClassRecord(
                    rep_index=rep,
                    representative=self.element(rep),
                    class_size=size,
                    centralizer_order=self.order // size,
                    element_order=d,
                    rank=rank,
                    smith_vals=SmithValuations(at_M, self.modulus),
                    torsion_vals=tuple(e for e in vals if e is not SATURATED and e > 0),
                )
            )
        if sum(r.class_size for r in records) != self.order:
            raise InvariantViolation(f"class sizes do not sum to |W|={self.order}")
        self._classes = records
        self._class_of = class_of
        return records

    def class_of(self, i: int) -> int:
        """Index into conjugacy_classes() of the class containing element i."""
        self.conjugacy_classes()
        return self._class_of[i]

    def _conjugation_pairs(self):
        """(g, g^-1) for each generator array; inverses by powering to order-1."""
        pM = self.modulus.pM
        ident = np.eye(self.dim, dtype=self.generators.dtype)
        pairs = []
        for g in self.generators:
            inv, acc = ident, g
            for _ in range(self.order):
                if np.array_equal(acc, ident):
                    break
                inv, acc = acc, acc @ g % pM
            else:
                raise InvariantViolation(f"generator has order above {self.order}")
            pairs.append((g, inv))
        return pairs

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


def _minus_identity(rows, pm: int) -> tuple:
    return tuple(
        tuple((x - (r == c)) % pm for c, x in enumerate(row)) for r, row in enumerate(rows)
    )


def _order_and_trace_sum(rows, pm: int, bound: int):
    """Order d of a matrix mod pm and the sum of the traces of its first d powers, mod pm.

    Raises InvariantViolation when the order exceeds ``bound``.
    """
    dim = len(rows)
    ident = tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))
    acc = rows
    trace_sum = dim  # trace of w^0
    d = 1
    while acc != ident:
        trace_sum += sum(acc[j][j] for j in range(dim))
        acc = mat_mul_raw(acc, rows, pm)
        d += 1
        if d > bound:
            raise InvariantViolation(f"matrix has order above {bound}")
    return d, trace_sum % pm


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
    order, trace_sum = _order_and_trace_sum(w.rows, pM, d)
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
    parents all lie in the previous level, which ``store_at`` relies on.
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
    words = [(-1, -1)]
    levels = [ident]
    batch = ident
    while len(batch):
        lo = len(words) - len(batch)
        fresh = []
        for gi, g in enumerate(gen_arrs):
            prod = batch @ g % pM
            new = []
            for t, key in enumerate(_keys(prod, pM)):
                if key not in keys:
                    keys[key] = len(words)
                    words.append((lo + t, gi))
                    new.append(t)
                    if len(words) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
            fresh.append(prod[new])
        batch = np.concatenate(fresh)
        levels.append(batch)
    return FiniteMatrixGroup(modulus, dim, gen_arrs, np.concatenate(levels),
                             words, keys, generator_factory=generator_factory, name=name)
