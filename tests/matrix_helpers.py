"""Matrix arithmetic for the tests: products, powers, w - I, determinants,
kernel sizes, scalar Smith forms, orbits and conjugacy classes, lookups
of a closed group's elements by index, by rows, by word and by class, and
a spec's group closed at a precision other than its M0.

The package keeps a matrix as rows of canonical ints and multiplies only
inside its algorithms, so the tests form the matrices they check here, as
tuples of row tuples.  Factors may be a generator array or plain rows.
``close_rows`` wraps rows as the ``SquareMatrix`` values ``close`` takes.  A
closed group answers only what the counts read (``rows_at``,
``_partition``), so the lookups below are built from those.
"""

import itertools
import math

import numpy as np

from repcount import catalog
from repcount.errors import InvariantViolation, PrecisionTooLow
from repcount.formulas import theorem_c
from repcount.groups import _powers, _rank_from_trace_sum, close
from repcount.linalg import (SquareMatrix, exact_dtype, smith_valuations_batch,
                             smith_valuations_lanes)
from repcount.modp import Modulus, invert, is_prime, mth_root_of_unity


def rows_of(x):
    return x.tolist() if hasattr(x, "tolist") else x


def identity(dim: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def element(group, i: int) -> tuple:
    """Element i of a closed group at its own precision."""
    return tuple(map(tuple, group.rows_at([i], group.modulus.M)[0].tolist()))


def index_of(group) -> dict:
    """Every element's rows (a tuple of row tuples) mapped to its index."""
    store = group.rows_at(np.arange(group.order), group.modulus.M).tolist()
    return {tuple(map(tuple, rows)): i for i, rows in enumerate(store)}


def word(group, i: int) -> list:
    """Generator indices whose left-to-right product is element i."""
    out = []
    while i != 0:
        out.append(int(group._gen[i]))
        i = int(group._parent[i])
    out.reverse()
    return out


def class_of(group) -> list:
    """Each element's index into ``group.conjugacy_classes()``, as plain ints."""
    return group._partition().tolist()


def mat_mul(a, b, pM: int) -> tuple:
    """Row-by-column product of two row lists, mod pM, in pure Python."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % pM for col in bt) for row in a
    )


def prod(modulus, *factors) -> tuple:
    """The product of the factors, left to right, mod p^M; of one factor, its canonical rows."""
    acc = tuple(tuple(x % modulus.pM for x in row) for row in rows_of(factors[0]))
    for f in factors[1:]:
        acc = mat_mul(acc, rows_of(f), modulus.pM)
    return acc


def power(x, n: int, modulus) -> tuple:
    acc = identity(len(rows_of(x)))
    for _ in range(n):
        acc = prod(modulus, acc, x)
    return acc


def order(x, modulus) -> int:
    """Multiplicative order of an invertible matrix mod p^M."""
    ident = identity(len(rows_of(x)))
    acc, d = prod(modulus, x), 1
    while acc != ident:
        acc, d = prod(modulus, acc, x), d + 1
    return d


def inverse(x, modulus) -> tuple:
    """x^-1 mod p^M, as x^(d-1) for d the order of x."""
    return power(x, order(x, modulus) - 1, modulus)


def minus_identity(x, modulus) -> tuple:
    """w - I mod p^M."""
    return prod(modulus, [[v - (i == j) for j, v in enumerate(row)]
                          for i, row in enumerate(rows_of(x))])


def smith_valuations_raw(rows, p: int, M: int) -> list:
    """Smith-form valuations of a square matrix over Z/p^M.

    Repeatedly pick a pivot of minimal valuation (ties broken by lowest
    (row, column)), scale its row to make the pivot exactly p^e, and clear
    its row and column; recurse on the minor.  Because the pivot valuation
    is globally minimal the output is already non-decreasing.  Nothing in
    the package calls it: it is the reference for the batched engine.  A
    saturated valuation reads M, as in the batched engine.
    """
    pM = p ** M
    a = [[x % pM for x in row] for row in rows]
    n = len(a)
    out = []
    for s in range(n):
        best_e, bi, bj = M, -1, -1
        for i in range(s, n):
            row = a[i]
            for j in range(s, n):
                x = row[j]
                if x == 0:
                    continue
                e = 0
                while x % p == 0:
                    x //= p
                    e += 1
                if e < best_e:
                    best_e, bi, bj = e, i, j
                    if e == 0:
                        break
            if best_e == 0:
                break
        if bi < 0:
            out.extend([M] * (n - s))
            break
        if bi != s:
            a[s], a[bi] = a[bi], a[s]
        if bj != s:
            for row in a:
                row[s], row[bj] = row[bj], row[s]
        pe = p ** best_e
        unit_inv = pow(a[s][s] // pe, -1, pM)
        a[s] = [x * unit_inv % pM for x in a[s]]
        for i in range(s + 1, n):
            q = a[i][s] // pe
            if q:
                ai, as_ = a[i], a[s]
                a[i] = [(x - q * y) % pM for x, y in zip(ai, as_)]
        for j in range(s + 1, n):
            q = a[s][j] // pe
            if q:
                for i in range(s, n):
                    a[i][j] = (a[i][j] - q * a[i][s]) % pM
        out.append(best_e)
    return out


def kernel_size(a, modulus, n: int) -> int:
    """Exact number of vectors v in (Z/p^n)^l with A v = 0, for rows A mod p^M.

    |Ker(A mod p^n)| = prod p^min(e_i, n) over the Smith valuations mod p^n,
    where a saturated valuation reads n.
    """
    if n > modulus.M:
        raise PrecisionTooLow(f"need precision {n}, matrix has {modulus.M}")
    p = modulus.p
    rows = np.array([rows_of(a)], dtype=object) % p ** n
    return p ** int(smith_valuations_batch(rows, p, n).sum())


def fixed_points_reference(group, idx, k: int) -> list:
    """Reference: |Ker(w - I mod p^k)| for the elements ``idx``, read at p^k itself.

    w - I is gathered by ``minus_identity_lanes`` at p^k (lifted by the
    elements' words above the group's precision) and eliminated at p^k, in
    chunks of 4096 elements, so each count is p^(sum of the valuations) with
    no bound on the torsion used: its work grows with k.
    """
    p = group.modulus.p
    idx = np.asarray(idx, dtype=np.intp)
    out = []
    for lo in range(0, idx.size, 4096):
        lanes = group.minus_identity_lanes(idx[lo:lo + 4096], k)
        out += [p ** e for e in smith_valuations_lanes(lanes, p, k).sum(axis=0).tolist()]
    return out


def close_at(spec, modulus):
    """The spec's group closed at ``modulus`` rather than at its M0, with the
    catalog's generators, their factory and the spec's label, as ``catalog.build``
    closes it."""
    return close_rows(catalog.generators(spec, modulus), modulus, spec.expected_order,
                      generator_factory=lambda mod: catalog.generators(spec, mod),
                      name=spec.label())


def close_rows(gens, modulus, order: int, **kwargs):
    """``close`` on generator rows mod p^M, each wrapped as the ``SquareMatrix`` it takes."""
    return close([SquareMatrix.from_rows(rows_of(g), modulus) for g in gens], order, **kwargs)


def generator_rows(group) -> list:
    """The group's generators, each a tuple of row tuples."""
    return [tuple(map(tuple, g)) for g in group.generators.tolist()]


def monomial_generators_reference(m: int, s: int, n: int, modulus) -> list:
    """Reference: the 2n - 1 generators of G(m,s,n) that the catalog used to list.

    The n - 1 adjacent transpositions, diag(b^s, 1, ...) and diag(b, b^-1)
    on each adjacent pair, for b the canonical element of order m.  The
    catalog now lists only n or n + 1 reflections; both lists must close to
    the same group.
    """
    b = mth_root_of_unity(m, modulus)
    diags = [[pow(b, s, modulus.pM)] + [1] * (n - 1)]
    for i in range(n - 1):
        entries = [1] * n
        entries[i], entries[i + 1] = b, invert(b, modulus)
        diags.append(entries)
    gens = [[[int(j == (i + 1 if r == i else i if r == i + 1 else r)) for j in range(n)]
             for r in range(n)] for i in range(n - 1)]
    gens += [[[d[i] if i == j else 0 for j in range(n)] for i in range(n)] for d in diags]
    return [prod(modulus, rows) for rows in gens]


def closure_reference(generators, pM: int):
    """Oracle: breadth-first closure over row tuples, in plain Python.

    Each level's products are taken generator by generator in the listed
    order, element by element within a generator, and a product seen for
    the first time is appended.  Returns (rows, parent, gen, right): each
    element's rows, the element and generator whose product it first was
    (-1 for the identity), and the index of element i times generator j.
    """
    gens = [rows_of(g) for g in generators]
    dim = len(gens[0])
    rows = [tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))]
    index = {rows[0]: 0}
    parent, gen, right = [-1], [-1], [[None] * len(gens)]
    level = [0]
    while level:
        nxt = []
        for j, g in enumerate(gens):
            for i in level:
                prod = mat_mul(rows[i], g, pM)
                if prod not in index:
                    index[prod] = len(rows)
                    nxt.append(len(rows))
                    rows.append(prod)
                    parent.append(i)
                    gen.append(j)
                    right.append([None] * len(gens))
                right[i][j] = index[prod]
        level = nxt
    return rows, parent, gen, right


def row_action(generators, pM: int) -> list:
    """Oracle: each generator as a permutation of the orbit of the basis rows.

    The basis rows are moved by x -> x @ g mod p^M, for every generator g,
    until no new row appears; points are numbered in order of discovery,
    and generator j sends point i to entry i of the j-th list.  The orbit
    holds the basis rows, so the action is faithful.  Plain Python, sharing
    no code with ``groups._row_orbit``.
    """
    gens = [rows_of(g) for g in generators]
    dim = len(gens[0])
    points = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    index = {x: i for i, x in enumerate(points)}
    perms = [[] for _ in gens]
    for x in points:  # the list grows while it is walked
        for perm, g in zip(perms, gens):
            y = mat_mul([x], g, pM)[0]
            if y not in index:
                index[y] = len(points)
                points.append(y)
            perm.append(index[y])
    return perms


def perm_order(perm: list) -> int:
    """Oracle: order of a permutation of range(len(perm)), the lcm of its cycle lengths.

    Applied to ``row_action``, it gives each generator's order: the action
    is faithful, and it shares no code with ``groups._powers``.
    """
    seen = [False] * len(perm)
    out = 1
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            out = math.lcm(out, length)
    return out


def det_permanent_expansion(rows, pM):
    """Oracle: determinant by signed permutation expansion."""
    l = len(rows)
    total = 0
    for perm in itertools.permutations(range(l)):
        sign = 1
        seen = list(perm)
        for i in range(l):
            for j in range(i + 1, l):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(l):
            term *= rows[i][perm[i]]
        total += term
    return total % pM


def orbit_count_reference(gens, pn: int) -> int:
    """Oracle: orbits of the group the generators span on (Z/pn)^l.

    Breadth-first search over coordinate tuples, with a Python set of the
    points seen; shares no code with ``oracle.orbit_count_bruteforce``.
    """
    gens = [rows_of(g) for g in gens]
    seen = set()
    orbits = 0
    for start in itertools.product(range(pn), repeat=len(gens[0])):
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = tuple(sum(a * x for a, x in zip(row, v)) % pn for row in g)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    return orbits


def fixed_points_bruteforce(w, p: int, n: int) -> int:
    """Oracle: count v in (Z/p^n)^l with w v = v, by scanning every point.

    ``w`` is integer rows; its entries are read mod p^n.
    """
    pn, l = p ** n, len(rows_of(w))
    dtype = np.int32 if l * pn * pn < 2 ** 31 else np.int64
    diff = (np.array(rows_of(w), dtype=np.int64) - np.eye(l, dtype=np.int64)) % pn
    points = np.indices((pn,) * l, dtype=dtype).reshape(l, -1)
    moved = sum(diff[:, j, None].astype(dtype) * points[j] for j in range(l))
    return int(np.count_nonzero((moved % pn == 0).all(axis=0)))


def rank_fixed_space(w, modulus, d: int) -> int:
    """Rank of the fixed sublattice of w, canonical rows mod p^M, from the
    trace average over <w>.

    The sum of traces of w^j for j = 0..d-1 equals d times the fixed-space
    rank, so the rank is read off the canonical representative.  Requires
    p^M > d*l so that the integer is recoverable, and w^d = I.
    """
    pM, l = modulus.pM, len(rows_of(w))
    if pM <= d * l:
        raise PrecisionTooLow(f"need p^M > {d * l}, have {pM}")
    orders, trace_sums = _powers(np.array([rows_of(w)], dtype=exact_dtype(pM, l)), pM, d)
    order, trace_sum = int(orders[0]), int(trace_sums[0])
    if d % order != 0:
        raise InvariantViolation(f"element order {order} does not divide d={d}")
    return _rank_from_trace_sum(trace_sum, order, l, pM)


def solomon_sum(group, k: int) -> int:
    """Sum of class_size * p^(k*rank) over the classes."""
    p = group.modulus.p
    return sum(rec.class_size * p ** (k * rec.rank) for rec in group.conjugacy_classes())


def derive_exponents(group) -> tuple:
    """Recover exponents by factoring the rank-generating polynomial.

    Sums t^rank(w) over the group (classwise) and splits the result as
    prod(t + m_i) over non-negative integers; zero roots correspond to a
    fixed subspace and are dropped, so the trivial group yields ().
    """
    l = group.dim
    h = [0] * (l + 1)
    for rec in group.conjugacy_classes():
        h[rec.rank] += rec.class_size
    coeffs = h[:]  # coeffs[i] multiplies t^i
    roots = []
    for _ in range(l):
        deg = len(coeffs) - 1
        bound = coeffs[deg - 1] // coeffs[deg] if deg >= 1 else 0
        for m in range(0, bound + 1):
            # synthetic division of coeffs by (t + m)
            quot = [0] * deg
            carry = coeffs[deg]
            for i in range(deg - 1, -1, -1):
                quot[i] = carry
                carry = coeffs[i] - m * carry
            if carry == 0:
                roots.append(m)
                coeffs = quot
                break
        else:
            raise ValueError(f"rank polynomial {h} does not split over Z")
    return tuple(sorted(m for m in roots if m > 0))


def x24_simplified(k: int) -> int:
    """The k >= 2 simplification of the x24 polynomial (constant term 384)."""
    num = 2 ** (3 * k) + 21 * 2 ** (2 * k) + 140 * 2 ** k + 384
    if num % 336 != 0:
        raise ValueError(f"x24 simplified numerator {num} not divisible by 336")
    return num // 336


def x24_piecewise_check(k: int) -> bool:
    """True iff the min-term formula matches its piecewise simplification at k."""
    return theorem_c("x24", k) == (2 if k == 1 else x24_simplified(k))


def conjugacy_partition_reference(group):
    """Oracle: conjugacy classes by breadth-first search under matrix conjugation.

    Every class is searched from its least store index, conjugating its
    frontier by each generator g as g^-1 @ x @ g with batched matrix
    products and looking the products up by their rows, so nothing is read
    from the group's Cayley table or byte keys.  Returns (classes, class_of):
    the member lists, in order of their least member, and each element's
    class index.
    """
    pM, n = group.modulus.pM, group.order
    store = group.rows_at(np.arange(n), group.modulus.M)
    index = index_of(group)
    pairs = [(g, np.array(inverse(g, group.modulus), dtype=store.dtype))
             for g in group.generators]
    class_of = [-1] * n
    classes = []
    for start in range(n):
        if class_of[start] >= 0:
            continue
        members, frontier = [start], [start]
        class_of[start] = len(classes)
        while frontier:
            nxt = []
            for g, ginv in pairs:
                for rows in ((ginv @ store[frontier] % pM) @ g % pM).tolist():
                    j = index[tuple(map(tuple, rows))]
                    if class_of[j] < 0:
                        class_of[j] = len(classes)
                        members.append(j)
                        nxt.append(j)
            frontier = nxt
        classes.append(members)
    return classes, class_of


def admissible_tuples(max_order: int, max_points: int) -> dict:
    """Every (m, s, n, p, k) of a G(m,s,n) the spec grammar accepts, keyed by n.

    |W| is at most max_order and the point space (Z/p^k)^n has at most
    max_points points, so the group closes and its space is enumerable.
    """
    out = {}
    for n in range(2, 5):
        for m in range(3, 51):
            for s in (d for d in range(1, m + 1) if m % d == 0):
                if (n == 2 and s == m) or m ** n * math.factorial(n) // s > max_order:
                    continue
                for p in range(m + 1, int(max_points ** (1 / n)) + 1, m):
                    if not is_prime(p):
                        continue
                    k = 1
                    while p ** (k * n) <= max_points:
                        out.setdefault(n, []).append((m, s, n, p, k))
                        k += 1
    return out


def distinguished_tuples(m: int, s: int, n: int, p: int, k: int) -> list:
    """Reference: the fundamental domain of G(m,s,n) on (Z/p^k)^n, materialized.

    The nonzero residues are walked x, xc, xc^2, ... under c =
    mth_root_of_unity(m, p^k), from each unseen x in ascending order, so x
    is its orbit's minimum; the s stride-s slices of a walk are its
    <c^s>-orbits.  A multiset of t < n orbits, padded with n - t zeros,
    gives one tuple of orbit minima: a zero absorbs the mod-s constraint.
    A multiset of n orbits gives one tuple per <c^s>-orbit minimum of its
    last orbit.
    """
    pk = p ** k
    c = mth_root_of_unity(m, Modulus(p, k))
    seen, orbits = {0}, []  # (minimum, sorted <c^s>-orbit minima)
    for x in range(1, pk):
        if x in seen:
            continue
        walk, y = [], x
        while y not in seen:
            seen.add(y)
            walk.append(y)
            y = y * c % pk
        orbits.append((x, sorted(min(walk[i::s]) for i in range(s))))
    tuples = []
    for t in range(n):
        for multiset in itertools.combinations_with_replacement(orbits, t):
            tuples.append((0,) * (n - t) + tuple(o[0] for o in multiset))
    for multiset in itertools.combinations_with_replacement(orbits, n):
        prefix = tuple(o[0] for o in multiset[:-1])
        tuples.extend(prefix + (b,) for b in multiset[-1][1])
    return tuples
