"""Matrix arithmetic for the tests: products, powers, w - I, determinants,
orbits and conjugacy classes.

The package keeps a matrix as rows of canonical ints and multiplies only
inside its algorithms, so the tests form the matrices they check here.
Factors may be a ``SquareMatrix``, a generator array or plain rows.
"""

import itertools
import math

import numpy as np

from repcount.linalg import SquareMatrix
from repcount.modp import is_prime


def rows_of(x):
    if isinstance(x, SquareMatrix):
        return x.rows
    return x.tolist() if hasattr(x, "tolist") else x


def mat_mul(a, b, pM: int) -> tuple:
    """Row-by-column product of two row lists, mod pM, in pure Python."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % pM for col in bt) for row in a
    )


def prod(modulus, *factors) -> SquareMatrix:
    """The product of the factors, left to right, mod p^M."""
    acc = SquareMatrix.from_rows(rows_of(factors[0]), modulus).rows
    for f in factors[1:]:
        acc = mat_mul(acc, rows_of(f), modulus.pM)
    return SquareMatrix(acc, modulus)


def power(x, n: int, modulus) -> SquareMatrix:
    acc = SquareMatrix.identity(len(rows_of(x)), modulus)
    for _ in range(n):
        acc = prod(modulus, acc, x)
    return acc


def order(x, modulus) -> int:
    """Multiplicative order of an invertible matrix mod p^M."""
    ident = SquareMatrix.identity(len(rows_of(x)), modulus)
    acc, d = prod(modulus, x), 1
    while acc != ident:
        acc, d = prod(modulus, acc, x), d + 1
    return d


def inverse(x, modulus) -> SquareMatrix:
    """x^-1 mod p^M, as x^(d-1) for d the order of x."""
    return power(x, order(x, modulus) - 1, modulus)


def minus_identity(x, modulus) -> SquareMatrix:
    """w - I mod p^M."""
    return SquareMatrix.from_rows(
        [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows_of(x))],
        modulus,
    )


def generator_matrices(group) -> list:
    """The group's generators as SquareMatrix values, as ``close`` takes them."""
    return [SquareMatrix.from_rows(g.tolist(), group.modulus) for g in group.generators]


def closure_reference(generators):
    """Oracle: breadth-first closure over row tuples, in plain Python.

    Each level's products are taken generator by generator in the listed
    order, element by element within a generator, and a product seen for
    the first time is appended.  Returns (rows, parent, gen, right): each
    element's rows, the element and generator whose product it first was
    (-1 for the identity), and the index of element i times generator j.
    """
    pM = generators[0].modulus.pM
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
    index = {tuple(map(tuple, rows)): i for i, rows in enumerate(store.tolist())}
    pairs = [(g, np.array(inverse(g, group.modulus).rows, dtype=store.dtype))
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
