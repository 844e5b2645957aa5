"""Matrix arithmetic for the tests: products, powers, w - I and determinants.

The package keeps a matrix as rows of canonical ints and multiplies only
inside its algorithms, so the tests form the matrices they check here.
Factors may be a ``SquareMatrix``, a generator array or plain rows.
"""

import itertools

from repcount.linalg import SquareMatrix


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


def minus_identity(x, modulus) -> SquareMatrix:
    """w - I mod p^M."""
    return SquareMatrix.from_rows(
        [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows_of(x))],
        modulus,
    )


def generator_matrices(group) -> list:
    """The group's generators as SquareMatrix values, as ``close`` takes them."""
    return [SquareMatrix.from_rows(g.tolist(), group.modulus) for g in group.generators]


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
