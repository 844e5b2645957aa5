"""Matrix products, Smith valuations, kernel sizes, matrix files.

The independent oracles here are exhaustive: kernels by scanning every
vector of the point space, determinants by permutation expansion.  Smith
invariance is checked under random unimodular transforms.
"""

import itertools
import random

import numpy as np
import pytest

from matrix_helpers import det_permanent_expansion, mat_mul, prod
from repcount.errors import DimensionMismatch, PrecisionTooLow
from repcount.linalg import (
    SquareMatrix,
    _mod,
    diagonal,
    kernel_size,
    parse_matrix_text,
    smith_valuations,
)
from repcount.modp import Modulus, int_valuation


def mat(rows, p, M):
    return SquareMatrix.from_rows(rows, Modulus(p, M))


def kernel_scan(rows, p, n):
    """Oracle: count v with A v = 0 mod p^n over the whole space."""
    pn = p ** n
    l = len(rows)
    count = 0
    for v in itertools.product(range(pn), repeat=l):
        if all(sum(rows[i][j] * v[j] for j in range(l)) % pn == 0 for i in range(l)):
            count += 1
    return count


def random_unimodular(l, p, M, rng):
    """Product of elementary row operations: triangular with unit diagonal."""
    pM = p ** M
    units = [x for x in range(1, pM) if x % p != 0]
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = rng.choice(units)
    for i in range(l):
        for j in range(l):
            if i < j:
                a[i][j] = rng.randrange(pM)
    perm = list(range(l))
    rng.shuffle(perm)
    return [[a[i][perm[j]] for j in range(l)] for i in range(l)]


def test_multiply_identity():
    # the tests' own product, which the other checks build their matrices with
    a = mat([[1, 2], [3, 4]], 5, 2)
    i2 = SquareMatrix.identity(2, a.modulus)
    assert mat_mul(a.rows, i2.rows, a.modulus.pM) == a.rows
    assert mat_mul(i2.rows, a.rows, a.modulus.pM) == a.rows


def test_multiply_known_product():
    a = mat([[1, 2], [3, 4]], 7, 2)
    b = mat([[0, 1], [1, 0]], 7, 2)
    assert mat_mul(a.rows, b.rows, a.modulus.pM) == ((2, 1), (4, 3))


def test_from_rows_canonical_and_square():
    # residues enter a matrix as canonical representatives mod p^M
    a = mat([[-1, 9], [5 + 7, 2 * 5]], 3, 2)
    assert a.rows == ((8, 0), (3, 1)) and a.dim == 2
    with pytest.raises(DimensionMismatch):
        mat([[1, 0, 0], [0, 1, 0]], 5, 2)
    with pytest.raises(DimensionMismatch):
        mat([], 5, 2)


def test_smith_zero_matrix():
    z = mat([[0, 0, 0]] * 3, 3, 4)
    sv = smith_valuations(z)
    assert sv == (4,) * 3
    assert diagonal(sv, 3, 4) == (0, 0, 0)


def test_smith_diagonal_matrix():
    a = mat([[1, 0, 0], [0, 2, 0], [0, 0, 4]], 2, 3)
    assert smith_valuations(a) == (0, 1, 2)
    assert diagonal(smith_valuations(a), 2, 3) == (1, 2, 4)


def test_smith_needs_column_ops():
    # [[p, 1], [0, p]] is equivalent to diag(1, p^2).
    a = mat([[3, 1], [0, 3]], 3, 4)
    assert smith_valuations(a) == (0, 2)


def test_smith_identity():
    a = SquareMatrix.identity(4, Modulus(5, 2))
    assert smith_valuations(a) == (0, 0, 0, 0)


def test_mod_matches_the_remainder():
    # the floor-division remainder the Smith engine and the oracle reduce by
    rng = np.random.default_rng(5)
    x = rng.integers(-10 ** 12, 10 ** 12, size=(50, 3, 3))
    for q in (2, 5, 125, 1297, 10 ** 9 + 7):
        assert (_mod(x, q) == x % q).all()
    big = np.array([-(7 ** 40) - 3, -1, 0, 7 ** 40 + 5], dtype=object)
    assert _mod(big, 7 ** 21).tolist() == [v % 7 ** 21 for v in big.tolist()]


@pytest.mark.parametrize("p,l", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 3)])
def test_kernel_size_vs_scan(p, l):
    rng = random.Random(p * 100 + l)
    m = Modulus(p, 3)
    for _ in range(25):
        rows = [[rng.randrange(m.pM) for _ in range(l)] for _ in range(l)]
        a = SquareMatrix.from_rows(rows, m)
        for n in range(1, 4):
            if p ** (n * l) > 5 ** 3 * 125:
                continue
            assert kernel_size(a, n) == kernel_scan(a.rows, p, n)


def test_kernel_size_trivial_cases():
    z = mat([[0] * 4 for _ in range(4)], 5, 2)
    assert kernel_size(z, 1) == 625
    u = SquareMatrix.identity(3, Modulus(2, 3))
    assert kernel_size(u, 3) == 1


def test_kernel_size_precision_error():
    a = mat([[1, 0], [0, 1]], 3, 2)
    with pytest.raises(PrecisionTooLow):
        kernel_size(a, 3)


def test_smith_valuation_monotone_in_precision():
    rng = random.Random(7)
    for _ in range(40):
        l = rng.randrange(2, 5)
        rows = [[rng.randrange(3 ** 5) for _ in range(l)] for _ in range(l)]
        low = smith_valuations(mat([[x % 27 for x in r] for r in rows], 3, 3))
        high = smith_valuations(mat(rows, 3, 5))
        for e_low, e_high in zip(low, high):
            if e_low < 3:
                assert e_low == e_high
            else:
                assert e_high >= 3


@pytest.mark.parametrize("p,M,l", [(2, 4, 3), (3, 3, 3), (5, 2, 4), (3, 4, 5)])
def test_smith_unimodular_invariance(p, M, l):
    rng = random.Random(1000 * p + 10 * M + l)
    m = Modulus(p, M)
    for _ in range(50):
        rows = [[rng.randrange(m.pM) for _ in range(l)] for _ in range(l)]
        a = SquareMatrix.from_rows(rows, m)
        u = SquareMatrix.from_rows(random_unimodular(l, p, M, rng), m)
        v = SquareMatrix.from_rows(random_unimodular(l, p, M, rng), m)
        assert smith_valuations(prod(m, u, a, v)) == smith_valuations(a)


@pytest.mark.parametrize("p,M,l", [(2, 3, 2), (3, 2, 3), (5, 2, 4)])
def test_determinant_vs_expansion(p, M, l):
    # det is a unit times p^(e_1 + ... + e_l): its valuation mod p^M is the
    # sum of the Smith valuations, saturated from M on
    rng = random.Random(p + M + l)
    m = Modulus(p, M)
    for _ in range(40):
        rows = [[rng.randrange(m.pM) for _ in range(l)] for _ in range(l)]
        det = det_permanent_expansion(rows, m.pM)
        vals = smith_valuations(SquareMatrix.from_rows(rows, m))
        total = min(sum(vals), M)
        assert total == (M if det == 0 else int_valuation(det, p))


def test_determinant_unit_iff_trivial_kernel():
    rng = random.Random(99)
    m = Modulus(3, 3)
    for _ in range(40):
        rows = [[rng.randrange(m.pM) for _ in range(3)] for _ in range(3)]
        a = SquareMatrix.from_rows(rows, m)
        unit = det_permanent_expansion(rows, m.pM) % 3 != 0
        trivial = all(kernel_size(a, n) == 1 for n in range(1, 4))
        assert unit == trivial


def test_parse_matrix_text():
    text = "2 4 3 3\n12 1 0\n0 13 2\n0 0 11\n"
    a = parse_matrix_text(text)
    assert a.modulus.p == 2 and a.modulus.M == 4
    assert a.rows == ((12, 1, 0), (0, 13, 2), (0, 0, 11))
    with pytest.raises(ValueError):
        parse_matrix_text("2 4 2 3\n1 1 1\n1 1 1\n")
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("2 4 2 2\n1 -1\n0 1\n")
    with pytest.raises(ValueError):
        parse_matrix_text("5 2 0 0\n")
