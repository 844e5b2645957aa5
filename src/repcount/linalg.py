"""Dense exact linear algebra over Z/p^M: Smith forms.

A matrix is one value: rows of canonical ints in [0, p^M), kept as a tuple
of tuples, or as an (N, l, l) numpy batch of them (int64, or object when
``exact_dtype`` says int64 could overflow).  ``SquareMatrix`` pairs the
rows with their modulus and does no arithmetic: products are numpy matmul
on batches, reduced mod p^M by the caller.  Matrices are small (dimension
<= 8 in every case this package handles), so everything is dense and exact.

Smith valuations are plain ints everywhere: the non-decreasing valuations
of the elementary divisors, with the precision M standing for saturated (a
divisor that vanishes mod p^M).  ``smith_valuations_batch`` is the one
Smith engine: it eliminates a whole (N, l, l) numpy batch at once, in place
on full l x l blocks, with valuations read from an int8 table while p^M is
at most ``VALUATION_TABLE_MAX``, and backs ``snf``, the one Smith form per
conjugacy class and every Burnside fixed-point count.  The tests hold it to
a scalar elimination of one matrix in pure Python, which they keep.
``diagonal`` turns valuations into the diagonal p^e, 0 where saturated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .modp import Modulus
from .records import FrozenRecord


class SquareMatrix(FrozenRecord):
    """An l x l matrix over Z/p^M: its rows of canonical ints and its modulus.

    Rows are a tuple of tuples, so instances are immutable and hashable.
    """

    __slots__ = _fields = ("rows", "modulus")

    def __init__(self, rows: tuple, modulus: Modulus):
        self._init(rows, modulus)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], modulus: Modulus) -> "SquareMatrix":
        l = len(rows)
        if l < 1 or any(len(r) != l for r in rows):
            raise DimensionMismatch("matrix must be square with dim >= 1")
        pM = modulus.pM
        return SquareMatrix(tuple(tuple(x % pM for x in r) for r in rows), modulus)

    @property
    def dim(self) -> int:
        return len(self.rows)


def diagonal(vals: Sequence[int], p: int, M: int) -> tuple:
    """The Smith diagonal over Z/p^M: p^e for each valuation e, 0 where e is M (saturated)."""
    return tuple(0 if e == M else p ** e for e in vals)


def exact_dtype(pM: int, dim: int):
    """numpy dtype for exact arithmetic on l x l matrices mod pM.

    int64 when a matmul entry sum, at most dim * (pM - 1)^2, stays below
    2^63; object (Python integers) otherwise.
    """
    return np.int64 if dim * (pM - 1) ** 2 < 2 ** 63 else object


def _mod(x, q: int):
    """x mod q, in [0, q); numpy floor-divides by a scalar faster than it takes remainders."""
    return x - x // q * q


#: Largest p^M whose valuations the engine reads from a table: one int8 per
#: residue, 64 KB.  Above it each step tests divisibility by p, p^2, ...
VALUATION_TABLE_MAX = 2 ** 16


def _valuation_table(p: int, M: int) -> np.ndarray:
    """v_p of every residue in [0, p^M) as int8, with 0 reading M."""
    table = np.zeros(p ** M, dtype=np.int8)
    for e in range(1, M):
        table[::p ** e] += 1
    table[0] = M
    return table


def smith_valuations_batch(a, p: int, M: int) -> np.ndarray:
    """Smith-form valuations of every matrix in an (N, l, l) batch over Z/p^M.

    ``a`` holds integer entries (numpy int64 or object), read mod p^M.
    Returns an (N, l) int64 array whose row t is the non-decreasing
    valuation list of matrix t, with M standing for saturated; matrix by
    matrix it equals a scalar elimination.  The batch is held as an
    (l*l, N) array, and each step works on every matrix and its full l x l
    block at once: the valuation of every entry (zero reads M; one lookup
    in an int8 table of v_p over Z/p^M when p^M <= ``VALUATION_TABLE_MAX``,
    divisibility tests by p, p^2, ... above it, which stop at the largest
    finite valuation present), a pivot of minimal valuation e per matrix
    (the minimum of e*l*l + position), then row elimination only.  Every row i becomes u*row_i - (a_ij / p^e)*pivot_row
    in place, where u is the pivot's unit part; scaling a row by a unit is
    invertible over Z/p^M, so no inverse is needed.  The update zeroes the
    pivot row and column, and zeros read as saturated, so no later step
    picks them before a live entry, and the column operations, which would
    change only the pivot row, are skipped.  The entries use
    ``exact_dtype``: the products formed here are below (p^M - 1)^2.
    """
    pM = p ** M
    n, dim = a.shape[0], a.shape[-1]
    size = dim * dim
    b = np.ascontiguousarray(_mod(np.asarray(a, dtype=exact_dtype(pM, dim)).reshape(n, size).T, pM))
    table = _valuation_table(p, M) if pM <= VALUATION_TABLE_MAX else None
    # p^0, p^1, ... in the entries' dtype: up to p^M with the table, and without
    # it only as far as the divisibility tests reach.  A saturated pivot's block
    # is all zero, so the last power held divides it as well as p^M would.
    pows = np.array([p ** e for e in range(M + 1 if table is not None else 1)], dtype=b.dtype)
    # the narrowest dtype that holds e*l*l + position keeps the pivot search cheap
    position = np.arange(size, dtype=np.min_scalar_type((M + 1) * size))[:, None]
    # entry (i, j) of matrix t sits at flat index (i*l + j)*N + t: the entries
    # of a row are N apart, those of a column l*N apart
    lane, stride = np.arange(n), np.arange(dim)[:, None] * n
    out = np.empty((dim, n), dtype=np.int64)
    for s in range(dim):
        if table is not None:
            vals = table[b]
        else:
            live = b != 0
            vals = np.where(live, 0, M)
            for v in range(1, M):
                if v == pows.size:
                    pows = np.append(pows, pows[-1] * p)
                live &= _mod(b, pows[v]) == 0
                if not live.any():
                    break
                vals += live
        key = np.minimum.reduce(vals.astype(position.dtype) * size + position)
        e, piv = np.divmod(key.astype(np.int64), size)
        out[s] = e
        pe = pows[np.minimum(e, pows.size - 1)]
        bi, bj = np.divmod(piv, dim)
        unit = b.take(piv * n + lane) // pe
        q = b.take(dim * stride + (bj * n + lane)) // pe
        pivot_row = b.take(stride + (bi * (dim * n) + lane))
        b *= unit
        b -= (q[:, None] * pivot_row).reshape(size, n)
        b -= b // pM * pM
    return out.T


def smith_valuations(a: SquareMatrix) -> tuple:
    """Smith valuations of a over Z/p^M, non-decreasing, M where saturated."""
    vals = smith_valuations_batch(np.array([a.rows], dtype=object), a.modulus.p, a.modulus.M)
    return tuple(vals[0].tolist())


def parse_matrix_text(text: str) -> SquareMatrix:
    """Parse the plain-text matrix format: header "p M rows cols", then rows.

    Entries are non-negative integers, reduced mod p^M on ingestion.
    """
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError('header must be "p M rows cols"')
    p, M, nrows, ncols = (int(tok) for tok in header)
    if nrows < 1:
        raise ValueError(f"matrix needs at least one row, got {nrows}")
    if nrows != ncols:
        raise ValueError(f"matrix must be square, got {nrows}x{ncols}")
    if len(lines) - 1 != nrows:
        raise ValueError(f"expected {nrows} rows, found {len(lines) - 1}")
    modulus = Modulus(p, M)
    rows = []
    for ln in lines[1:]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != ncols:
            raise ValueError(f"row has {len(row)} entries, expected {ncols}")
        if any(x < 0 for x in row):
            raise ValueError("entries must be non-negative")
        rows.append(row)
    return SquareMatrix.from_rows(rows, modulus)
