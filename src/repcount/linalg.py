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
at most ``VALUATION_TABLE_MAX``, and backs ``snf``, ``kernel_size``, the one
Smith form per conjugacy class and every Burnside fixed-point count.  A
scalar elimination of one matrix in pure Python is kept below only as the
reference that the tests hold the batched engine to.  ``diagonal`` turns
valuations into the diagonal p^e, 0 where saturated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, PrecisionTooLow
from .modp import Modulus


@dataclass(frozen=True)
class SquareMatrix:
    """An l x l matrix over Z/p^M: its rows of canonical ints and its modulus.

    Rows are a tuple of tuples, so instances are immutable and hashable.
    """

    rows: tuple
    modulus: Modulus

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], modulus: Modulus) -> "SquareMatrix":
        l = len(rows)
        if l < 1 or any(len(r) != l for r in rows):
            raise DimensionMismatch("matrix must be square with dim >= 1")
        pM = modulus.pM
        return SquareMatrix(tuple(tuple(x % pM for x in r) for r in rows), modulus)

    @staticmethod
    def identity(dim: int, modulus: Modulus) -> "SquareMatrix":
        return SquareMatrix.from_rows(
            [[1 if i == j else 0 for j in range(dim)] for i in range(dim)], modulus
        )

    @property
    def dim(self) -> int:
        return len(self.rows)


def diagonal(vals: Sequence[int], p: int, M: int) -> tuple:
    """The Smith diagonal over Z/p^M: p^e for each valuation e, 0 where e is M (saturated)."""
    return tuple(0 if e == M else p ** e for e in vals)


def smith_valuations_raw(rows: Sequence[Sequence[int]], p: int, M: int) -> list:
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
    matrix it equals the scalar reference above.  The batch is held as an
    (l*l, N) array, and each step works on every matrix and its full l x l
    block at once: the valuation of every entry (zero reads M; one lookup
    in an int8 table of v_p over Z/p^M when p^M <= ``VALUATION_TABLE_MAX``,
    divisibility tests by p, p^2, ... above it), a pivot of minimal
    valuation e per matrix (the minimum of e*l*l + position), then row
    elimination only.  Every row i becomes u*row_i - (a_ij / p^e)*pivot_row
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
    # p^0 .. p^M in the entries' dtype; p^M divides a saturated pivot's all-zero block
    pows = np.array([p ** e for e in range(M + 1)], dtype=b.dtype)
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
                live &= _mod(b, pows[v]) == 0
                if not live.any():
                    break
                vals += live
        key = np.minimum.reduce(vals.astype(position.dtype) * size + position)
        e, piv = np.divmod(key.astype(np.int64), size)
        out[s] = e
        pe = pows[e]
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


def kernel_size(a: SquareMatrix, n: int) -> int:
    """Exact number of vectors v in (Z/p^n)^l with A v = 0.

    |Ker(A mod p^n)| = prod p^min(e_i, n) over the Smith valuations mod p^n,
    where a saturated valuation reads n.
    """
    if n > a.modulus.M:
        raise PrecisionTooLow(f"need precision {n}, matrix has {a.modulus.M}")
    p = a.modulus.p
    rows = np.array([a.rows], dtype=object) % p ** n
    return p ** int(smith_valuations_batch(rows, p, n).sum())


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
