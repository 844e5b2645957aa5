"""Dense exact linear algebra over Z/p^M: Smith forms.

A matrix is one value: rows of canonical ints in [0, p^M), kept as a tuple
of tuples, or as an (N, l, l) numpy batch of them (int64, or object when
``exact_dtype`` says int64 could overflow).  ``SquareMatrix``, the rows
with their modulus, is ``groups.close``'s input and nothing else; products
are numpy matmul on batches, reduced mod p^M by the caller.  Matrices are
small (dimension <= 8 in every case this package handles), so everything
is dense and exact.

Smith valuations are plain ints everywhere: the non-decreasing valuations
of the elementary divisors, with the precision M standing for saturated (a
divisor that vanishes mod p^M).  ``smith_valuations_lanes`` is the one
Smith elimination.  It works on a batch held entry-major, an (l*l, N) array
whose row i*l + j holds entry (i, j) of every matrix, in place on full
l x l blocks.  Its entries sit in the narrowest signed lane that holds what
a step forms (``lane_dtype``: int16 up to p^M = 181, int32 up to 46341,
then int64 or object), not in ``exact_dtype``.  Its pivot key is decoded by
a shift, a mask and small offset tables.  Valuations are read from a table
while p^M is at most ``VALUATION_TABLE_MAX`` and above it by a binary
descent over p^(2^e), about log2(M) exact divisions of each entry; each
pivot's p^e is formed for it alone.  The row update after the last pivot
is skipped.
``smith_valuations_batch`` keeps the (N, l, l) interface: ``entry_major``
reduces the batch, transposes it and only then narrows it to the lane.
Together they back ``snf``, the one Smith form per conjugacy class and
every Burnside fixed-point count.  The tests hold them to a scalar
elimination of one matrix in pure Python, which they keep.
``diagonal`` turns valuations into the diagonal p^e, 0 where saturated.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .modp import Modulus
from .records import FrozenRecord, check_bits


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


#: Largest p^M whose valuations the engine reads from a table: one key per
#: residue, at most 128 KB.  Above it each step finds them by a binary descent.
VALUATION_TABLE_MAX = 2 ** 16


def lane_dtype(pM: int):
    """The narrowest signed dtype that the Smith elimination mod pM runs in.

    A step forms u*a - q*b from entries in [0, pM), at most (pM - 1)^2 in
    size, and reduces it as x - x // pM * pM, whose middle term reaches
    -(pM - 1) * pM.  So the lane is int16 up to pM = 181, int32 up to
    46341, int64 up to about 3e9 and object (Python integers) above.
    """
    for lane in (np.int16, np.int32, np.int64):
        if pM * (pM - 1) <= np.iinfo(lane).max:
            return lane
    return object


def entry_major(a, pM: int) -> np.ndarray:
    """An (N, l, l) batch of integer entries as the elimination's lanes.

    Returns the (l*l, N) array whose row i*l + j holds entry (i, j) of
    every matrix, reduced into [0, pM) in the batch's own dtype (object
    when the lane is) and only then narrowed to ``lane_dtype(pM)``, so
    nothing wraps.
    """
    lane = lane_dtype(pM)
    a = np.asarray(a, dtype=object if lane is object else None)
    n = a.shape[0]
    return np.ascontiguousarray(_mod(a.reshape(n, -1).T, pM), dtype=lane)


def smith_valuations_lanes(b: np.ndarray, p: int, M: int) -> np.ndarray:
    """Smith-form valuations over Z/p^M of a batch held entry-major, in place.

    ``b`` is an (l*l, N) array of ``lane_dtype(p^M)`` whose row i*l + j
    holds entry (i, j) of each of N matrices, canonical in [0, p^M) (see
    ``entry_major``); it is overwritten.  Returns an (l, N) int64 array
    whose column t is the non-decreasing valuation list of matrix t, with
    M standing for saturated; matrix by matrix it equals a scalar
    elimination.  Each step works on every matrix and its full l x l block
    at once.  Every entry gets a key, its valuation times a power of two
    ``span`` >= l*l plus its position: the valuation is one lookup in a
    table of v_p over Z/p^M when p^M <= ``VALUATION_TABLE_MAX`` (zero reads
    M), or above it by a binary descent: for e from the top bit of M - 1
    down, an entry is divided by p^(2^e) where that is exact, and the 2^e
    taken sum to its valuation.
    The least key per matrix is its pivot, of minimal valuation e; a shift
    reads e off it, and a mask its position, which small tables turn into
    the offsets of its row and its column.  Then row elimination only:
    every row i becomes u*row_i - a_ij*(pivot_row / p^e), where u is the
    pivot's unit part and p^e is formed for that pivot alone; p^e divides
    the whole block, so the quotient is exact, and scaling a row by a unit
    is invertible over Z/p^M, so no inverse is needed.  The update
    zeroes the pivot row and column, and zeros read as saturated, so no
    later step picks them before a live entry, and the column operations,
    which would change only the pivot row, are skipped.  After l - 1 pivots
    at most one entry of each block is live, so the last step reads the
    valuation of the block's sum, and no update follows it.
    """
    pM = p ** M
    size, n = b.shape
    dim = math.isqrt(size)
    shift = (size - 1).bit_length()
    span = 1 << shift
    # the narrowest dtype that holds every key keeps the pivot search cheap
    kdt = np.min_scalar_type((M + 1) * span - 1)
    position = np.arange(size, dtype=kdt)[:, None]
    table = None
    if pM <= VALUATION_TABLE_MAX:  # every residue's key part: v_p times span, zero reading M
        table = np.zeros(pM, dtype=kdt)
        for e in range(1, M):
            table[::p ** e] += span
        table[0] = M * span
    else:  # p^(2^e) for 2^e <= M - 1, the largest finite valuation
        squares = [p]
        while len(squares) < (M - 1).bit_length():
            squares.append(squares[-1] ** 2)
    # entry (i, j) of matrix t sits at flat index (i*l + j)*N + t, so row i of a
    # pivot at position i*l + j is at row_at[.] + in_row, column j at col_at[.] + in_col
    lane = np.arange(n)
    at = np.arange(size)
    row_at, col_at = at // dim * (dim * n), at % dim * n
    in_row = np.arange(dim)[:, None] * n + lane
    in_col = np.arange(dim)[:, None] * (dim * n) + lane
    out = np.empty((dim, n), dtype=np.int64)
    for s in range(dim):
        if s == dim - 1:  # the earlier pivots' rows and columns are all zero
            b = b.sum(axis=0, keepdims=True, dtype=b.dtype)
        if table is not None:
            key = table.take(b)
        else:
            # a nonzero entry's valuation is below M, so the 2^e taken sum to it
            vals, rest = np.zeros(b.shape, dtype=np.int64), b
            for e in reversed(range(len(squares))):
                quo = rest // squares[e]
                exact = quo * squares[e] == rest
                vals[exact] += 1 << e
                rest = np.where(exact, quo, rest)
            vals[b == 0] = M
            key = vals.astype(kdt) * span
        key += position[:len(b)]
        key = np.minimum.reduce(key)
        e = key >> shift
        out[s] = e
        if s == dim - 1:
            break
        piv = key & (span - 1)
        pe = np.power(p, e, dtype=b.dtype)  # p^e <= p^M, which the lane holds
        pivot_row = b.take(row_at.take(piv) + in_row)
        # p^e divides the block, so the quotient is exact; float64 division, faster
        # than integer division, gives it exactly below 2^53, so in every numeric lane
        if b.dtype == object:
            pivot_row //= pe
        else:
            pivot_row = (pivot_row / pe).astype(b.dtype)
        col_off = col_at.take(piv)
        unit = pivot_row.take(col_off + lane)
        col = b.take(col_off + in_col)
        b *= unit
        b -= (col[:, None] * pivot_row).reshape(size, n)
        b -= b // pM * pM
    return out


def smith_valuations_batch(a, p: int, M: int) -> np.ndarray:
    """Smith-form valuations of every matrix in an (N, l, l) batch over Z/p^M.

    ``a`` holds integer entries (numpy int64 or object), read mod p^M.
    Returns an (N, l) int64 array whose row t is the non-decreasing
    valuation list of matrix t, with M standing for saturated: the batch is
    reduced, laid out entry-major and narrowed by ``entry_major``, and
    eliminated by ``smith_valuations_lanes``.
    """
    return smith_valuations_lanes(entry_major(a, p ** M), p, M).T


def smith_valuations(rows, p: int, M: int) -> tuple:
    """Smith valuations of square integer rows over Z/p^M, non-decreasing, M where saturated."""
    return tuple(smith_valuations_batch(np.array([rows], dtype=object), p, M)[0].tolist())


def parse_matrix_text(text: str) -> tuple:
    """Parse the plain-text matrix format: header "p M rows cols", then rows.

    Returns the rows as canonical ints and their ``Modulus``.  Entries are
    non-negative integers, reduced mod p^M.  A p^M, or a token (whose digits
    ``int`` reads in quadratic time), of more than ``records.MAX_COUNT_BITS``
    bits is refused before it is formed, and ``Modulus`` refuses a p of more
    than ``modp.MAX_PRIME_BITS`` bits before testing it.
    """
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    # a token of d digits is at least 10^(d - 1), of floor((d - 1) log2 10) + 1 bits
    digits = max(len(tok.lstrip("0")) for tok in text.split())
    check_bits(int((digits - 1) * math.log2(10)) + 1, f"a token of {digits} digits")
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
    check_bits(M * p.bit_length(), f"modulus {p}^{M}")
    modulus = Modulus(p, M)
    rows = []
    for ln in lines[1:]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != ncols:
            raise ValueError(f"row has {len(row)} entries, expected {ncols}")
        if any(x < 0 for x in row):
            raise ValueError("entries must be non-negative")
        rows.append(tuple(x % modulus.pM for x in row))
    return tuple(rows), modulus
