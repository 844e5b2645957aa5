"""Dense exact linear algebra over Z/p^M: products and Smith forms.

A matrix is one value: rows of canonical ints in [0, p^M), kept as a tuple
of tuples, or as an (N, l, l) numpy batch of them (int64, or object when
``exact_dtype`` says int64 could overflow).  ``SquareMatrix`` pairs the
rows with their modulus and does no arithmetic: products are
``mat_mul_raw`` on rows or numpy matmul on batches, reduced mod p^M by the
caller.  Matrices are small (dimension <= 8 in every case this package
handles), so everything is dense and exact.

There are two Smith engines.  ``smith_valuations_raw`` eliminates one
matrix in pure Python: it is the reference, and it backs ``snf``,
``kernel_size`` and the one Smith form per conjugacy class that
``FiniteMatrixGroup.conjugacy_classes`` reads.  ``smith_valuations_batch``
eliminates a whole (N, l, l) numpy batch at once and backs every Burnside
fixed-point count, classwise and per-element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, PrecisionTooLow
from .modp import SATURATED, Modulus


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


def mat_mul_raw(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], pM: int) -> tuple:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % pM for col in bt) for row in a
    )


@dataclass(frozen=True)
class SmithValuations:
    """Valuations (e_1 <= ... <= e_l) of the Smith form over Z/p^M.

    Over the local ring every elementary divisor is a unit times p^e, so the
    valuation list describes the Smith form completely.  Entries that vanish
    mod p^M are reported as SATURATED (None) rather than as M: at precision M
    a divisor p^M is indistinguishable from the zero entry, and callers must
    not conflate the two.  Saturated entries sort last.
    """

    vals: tuple
    modulus: Modulus

    @property
    def dim(self) -> int:
        return len(self.vals)

    def diagonal(self) -> tuple:
        """Diagonal presentation: p^e for finite valuations, 0 for saturated."""
        return tuple(0 if e is SATURATED else self.modulus.p ** e for e in self.vals)

    def saturated_count(self) -> int:
        return sum(1 for e in self.vals if e is SATURATED)

    def finite_positive(self) -> tuple:
        return tuple(e for e in self.vals if e is not SATURATED and e > 0)


def smith_valuations_raw(rows: Sequence[Sequence[int]], p: int, M: int) -> list:
    """Smith-form valuations of a square matrix over Z/p^M.

    Repeatedly pick a pivot of minimal valuation (ties broken by lowest
    (row, column)), scale its row to make the pivot exactly p^e, and clear
    its row and column; recurse on the minor.  Because the pivot valuation
    is globally minimal the output is already non-decreasing.
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
            out.extend([SATURATED] * (n - s))
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


def smith_valuations_batch(a, p: int, M: int) -> np.ndarray:
    """Smith-form valuations of every matrix in an (N, l, l) batch over Z/p^M.

    ``a`` holds integer entries (numpy int64 or object), read mod p^M.
    Returns an (N, l) int64 array whose row t is the non-decreasing
    valuation list of matrix t, with M standing for saturated; matrix by
    matrix it equals ``smith_valuations_raw``, the reference.  Each step
    works on every matrix at once: the valuations of the remaining minor
    (zero reads M), a pivot of minimal valuation e per matrix (``argmin``),
    then row elimination only.  Every other row i becomes
    u*row_i - (a_ij / p^e)*pivot_row, where u is the pivot's unit part;
    scaling a row by a unit is invertible over Z/p^M, so no inverse is
    needed.  The column operations would change only the pivot row, so they
    are skipped, and the pivot row and column are dropped.  The entries
    use ``exact_dtype``: the products formed here are below (p^M - 1)^2.
    """
    pM = p ** M
    dim = a.shape[-1]
    b = np.asarray(a, dtype=exact_dtype(pM, dim)) % pM
    n = b.shape[0]
    # Python-int powers: p ** ndarray would overflow int64 for large p^M
    pows = np.array([p ** e for e in range(M + 1)], dtype=b.dtype)
    out = np.empty((n, dim), dtype=np.int64)
    idx = np.arange(n)
    for s in range(dim):
        r = dim - s
        vals = np.zeros(b.shape, dtype=np.int64)
        for e in range(1, M + 1):
            divisible = b % pows[e] == 0
            if not divisible.any():
                break
            vals += divisible
        bi, bj = np.divmod(vals.reshape(n, r * r).argmin(axis=1), r)
        e = vals[idx, bi, bj]
        out[:, s] = e
        pe = pows[e]
        unit = b[idx, bi, bj] // pe
        q = b[idx, :, bj] // pe[:, None]
        pivot_row = b[idx, bi]
        b = (unit[:, None, None] * b - q[:, :, None] * pivot_row[:, None, :]) % pM
        # drop the pivot row and column: row (column) 0 takes their place
        b[idx, bi] = b[:, 0].copy()
        b = b[:, 1:]
        b[idx, :, bj] = b[:, :, 0].copy()
        b = b[:, :, 1:]
    return out


def smith_valuations(a: SquareMatrix) -> SmithValuations:
    """Smith normal form of a, reported as sorted valuations."""
    vals = smith_valuations_raw(a.rows, a.modulus.p, a.modulus.M)
    return SmithValuations(tuple(vals), a.modulus)


def kernel_size(a: SquareMatrix, n: int) -> int:
    """Exact number of vectors v in (Z/p^n)^l with A v = 0.

    |Ker(A mod p^n)| = prod p^min(e_i, n) over the Smith valuations mod p^n.
    """
    if n > a.modulus.M:
        raise PrecisionTooLow(f"need precision {n}, matrix has {a.modulus.M}")
    p = a.modulus.p
    vals = smith_valuations_raw(a.rows, p, n)
    return p ** sum(n if e is SATURATED else e for e in vals)


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
