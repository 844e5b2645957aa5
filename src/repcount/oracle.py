"""Brute-force references: orbit counts by label propagation, naive fixed points.

Deliberately naive; these certify the fast paths in tests and behind the
CLI's oracle method, and the orbit count reads the generators alone.  A
point of (Z/p^n)^l is the mixed-radix integer sum_j x_j p^(n j).  Both
functions form the images of whole blocks of points from their leading
digit and a grid of the other digits' terms, so no point is decoded.  The
orbit count holds a label and a spare per point: 4 bytes each while the
space has fewer than 2^31 points, 8 beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceTooLarge
from .groups import FiniteMatrixGroup
from .linalg import SquareMatrix, exact_dtype

DEFAULT_POINT_CAP = 2 ** 24
_BLOCK = 1 << 16


@dataclass(frozen=True)
class PointSpace:
    """The full point set (Z/p^n)^l, enumerated as mixed-radix integers."""

    p: int
    n: int
    l: int
    cap: int = DEFAULT_POINT_CAP

    def __post_init__(self):
        if self.size > self.cap:
            raise SpaceTooLarge(
                f"point space of {self.size} points exceeds cap {self.cap}"
            )

    @property
    def radix(self) -> int:
        return self.p ** self.n

    @property
    def size(self) -> int:
        return self.p ** (self.n * self.l)

    @property
    def index_dtype(self):
        """int32 while every point index fits, else int64."""
        return np.int32 if self.size < 2 ** 31 else np.int64


def _block_images(g: np.ndarray, space: PointSpace):
    """Yield (lo, img): the indices of g x for the points x = lo, lo + 1, ...

    Blocks cover the space in order.  ``g`` is an l x l array whose dtype
    (``exact_dtype``) keeps every product of an entry and a digit exact.
    """
    pn, l = space.radix, space.l
    rest = pn ** (l - 1)
    dtype = space.index_dtype
    # grid[i][r] + p^n: row i's terms of the l - 1 trailing digits of point r, mod p^n
    grid = []
    for i in range(l):
        part = np.zeros(1, dtype=dtype)
        for j in range(l - 2, -1, -1):
            terms = g[i, j] * np.arange(pn).astype(g.dtype, copy=False) % pn
            part = (part[:, None] + terms.astype(dtype)).ravel() % pn
        grid.append(part - pn)
    tops = max(1, _BLOCK // rest)
    for t0 in range(0, pn, tops):
        top = np.arange(t0, min(t0 + tops, pn)).astype(g.dtype, copy=False)[:, None]
        img = np.zeros((top.shape[0], rest), dtype=np.intp)
        for i in range(l):
            s = (g[i, l - 1] * top % pn).astype(dtype) + grid[i]
            # s is in [-p^n, p^n): adding p^n where the sign bit is set reduces it
            s += (s >> (8 * s.itemsize - 1)) & pn
            img += s * pn ** i
        yield t0 * rest, img.ravel()


def orbit_count_bruteforce(group: FiniteMatrixGroup, n: int,
                           cap: int = DEFAULT_POINT_CAP) -> int:
    """Number of orbits of the group on (Z/p^n)^l by label propagation.

    Only the generators act.  Every point starts labelled by its own index.
    A sweep visits each generator g block by block: a point takes the
    smaller of its label and its image's, then the image takes the smaller
    of its label and the point's (g is invertible, so a block's images are
    distinct).  Two pointer jumps, label = label[label], follow each sweep.
    Labels only decrease and stay inside their point's orbit, so once a
    sweep leaves their sum unchanged each orbit is labelled by its least
    point, and the orbits are the points labelled by themselves.
    """
    space = PointSpace(group.modulus.p, n, group.dim, cap)
    gens = group.generators_at(n)
    label = np.arange(space.size, dtype=space.index_dtype)
    spare = np.empty_like(label)
    total = int(label.sum(dtype=np.int64))
    while True:
        for g in gens:
            for lo, img in _block_images(g, space):
                own = label[lo:lo + img.size]
                np.minimum(own, label[img], out=own)
                label[img] = np.minimum(label[img], own)
        # take copies its indices to intp, so jump a block at a time
        for _ in range(2):
            for lo in range(0, space.size, _BLOCK):
                np.take(label, label[lo:lo + _BLOCK], out=spare[lo:lo + _BLOCK])
            label, spare = spare, label
        last, total = total, int(label.sum(dtype=np.int64))
        if total == last:
            break
    return _count_fixed((lo, label[lo:lo + _BLOCK]) for lo in range(0, space.size, _BLOCK))


def fixed_points_bruteforce(w: SquareMatrix, n: int,
                            cap: int = DEFAULT_POINT_CAP) -> int:
    """Count v in (Z/p^n)^l with w v = v, by scanning every point."""
    space = PointSpace(w.modulus.p, n, w.dim, cap)
    pn = space.radix
    mat = (np.array(w.rows, dtype=object) % pn).astype(exact_dtype(pn, w.dim))
    return _count_fixed(_block_images(mat, space))


def _count_fixed(blocks) -> int:
    """How many positions lo + t hold the value lo + t, over (lo, values) blocks."""
    return sum(int(np.count_nonzero(v == np.arange(lo, lo + v.size))) for lo, v in blocks)
