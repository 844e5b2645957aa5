"""Brute-force references: orbit flood-fill and naive fixed-point scans.

Deliberately naive; these certify the fast paths in tests and behind the
CLI's oracle method.  Points of (Z/p^n)^l are encoded as mixed-radix
integers and visited through a dense bitmap, so memory is one flag per
point plus the current frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceTooLarge
from .groups import FiniteMatrixGroup
from .linalg import SquareMatrix

DEFAULT_POINT_CAP = 2 ** 24
_CHUNK = 1 << 16


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

    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Indices to coordinate rows, least-significant digit first."""
        out = np.empty((idx.shape[0], self.l), dtype=np.int64)
        rest = idx
        for j in range(self.l):
            out[:, j] = rest % self.radix
            rest = rest // self.radix
        return out

    def encode(self, pts: np.ndarray) -> np.ndarray:
        powers = self.radix ** np.arange(self.l, dtype=np.int64)
        return pts @ powers


def orbit_count_bruteforce(group: FiniteMatrixGroup, n: int,
                           cap: int = DEFAULT_POINT_CAP) -> int:
    """Number of orbits of the group on (Z/p^n)^l by flood fill.

    Only the generators act; each orbit is grown breadth-first until the
    frontier empties, then the scan pointer advances to the next unvisited
    point.
    """
    space = PointSpace(group.modulus.p, n, group.dim, cap)
    pn = space.radix
    gens = group.generators_at(n)
    visited = np.zeros(space.size, dtype=bool)
    orbits = 0
    pointer = 0
    while True:
        pointer = _next_unvisited(visited, pointer)
        if pointer < 0:
            break
        orbits += 1
        visited[pointer] = True
        frontier = np.array([pointer], dtype=np.int64)
        while frontier.size:
            pts = space.decode(frontier)
            images = [space.encode(pts @ g.T % pn) for g in gens]
            cand = np.unique(np.concatenate(images))
            new = cand[~visited[cand]]
            visited[new] = True
            frontier = new
    return orbits


def _next_unvisited(visited: np.ndarray, start: int) -> int:
    size = visited.shape[0]
    pos = start
    while pos < size:
        stop = min(pos + _CHUNK, size)
        gap = np.flatnonzero(~visited[pos:stop])
        if gap.size:
            return pos + int(gap[0])
        pos = stop
    return -1


def fixed_points_bruteforce(w: SquareMatrix, n: int,
                            cap: int = DEFAULT_POINT_CAP) -> int:
    """Count v in (Z/p^n)^l with w v = v, by scanning every point."""
    space = PointSpace(w.modulus.p, n, w.dim, cap)
    pn = space.radix
    mat = np.array([[x % pn for x in row] for row in w.rows], dtype=np.int64)
    total = 0
    for lo in range(0, space.size, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, space.size), dtype=np.int64)
        pts = space.decode(idx)
        fixed = ((pts @ mat.T % pn) == pts).all(axis=1)
        total += int(fixed.sum())
    return total
