"""Brute-force reference: orbit counts read from the generators alone.

It certifies the fast paths in tests and behind the CLI's oracle method,
and reads only ``generators_at(n)``: no closure, classes or Smith form.

*Levels.*  x -> p x maps (Z/p^(m-1))^l W-equivariantly onto p (Z/p^m)^l, so
the orbits on (Z/p^n)^l are the zero orbit and, for m = 1..n, the P(m) orbits
on primitive vectors mod p^m (some coordinate a unit).
*Scalars.*  zeta = c (1 + p), c the root of unity of order p - 1 mod p^m
(``mth_root_of_unity``), generates a group S of d units: all of them for
odd p, <3> of index 2 for p = 2 and m >= 3.  S commutes with W and acts
freely on primitive vectors.  A node is the vector of an S-orbit whose
first unit coordinate lies in T, the least units of the cosets of S: {1},
or {1, 5} when <3> is the units = 1 or 3 mod 8.
*Edges.*  A generator g takes a node c to g c = zeta^a c' for one node c' and
one a mod d, so a component of the node graph is a W x S-orbit.
*Holonomy.*  S permutes the W-orbits in a W x S-orbit transitively, so they
number [S : S_O], S_O the scalars fixing the W-orbit O of the least node r.
Label propagation keeps for each node c an offset o with c in W zeta^o r,
so every edge puts zeta^(a + o(c') - o(c)) in S_O.  Conversely a word w with
w r = zeta^s r walks edges from r back to r, and s is the sum of their
discrepancies.  So P(m) sums gcd(d, discrepancies) over the components.
"""

from __future__ import annotations

import numpy as np

from .errors import SpaceTooLarge
from .groups import FiniteMatrixGroup
from .linalg import _mod
from .modp import Modulus, mth_root_of_unity

DEFAULT_POINT_CAP = 2 ** 24
_CHUNK = 1 << 14


def orbit_count_bruteforce(group: FiniteMatrixGroup, n: int,
                           cap: int = DEFAULT_POINT_CAP, levels: list | None = None) -> int:
    """Orbits on (Z/p^n)^l, 1 + P(1) + ... + P(n); ``cap`` bounds the p^(n l) points.

    ``levels``, a list the caller keeps for one group, holds the P(m) that
    earlier calls counted: this call counts only the levels past its end,
    and appends them."""
    p, l = group.modulus.p, group.dim
    if p ** (n * l) > cap:
        raise SpaceTooLarge(f"point space of {p ** (n * l)} points exceeds cap {cap}")
    if p ** n > 2 ** 30:  # keeps every unit log, and the sum of two, in an int32
        raise SpaceTooLarge(f"unit table of {p ** n} entries exceeds 2^30")
    levels = [] if levels is None else levels
    if len(levels) < n:
        gens = group.generators_at(n)
        for m in range(len(levels) + 1, n + 1):
            q = p ** m
            powers, reps, table = _unit_table(p, m)
            dest, volt = _edges(gens % q, p, q, powers, reps, table)
            levels.append(_component_orbits(dest, volt, powers.size))
    return 1 + sum(levels[:n])


def _unit_table(p: int, m: int):
    """The d powers of zeta mod p^m (by doubling), T, and ``table[u]`` = t d + a for
    u = T[t] zeta^a; d, the order of zeta, is phi(p^m), halved for p = 2 and m >= 3
    (see *Scalars*)."""
    q = p ** m
    zeta = mth_root_of_unity(p - 1, Modulus(p, m)) * (1 + p) % q
    phi = q - q // p
    d = phi // 2 if p == 2 and m >= 3 else phi
    powers = np.empty(d, dtype=np.int32)
    powers[0], s = 1, 1
    while s < d:
        powers[s:2 * s] = _mod(powers[:min(s, d - s)] * np.int64(pow(zeta, s, q)), q)
        s *= 2
    table = np.full(q, -1, dtype=np.int32)
    reps = np.array([1, 5] if d < phi else [1])
    for t, rep in enumerate(reps):
        table[_mod(powers * np.int64(rep), q)] = np.arange(t * d, (t + 1) * d, dtype=np.int32)
    return powers, reps, table


def _edges(gens: np.ndarray, p: int, q: int, powers, reps, table):
    """dest and volt, with g c = zeta^volt[g, c] dest[g, c] for every node c.

    Block j holds the nodes with their first unit at coordinate j, in mixed radix:
    p^(m-1) values before it (the coordinate over p), |T| at it, q after."""
    l, d = gens.shape[1], powers.size
    radix = np.array([[q // p] * j + [reps.size] + [q] * (l - 1 - j) for j in range(l)])
    weight = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1]
    starts = np.concatenate(([0], np.cumsum(weight[:, 0])))
    weight = np.concatenate((weight[:, 1:], np.ones((l, 1), dtype=weight.dtype)), axis=1)
    cols = np.arange(l)
    # p times the weights from the first unit on: then a canonical vector's sum is p times its index
    pweight = np.where(cols < cols[:, None], weight, p * weight)
    size = int(starts[-1])
    dest = np.empty((len(gens), size), dtype=np.int32 if size < 2 ** 31 else np.int64)
    volt = np.empty((len(gens), size), dtype=np.int32)
    step = max(1, _CHUNK // (len(gens) * l))  # a chunk's images have at most _CHUNK entries
    for j in range(l):
        for lo in range(int(starts[j]), int(starts[j + 1]), step):
            hi = min(lo + step, int(starts[j + 1]))
            digits = np.arange(lo - starts[j], hi - starts[j])[:, None] // weight[j] % radix[j]
            vec = np.where(cols < j, digits * p, digits)
            vec[:, j] = reps[digits[:, j]]
            img = _mod(vec @ gens.transpose(0, 2, 1), q).astype(np.int64, copy=False).reshape(-1, l)
            # the first unit of each image, as a flat index, and its coset and log
            flat = np.arange(0, img.size, l) + np.argmax(img // p * p != img, axis=1)
            code = np.take(table, img.reshape(-1)[flat])
            a = _mod(code, d)
            img = _mod(img * np.take(powers, -a % d)[:, None], q)
            img.reshape(-1)[flat] = code // d
            first = flat % l
            idx = np.take(starts, first) + np.einsum(
                "ij,ij->i", img, np.take(pweight, first, axis=0)) // p
            dest[:, lo:hi] = idx.reshape(len(gens), -1)
            volt[:, lo:hi] = a.reshape(len(gens), -1)
    return dest, volt


def _component_orbits(dest, volt, d: int) -> int:
    """The sum over the components of gcd(d, the discrepancies of their edges).

    Label propagation finds root[c], the least node of c's component, and
    off[c], with c in W zeta^off[c] root[c].  A sweep pulls the smaller root
    along each generator's edges, chunk by chunk, then jumps pointers twice;
    roots only fall, and a sweep that changes nothing ends it."""
    size = dest.shape[1]
    root = np.arange(size, dtype=dest.dtype)
    off = np.zeros(size, dtype=np.int32)
    changed = True
    while changed:
        changed = False
        for D, A in zip(dest, volt):
            for lo in range(0, size, _CHUNK):
                own, own_off = root[lo:lo + _CHUNK], off[lo:lo + _CHUNK]
                to, a = D[lo:lo + _CHUNK], A[lo:lo + _CHUNK]
                # pull: c = g^-1 zeta^a c' lies in W zeta^(a + o(c')) r(c')
                rt = root[to]
                i = (rt < own).nonzero()[0]
                own[i] = rt[i]
                own_off[i] = (a[i] + off[to[i]]) % d
                changed |= i.size > 0
        for _ in range(2):
            for lo in range(0, size, _CHUNK):
                up = root[lo:lo + _CHUNK]
                i = (root[up] != up).nonzero()[0]
                t = up[i]
                off[lo + i] = (off[lo + i] + off[t]) % d
                root[lo + i] = root[t]
                changed |= i.size > 0
    hol = np.full(size, d, dtype=np.int32)
    for D, A in zip(dest, volt):
        for lo in range(0, size, _CHUNK):
            h = hol[lo:lo + _CHUNK]
            np.gcd(h, (A[lo:lo + _CHUNK] + off[D[lo:lo + _CHUNK]] - off[lo:lo + _CHUNK]) % d, out=h)
    comp = np.zeros(size, dtype=np.int32)
    np.gcd.at(comp, root, hol)  # only roots receive: one entry per component
    return int(comp.sum(dtype=np.int64))
