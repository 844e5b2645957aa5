"""Orbit structure on Z/p^k under a root of unity, and the monomial-group count.

For G(m,s,n) acting monomially on (Z/p^k)^n, orbits are classified by a
fundamental domain of "distinguished" tuples.  Let c be a unit of exact
order m, H = <c> and K = <c^s>.  A tuple is distinguished when its
coordinates sit in H-orbits with non-decreasing indices, every coordinate
but the last is the minimum of its H-orbit, and the last coordinate is

  * the minimum of its K-orbit when no coordinate is zero, but
  * the minimum of its H-orbit when some coordinate is zero.

The split matters: a zero coordinate absorbs any exponent, so the mod-s
constraint on the diagonal part never restricts the remaining coordinates
and the finer K-orbit classes collapse.  (Keeping the K-orbit condition in
the presence of zeros over-counts: for s = m = 3, p = 7 the tuples (0,0,1)
and (0,0,2) would both qualify, yet diag(2,2,2) maps one to the other.)
Counting the domain gives the closed form

  count = C(N+n-1, n-1) + s * C(N+n-1, n),   N = (p^k - 1)/m,

which ``enumerate_distinguished`` reproduces from the orbit tables and
which must also equal plain Burnside counting on the matrix group.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import NamedTuple

from .catalog import GroupSpec, _check_prime_congruence
from .errors import InvariantViolation, SpaceTooLarge, SpecInvalid
from .modp import Modulus, mth_root_of_unity

#: Bound on the orbit table's points and on the multisets the domain
#: enumeration walks, both in pure Python.
MAX_TABLE_POINTS = 2 ** 20


class HOrbit(NamedTuple):
    """One orbit of <c> on Z/p^k with its sub-orbits under <c^s>."""

    minimum: int
    elements: tuple          # sorted ascending
    k_orbit_minima: tuple    # sorted ascending, one per <c^s>-orbit


class OrbitStructure(NamedTuple):
    """Partition of Z/p^k into <c>-orbits, orbit 0 being {0}."""

    p: int
    k: int
    m: int
    s: int
    c: int
    orbits: tuple  # orbits[0] = {0}; orbits[1..] sorted by minimum

    @property
    def nonzero_orbit_count(self) -> int:
        return len(self.orbits) - 1


def _validate_scalar_params(m: int, s: int, p: int, k: int) -> None:
    _check_prime_congruence(p, m)
    if s < 1 or m % s != 0:
        raise SpecInvalid(f"s={s} must divide m={m}")
    if k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")


def build_orbits(m: int, s: int, p: int, k: int) -> OrbitStructure:
    """Full orbit tables of <c> and <c^s> on Z/p^k, with per-orbit minima.

    c is ``mth_root_of_unity(m, p^k)``.  The units mod p^k are cyclic for odd
    p, so every unit of exact order m generates the same <c> and <c^s>: the
    tables do not depend on which one is chosen.
    """
    _validate_scalar_params(m, s, p, k)
    pk = p ** k
    if pk > MAX_TABLE_POINTS:
        raise SpaceTooLarge(f"orbit table with {pk} points exceeds {MAX_TABLE_POINTS}")
    c = mth_root_of_unity(m, Modulus(p, k))
    seen = bytearray(pk)
    zero_orbit = HOrbit(minimum=0, elements=(0,), k_orbit_minima=(0,))
    seen[0] = 1
    nonzero = []
    for x in range(1, pk):
        if seen[x]:
            continue
        elems = []
        y = x
        while not seen[y]:
            seen[y] = 1
            elems.append(y)
            y = y * c % pk
        if len(elems) != m:
            raise InvariantViolation(f"orbit of {x} under c has {len(elems)} points, not m={m}")
        # <c^s> acts freely on the m points with index s in <c>, so its orbits
        # are the s stride-s slices of the walk x, xc, ...
        k_minima = sorted(min(elems[i::s]) for i in range(s))
        elems.sort()
        nonzero.append(HOrbit(minimum=elems[0], elements=tuple(elems),
                              k_orbit_minima=tuple(k_minima)))
    nonzero.sort(key=lambda o: o.minimum)
    if len(nonzero) != (pk - 1) // m:
        raise InvariantViolation(
            f"{len(nonzero)} nonzero orbits, not (p^k - 1)/m = {(pk - 1) // m}"
        )
    return OrbitStructure(p=p, k=k, m=m, s=s, c=c, orbits=(zero_orbit, *nonzero))


def _validate_family(m: int, s: int, n: int, p: int, k: int) -> None:
    """k >= 1, and (m, s, n, p) names a group: ``GroupSpec`` holds the rule."""
    if k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    GroupSpec("family2a" if n >= 2 else "sphere", m=m, s=s, n=n, p=p)


def enumerate_distinguished(
    m: int, s: int, n: int, p: int, k: int,
    materialize: bool = False,
):
    """Count (and optionally list) the distinguished tuples in (Z/p^k)^n.

    Iterates over multisets of nonzero-orbit indices (equivalently weak
    compositions of the tuple length over the orbits) and reads coordinate
    choices off the orbit table, so the cost is proportional to the answer
    rather than to p^(kn): a multiset of size t < n fills the remaining
    n - t coordinates with zeros and contributes one tuple of orbit minima;
    a multiset of size n has no zeros, so the last coordinate additionally
    ranges over the s sub-orbit minima of its orbit.  The two loops visit
    C(nz + n, n) multisets in all, for nz nonzero orbits; SpaceTooLarge,
    before the orbit table is built, when that exceeds MAX_TABLE_POINTS.
    """
    _validate_family(m, s, n, p, k)
    nz = (p ** k - 1) // m  # build_orbits checks that the table has as many
    walk = math.comb(nz + n, n)
    if walk > MAX_TABLE_POINTS:
        raise SpaceTooLarge(f"domain enumeration of {walk} multisets exceeds {MAX_TABLE_POINTS}")
    table = build_orbits(m, s, p, k)
    tuples = [] if materialize else None
    count = 0
    for t in range(n):
        for multiset in combinations_with_replacement(range(1, nz + 1), t):
            count += 1
            if materialize:
                tuples.append(
                    (0,) * (n - t) + tuple(table.orbits[i].minimum for i in multiset)
                )
    for multiset in combinations_with_replacement(range(1, nz + 1), n):
        last = table.orbits[multiset[-1]]
        count += len(last.k_orbit_minima)
        if materialize:
            prefix = tuple(table.orbits[i].minimum for i in multiset[:-1])
            tuples.extend(prefix + (b,) for b in last.k_orbit_minima)
    return count, tuples


def theorem_b(m: int, s: int, n: int, p: int, k: int) -> int:
    """Closed-form size of the fundamental domain for G(m,s,n) on (Z/p^k)^n.

    Multisets of size up to n-1 (padded with zeros) telescope to a single
    binomial coefficient; the zero-free multisets of size n carry the
    factor s.
    """
    _validate_family(m, s, n, p, k)
    nz = (p ** k - 1) // m
    return math.comb(nz + n - 1, n - 1) + s * math.comb(nz + n - 1, n)
