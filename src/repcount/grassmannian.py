"""The monomial-group count: theorem B, the size of a fundamental domain.

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

which must also equal plain Burnside counting on the matrix group.  The
domain itself is checked by ``tests/test_grassmannian.py::
test_domain_is_a_transversal``: every orbit of the built group holds
exactly one distinguished tuple.
"""

from __future__ import annotations

import math

from .catalog import GroupSpec
from .errors import SpecInvalid


def _validate_family(m: int, s: int, n: int, p: int, k: int) -> None:
    """k >= 1, and (m, s, n, p) names a group: ``GroupSpec`` holds the rule."""
    if k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    GroupSpec("family2a" if n >= 2 else "sphere", m=m, s=s, n=n, p=p)


def theorem_b(m: int, s: int, n: int, p: int, k: int) -> int:
    """Closed-form size of the fundamental domain for G(m,s,n) on (Z/p^k)^n.

    Multisets of size up to n-1 (padded with zeros) telescope to a single
    binomial coefficient; the zero-free multisets of size n carry the
    factor s.
    """
    _validate_family(m, s, n, p, k)
    nz = (p ** k - 1) // m
    return math.comb(nz + n - 1, n - 1) + s * math.comb(nz + n - 1, n)
