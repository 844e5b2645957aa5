"""Exact arithmetic in Z/p^M: units, valuations and canonical lifts.

Everything here is plain integer arithmetic: an element of Z/p^M is its
canonical representative, an int in [0, p^M), and every function returns
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    DivisibleByP,
    InvariantViolation,
    NotARoot,
    NotASimpleRoot,
    NotAUnit,
    OrderUnavailable,
)

#: Sentinel valuation for residues divisible by p^M.  At finite precision a
#: valuation of M cannot be told apart from any larger one (or from zero), so
#: it is reported distinctly instead of as the number M.
SATURATED = None


def is_prime(n: int) -> bool:
    """Primality by trial division; moduli here have small p."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Modulus:
    """The ring Z/p^M for a prime p and precision exponent M >= 1."""

    p: int
    M: int
    pM: int = field(init=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.M < 1:
            raise ValueError(f"precision exponent must be >= 1, got {self.M}")
        object.__setattr__(self, "pM", self.p ** self.M)

    @property
    def threshold(self) -> int:
        """Precision below which distinct roots of unity can collide: 2 for p=2, else 1."""
        return 2 if self.p == 2 else 1

    def __repr__(self):
        return f"Modulus({self.p}^{self.M})"


def int_valuation(n: int, p: int) -> int:
    """Largest e with p^e | n, for a nonzero integer n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def invert(x: int, modulus: Modulus) -> int:
    """Multiplicative inverse of a unit mod p^M."""
    if x % modulus.p == 0:
        raise NotAUnit(f"{x} is divisible by {modulus.p}")
    return pow(x, -1, modulus.pM)


def _poly_eval(coeffs: Sequence[int], x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _poly_deriv(coeffs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def hensel_lift(coeffs: Sequence[int], r0: int, base_level: int, target: Modulus) -> int:
    """Newton-lift a simple root of an integer polynomial to precision M.

    ``coeffs`` lists coefficients from the constant term upward.  ``r0`` must
    satisfy f(r0) = 0 mod p^base_level and f'(r0) must be a unit mod p; the
    result is then the unique root r = r0 mod p^base_level of f mod p^M.
    """
    p, M, pM = target.p, target.M, target.pM
    if base_level < 1:
        raise ValueError("base_level must be >= 1")
    if _poly_eval(coeffs, r0, p ** base_level) != 0:
        raise NotARoot(f"f({r0}) != 0 mod {p}^{base_level}")
    deriv = _poly_deriv(coeffs)
    if _poly_eval(deriv, r0, p) == 0:
        raise NotASimpleRoot(f"f'({r0}) = 0 mod {p}")
    r = r0 % pM
    # Each step at least doubles the valuation of f(r); M iterations are ample.
    for _ in range(M + 1):
        fr = _poly_eval(coeffs, r, pM)
        if fr == 0:
            break
        r = (r - fr * pow(_poly_eval(deriv, r, pM), -1, pM)) % pM
    if _poly_eval(coeffs, r, pM) != 0:
        raise InvariantViolation(f"Newton iteration left f({r}) != 0 mod {p}^{M}")
    # the base congruence is only visible up to the working precision
    if (r - r0) % p ** min(base_level, M) != 0:
        raise InvariantViolation(f"lifted root {r} left the class of {r0} mod {p}^{base_level}")
    return r


def teichmuller(a: int, target: Modulus) -> int:
    """The unique (p-1)-th root of unity congruent to a mod p.

    Computed by iterating x -> x^p, which contracts to the fixed point.
    """
    p, pM = target.p, target.pM
    if a % p == 0:
        raise DivisibleByP(f"{a} is divisible by {p}")
    t = a % pM
    while True:
        nxt = pow(t, p, pM)
        if nxt == t:
            break
        t = nxt
    return t


def smallest_primitive_root(p: int) -> int:
    """Least positive generator of (Z/p)^x."""
    if p == 2:
        return 1
    factors = []
    n, d = p - 1, 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise OrderUnavailable(f"no primitive root mod {p}")


def mth_root_of_unity(m: int, target: Modulus) -> int:
    """A residue of exact multiplicative order m mod p^M, for m | p-1.

    Derived from the Teichmüller lift of the smallest primitive root, so the
    choice is deterministic.
    """
    p = target.p
    if m < 1 or (p - 1) % m != 0:
        raise OrderUnavailable(f"no element of order {m}: {m} does not divide {p}-1")
    if m == 1:
        return 1 % target.pM
    g = smallest_primitive_root(p)
    return pow(teichmuller(g, target), (p - 1) // m, target.pM)

