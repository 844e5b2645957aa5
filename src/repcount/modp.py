"""Exact arithmetic in Z/p^M: units, valuations and canonical lifts.

Everything here is plain integer arithmetic: an element of Z/p^M is its
canonical representative, an int in [0, p^M), and every function returns
one.  ``mth_root_of_unity`` chooses every root of unity: 1 and -1 as they
are, any other order as a power of a Teichmüller lift, in closed form.  The
one search, factoring p - 1 for that lift's primitive root, runs under
``FACTOR_STEPS``.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import (
    CapExceeded,
    DivisibleByP,
    InvariantViolation,
    NotARoot,
    NotASimpleRoot,
    NotAUnit,
    OrderUnavailable,
)
from .records import FrozenRecord

#: The first 13 primes, and the least strong pseudoprime to all of them as
#: bases (Sorenson and Webster, 2015): below it Miller-Rabin with these
#: bases decides primality exactly.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: Miller-Rabin below ``_MR_BOUND``; above it Baillie-PSW,
    base 2 and a strong Lucas test, which no known composite passes."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)
    return all(_strong_probable_prime(n, a) for a in _MR_BASES)  # n > 41: all units


def _strong_probable_prime(n: int, a: int) -> bool:
    """The Miller-Rabin round of base a on an odd n > a."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    x = pow(a, (n - 1) >> r, n)  # then squared in place: x^(2^i) for i < r
    squares = itertools.accumulate(range(r - 1), lambda y, _: y * y % n, initial=x)
    return x == 1 or any(y == n - 1 for y in squares)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            sign = -sign if n % 8 in (3, 5) else sign
        sign = -sign if a % 4 == 3 and n % 4 == 3 else sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of an odd n > 41 with Selfridge's parameters.

    D is the first of 5, -7, 9, ... with (D/n) = -1, P = 1, Q = (1 - D)/4 and
    n + 1 = d 2^s with d odd; n passes when U_d or some V_(d 2^r), r < s, is 0.
    """
    if math.isqrt(n) ** 2 == n:  # no D has (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # D shares a factor with n
            return False
        D = -D - 2 if D > 0 else 2 - D
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    Q, d = (1 - D) // 4, (n + 1) >> s
    U, V, Qk = 1, 1, Q % n  # U_k, V_k and Q^k from k = 1, by the binary digits of d
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":  # (x + n (x odd)) / 2 halves x mod n
            U, V = ((x + n * (x % 2)) // 2 % n for x in (U + V, D * U + V))
            Qk = Qk * Q % n
    for _ in range(s):
        if U == 0 or V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


#: Pollard-Brent steps ``prime_factors`` may take in all.  Rho splits off a prime
#: q in about sqrt(q) steps: every catalog prime's p - 1 needs a few dozen,
#: 2^127 - 2 about 2300, and 2 q1 q2 with q1, q2 of 17 digits about 10^8.
FACTOR_STEPS = 2 ** 18


def prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, ascending, by Pollard-Brent rho.

    Raises CapExceeded once ``FACTOR_STEPS`` steps leave a composite factor."""
    out, stack, steps = set(), [n] if n > 1 else [], 0
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
            continue
        for c in itertools.count(1):  # x -> x^2 + c, with Brent's doubling cycle search
            y, r, g = 2, 1, 1
            while g == 1:
                if steps >= FACTOR_STEPS:
                    raise CapExceeded(f"factoring {n} needs over {FACTOR_STEPS} Pollard-Brent steps")
                x = y
                for _ in range(min(r, FACTOR_STEPS - steps)):
                    steps += 1
                    y = (y * y + c) % m
                    g = math.gcd(x - y, m)
                    if g != 1:
                        break
                r *= 2
            if g != m:
                stack += [g, m // g]
                break
    return sorted(out)


class Modulus(FrozenRecord):
    """The ring Z/p^M for a prime p and precision exponent M >= 1.

    Compared and hashed by (p, M); pM = p^M is derived from them.  A group
    is closed at its catalog row's M0, the precision ``catalog.build`` uses.
    """

    __slots__ = ("p", "M", "pM")
    _fields = ("p", "M")

    def __init__(self, p: int, M: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if M < 1:
            raise ValueError(f"precision exponent must be >= 1, got {M}")
        self._init(p, M, p ** M)

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
    """The unique (p-1)-th root of unity congruent to a mod p: a^(p^(M-1)) mod p^M.

    The power kills the units = 1 mod p, of order p^(M-1), and fixes the roots
    of unity, as p^(M-1) = 1 mod p - 1."""
    p, M = target.p, target.M
    if a % p == 0:
        raise DivisibleByP(f"{a} is divisible by {p}")
    return pow(a, p ** (M - 1), target.pM)


def smallest_primitive_root(p: int) -> int:
    """Least positive generator of (Z/p)^x."""
    factors = prime_factors(p - 1)
    for g in range(1, p):  # 1 generates only for p = 2, where p - 1 has no prime factor
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise OrderUnavailable(f"no primitive root mod {p}")


def mth_root_of_unity(m: int, target: Modulus) -> int:
    """The canonical residue of exact multiplicative order m mod p^M, for m | p-1.

    This is the one place a root of unity is chosen.  Where the order fixes
    the root, no primitive root is needed: 1 for m = 1, and -1, the only unit
    of order 2 for odd p, for m = 2.  Any other m takes a power of the
    Teichmüller lift of the smallest primitive root, so the choice is
    deterministic.
    """
    p = target.p
    if m < 1 or (p - 1) % m != 0:
        raise OrderUnavailable(f"no element of order {m}: {m} does not divide {p}-1")
    if m <= 2:
        return target.pM - 1 if m == 2 else 1
    g = smallest_primitive_root(p)
    return pow(teichmuller(g, target), (p - 1) // m, target.pM)
