"""Construction of the supported reflection groups and their exponent data.

Covers the four exceptional groups over their home primes (G12 at p=3, G24
at p=2, G29 and G31 at p=5), the closed-form-only G34 at p=7, the monomial
groups G(m,s,n), and the rank-one sphere case G(m,1,1).  The quadratic
constants in the exceptional generator matrices are realized exactly at any
requested precision via Hensel lifting and Teichmüller representatives, so a
group's generator words can be re-evaluated at any higher precision;
fractional entries (1/2, 1/sqrt(-2)) become modular inverses, which is legal
because 2 is a unit at the relevant odd primes.  Only ``build`` and the
generator builders import numpy's modules, when they are called.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import InvariantViolation, SpecInvalid
from .modp import Modulus, hensel_lift, invert, is_prime, mth_root_of_unity, teichmuller
from .records import FrozenRecord

if TYPE_CHECKING:
    from .groups import FiniteMatrixGroup

# -- exceptional generators, as integer rows -------------------------------


def _g12_generators(modulus: Modulus) -> list:
    # omega is the root of (2x+1)^2 = -2 that is divisible by 3; the square
    # root of -2 is tied to it as 2*omega + 1 so the two constants agree.
    omega = hensel_lift([3, 4, 4], 0, 1, modulus)  # 4x^2 + 4x + 3
    omega_bar = (-1 - omega) % modulus.pM
    if omega_bar % 3 != 2:
        raise InvariantViolation(f"omega_bar = {omega_bar} is not 2 mod 3")
    half = invert(2, modulus)
    inv_sqrt = invert(2 * omega + 1, modulus)
    return [
        [[0, 1], [-1, 0]],
        [[-inv_sqrt, inv_sqrt], [inv_sqrt, inv_sqrt]],
        [[omega, half], [-half, omega_bar]],
        [[0, 1], [1, 0]],
    ]


def _g24_generators(modulus: Modulus) -> list:
    alpha = hensel_lift([2, -1, 1], 3, 3, modulus)  # x^2 - x + 2, root = 3 mod 8
    alpha_bar = (1 - alpha) % modulus.pM
    if alpha_bar % min(8, modulus.pM) != 6 % min(8, modulus.pM):
        raise InvariantViolation(f"alpha_bar = {alpha_bar} is not 6 mod 8")
    return [
        [[-1, -alpha_bar, 1], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [-alpha, -1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 1, -1]],
    ]


def _g29_generators(modulus: Modulus) -> list:
    w = teichmuller(2, modulus)  # order-4 unit, = 2 mod 5
    h = invert(2, modulus)
    return [
        [[h, -h, -h, -h], [-h, h, -h, -h], [-h, -h, h, -h], [-h, -h, -h, h]],
        [[0, -w, 0, 0], [w, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    ]


def _g31_generators(modulus: Modulus) -> list:
    return _g29_generators(modulus) + [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    ]


class Exceptional(NamedTuple):
    """One exceptional group; with no published matrices it is closed-form only."""

    p: int
    order: int
    exponents: Optional[tuple]
    M0: Optional[int]
    generators: Optional[Callable[[Modulus], list]]


EXCEPTIONAL = {
    "g12": Exceptional(3, 48, (5, 7), 3, _g12_generators),
    "g24": Exceptional(2, 336, (3, 5, 13), 6, _g24_generators),
    "g29": Exceptional(5, 7680, (3, 7, 11, 19), 3, _g29_generators),
    "g31": Exceptional(5, 46080, (7, 11, 19, 23), 3, _g31_generators),
    "g34": Exceptional(7, 39191040, None, None, None),
}

#: The closed-form names of the exceptional cases, mapped to their kinds.
ALIASES = {"x12": "g12", "x24": "g24", "x29": "g29", "x31": "g31", "x34": "g34"}


class GroupSpec(FrozenRecord):
    """Which group to build: an exceptional case, a G(m,s,n), or a sphere.

    A sphere is G(m,1,1): construction sets its s and n to 1.  An exceptional
    kind fixes every parameter, so it takes none but its own prime.
    """

    __slots__ = _fields = ("kind", "m", "s", "n", "p")

    def __init__(self, kind: str, m: Optional[int] = None, s: Optional[int] = None,
                 n: Optional[int] = None, p: Optional[int] = None):
        if kind in EXCEPTIONAL:
            home = EXCEPTIONAL[kind].p
            if (m, s, n) != (None, None, None) or p not in (None, home):
                raise SpecInvalid(f"{kind} takes no parameters and lives at p={home}")
            p = home
        elif kind == "family2a":
            if m is None or s is None or n is None or p is None:
                raise SpecInvalid("family2a needs m, s, n, p")
            if m <= 2:
                raise SpecInvalid(f"family2a requires m > 2, got m={m}")
            if s < 1 or m % s != 0:
                raise SpecInvalid(f"s={s} must divide m={m}")
            if n < 2:
                raise SpecInvalid(f"family2a requires n >= 2, got n={n}")
            if n == 2 and m == s:
                raise SpecInvalid("family2a excludes m = s when n = 2")
            _check_prime_congruence(p, m)
        elif kind == "sphere":
            if s not in (None, 1) or n not in (None, 1):
                raise SpecInvalid(f"a sphere is G(m,1,1), got s={s}, n={n}; "
                                  "G(m,s,n) needs n >= 2")
            if m is None or p is None:
                raise SpecInvalid("sphere needs m, p")
            if m < 2:
                raise SpecInvalid(f"sphere requires m >= 2, got m={m}")
            _check_prime_congruence(p, m)
            s = n = 1
        else:
            raise SpecInvalid(f"unknown group kind {kind!r}")
        self._init(kind, m, s, n, p)

    @property
    def exceptional(self) -> bool:
        """True for a kind with a row in ``EXCEPTIONAL``; False for G(m,s,n)."""
        return self.kind in EXCEPTIONAL

    @property
    def buildable(self) -> bool:
        return not self.exceptional or EXCEPTIONAL[self.kind].generators is not None

    @property
    def expected_order(self) -> int:
        if self.exceptional:
            return EXCEPTIONAL[self.kind].order
        return self.m ** self.n * math.factorial(self.n) // self.s

    def min_modulus_exponent(self) -> int:
        """Default precision M0 at which the group is closed.

        M0 is above the faithfulness threshold and mostly leaves headroom for
        trace-averaged ranks: a class of element order d is read once, at
        the least m >= M0 with p^m > d * l, which also separates its torsion,
        so a class that M0 misses costs one lift of its representative.  The
        values stay fixed because the canonical class representatives and
        the Smith diagonals of the ``classes`` table are read at M0.  Every
        G(m,s,n) spec has an odd p, so its M0 is 3.
        """
        return EXCEPTIONAL[self.kind].M0 if self.exceptional else 3

    def label(self) -> str:
        if self.exceptional:
            return self.kind
        if self.kind == "family2a":
            return f"family2a:m={self.m},s={self.s},n={self.n},p={self.p}"
        return f"sphere:m={self.m},p={self.p}"


def _check_prime_congruence(p: int, m: int) -> None:
    if not is_prime(p):
        raise SpecInvalid(f"p={p} is not prime")
    if (p - 1) % m != 0:
        raise SpecInvalid(f"need p = 1 mod m, got p={p}, m={m}")


_SPEC_RE = re.compile(r"^(family2a|sphere):(.*)$")


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar: g12|g24|g29|g31|x34|family2a:m=..,s=..,n=..,p=..|sphere:m=..,p=.."""
    t = text.strip().lower()
    t = ALIASES.get(t, t)
    if t in EXCEPTIONAL:
        return GroupSpec(t)
    m = _SPEC_RE.match(t)
    if not m:
        raise SpecInvalid(f"unrecognized group spec {text!r}")
    kind, rest = m.group(1), m.group(2)
    allowed = ("m", "p") if kind == "sphere" else ("m", "s", "n", "p")
    params = {}
    for item in rest.split(","):
        if "=" not in item:
            raise SpecInvalid(f"bad parameter {item!r} in {text!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in allowed:
            raise SpecInvalid(f"unknown parameter {key!r} in {text!r}")
        if key in params:
            raise SpecInvalid(f"parameter {key!r} given twice in {text!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise SpecInvalid(f"parameter {key!r} must be an integer") from None
    return GroupSpec(kind, **params)


def monomial_generators(m: int, s: int, n: int, modulus: Modulus) -> list:
    """The generating reflections of G(m,s,n) over Z/p^M, for s | m with p = 1 mod m.

    G(m,s,n) is the group of monomial matrices whose nonzero entries are
    m-th roots of unity and whose determinant is an (m/s)-th root of unity.
    With b the canonical element of order m, it is generated by n or n + 1
    reflections (Broué, Malle and Rouquier): the n - 1 adjacent
    transpositions, then diag(b^s, 1, ...) unless s = m, then
    [[0, b^-1], [b, 0]] + I unless s = 1.  Conjugating the last by the
    transpositions gives every diag(b, b^-1) pair along the diagonal, and
    diag(b^s) is the identity when s = m, so neither is listed.  A sphere
    G(m,1,1) has the one generator diag(b).
    """
    if s < 1 or m % s != 0:
        raise SpecInvalid(f"s={s} must divide m={m}")
    if n < 1 or (n == 1 and s != 1):
        raise SpecInvalid(f"need n >= 2, or n = 1 and s = 1, got n={n}, s={s}")
    _check_prime_congruence(modulus.p, m)
    b = mth_root_of_unity(m, modulus)

    def identity():
        return [[int(i == j) for j in range(n)] for i in range(n)]

    gens = []
    for i in range(n - 1):
        swap = identity()
        swap[i][i] = swap[i + 1][i + 1] = 0
        swap[i][i + 1] = swap[i + 1][i] = 1
        gens.append(swap)
    if s != m:
        first = identity()
        first[0][0] = pow(b, s, modulus.pM)
        gens.append(first)
    if s != 1:
        twisted = identity()
        twisted[0][0] = twisted[1][1] = 0
        twisted[0][1], twisted[1][0] = invert(b, modulus), b
        gens.append(twisted)
    from .linalg import SquareMatrix
    return [SquareMatrix.from_rows(rows, modulus) for rows in gens]


def generators(spec: GroupSpec, modulus: Optional[Modulus] = None) -> list:
    """The spec's generator matrices mod p^M, at its default precision M0 by default."""
    if not spec.buildable:
        raise SpecInvalid(f"{spec.label()} has no build path (no published matrices)")
    if modulus is None:
        modulus = Modulus(spec.p, spec.min_modulus_exponent())
    if modulus.p != spec.p:
        raise SpecInvalid(f"{spec.label()} lives at p={spec.p}, modulus has p={modulus.p}")
    if spec.exceptional:
        from .linalg import SquareMatrix
        return [SquareMatrix.from_rows(rows, modulus)
                for rows in EXCEPTIONAL[spec.kind].generators(modulus)]
    return monomial_generators(spec.m, spec.s, spec.n, modulus)


def build(spec: GroupSpec, working_modulus: Optional[Modulus] = None,
          cap: Optional[int] = None) -> FiniteMatrixGroup:
    """Close the group for a spec at the given (or default) precision.

    ``close`` checks the spec's expected order against ``cap`` (None:
    ``groups.DEFAULT_CLOSURE_CAP``) and that the closure reaches it.
    """
    from .groups import DEFAULT_CLOSURE_CAP, close
    if working_modulus is not None and working_modulus.M < working_modulus.threshold:
        raise SpecInvalid(
            f"working precision {working_modulus.M} is below the faithfulness "
            f"threshold {working_modulus.threshold}"
        )
    return close(generators(spec, working_modulus), spec.expected_order,
                 cap=DEFAULT_CLOSURE_CAP if cap is None else cap,
                 generator_factory=lambda mod: generators(spec, mod),
                 name=spec.label())


def exponents(spec: GroupSpec) -> tuple:
    """Catalog exponents m_i for a spec, sorted; prod(m_i + 1) is the order."""
    if spec.exceptional:
        exps = EXCEPTIONAL[spec.kind].exponents
        if exps is None:
            raise SpecInvalid(f"{spec.label()} has no catalog exponents")
        return exps
    m, s, n = spec.m, spec.s, spec.n
    return tuple(sorted([i * m - 1 for i in range(1, n)] + [n * m // s - 1]))
