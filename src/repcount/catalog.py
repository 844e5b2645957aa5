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
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import CapExceeded, InvariantViolation, SpecInvalid
from .modp import Modulus, hensel_lift, invert, is_prime, mth_root_of_unity
from .records import FrozenRecord

if TYPE_CHECKING:
    from .groups import FiniteMatrixGroup

# -- exceptional generators, as integer rows -------------------------------


def _g12_generators(spec: GroupSpec, modulus: Modulus) -> list:
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


def _g24_generators(spec: GroupSpec, modulus: Modulus) -> list:
    alpha = hensel_lift([2, -1, 1], 3, 3, modulus)  # x^2 - x + 2, root = 3 mod 8
    alpha_bar = (1 - alpha) % modulus.pM
    if alpha_bar % min(8, modulus.pM) != 6 % min(8, modulus.pM):
        raise InvariantViolation(f"alpha_bar = {alpha_bar} is not 6 mod 8")
    return [
        [[-1, -alpha_bar, 1], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [-alpha, -1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 1, -1]],
    ]


def _g29_generators(spec: GroupSpec, modulus: Modulus) -> list:
    w = mth_root_of_unity(4, modulus)  # = 2 mod 5
    h = invert(2, modulus)
    return [
        [[h, -h, -h, -h], [-h, h, -h, -h], [-h, -h, h, -h], [-h, -h, -h, h]],
        [[0, -w, 0, 0], [w, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    ]


def _g31_generators(spec: GroupSpec, modulus: Modulus) -> list:
    return _g29_generators(spec, modulus) + [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    ]


class Kind(NamedTuple):
    """One kind of group spec.  Its facts are functions of a spec, read when asked."""

    keys: tuple                # the grammar's keys after "kind:", in label order
    admit: Callable            # (kind, m, s, n, p) -> them completed, or SpecInvalid
    M0: Optional[int]          # see GroupSpec.min_modulus_exponent
    rank: Callable             # spec -> l
    order: Callable            # spec -> |W|
    exponents: Callable        # spec -> the sorted exponents, or None
    rows: Optional[Callable]   # (spec, modulus) -> integer generator rows; None: no build
    closed_forms: Callable     # spec -> the closed forms that apply, in crosscheck order


def _named(p, order, rank, exps, M0, rows) -> Kind:
    """The row of an exceptional group: it takes no parameters and lives at p."""

    def admit(kind, m, s, n, q):
        if (m, s, n) != (None, None, None) or q not in (None, p):
            raise SpecInvalid(f"{kind} takes no parameters and lives at p={p}")
        return m, s, n, p

    return Kind((), admit, M0, lambda spec: rank, lambda spec: order, lambda spec: exps,
                rows, lambda spec: ("theoremC",))


def _admit_family2a(kind, m, s, n, p):
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
    return m, s, n, p


def _admit_sphere(kind, m, s, n, p):
    if s not in (None, 1) or n not in (None, 1):
        raise SpecInvalid(f"a sphere is G(m,1,1), got s={s}, n={n}; "
                          "G(m,s,n) needs n >= 2")
    if m is None or p is None:
        raise SpecInvalid("sphere needs m, p")
    if m < 2:
        raise SpecInvalid(f"sphere requires m >= 2, got m={m}")
    _check_prime_congruence(p, m)
    return m, 1, 1, p


#: The facts of G(m,s,n), a sphere G(m,1,1) among them.  p = 1 mod m leaves m
#: and s prime to p, so p divides |W| = m^n n!/s exactly when p <= n: theorem A
#: applies when n < p.
_MONOMIAL = Kind((), None, 3, lambda spec: spec.n,
                 lambda spec: spec.m ** spec.n * math.factorial(spec.n) // spec.s,
                 lambda spec: tuple(sorted([i * spec.m - 1 for i in range(1, spec.n)]
                                           + [spec.n * spec.m // spec.s - 1])),
                 lambda spec, modulus: [g.rows for g in monomial_generators(
                     spec.m, spec.s, spec.n, modulus)],
                 lambda spec: ("theoremB", "theoremA") if spec.n < spec.p else ("theoremB",))

#: Every kind of group spec, by the name the grammar gives it.
KINDS = {
    "g12": _named(3, 48, 2, (5, 7), 3, _g12_generators),
    "g24": _named(2, 336, 3, (3, 5, 13), 6, _g24_generators),
    "g29": _named(5, 7680, 4, (3, 7, 11, 19), 3, _g29_generators),
    "g31": _named(5, 46080, 4, (7, 11, 19, 23), 3, _g31_generators),
    "g34": _named(7, 39191040, 6, None, None, None),
    "family2a": _MONOMIAL._replace(keys=("m", "s", "n", "p"), admit=_admit_family2a),
    "sphere": _MONOMIAL._replace(keys=("m", "p"), admit=_admit_sphere),
}

#: The closed-form names of the exceptional cases, mapped to their kinds.
ALIASES = {"x12": "g12", "x24": "g24", "x29": "g29", "x31": "g31", "x34": "g34"}


class GroupSpec(FrozenRecord):
    """Which group to build: a kind of ``KINDS`` and the parameters its row admits.

    A sphere is G(m,1,1): construction sets its s and n to 1.  An exceptional
    kind fixes every parameter, so it takes none but its own prime.
    """

    __slots__ = _fields = ("kind", "m", "s", "n", "p")

    def __init__(self, kind: str, m: Optional[int] = None, s: Optional[int] = None,
                 n: Optional[int] = None, p: Optional[int] = None):
        if kind not in KINDS:
            raise SpecInvalid(f"unknown group kind {kind!r}")
        self._init(kind, *KINDS[kind].admit(kind, m, s, n, p))

    @property
    def buildable(self) -> bool:
        return KINDS[self.kind].rows is not None

    @property
    def rank(self) -> int:
        """l, the dimension of the space W acts on: n for G(m,s,n), 1 for a sphere."""
        return KINDS[self.kind].rank(self)

    @property
    def expected_order(self) -> int:
        return KINDS[self.kind].order(self)

    @property
    def closed_forms(self) -> tuple:
        return KINDS[self.kind].closed_forms(self)

    def min_modulus_exponent(self) -> int:
        """Default precision M0 at which the group is closed.

        M0 is above the faithfulness threshold and mostly leaves headroom for
        trace-averaged ranks: the class table is read once, at the least
        m >= M0 with p^m > d * l for the largest element order d, which also
        separates every class's torsion, so a table that M0 misses costs one
        lift of all the class representatives.  The values stay fixed
        because the canonical class representatives and the Smith diagonals
        of the ``classes`` table are read at M0.  Every G(m,s,n) spec has an
        odd p, so its M0 is 3.
        """
        return KINDS[self.kind].M0

    def label(self) -> str:
        params = ",".join(f"{key}={getattr(self, key)}" for key in KINDS[self.kind].keys)
        return f"{self.kind}:{params}" if params else self.kind


def _check_prime_congruence(p: int, m: int) -> None:
    """p is prime and p = 1 mod m for an m >= 1: the units mod p^k hold one of order m."""
    if not is_prime(p):
        raise SpecInvalid(f"p={p} is not prime")
    if m < 1 or (p - 1) % m != 0:
        raise SpecInvalid(f"need p = 1 mod m, got p={p}, m={m}")


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar: g12|g24|g29|g31|x34|family2a:m=..,s=..,n=..,p=..|sphere:m=..,p=.."""
    t = text.strip().lower()
    kind, colon, rest = ALIASES.get(t, t).partition(":")
    row = KINDS.get(kind)
    if row is None or bool(colon) != bool(row.keys) or "\n" in rest:
        raise SpecInvalid(f"unrecognized group spec {text!r}")
    params = {}
    for item in rest.split(",") if colon else ():
        if "=" not in item:
            raise SpecInvalid(f"bad parameter {item!r} in {text!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in row.keys:
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


def _modulus(spec: GroupSpec, modulus: Optional[Modulus]) -> Modulus:
    """The modulus the spec's generators are read at, checked: p^M0 when None."""
    if not spec.buildable:
        raise SpecInvalid(f"{spec.label()} has no build path (no published matrices)")
    if modulus is None:
        modulus = Modulus(spec.p, spec.min_modulus_exponent())
    if modulus.p != spec.p:
        raise SpecInvalid(f"{spec.label()} lives at p={spec.p}, modulus has p={modulus.p}")
    return modulus


def generators(spec: GroupSpec, modulus: Optional[Modulus] = None) -> list:
    """The spec's generator matrices mod p^M, at its default precision M0 by default."""
    modulus = _modulus(spec, modulus)
    from .linalg import SquareMatrix
    return [SquareMatrix.from_rows(rows, modulus) for rows in KINDS[spec.kind].rows(spec, modulus)]


def build(spec: GroupSpec, working_modulus: Optional[Modulus] = None,
          cap: Optional[int] = None) -> FiniteMatrixGroup:
    """Close the group for a spec at the given (or default) precision.

    A rank above ``groups.MAX_GENERATORS`` (a rank-l group needs l or more
    generators) or an expected order above ``cap`` (None: ``DEFAULT_CLOSURE_CAP``)
    is refused before any generator is built; ``close`` checks the closure.
    """
    from .groups import DEFAULT_CLOSURE_CAP, MAX_GENERATORS, close
    if working_modulus is not None and working_modulus.M < working_modulus.threshold:
        raise SpecInvalid(
            f"working precision {working_modulus.M} is below the faithfulness "
            f"threshold {working_modulus.threshold}"
        )
    modulus = _modulus(spec, working_modulus)
    if spec.rank > MAX_GENERATORS:
        raise CapExceeded(f"{spec.label()}: rank {spec.rank} needs at least {spec.rank} "
                          f"generators, above the closure's {MAX_GENERATORS}")
    order = spec.expected_order
    cap = DEFAULT_CLOSURE_CAP if cap is None else cap
    if order > cap:
        raise CapExceeded(f"group order {order} exceeds closure cap {cap}")
    return close(generators(spec, modulus), order, cap=cap,
                 generator_factory=lambda mod: generators(spec, mod),
                 name=spec.label())


def exponents(spec: GroupSpec) -> tuple:
    """Catalog exponents m_i for a spec, sorted; prod(m_i + 1) is the order."""
    exps = KINDS[spec.kind].exponents(spec)
    if exps is None:
        raise SpecInvalid(f"{spec.label()} has no catalog exponents")
    return exps
