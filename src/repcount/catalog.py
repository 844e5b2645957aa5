"""Construction of the supported reflection groups and their exponent data.

Covers the four exceptional groups over their home primes (G12, G24, G29 and
G31), the closed-form-only G34, the monomial groups G(m,s,n), and the rank-one
sphere case G(m,1,1); ``KINDS`` holds each kind's facts, ``METHODS`` every
counting method, and ``build`` closes a group at its row's M0, wrapping the
canonical integer rows of ``generators`` for ``groups.close``.  The quadratic
constants in the exceptional generator matrices are realized exactly at any
requested precision via Hensel lifting and Teichmüller representatives, so a
group's generator words can be re-evaluated at any higher precision;
fractional entries (1/2, 1/sqrt(-2)) become modular inverses, which is legal
because 2 is a unit at the relevant odd primes.  Only ``build`` imports
numpy's modules, when it is called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import CapExceeded, InvariantViolation, SpecInvalid
from .modp import Modulus, check_prime, hensel_lift, invert, mth_root_of_unity
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
    """One kind of group spec.  Its facts are functions of a spec, read when
    asked, but for the closed forms, which hold at every spec of the kind."""

    keys: tuple                # the grammar's keys after "kind:", in label order
    admit: Callable            # (kind, m, s, n, p) -> them completed, or SpecInvalid
    M0: Optional[int]          # see GroupSpec.min_modulus_exponent
    rank: Callable             # spec -> l
    order: Callable            # spec -> |W|
    exponents: Callable        # spec -> the sorted exponents, or None
    rows: Optional[Callable]   # (spec, modulus) -> integer generator rows; None: no build
    closed_forms: tuple        # the closed forms that apply, in crosscheck order
    coefficients: Optional[tuple] = None  # theorem C's numerator (over |W|) in q = p^k,
                                          # highest power first; None: no theorem C
    capped: Optional[tuple] = None        # (c, e): that numerator adds c * p^min(k, e)


def _named(p, order, rank, exps, M0, rows, coefficients, capped=None) -> Kind:
    """The row of an exceptional group: it takes no parameters, lives at p and
    has theorem C."""

    def admit(kind, m, s, n, q):
        if (m, s, n) != (None, None, None) or q not in (None, p):
            raise SpecInvalid(f"{kind} takes no parameters and lives at p={p}")
        return m, s, n, p

    return Kind((), admit, M0, lambda spec: rank, lambda spec: order, lambda spec: exps,
                rows, ("theoremC",), coefficients, capped)


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


#: The facts of G(m,s,n), a sphere G(m,1,1) among them.  Theorem A applies at
#: every p, p | |W| included: w - I splits by the cycles of the monomial w, and
#: a cycle whose product of entries is zeta != 1 has cokernel Z_p/(zeta - 1) = 0,
#: since zeta's order divides m | p - 1, so no Coker(w - I) has torsion.
_MONOMIAL = Kind((), None, 3, lambda spec: spec.n,
                 lambda spec: spec.m ** spec.n * math.factorial(spec.n) // spec.s,
                 lambda spec: tuple(sorted([i * spec.m - 1 for i in range(1, spec.n)]
                                           + [spec.n * spec.m // spec.s - 1])),
                 lambda spec, modulus: monomial_generators(spec.m, spec.s, spec.n, modulus),
                 ("theoremB", "theoremA"))

#: Every kind of group spec, by the name the grammar gives it.
KINDS = {
    "g12": _named(3, 48, 2, (5, 7), 3, _g12_generators, (1, 12, 51)),
    "g24": _named(2, 336, 3, (3, 5, 13), 6, _g24_generators, (1, 21, 140, 216), capped=(42, 2)),
    "g29": _named(5, 7680, 4, (3, 7, 11, 19), 3, _g29_generators, (1, 40, 530, 2720, 5925)),
    "g31": _named(5, 46080, 4, (7, 11, 19, 23), 3, _g31_generators,
                  (1, 60, 1270, 11100, 42865)),
    "g34": _named(7, 39191040, 6, None, None, None,
                  (1, 126, 6195, 151060, 1904679, 11559534, 31168165)),
    "family2a": _MONOMIAL._replace(keys=("m", "s", "n", "p"), admit=_admit_family2a),
    "sphere": _MONOMIAL._replace(keys=("m", "p"), admit=_admit_sphere),
}

#: Every counting method, in crosscheck order, and the closed forms among them:
#: a row's ``closed_forms`` picks from these, a buildable spec adds the rest.
METHODS = ("burnside", "classes", "formula", "theoremB", "theoremA", "theoremC", "oracle")
CLOSED_FORMS = ("theoremB", "theoremA", "theoremC")

#: The closed-form names of the exceptional cases, mapped to their kinds.
ALIASES = {"x12": "g12", "x24": "g24", "x29": "g29", "x31": "g31", "x34": "g34"}

#: Every spec ``parse_spec`` takes, as help text: each kind with its keys, then each alias.
GRAMMAR = ", ".join([kind + ":" + ",".join(key + "=.." for key in row.keys) if row.keys else kind
                     for kind, row in KINDS.items()] + list(ALIASES))


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
    def methods(self) -> tuple:
        """The counting methods that apply, in ``METHODS`` order: the row's
        closed forms, and every other method when the spec can be built."""
        return tuple(method for method in METHODS if method in KINDS[self.kind].closed_forms
                     or (self.buildable and method not in CLOSED_FORMS))

    def min_modulus_exponent(self) -> int:
        """The precision M0 at which ``build`` closes the group; None: no build path.

        M0 keeps distinct roots of unity apart and mostly leaves headroom for
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
    check_prime(p)
    if m < 1 or (p - 1) % m != 0:
        raise SpecInvalid(f"need p = 1 mod m, got p={p}, m={m}")


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar, ``GRAMMAR``: a kind of ``KINDS`` or a name of
    ``ALIASES``, then ``:key=value,...`` over exactly the row's keys."""
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
    """The generating reflections of G(m,s,n) mod p^M as canonical rows, for s | m, p = 1 mod m.

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

    def reflection(entries: dict) -> tuple:
        """The identity's rows with ``entries``, {(i, j): x}, put in."""
        return tuple(tuple(entries.get((i, j), int(i == j)) for j in range(n)) for i in range(n))

    gens = [reflection({(i, i): 0, (i, i + 1): 1, (i + 1, i): 1, (i + 1, i + 1): 0})
            for i in range(n - 1)]
    if s != m:
        gens.append(reflection({(0, 0): pow(b, s, modulus.pM)}))
    if s != 1:
        gens.append(reflection({(0, 0): 0, (0, 1): invert(b, modulus), (1, 0): b, (1, 1): 0}))
    return gens


def generators(spec: GroupSpec, modulus: Modulus) -> list:
    """The spec's generators mod p^M as canonical rows, for a modulus at the spec's prime."""
    if not spec.buildable:
        raise SpecInvalid(f"{spec.label()} has no build path (no published matrices)")
    if modulus.p != spec.p:
        raise SpecInvalid(f"{spec.label()} lives at p={spec.p}, modulus has p={modulus.p}")
    pM = modulus.pM
    return [tuple(tuple(x % pM for x in r) for r in rows)
            for rows in KINDS[spec.kind].rows(spec, modulus)]


def build(spec: GroupSpec, cap: Optional[int] = None) -> FiniteMatrixGroup:
    """Close the group for a spec at p^M0, its row's precision.

    A spec with no build path is refused first, then a rank above
    ``groups.MAX_GENERATORS`` (a rank-l group needs l or more generators)
    or an expected order above ``cap`` (None: ``DEFAULT_CLOSURE_CAP``),
    all before any generator is built; ``close`` checks the closure.
    """
    from .groups import DEFAULT_CLOSURE_CAP, MAX_GENERATORS, close
    from .linalg import SquareMatrix
    if not spec.buildable:  # M0 is None without a build path
        raise SpecInvalid(f"{spec.label()} has no build path (no published matrices)")
    if spec.rank > MAX_GENERATORS:
        raise CapExceeded(f"{spec.label()}: rank {spec.rank} needs at least {spec.rank} "
                          f"generators, above the closure's {MAX_GENERATORS}")
    order = spec.expected_order
    cap = DEFAULT_CLOSURE_CAP if cap is None else cap
    if order > cap:
        raise CapExceeded(f"group order {order} exceeds closure cap {cap}")
    modulus = Modulus(spec.p, spec.min_modulus_exponent())
    return close([SquareMatrix(rows, modulus) for rows in generators(spec, modulus)], order,
                 cap=cap, generator_factory=lambda mod: generators(spec, mod), name=spec.label())


def exponents(spec: GroupSpec) -> tuple:
    """Catalog exponents m_i for a spec, sorted; prod(m_i + 1) is the order."""
    exps = KINDS[spec.kind].exponents(spec)
    if exps is None:
        raise SpecInvalid(f"{spec.label()} has no catalog exponents")
    return exps
