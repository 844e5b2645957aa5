"""Closed-form orbit counts: the exponent product and the five fixed polynomials.

The polynomial table is transcribed verbatim; every evaluation asserts exact
divisibility by its denominator, so a transcription error cannot produce a
silently wrong integer.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .catalog import ALIASES
from .errors import NonIntegralResult, SpecInvalid
from .modp import is_prime


def theorem_a(exponents: Iterable[int], p: int, k: int) -> int:
    """prod (m_i + p^k) / (m_i + 1): the orbit count when p does not divide |W|.

    The quotient is asserted integral; applying this to modular data is the
    caller's mistake and typically surfaces as NonIntegralResult.
    """
    if k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    if not is_prime(p):
        raise SpecInvalid(f"p={p} is not prime")
    exps = list(exponents)
    if any(m < 0 for m in exps):
        raise SpecInvalid(f"exponents must be >= 0, got {exps}")
    num = math.prod(m + p ** k for m in exps)
    den = math.prod(m + 1 for m in exps)
    if num % den != 0:
        raise NonIntegralResult(
            f"product {num} is not divisible by {den}; exponents {exps} are "
            f"not non-modular data at p={p}"
        )
    return num // den


class PolynomialFormula(NamedTuple):
    """Denominator and terms c * p^(e*k), plus an optional c * p^min(k, cap) term."""

    p: int
    denominator: int
    terms: tuple                       # (coefficient, exponent multiplier) pairs
    special: Optional[tuple] = None    # (coefficient, cap) for a min-exponent term

    def numerator(self, k: int) -> int:
        total = sum(c * self.p ** (e * k) for c, e in self.terms)
        if self.special is not None:
            c, cap = self.special
            total += c * self.p ** min(k, cap)
        return total

    def evaluate(self, k: int) -> int:
        num = self.numerator(k)
        if num % self.denominator != 0:
            raise NonIntegralResult(
                f"numerator {num} at k={k} is not divisible by {self.denominator}"
            )
        return num // self.denominator


#: Keyed by the catalog's group kinds; ``theorem_c`` also takes the x names.
CLOSED_FORMS = {
    "g12": PolynomialFormula(p=3, denominator=48,
                             terms=((1, 2), (12, 1), (51, 0))),
    "g24": PolynomialFormula(p=2, denominator=336,
                             terms=((1, 3), (21, 2), (140, 1), (216, 0)),
                             special=(42, 2)),
    "g29": PolynomialFormula(p=5, denominator=7680,
                             terms=((1, 4), (40, 3), (530, 2), (2720, 1), (5925, 0))),
    "g31": PolynomialFormula(p=5, denominator=46080,
                             terms=((1, 4), (60, 3), (1270, 2), (11100, 1), (42865, 0))),
    "g34": PolynomialFormula(p=7, denominator=39191040,
                             terms=((1, 6), (126, 5), (6195, 4), (151060, 3),
                                    (1904679, 2), (11559534, 1), (31168165, 0))),
}


def theorem_c(group: str, k: int) -> int:
    """Evaluate the fixed polynomial of g12, g24, g29, g31 or g34 (or x12 ... x34)."""
    if k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    name = group.strip().lower()
    name = ALIASES.get(name, name)
    if name not in CLOSED_FORMS:
        raise SpecInvalid(f"no closed form for {group!r}")
    return CLOSED_FORMS[name].evaluate(k)
