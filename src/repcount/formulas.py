"""Closed-form orbit counts: the exponent product and the five fixed polynomials.

The polynomials are transcribed verbatim into ``catalog.KINDS``; every
evaluation asserts exact divisibility by |W|, so a transcription error cannot
produce a silently wrong integer: it raises InvariantViolation.
"""

from __future__ import annotations

import math
from typing import Iterable

from .catalog import KINDS, parse_spec
from .errors import InvariantViolation, SpecInvalid
from .modp import is_prime


def theorem_a(exponents: Iterable[int], p: int, k: int) -> int:
    """prod (m_i + p^k) / (m_i + 1): the orbit count when p does not divide |W|.

    The quotient is asserted integral; the exponents are the caller's, so a
    remainder (modular data, as a rule) raises SpecInvalid.
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
        raise SpecInvalid(
            f"product {num} is not divisible by {den}; exponents {exps} are "
            f"not non-modular data at p={p}"
        )
    return num // den


def theorem_c(group: str, k: int) -> int:
    """Theorem C for g12, g24, g29, g31 or g34 (or x12 ... x34): its kind's
    fixed polynomial in ``catalog.KINDS``, at q = p^k, over |W|.

    A remainder means a mistyped row and raises InvariantViolation.
    """
    if k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    spec = parse_spec(group)
    row = KINDS[spec.kind]
    if row.coefficients is None:
        raise SpecInvalid(f"no closed form for {group!r}")
    q, num = spec.p ** k, 0
    for c in row.coefficients:  # Horner in q
        num = num * q + c
    if row.capped is not None:
        c, cap = row.capped
        num += c * spec.p ** min(k, cap)
    order = spec.expected_order
    if num % order != 0:
        raise InvariantViolation(f"numerator {num} at k={k} is not divisible by {order}")
    return num // order
