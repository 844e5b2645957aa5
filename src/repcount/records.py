"""Value records: classes with ``__slots__`` that compare, print and copy by field.

A record lists its constructor's fields in ``_fields``.  ``Record`` gives
it ``==`` between records of one class, field by field, the
``Name(field=value, ...)`` repr, and a ``__reduce__`` that rebuilds a copy
or an unpickled record through the constructor, which validates it again.
``FrozenRecord`` adds a hash of the fields and raises AttributeError on any
assignment; its constructors set their slots once, through ``_init``.
Nothing here generates code, so defining a record costs no more at import
than defining any class.  ``CountReport`` is here so the CLI needs no numpy.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import InvariantViolation, SpaceTooLarge


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def _init(self, *values) -> None:
        """Set every slot, in ``__slots__`` order: the one write a record takes."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


#: Every accepted count, and every modulus p^M of ``snf``, is below
#: 2^MAX_COUNT_BITS.  A count on (Z/p^k)^l is at most p^(k l), the number of
#: points, which is below 2^(k l bit_length(p)).  At 2^19 bits (about 158,000
#: digits) a closed form is evaluated and printed in about 0.2 s (2-vCPU VM);
#: the digits come from ``decimal_digits``, subquadratic where int-to-str is
#: quadratic.
MAX_COUNT_BITS = 2 ** 19


def check_bits(bits: int, what: str) -> None:
    """Refuse ``what``, of up to ``bits`` bits (read off bit lengths), above MAX_COUNT_BITS."""
    if bits > MAX_COUNT_BITS:
        raise SpaceTooLarge(f"{what} can reach {bits} bits, above the bound of {MAX_COUNT_BITS}")


#: A count of at most this many bits prints through ``str``; a larger one
#: through ``decimal``, which is faster from about 28,000 bits on (Python 3.11,
#: 2-vCPU VM: 0.05 s against 0.43 s at 2^19 bits).
STR_BITS = 2 ** 15

#: The pieces ``decimal_digits`` converts directly: up to 4096 bits they all
#: convert at about the same speed.
PIECE_BITS = 2 ** 11


def decimal_digits(n: int) -> str:
    """The decimal digits of ``n``, exactly as ``str(n)`` gives them.

    ``str`` of an int takes time quadratic in its length, so above STR_BITS
    bits n is split in halves at a power of two, n = hi * 2^w + lo, down to
    pieces of at most PIECE_BITS bits, and the pieces are recombined in
    ``decimal`` at unbounded precision, whose products of long operands are
    subquadratic.  Each power 2^w is formed once.  ``decimal`` is imported
    only here, so a run that prints no such count never loads it.
    """
    if n.bit_length() <= STR_BITS:
        return str(n)
    import decimal

    powers = {}

    def power(w: int):  # 2^w
        if w not in powers:
            half = w >> 1
            powers[w] = (decimal.Decimal(2) ** w if w <= PIECE_BITS
                         else power(half) * power(w - half))
        return powers[w]

    def join(m: int, w: int):  # |m| below about 2^w; the split holds for either sign
        if w <= PIECE_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        return join(m >> half, w - half) * power(half) + join(m & ((1 << half) - 1), half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(join(n, n.bit_length()))


class CountReport(Record):
    """Result of one counting run, serializable to JSON/CSV/text.

    ``breakdown`` holds (rep_index, class_size, fixed_points) rows.
    """

    __slots__ = _fields = ("group", "p", "k", "method", "count", "breakdown", "elapsed")

    def __init__(self, group: str, p: int, k: int, method: str, count: int,
                 breakdown: Optional[list] = None, elapsed: Optional[float] = None):
        if count < 1:
            raise InvariantViolation(f"orbit count {count} is below 1")
        if breakdown is not None:
            total = sum(size * fixed for _, size, fixed in breakdown)
            order = sum(size for _, size, _ in breakdown)
            if total != order * count:
                raise InvariantViolation(
                    f"breakdown sums to {total}, not |W| * count = {order * count}"
                )
        self.group, self.p, self.k, self.method = group, p, k, method
        self.count, self.breakdown, self.elapsed = count, breakdown, elapsed

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "group": self.group,
            "p": self.p,
            "k": self.k,
            "method": self.method,
            "count": decimal_digits(self.count),
        }
        if self.breakdown is not None:
            out["classes"] = [
                {"rep": rep, "size": size, "fixed": decimal_digits(fixed)}
                for rep, size, fixed in self.breakdown
            ]
        if include_timing and self.elapsed is not None:
            out["elapsed"] = round(self.elapsed, 6)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timing))

    def to_csv(self) -> str:
        lines = ["group,p,k,method,count",
                 f"{self.group},{self.p},{self.k},{self.method},{decimal_digits(self.count)}"]
        if self.breakdown is not None:
            lines.append("rep,class_size,fixed_points")
            lines.extend(f"{r},{s},{decimal_digits(f)}" for r, s, f in self.breakdown)
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = (f"{self.group}  p={self.p}  k={self.k}  method={self.method}  "
                f"count={decimal_digits(self.count)}")
        if self.breakdown is None:
            return head + "\n"
        lines = [head, f"{'rep':>8} {'size':>8} {'fixed':>16}"]
        lines.extend(f"{r:>8} {s:>8} {decimal_digits(f):>16}" for r, s, f in self.breakdown)
        return "\n".join(lines) + "\n"
