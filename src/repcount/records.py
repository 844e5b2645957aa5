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

from .errors import InvariantViolation


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
            "count": str(self.count),
        }
        if self.breakdown is not None:
            out["classes"] = [
                {"rep": rep, "size": size, "fixed": str(fixed)}
                for rep, size, fixed in self.breakdown
            ]
        if include_timing and self.elapsed is not None:
            out["elapsed"] = round(self.elapsed, 6)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timing))

    def to_csv(self) -> str:
        lines = ["group,p,k,method,count",
                 f"{self.group},{self.p},{self.k},{self.method},{self.count}"]
        if self.breakdown is not None:
            lines.append("rep,class_size,fixed_points")
            lines.extend(f"{r},{s},{f}" for r, s, f in self.breakdown)
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = f"{self.group}  p={self.p}  k={self.k}  method={self.method}  count={self.count}"
        if self.breakdown is None:
            return head + "\n"
        lines = [head, f"{'rep':>8} {'size':>8} {'fixed':>16}"]
        lines.extend(f"{r:>8} {s:>8} {f:>16}" for r, s, f in self.breakdown)
        return "\n".join(lines) + "\n"
