"""Value records: classes with ``__slots__`` that compare, print and copy by field.

A record lists its constructor's fields in ``_fields``.  ``Record`` gives
it ``==`` between records of one class, field by field, the
``Name(field=value, ...)`` repr, and a ``__reduce__`` that rebuilds a copy
or an unpickled record through the constructor, which validates it again.
``FrozenRecord`` adds a hash of the fields and raises AttributeError on any
assignment; its constructors set their slots once, through ``_init``.
Nothing here generates code, so defining a record costs no more at import
than defining any class.
"""

from __future__ import annotations


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
