"""Plain value classes: equality, hashing and ``repr`` over declared fields.

A class lists its fields in ``__slots__``; a slot whose name starts with an
underscore holds a cache or an index and is no field.  Two instances are
equal when they are of the same class and their fields are equal, and the
``repr`` is ``Name(field=value, ...)``.  A `Record` is mutable and
unhashable; a `Frozen` record hashes its fields and refuses assignment, so
its ``__init__`` sets each field with ``object.__setattr__``.

Each method is written once here and generates no code, so defining a class
costs no more than any plain class, and no command imports `inspect`.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # mutable, so unhashable

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name
            for c in reversed(cls.__mro__)
            for name in c.__dict__.get("__slots__", ())
            if not name.startswith("_")
        )

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor, which takes the
        # fields in order, since they cannot assign them one by one
        return type(self), self._values()

