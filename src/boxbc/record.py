"""Immutable value records without :mod:`dataclasses`.

Importing ``dataclasses`` also imports ``inspect`` and, through it, ``ast``,
``dis`` and ``tokenize``: several milliseconds on every command-line call,
which is a large share of a fast request.  :class:`Record` gives the
package's value classes the part of a frozen dataclass they use.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any


class Record:
    """Base class of immutable value objects.

    A subclass lists its fields as annotations in its body; the constructor
    takes one value per field, in that order.  A subclass that needs
    keywords, defaults or checks defines ``__init__`` and passes the values
    on.  Two records are equal, and hash alike, when they have the same
    class and equal fields; ``repr`` shows ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises :class:`AttributeError`.
    ``functools.cached_property`` still works, because it stores into the
    instance ``__dict__`` directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        # the fields' values (a bare value for a single field), compared and hashed
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *values: Any) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}({', '.join(self._fields)}) got {len(values)} values")
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
