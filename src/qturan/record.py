"""Record: the base of the package's immutable value classes.

A subclass declares its fields as class annotations, in order, and gets
what @dataclass(frozen=True) would give it: an __init__ that takes the
fields by position or keyword and then runs __post_init__, field-wise
__eq__ between instances of the same class, a __hash__ of the fields, the
dataclass __repr__, and no assignment or deletion of attributes.

The records are not dataclasses because every CLI call starts a fresh
process and pays for its imports: importing dataclasses pulls in inspect,
ast, dis and tokenize, about 7 ms, and each frozen dataclass execs the
source of its generated methods, about 0.9 ms more per class (Python 3.11
on a 2-core x86-64 machine).  `pipeline` with a coloring defines all 15
records, in a call of 0.1 to 0.4 s.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

__all__ = ["Record"]


class Record:
    """An immutable record whose fields are its class annotations."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        # the values that == and hash compare: a tuple, or a lone field's value
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        # one attribute at a time: updating self.__dict__ would give each
        # instance its own dict, 64 bytes more than the shared-key layout
        for key, value in zip(fields, args):
            object.__setattr__(self, key, value)
        self.__post_init__()

    def _arguments(self, args: tuple[Any, ...], kwargs: dict[str, Any]) -> tuple[Any, ...]:
        """The field values in order, from a call that names some of them;
        a missing, unknown or repeated field is a TypeError, as for any
        function."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(map(repr, missing))}")
        return tuple(map(values.__getitem__, fields))

    def __post_init__(self) -> None:
        """Checks the fields; a subclass overrides it to raise ValueError."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
