"""Immutable value records, built without generating code at import time.

Each value type of the package lists its attributes in ``__slots__``.
:class:`Record` supplies the methods of a frozen value type: an ``__init__``
taking the fields by position or name, equality by type and fields, a hash
that agrees with it, the repr ``Annulus(center=0, v=Fraction(5, 2))``, an
``AttributeError`` on assignment, and ``_asdict`` (the fields in order).
A type that checks or coerces its arguments writes its own ``__init__``
and sets each slot through :data:`init`.  The fields are the ``__slots__``,
in order, but for a slot named with a leading underscore: a cache, which
equality, hash, repr and pickling do not see.
"""

from __future__ import annotations

from operator import attrgetter

init = object.__setattr__  # sets a slot of a record under construction


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields) or set(kwargs) != set(fields[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in (*zip(fields, args), *kwargs.items()):
            init(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def json_int(x) -> int:
    """An integer read from parsed JSON; a float or a boolean is refused, never truncated."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)
