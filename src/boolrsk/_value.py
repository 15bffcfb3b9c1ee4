"""The base of the library's immutable value types: plain classes, because
``dataclasses`` imports ``inspect`` and generates each class's methods from
source text, a cost every one-shot CLI call would pay."""

from operator import attrgetter


class Value:
    """An immutable value whose fields ``_fields`` names.  A subclass's
    ``__init__`` writes each field with ``object.__setattr__``, then validates.
    Values of one class with equal fields are equal and hash equal."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)  # one field: its value; several: a tuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
