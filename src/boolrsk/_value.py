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

    @classmethod
    def _trusted(cls, *fields):
        """The value with these fields, in ``_fields`` order, built with no
        checks.  For library results that are valid by construction only; each
        field must already have the type the checked constructor stores."""
        value = object.__new__(cls)
        if len(fields) == 1:  # most values, runs above all: one store, no zip
            object.__setattr__(value, cls._fields[0], fields[0])
            return value
        for name, field in zip(cls._fields, fields):
            object.__setattr__(value, name, field)
        return value

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
