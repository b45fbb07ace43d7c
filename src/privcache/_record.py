"""Base classes for the package's value records.

A record declares its fields once, as class annotations, in constructor
order; `__repr__` prints them as `Name(field=value, ...)`, and equality
holds only between instances of the same class with equal fields.  Each
frozen record writes an explicit `__init__` that passes its field values
to `FrozenRecord._store` in that order and then checks them, so no class
is generated from source at import time and only this module knows how
an instance holds its fields.

Instances keep a `__dict__` (no `__slots__`): `functools.cached_property`
stores its value there, outside the fields, so a cached value joins
neither equality, hash nor repr.
"""

from __future__ import annotations


class Record:
    """Mutable record: field-wise equality and repr; unhashable."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """Immutable, hashable record.

    `__init__` makes one `_store` call with every field value in
    declaration order.  It writes each field, and `_values`, the tuple of
    all of them, straight into the instance `__dict__`; equality and hash
    read that tuple, so they build nothing per call.  Assigning or
    deleting any attribute raises `FrozenInstanceError`, an
    `AttributeError`.
    """

    def _store(self, *values: object) -> None:
        """Set the declared fields, in order, to `values`; a count that
        differs from the annotations' raises ValueError."""
        self.__dict__.update(zip(self._fields, values, strict=True), _values=values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen_error(f"cannot delete field {name!r}")


def _frozen_error(message: str) -> AttributeError:
    # the standard library's error for writes to a frozen instance, imported
    # only here: its module loads `inspect`, which nothing else needs
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
