"""Frozen value records as plain classes.

A record lists its fields once, in ``__slots__``. Its ``__init__`` takes
them in that order, checks them, coerces a field by rebinding its
parameter (``task_kinds = frozenset(task_kinds)``), and ends with
``super().__init__(...)``, passing every field in ``__slots__`` order.
``Record`` sets the fields and gives what a frozen dataclass gave: value
equality and hashing, a repr, no assignment or deletion, copying and
pickling, ``to_dict`` and ``replace``. Plain classes keep ``dataclasses``,
and the code it generates and compiles, out of every command's import.
"""

from __future__ import annotations

from typing import Any, TypeVar

__all__ = ["Record"]

_R = TypeVar("_R", bound="Record")


class Record:
    """Base of the frozen records: the field fill, value equality and
    hashing, a repr, no assignment or deletion, copying and pickling,
    ``to_dict`` and ``replace``.

    A subclass names the fields that ``==`` and ``hash`` leave out in
    ``_uncompared``, and those that ``repr`` leaves out in ``_unshown``.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def __init__(self, *values: Any) -> None:
        # Every subclass's __init__ passes its fields in __slots__ order;
        # tests/test_record.py pins that order for each record.
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _compared(self) -> tuple[Any, ...]:
        return tuple(
            getattr(self, name)
            for name in self.__slots__
            if name not in self._uncompared
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__
            if name not in self._unshown
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[Any, ...]:
        # copy and pickle rebuild a record through its __init__, which
        # takes the fields in __slots__ order.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def to_dict(self) -> dict[str, Any]:
        """The fields by name, in ``__slots__`` order; values as stored."""
        return {name: getattr(self, name) for name in self.__slots__}

    def replace(self: _R, **changes: Any) -> _R:
        """A new record with ``changes`` applied; its ``__init__`` runs
        again, checks and coercions included."""
        # Not to_dict: CompanyBundle overrides it with a nested, dated form.
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return type(self)(**fields)
