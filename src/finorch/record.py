"""Frozen value records as plain classes.

``@dataclass`` generates and compiles its methods while a module is
imported, and ``dataclasses`` itself loads ``inspect``, ``ast``, ``dis``
and ``tokenize``: together 20-45 ms of a cold command on a shared 2-vCPU
host. So finorch's records are plain classes. Each one lists its fields
in ``__slots__``, in declaration order, and its own ``__init__`` checks
and coerces them and sets each one with ``object.__setattr__``.
``Record`` gives them what a frozen dataclass gave.
"""

from __future__ import annotations

from typing import Any, TypeVar

__all__ = ["Record"]

_R = TypeVar("_R", bound="Record")


class Record:
    """Base of the frozen records: value equality and hashing, a repr, no
    assignment or deletion, copying and pickling, and ``replace``.

    A subclass names the fields that ``==`` and ``hash`` leave out in
    ``_uncompared``, and those that ``repr`` leaves out in ``_unshown``.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

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

    def replace(self: _R, **changes: Any) -> _R:
        """A new record with ``changes`` applied; its ``__init__`` runs
        again, checks and coercions included."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return type(self)(**fields)
