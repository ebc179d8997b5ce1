"""Immutable value records.

umlab's records were frozen dataclasses; importing `dataclasses` (and the
`inspect` it pulls in) and generating each class's methods cost every
CLI call about 16-20 ms of start-up.  A record now subclasses `Frozen`
and names its fields in `__slots__`; `Frozen.__init__` sets them by
position.  Records that check their values (`DistanceSet`, `QuasiOrder`,
`RootedTree`, `Bounds`), have a default (`ValidationReport`) or are
built once per node (`BallTree`) keep their own `__init__` and `setfield`.
"""

from __future__ import annotations

setfield = object.__setattr__  # bypasses Frozen.__setattr__; bound once, it is the fastest call


class Frozen:
    """Equality (same class only), hash and repr over the fields named in
    `__slots__`, in order; fields can be neither assigned nor deleted."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            cls = type(self).__qualname__
            raise TypeError(f"{cls} takes {len(names)} values, got {len(values)}")
        for name, value in zip(names, values):
            setfield(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
