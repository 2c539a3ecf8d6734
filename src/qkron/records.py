"""Base of the mutable result records (``GrTable``, ``StrataTable``,
``verify.Check``).

A subclass lists its fields in ``__slots__`` and assigns them in its own
``__init__``; the base compares records of one class field by field and
prints them as ``Name(field=value, ...)``.  Records are unhashable, because
they are mutable.  The frozen records elsewhere are ``namedtuple``
subclasses instead: hashable, and equal to the tuple of their fields.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"
