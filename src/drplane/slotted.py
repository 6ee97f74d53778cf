"""Slotted record classes, in place of ``@dataclass``.

Every CLI child is a fresh interpreter, and ``import dataclasses`` loads
``inspect``, ``ast``, ``dis`` and ``tokenize``; with the ``exec`` of each
decorated class's generated methods that cost a ``run`` child more CPU than
its own work.  These two bases give the package's classes what the
decorator did.  A subclass names its constructor's parameters, in order, as
``_fields``: they are compared, hashed and shown by repr, as a dataclass's
fields were, and ``__slots__`` holds them, or what they are read from, and
any values derived from them.
"""


class Record:
    """Mutable record: ``==`` and repr over ``_fields``, unhashable."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({args})"


class Value(Record):
    """Frozen record, also hashed over ``_fields``.  ``__init__`` sets the
    slots with ``_set``; copy and pickle restore every slot as it was,
    derived ones included, without running ``__init__`` again."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return _restore, (self.__class__, {name: getattr(self, name) for name in self.__slots__})


def _restore(cls: type, slots: dict) -> Value:
    value = object.__new__(cls)
    value._set(**slots)
    return value
