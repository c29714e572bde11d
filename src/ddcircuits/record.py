"""Immutable records: the one base of the package's result types.

A record class derives from ``Record`` directly and names its fields in
``__slots__``, in order.  It is built by position or keyword, with the
class statement's ``defaults`` for fields left out, and then runs its
``__post_init__``, if it has one, to check them.  It equals only a record
of its own class with equal compared fields, hashes those fields, prints
as ``Name(field=value, ...)``, and refuses assignment and deletion with
AttributeError.  The fields named in the class statement's ``hidden`` are
not compared, hashed or printed.

Nothing is generated from source text: ``__init_subclass__`` keeps each
class's slot setters, compared-field getter and check, so a construction
that passes every field by position looks nothing up by name.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of an immutable record whose fields are its class's ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, *, defaults=None, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record class {cls.__name__} must name its fields in __slots__")
        fields = cls.__slots__
        shown = tuple([name for name in fields if name not in hidden])
        cls._setters = tuple([getattr(cls, name).__set__ for name in fields])
        cls._defaults = dict(defaults or {})
        cls._shown = shown
        # A record with no compared field is keyed by its class alone.
        cls._key = attrgetter(*shown) if shown else type
        cls._check = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        setters = cls._setters
        if kwargs or len(args) != len(setters):
            args = cls._bind(args, kwargs)
        i = 0  # a counter beats zip(setters, args) on records this small
        for value in args:
            setters[i](self, value)
            i += 1
        if cls._check is not None:
            cls._check(self)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in slot order, of a construction that passes
        some by keyword or leaves some to their defaults."""
        fields = cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, {len(args)} were given")
        values = list(args)
        for name in fields[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unknown or repeated fields {sorted(kwargs)}")
        return values

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])
