"""Immutable records: plain ``__slots__`` classes, which compile nothing at import."""

from operator import attrgetter


class Record:
    """``__slots__`` names the fields in constructor order, ``_defaults`` the
    values of the last ones; the first ``compared`` (a class keyword, all by
    default) are compared, hashed and shown by repr.  A class with its own
    ``__init__``, as the records built on every job have, calls ``_fill``."""

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls, compared: int | None = None) -> None:
        cls._shown = cls.__slots__[:compared]
        cls._key = attrgetter(*cls._shown)

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = dict(zip(names[len(names) - len(self._defaults):], self._defaults), **kwargs)
        values.update(zip(names, args))
        if (len(args) > len(names) or kwargs.keys() & names[:len(args)]
                or values.keys() != set(names)):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        self._fill(*map(values.get, names))

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple) -> None:
        """For copy and pickle, whose state is (None, {slot: value})."""
        self._fill(*map(state[1].get, self.__slots__))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"
