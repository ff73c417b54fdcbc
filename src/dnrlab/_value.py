"""The frozen base of the package's value classes, with no generated code.

A value class writes its own `__init__`.  Its parameters are the class's
fields, listed in `__match_args__`, and it sets each one with `_set_field`,
since plain assignment is refused.  The base gives what a frozen
dataclass would: `==` only between instances of the same class, over the
fields in order; the hash of the field tuple; the repr
`Name(field=value, ...)`; and AttributeError on assignment and deletion.
Attributes set outside the parameters (caches, derived tables) live in the
instance's `__dict__` too, and take no part in any of these.
"""

from operator import attrgetter

_set_field = object.__setattr__


class _Value:
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls.__match_args__ = fields = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
