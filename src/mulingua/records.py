"""Record classes declared without generated code.

Every record class of the package (syntax nodes, semantic values,
structures, quivers, reports) derives from ``_Node``, is declared with
``@_node`` and names its fields as class annotations.  ``dataclasses``
sees those fields, so ``dataclasses.fields``, ``is_dataclass`` and
``replace`` work as on a dataclass.  But ``@dataclass`` writes the
source text of each method of each class and compiles it at import,
about a millisecond a class; here ``_Node`` writes ``repr``, equality,
hashing and frozenness once, over the fields named in
``__match_args__``, and one constructor per field count takes the
fields by position, so declaring a class generates no method.

A class built by keyword, or with defaults or checks at construction,
writes its own ``__init__`` with parameters named after its fields (so
``dataclasses.replace`` works on it).  A class on a hot path writes its
own ``__init__``, ``__eq__`` and ``__hash__``, which are faster than the
generic ones, and may keep its hash in an attribute that is no field.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Optional

# A record stores its fields with object.__setattr__, as a frozen
# dataclass does: reading self.__dict__ instead would make CPython give
# the record a separate dict, which slows every later field read.  One
# constructor per field count (a positional record has at most three
# fields) takes the fields by position, about as fast as a generated
# __init__.
_set = object.__setattr__


def _init0(self) -> None:
    pass


def _init1(self, a) -> None:
    _set(self, self.__match_args__[0], a)


def _init2(self, a, b) -> None:
    first, second = self.__match_args__
    _set(self, first, a)
    _set(self, second, b)


def _init3(self, a, b, c) -> None:
    first, second, third = self.__match_args__
    _set(self, first, a)
    _set(self, second, b)
    _set(self, third, c)


_INITS = (_init0, _init1, _init2, _init3)


def _node(cls: Optional[type] = None, *, frozen: bool = True,
          eq: bool = True):
    """Declare a record class: its annotated fields become its dataclass
    fields and, in order, its ``__match_args__``; without an ``__init__``
    of its own it takes them by position.  ``_Node`` supplies every other
    method.  As for ``@dataclass``, ``frozen=False`` lets fields be
    assigned, ``eq=False`` keeps identity equality and hashing, and a
    record with field equality that is not frozen is unhashable.  No
    code is generated per class."""

    def declare(cls: type) -> type:
        names = cls.__dict__.get("__annotations__", {})
        if cls.__doc__ is None:
            # set first: dataclass() otherwise reads the constructor's
            # signature to write one, which is slow
            cls.__doc__ = f"{cls.__name__}({', '.join(names)})"
        if "__init__" not in cls.__dict__:
            cls.__init__ = _INITS[len(names)]
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__
        elif not frozen:
            cls.__hash__ = None
        return dataclass(init=False, repr=False, eq=False)(cls)

    return declare if cls is None else declare(cls)


class _Node:
    """Base of every record class: a record of the fields named in
    ``__match_args__``.  ``repr``, equality and hashing (as for a frozen
    dataclass: by class and field values) and frozenness are written
    once here, over those fields."""

    __match_args__: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields_text = ", ".join(f"{name}={getattr(self, name)!r}"
                                for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields_text})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self.__match_args__:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name)
                           for name in self.__match_args__]))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
