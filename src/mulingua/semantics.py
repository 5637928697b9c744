"""Finite-set models: structures, interpretation, evaluation, theories.

A structure assigns finite carriers to base types, total lookup tables
to function symbols, subsets to relation symbols, and set-valued tables
to type families.  Types are interpreted compositionally: a dependent
sum as its pairs (the cartesian product when its binder does not
occur), coproducts as tagged unions, a dependent product as all its
sections (all tables when its binder does not occur, so a power is the
tables into the two truth values), and tree types by their leaves (a
tree type that also has a branching label has infinitely many trees).

Truth values are classical: ``Prop`` denotes {false, true}, conjunction
is meet, disjunction join, implication the order, and the quantifiers
are iterated meets and joins over the interpreted bound type; a formula
is a term whose value is a truth value.  Terms and formulas are
evaluated by compiling each node once into nested closures over a frame
of variable slots, kept on the node; a theory check or a context
enumeration writes each assignment straight into those slots.
A constant, and a symbol of one or two arguments from base types to a
base type whose arguments are carrier elements bound by a context, a
quantifier or a lambda, or read from another such symbol, is read by
the atoms' indices with no check at all: the carriers and the table
are checked once per structure, and once per frame that the site's
carriers are the symbol's.  Any other symbol's table is read by key.
Compiling changes no result and no error: a table, a constant or a
domain is read, and the budget checked, only when evaluation reaches it.

Every enumeration follows one canonical order (carrier order, pairs
lexicographic, injections left first, tables by output tuples), so all
results are deterministic.  Enumeration is lazy, and the first
element of a type is found without enumerating the rest: it is the
canonical inhabitant that ``proofs.inhabit`` returns, and a dependent
product's first section is decided fiber by fiber.  The element budget
(default 10^6, override via the MULINGUA_BUDGET environment variable, a
positive integer) bounds every domain, index and quantifier range that
is enumerated.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import field
from fractions import Fraction
from functools import reduce
from math import inf, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

from .diagnostics import BudgetError, StructureError, Verdict
from .records import _Node, _node, _set
from .syntax import (
    FORMULAS, Absurd, And, App, Base, Bottom, Context, Coproduct, Eq, Exists,
    FamApp, Forall, Implies, Inl, Inr, Lambda, Member, Node, Not, Or, Pair, Pi, Prop, PropType, Proj1, Proj2, RelAtom, Sigma,
    Signature, Star, Sup, Term, Top, TypeExpr, Unit, Universe,
    Var, W, Zero, _Binding, _children, _fields, free_vars, show,
)

DEFAULT_BUDGET = 10 ** 6

Env = dict[str, "Value"]


def element_budget(budget: Optional[int] = None) -> int:
    """Resolve the effective element budget (argument, then environment
    variable, then default).  The environment variable must hold a
    positive integer; an argument is trusted as given."""
    if budget is not None:
        return budget
    raw = os.environ.get("MULINGUA_BUDGET")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise BudgetError(
                f"MULINGUA_BUDGET must be an integer, got {raw!r}") from None
        if value <= 0:
            raise BudgetError(
                f"MULINGUA_BUDGET must be a positive integer, got {raw!r}")
        return value
    return DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# semantic values
# ---------------------------------------------------------------------------

# An Atom is interned: Atom(carrier, index) returns the one object kept
# per (carrier, index, index type) in _ATOMS, so a base type's element is
# one object however often a loader, a table or an enumeration builds it.
# Atoms therefore compare and hash as object does, by identity in C:
# one atom equals another only when both were built from equal carriers
# and equal indices of one type, so Atom("X", 1.0) and Atom("X", True)
# are not Atom("X", 1).  So a set of values may iterate in another order
# in another run, and no output may read that order: a relation's tuples
# are walked in ordered_tuples' order.  The table only grows, by one
# entry per distinct (carrier, index, index type) that a process builds,
# so loading or checking a structure again adds nothing.  Copies and
# unpickled atoms are rebuilt through the constructor (__reduce__), so
# they are interned too.
#
# StarV, TruthV, PairV, InlV and InrV are hashed and compared on every
# table lookup by key: a symbol read outside a typed site, a relation, a
# table value's apply, a set's membership.
# (A typed site reads its table by the atoms' indices and hashes nothing;
# see Structure._typed_of.)
# So they write their own __eq__ and __hash__: _Node's, which loop over
# the field names, are slower.  A PairV hashes once, on its first hash,
# since enumeration builds many pairs that are never hashed.  It keeps
# the hash in _hash, which is no field, so it shows in no repr and no
# comparison, and is rebuilt when copied or unpickled, so a process with
# another hash seed does not inherit it.  Each of these hashes equals the
# one a frozen dataclass generates from the same field values.

_ATOMS: dict[tuple, "Atom"] = {}


@_node
class Atom(_Node):
    """An element of a named finite carrier."""

    carrier: str
    index: int

    def __new__(cls, carrier: str, index: int) -> "Atom":
        key = carrier, index, index.__class__
        atom = _ATOMS.get(key)
        if atom is None:
            atom = object.__new__(cls)
            _set(atom, "carrier", carrier)
            _set(atom, "index", index)
            # setdefault: two threads that build one atom keep one object
            atom = _ATOMS.setdefault(key, atom)
        return atom

    # object's, run in C: __new__ did the work, and equality is identity
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return Atom, (self.carrier, self.index)


@_node
class StarV(_Node):
    """The element of the unit type."""

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())


class _OneValue(_Node):
    """Base of the values with the one field ``value``."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value,) == (other.value,)

    def __hash__(self) -> int:
        return hash((self.value,))


@_node
class TruthV(_OneValue):
    """A truth value: an element of Prop."""

    value: bool


@_node
class PairV(_Node):
    """An element of a product or of a dependent sum."""

    first: "Value"
    second: "Value"

    def __init__(self, first: "Value", second: "Value") -> None:
        _set(self, "first", first)
        _set(self, "second", second)
        _set(self, "_hash", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.first, self.second) == (other.first, other.second)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.first, self.second))
            _set(self, "_hash", h)
        return h

    def __reduce__(self):
        return PairV, (self.first, self.second)


@_node
class InlV(_OneValue):
    """An element of a coproduct, from its left summand."""

    value: "Value"


@_node
class InrV(_OneValue):
    """An element of a coproduct, from its right summand."""

    value: "Value"


@_node
class RatV(_OneValue):
    """An exact rational leaf (used by rhythm-tree labels)."""

    value: Fraction


class _Tabular(_Node):
    """Shared lookup behaviour for table-like values.  A table and a
    section with the same entries are the same function, so they are
    equal: a lambda, which evaluates to a table, equals the section it
    denotes.  Each class still prints its own form."""

    entries: tuple[tuple["Value", "Value"], ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Tabular):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def apply(self, argument: "Value") -> "Value":
        mapping = self.__dict__.get("_map")
        if mapping is None:
            mapping = dict(self.entries)
            object.__setattr__(self, "_map", mapping)
        try:
            return mapping[argument]
        except KeyError:
            raise StructureError(f"table has no entry for {argument!r}") from None

    def domain_values(self) -> tuple["Value", ...]:
        return tuple(k for k, _ in self.entries)


@_node
class TableV(_Tabular):
    """A total function as a finite lookup table, keys in canonical
    domain order.  Also represents subsets, as tables into truth values."""

    entries: tuple[tuple["Value", "Value"], ...]


@_node
class SectionV(_Tabular):
    """A dependent function: one value per index element, keys in
    canonical index order."""

    entries: tuple[tuple["Value", "Value"], ...]


@_node
class TreeV(_Node):
    """A well-founded tree; branches ordered by the label's arity set.

    Equality, hashing and ``repr`` follow the dataclass ones over
    (label, branches) but walk on an explicit stack, so a tree may be
    deeper than Python's recursion limit."""

    label: "Value"
    branches: tuple["TreeV", ...]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TreeV:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is not b:
                if (b.__class__ is not TreeV or a.label != b.label
                        or len(a.branches) != len(b.branches)):
                    return False
                pending.extend(zip(a.branches, b.branches))
        return True

    def __hash__(self) -> int:
        return wfold(self, lambda label, hashes: hash((label, hashes)))

    def __repr__(self) -> str:
        return tree_text(
            self, lambda t: f"TreeV(label={t.label!r}, branches=(", ", ",
            lambda t: ",))" if len(t.branches) == 1 else "))")


R = TypeVar("R")


def wfold(tree: TreeV, step: Callable[["Value", tuple[R, ...]], R]) -> R:
    """Structural recursion: fold the branches first, then combine their
    results, in branch order, with the label.  Terminates because trees
    are finite.  Walks on an explicit stack, so a tree may be deeper than
    Python's recursion limit."""
    folded: list[R] = []  # results of the finished subtrees, in order
    stack: list[tuple[TreeV, bool]] = [(tree, False)]
    while stack:
        node, branches_done = stack.pop()
        if branches_done:
            start = len(folded) - len(node.branches)
            result = step(node.label, tuple(folded[start:]))
            del folded[start:]
            folded.append(result)
        else:
            stack.append((node, True))
            stack.extend((b, False) for b in reversed(node.branches))
    return folded[0]


def tree_text(tree: TreeV, head: Callable[[TreeV], str], sep: str,
              tail: Callable[[TreeV], str]) -> str:
    """The text of every node t is ``head(t)``, then the texts of its
    branches joined by ``sep``, then ``tail(t)``; written on an explicit
    stack, so a tree may be deeper than Python's recursion limit."""
    parts: list[str] = []
    pending: list[Union[TreeV, str]] = [tree]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(head(item))
        pending.append(tail(item))
        for k, branch in enumerate(reversed(item.branches)):
            if k:
                pending.append(sep)
            pending.append(branch)
    return "".join(parts)


Value = Union[Atom, StarV, TruthV, PairV, InlV, InrV, RatV, TableV, SectionV, TreeV]

FALSE = TruthV(False)
TRUE = TruthV(True)


@_node
class FinSet(_Node):
    """A finite set of distinct values in a fixed canonical order."""

    elements: tuple[Value, ...]

    def __init__(self, elements: tuple[Value, ...]) -> None:
        _set(self, "elements", elements)
        members = frozenset(elements)
        if len(members) != len(elements):
            raise StructureError("finite set has duplicate elements")
        _set(self, "_members", members)

    @staticmethod
    def of(*elements: Value) -> "FinSet":
        return FinSet(tuple(elements))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, v: Value) -> bool:
        return v in self._members

    def index(self, v: Value) -> int:
        return self.elements.index(v)


PROP_SET = FinSet((FALSE, TRUE))


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

# the slot of a symbol whose typed reads are not built yet
_UNBUILT = object()


def _in_carrier(values: Iterable, carrier: str, size: int) -> bool:
    """Whether every value is one of the carrier's own atoms
    ``Atom(carrier, i)``, ``i`` an ``int`` in ``range(size)``."""
    return set(map(Atom, itertools.repeat(carrier), range(size))
               ).issuperset(values)


@_node(frozen=False, eq=False)
class Structure(_Node):
    """A model of a signature in finite sets.

    ``fun_tables`` maps each function symbol to a table keyed by
    argument tuples (constants use the empty tuple); a type family's
    table yields the finite set at each argument tuple.  ``rel_tables``
    holds the accepted tuples of each relation.  ``element_names``
    optionally names carrier atoms for rendering.
    Structures are immutable after construction: a theory check reads a
    base-to-base symbol through typed reads built from its table on
    first use, which would go stale if the table changed.
    """

    signature: Signature
    carriers: dict[str, FinSet]
    fun_tables: dict[str, dict[tuple[Value, ...], Union[Value, FinSet]]] = \
        field(default_factory=dict)
    rel_tables: dict[str, frozenset[tuple[Value, ...]]] = field(default_factory=dict)
    element_names: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __init__(self, signature: Signature, carriers: dict[str, FinSet],
                 fun_tables: Optional[dict] = None,
                 rel_tables: Optional[dict] = None,
                 element_names: Optional[dict] = None) -> None:
        self.signature = signature
        self.carriers = carriers
        self.fun_tables = {} if fun_tables is None else fun_tables
        self.rel_tables = {} if rel_tables is None else rel_tables
        self.element_names = {} if element_names is None else element_names
        # one slot per function symbol for its typed reads, filled the
        # first time a theory check reads the symbol here
        self._typed = dict.fromkeys(
            (sym.name for sym in signature.fun_symbols), _UNBUILT)
        for base in self.signature.base_types:
            if base not in self.carriers:
                raise StructureError(f"no carrier for base type {base!r}")
        for name, names in self.element_names.items():
            if name in self.carriers and len(names) != len(self.carriers[name]):
                raise StructureError(f"element names for {name!r} have wrong length")

    def carrier(self, name: str) -> FinSet:
        try:
            return self.carriers[name]
        except KeyError:
            raise StructureError(f"no carrier for base type {name!r}") from None

    def named_atom(self, carrier: str, name: str) -> Atom:
        names = self.element_names.get(carrier)
        if names is None:
            self.carrier(carrier)  # refuses a base type with no carrier
        if names is None or name not in names:
            raise StructureError(f"no element named {name!r} in carrier {carrier!r}")
        return Atom(carrier, names.index(name))

    def _typed_of(self, name: str) -> Optional[tuple]:
        """Fill symbol ``name``'s slot and return its typed reads,
        ``(reads, domain carriers, codomain carrier)``: ``reads`` is the
        constant's value, the values by the argument's ``index``, or rows
        of them, so that ``rows[a.index][b.index]`` is the value at
        ``(a, b)``.  None unless the symbol maps at most two base types
        to a base type, all with carriers, and every element of the
        domain carriers, every atom of a key and every value is one of
        its carrier's own atoms, ``Atom(c, i)`` with ``i`` an ``int`` in
        range, and the keys fill every position: then an argument drawn
        from a domain carrier, or read from another such table into it,
        is a valid index with no check at the read, and gives what the
        key lookup gives, since it is the very object of the key.  The
        table's size is checked before anything is allocated, and no key
        is hashed."""
        typed = None
        sym = self.signature.fun(name)
        table = self.fun_tables.get(name)
        if (sym is not None and table is not None and len(sym.domain) <= 2
                and all(isinstance(t, Base) and t.name in self.carriers
                        for t in (*sym.domain, sym.codomain))):
            domain = tuple(t.name for t in sym.domain)
            sizes = [len(self.carriers[c]) for c in domain]
            cod = sym.codomain.name
            keys = table.keys()
            if (len(table) == prod(sizes)
                    and all(k.__class__ is tuple and len(k) == len(domain)
                            for k in keys)
                    and all(_in_carrier(self.carriers[c], c, n)
                            and _in_carrier((k[i] for k in keys), c, n)
                            for i, (c, n) in enumerate(zip(domain, sizes)))
                    and _in_carrier(table.values(), cod,
                                    len(self.carriers[cod]))):
                if not domain:
                    reads = next(iter(table.values()))
                elif len(domain) == 1:
                    reads = [None] * sizes[0]
                    for (a,), value in table.items():
                        reads[a.index] = value
                else:
                    reads = [[None] * sizes[1] for _ in range(sizes[0])]
                    for (a, b), value in table.items():
                        reads[a.index][b.index] = value
                typed = reads, domain, cod
        self._typed[name] = typed
        return typed

    def validate(self, budget: Optional[int] = None) -> Verdict:
        """Check every table is total on its domain and lands in its
        codomain.  A domain of more argument tuples than the budget is
        not enumerated: a table with at most budget entries cannot be
        total on it, and a larger table is trusted.  A family member that
        is an atom tagged with a base type must lie in that carrier;
        other members, such as atoms of no base type, are free."""
        budget = element_budget(budget)
        for sym in self.signature.fun_symbols:
            table = self.fun_tables.get(sym.name)
            if table is None:
                return Verdict.failed(f"missing table for symbol {sym.name!r}")
            try:
                domain = self._domain_tuples(sym.domain, budget)
            except BudgetError:
                continue
            if domain is None:
                if len(table) <= budget:
                    return Verdict.failed(
                        f"table for {sym.name!r} is not total: "
                        f"{len(table)} entries for more than {budget} "
                        "argument tuples")
                continue
            for args in domain:
                if args not in table:
                    return Verdict.failed(
                        f"table for {sym.name!r} is not total: missing "
                        f"{tuple(map(self.render, args))}")
                out = table[args]
                if sym.is_family:
                    if not isinstance(out, FinSet):
                        return Verdict.failed(
                            f"family {sym.name!r} must yield finite sets")
                    for v in out:
                        if (isinstance(v, Atom)
                                and self.signature.has_base(v.carrier)
                                and v not in self.carriers[v.carrier]):
                            return Verdict.failed(
                                f"family {sym.name!r} at "
                                f"{tuple(map(self.render, args))} has member "
                                f"{self.render(v)} outside carrier "
                                f"{v.carrier!r}")
                elif not value_in_type(self, out, sym.codomain):
                    return Verdict.failed(
                        f"table for {sym.name!r} yields {self.render(out)} "
                        f"outside {show(sym.codomain)}")
        for rel in self.signature.rel_symbols:
            table = self.rel_tables.get(rel.name)
            if table is None:
                return Verdict.failed(f"missing table for relation {rel.name!r}")
            # in a fixed order: it decides whether a bad table fails or raises
            for tup in self.ordered_tuples(rel.name):
                if len(tup) != rel.arity or not all(
                        value_in_type(self, v, t)
                        for v, t in zip(tup, rel.arity_types)):
                    return Verdict.failed(
                        f"relation {rel.name!r} contains a tuple outside its type")
        return Verdict.passed()

    def _domain_size(self, domain: tuple[TypeExpr, ...], budget: int) -> int:
        """The number of argument tuples, capped at budget + 1."""
        total = 1
        for t in domain:
            total = min(total * type_size(self, t, budget=budget), budget + 1)
        return total

    def _domain_tuples(self, domain: tuple[TypeExpr, ...], budget: int
                       ) -> Optional[Iterator[tuple[Value, ...]]]:
        """Every argument tuple, or None when there are more than budget."""
        if self._domain_size(domain, budget) > budget:
            return None
        return itertools.product(
            *[list(iter_type(self, t, budget=budget)) for t in domain])

    def render(self, v: Value) -> str:
        return render_value(v, self)

    def ordered_tuples(self, rel: str) -> list[tuple[Value, ...]]:
        """A relation's accepted tuples sorted by their rendering, the
        order source text prints them in and checks report them in."""
        return sorted(self.rel_tables.get(rel, frozenset()),
                      key=lambda tup: tuple(map(self.render, tup)))


# ---------------------------------------------------------------------------
# interpretation of types
# ---------------------------------------------------------------------------

def type_size(st: Structure, t: TypeExpr, env: Optional[Env] = None,
              budget: Optional[int] = None) -> int:
    """Cardinality of the interpretation, computed arithmetically where
    possible.  Exact up to the budget; any larger size is reported as
    budget + 1, so a huge type costs no huge arithmetic.  Raises
    ``BudgetError`` for tree types with infinitely many trees."""
    env = env or {}
    budget = element_budget(budget)
    cap = budget + 1
    match t:
        case Base(name):
            return len(st.carrier(name))
        case Zero():
            return 0
        case Unit():
            return 1
        case Prop():
            return 2
        case Coproduct(a, b):
            return min(type_size(st, a, env, budget) + type_size(st, b, env, budget), cap)
        case Pi(x, dom, cod):
            if x not in free_vars(cod):  # sized as the arrow it is
                return _capped_power(type_size(st, cod, env, budget),
                                     type_size(st, dom, env, budget), cap)
            total = 1
            for v in _elements(st, dom, env, budget):
                total = min(total * type_size(st, cod, {**env, x: v}, budget), cap)
            return total
        case Sigma(x, index_type, body):
            if x not in free_vars(body):
                return min(type_size(st, index_type, env, budget)
                           * type_size(st, body, env, budget), cap)
            total = 0
            for v in _elements(st, index_type, env, budget):
                total = min(total + type_size(st, body, {**env, x: v}, budget), cap)
            return total
        case W(_, _, _):
            return sum(1 for _ in iter_type(st, t, env, budget))
        case FamApp(_, _):
            return min(len(_family_set(st, t, env, budget)), cap)
        case PropType(f):
            return 1 if eval_formula(st, f, env, budget) else 0
        case Universe():
            raise StructureError("'Type' has no finite interpretation")
    raise StructureError(f"not a type expression: {show(t)}")


def _capped_power(base: int, exp: int, cap: int) -> int:
    """``min(base ** exp, cap)``, without computing a power past the cap:
    from base 2 up, an exponent of cap's bit length already exceeds it."""
    if base >= 2 and exp >= cap.bit_length():
        return cap
    return min(base ** exp, cap)


def _cardinality(st: Structure, t: TypeExpr, env: Env,
                 budget: int) -> Union[int, float]:
    """``type_size``, or ``inf`` for a tree type with infinitely many
    trees (a leaf label and a branching label), and for a sum, product or
    arrow of such types that has infinitely many elements: a product with
    an empty factor has none, and an arrow out of an empty type or into
    at most one element has at most one.  Raises where ``type_size``
    raises for any other type."""
    try:
        return type_size(st, t, env, budget)
    except BudgetError:
        match t:
            case W() if {leaf for _, leaf in _tree_labels(st, t, env, budget)
                         } == {True, False}:
                return inf
            case Coproduct(a, b):
                size = (_cardinality(st, a, env, budget)
                        + _cardinality(st, b, env, budget))
            case Sigma(x, a, b) if x not in free_vars(b):
                sizes = (_cardinality(st, a, env, budget),
                         _cardinality(st, b, env, budget))
                size = 0 if 0 in sizes else prod(sizes)
            case Pi(x, a, b) if x not in free_vars(b):
                n = _cardinality(st, b, env, budget)
                m = _cardinality(st, a, env, budget)
                if m == 0 or n <= 1:  # the empty function, or none, or one
                    size = 1 if m == 0 else n
                else:
                    size = inf if inf in (m, n) else _capped_power(
                        n, m, budget + 1)
            case _:
                raise
        return size if size == inf else min(size, budget + 1)


def _elements(st: Structure, t: TypeExpr, env: Env,
              budget: int) -> Iterable[Value]:
    """``iter_type`` once the type's size is known to be within the
    budget: every domain, index and quantifier range is enumerated so.
    A base type is its carrier tuple, with no sizing pass and no
    generator: the innermost quantifier of an axiom enumerates one for
    every assignment to the variables outside it.  A proposition type has
    at most one element and the budget at least one, so it is not sized:
    sizing it would evaluate its formula a second time."""
    if isinstance(t, PropType):
        return iter_type(st, t, env, budget)
    if isinstance(t, Base):
        elements = st.carrier(t.name)
        size = len(elements)
    else:
        elements = None
        size = type_size(st, t, env, budget)
    if size > budget:
        raise _over_budget(budget)
    return iter_type(st, t, env, budget) if elements is None else elements


def _over_budget(budget: int) -> BudgetError:
    return BudgetError(
        f"enumeration of more than {budget} elements exceeds the element budget")


def _product(factors: Iterable[Iterable[Value]],
             repeat: int = 1) -> Iterator[tuple[Value, ...]]:
    """``itertools.product(*factors, repeat=repeat)`` that reads only the
    first element of each factor, and no factor past an empty one, before
    it yields the first tuple; the factors are materialised only when a
    second tuple is asked for."""
    if repeat == 0:
        yield ()
        return
    firsts, rests = [], []
    for factor in factors:
        rest = iter(factor)
        first = next(rest, None)
        if first is None:
            return
        firsts.append(first)
        rests.append(rest)
    yield tuple(firsts) * repeat
    pools = [[first, *rest] for first, rest in zip(firsts, rests)]
    tuples = itertools.product(*pools, repeat=repeat)
    next(tuples)
    yield from tuples


def iter_type(st: Structure, t: TypeExpr, env: Optional[Env] = None,
              budget: Optional[int] = None) -> Iterator[Value]:
    """Lazily enumerate the interpretation in canonical order.  The first
    element is the type's canonical inhabitant.

    A ``(sigma (q (* A B)) (prop F))`` whose conjunction F leads with
    conjuncts that read q only as ``(pr1 q)`` is enumerated as two nested
    binders: that leading run is tested once per element a of A, once B
    is known to have an element, and a failing a skips all of its pairs;
    the rest of F is tested once per pair.  Conjuncts are tested in
    source order, short-circuiting, so the elements, their order and any
    error are those of testing the whole F at every pair."""
    env = env or {}
    budget = element_budget(budget)
    match t:
        case PropType(f):  # first: the case inhabitation search meets most
            if eval_formula(st, f, env, budget):
                yield StarV()
        case Base(name):
            yield from st.carrier(name)
        case Zero():
            return
        case Unit():
            yield StarV()
        case Prop():
            yield from PROP_SET
        case Coproduct(a, b):
            for va in iter_type(st, a, env, budget):
                yield InlV(va)
            for vb in iter_type(st, b, env, budget):
                yield InrV(vb)
        case Pi(x, dom_t, cod_t):
            dom = list(_elements(st, dom_t, env, budget))
            if x not in free_vars(cod_t):
                outputs = _product((iter_type(st, cod_t, env, budget),), len(dom))
                for combo in outputs:
                    yield TableV(tuple(zip(dom, combo)))
            else:
                fibers = (iter_type(st, cod_t, {**env, x: v}, budget) for v in dom)
                for combo in _product(fibers):
                    yield SectionV(tuple(zip(dom, combo)))
        case Sigma(x, a, b) if x not in free_vars(b):  # a product
            for va, vb in _product((iter_type(st, a, env, budget),
                                    iter_type(st, b, env, budget))):
                yield PairV(va, vb)
        case Sigma(x, pair_type, PropType()) if (
                split := _first_component_split(t)) is not None:
            # the leading conjuncts read only the pair's first component:
            # tested once per first component, and the rest once per pair
            lead, rest = split
            if type_size(st, pair_type, env, budget) > budget:
                raise _over_budget(budget)

            def tested(a, seconds):  # the pairs at which the rest holds
                for b in seconds:
                    v = PairV(a, b)
                    if rest is None or eval_formula(st, rest, {**env, x: v},
                                                    budget):
                        yield PairV(v, StarV())

            firsts = iter_type(st, pair_type.index_type, env, budget)
            seconds = iter_type(st, pair_type.body, env, budget)
            a = next(firsts, None)
            b = None if a is None else next(seconds, None)
            if b is None:
                return
            # as in _product, the first pair is tested before either
            # factor is enumerated past its first element
            holds = eval_formula(st, lead, {**env, x: PairV(a, b)}, budget)
            if holds:
                yield from tested(a, (b,))
            others, seconds = list(firsts), [b, *seconds]
            if holds:
                yield from tested(a, seconds[1:])
            for a in others:
                if eval_formula(st, lead, {**env, x: PairV(a, b)}, budget):
                    yield from tested(a, seconds)
        case Sigma(x, index_type, body):
            for v in _elements(st, index_type, env, budget):
                for w in iter_type(st, body, {**env, x: v}, budget):
                    yield PairV(v, w)
        case W():
            # The leaves are the trees of depth one.  With a branching
            # label besides, every tree can be grown again, without end.
            leaves = branches = False
            for label, leaf in _tree_labels(st, t, env, budget):
                if leaf:
                    leaves = True
                    yield TreeV(label, ())
                else:
                    branches = True
            if leaves and branches:
                raise BudgetError(f"tree type {show(t)} has infinitely many trees")
        case FamApp(_, _):
            yield from _family_set(st, t, env, budget)
        case _:
            raise StructureError(f"cannot enumerate {show(t)}")


def _tree_labels(st: Structure, t: W, env: Env,
                 budget: int) -> Iterator[tuple[Value, bool]]:
    """Each label of a tree type in order, with whether its arity is
    empty, so that it labels a leaf."""
    for label in _elements(st, t.label_type, env, budget):
        arity = iter_type(st, t.arity_body, {**env, t.binder: label}, budget)
        yield label, next(arity, None) is None


def _first_component_split(t: Sigma) -> Optional[tuple[Term, Optional[Term]]]:
    """For ``(sigma (q P) (prop F))`` with P a pair type: F's conjuncts,
    in source order, split into the leading run in which q is free only
    as ``(pr1 q)`` and the rest (None when there is none), each as one
    conjunction; None when no conjunct leads so.  Kept on the node."""
    split = t.__dict__.get("_first_component_split", _UNBUILT)
    if split is _UNBUILT:
        split = None
        q, pair_type, body = t.binder, t.index_type, t.body
        if (isinstance(pair_type, Sigma) and isinstance(body, PropType)
                and pair_type.binder not in free_vars(pair_type.body)):
            conjuncts = _conjuncts(body.prop)
            k = 0
            while k < len(conjuncts) and _reads_only_first(conjuncts[k], q):
                k += 1
            if k:
                rest = conjuncts[k:]
                split = (reduce(And, conjuncts[:k]),
                         reduce(And, rest) if rest else None)
        _set(t, "_first_component_split", split)
    return split


def _conjuncts(f: Term) -> list[Term]:
    if isinstance(f, And):
        return [*_conjuncts(f.left), *_conjuncts(f.right)]
    return [f]


def _reads_only_first(node: Node, q: str) -> bool:
    """Whether ``q`` is free in the node only as ``(pr1 q)``."""
    if q not in free_vars(node):
        return True
    if isinstance(node, Proj1) and node.pair == Var(q):
        return True
    if isinstance(node, Var):
        return False
    # a binder of q hides it in its scope, so only its type can read q
    children = (_fields(node)[1],) if (
        isinstance(node, _Binding) and node.binder == q) else _children(node)
    return all(_reads_only_first(child, q) for child in children)


def interpret_type(st: Structure, t: TypeExpr, env: Optional[Env] = None,
                   budget: Optional[int] = None) -> FinSet:
    """Materialize the interpretation as a finite set (budget-checked)."""
    return FinSet(tuple(_elements(st, t, env or {}, element_budget(budget))))


def _family_set(st: Structure, t: FamApp, env: Env, budget: int) -> FinSet:
    sym = st.signature.fun(t.name)
    table = st.fun_tables.get(t.name)
    if sym is None or not sym.is_family or table is None:
        raise StructureError(f"no table for type family {t.name!r}")
    key = tuple(eval_term(st, a, env, budget) for a in t.args)
    try:
        return table[key]
    except KeyError:
        raise StructureError(
            f"family table {t.name!r} has no entry for "
            f"{tuple(map(st.render, key))}") from None


def value_in_type(st: Structure, v: Value, t: TypeExpr,
                  env: Optional[Env] = None,
                  budget: Optional[int] = None) -> bool:
    """Semantic typing: does the value lie in the interpretation?  Checks
    table-like values entrywise without materializing function spaces."""
    env = env or {}
    budget = element_budget(budget)
    match t:
        case Base(name):
            return v in st.carrier(name)
        case Zero():
            return False
        case Unit():
            return v == StarV()
        case Prop():
            return isinstance(v, TruthV)
        case Coproduct(a, b):
            if isinstance(v, InlV):
                return value_in_type(st, v.value, a, env, budget)
            if isinstance(v, InrV):
                return value_in_type(st, v.value, b, env, budget)
            return False
        case Pi(x, dom_t, cod_t):
            # a table and a section with the same entries are one function
            if not isinstance(v, _Tabular):
                return False
            # sized first: a table of the wrong length is refused, and an
            # empty domain taken as one, without enumerating the domain;
            # no finite table is total on an infinite domain
            try:
                size = type_size(st, dom_t, env, budget)
            except BudgetError as err:
                try:
                    size = _cardinality(st, dom_t, env, budget)
                except BudgetError:
                    raise err from None
            if min(len(v.entries), budget + 1) != size:
                return False
            if size > budget:
                raise _over_budget(budget)
            dom = tuple(iter_type(st, dom_t, env, budget)) if size else ()
            return v.domain_values() == dom and all(
                value_in_type(st, out, cod_t, {**env, x: arg}, budget)
                for arg, out in v.entries)
        case Sigma(x, index_type, body):
            return (isinstance(v, PairV)
                    and value_in_type(st, v.first, index_type, env, budget)
                    and value_in_type(st, v.second, body,
                                      {**env, x: v.first}, budget))
        case W(x, label_type, arity_body):
            # depth first, in branch order, on an explicit stack: a tree
            # may be deeper than Python's recursion limit
            pending = [v]
            while pending:
                tree = pending.pop()
                if not isinstance(tree, TreeV):
                    return False
                if not value_in_type(st, tree.label, label_type, env, budget):
                    return False
                arity = list(_elements(st, arity_body, {**env, x: tree.label},
                                       budget))
                if len(tree.branches) != len(arity):
                    return False
                pending.extend(reversed(tree.branches))
            return True
        case FamApp(_, _):
            return v in _family_set(st, t, env, budget)
        case PropType(f):
            return v == StarV() and eval_formula(st, f, env, budget)
    return False


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------
#
# A checked term or formula is compiled once into nested closures
# (Feeley & Lapalme, "Using closures for code generation", 1987), which
# are kept on the node.  Every closure takes one frame: a list holding
# the structure, the budget, and then one slot per variable.  The
# compiler resolves each variable to its slot, and each binder writes
# its own slot in place; a name that no binder or environment provides
# is read as the constant ``(name)``, so a variable shadows a constant
# of the same name.  The closures do at run time what evaluation does,
# in the same order: a table, a constant or a domain is looked up, and
# the budget checked, only when its branch is reached, so a branch that
# short-circuits never fails.  A closed lambda or formula term is
# compiled on its own and keeps the value it last computed, with the
# structure it computed it in.
#
# Checks that hold for a whole frame are decided once, when the frame is
# built (binding-time specialisation: Jones, Gomard & Sestoft, "Partial
# Evaluation and Automatic Program Generation", 1993).  A compiled node
# knows which slots hold atoms of a base type's carrier: a quantifier's
# or lambda's binder over a base type, and, in a node compiled for a
# context (``counterexample``), a context entry of base type; the values
# of an environment are of no known type.  A symbol of at most two
# arguments, each such a slot or such a symbol, is a typed site with a
# slot of its own, read as ``rows[a.index][b.index]`` with no check; so
# is every constant.  ``_frame`` writes each site's typed reads
# (``Structure._typed_of``) into its slot when the symbol's domain
# carriers are those the site's arguments are drawn from, and None
# otherwise; a site that finds None takes ``_symbol``'s key lookup,
# which gives every error.

_STRUCTURE, _BUDGET, _FIRST_SLOT = 0, 1, 2

Frame = list
Code = Callable[[Frame], Value]


def eval_term(st: Structure, term: Term, env: Optional[Env] = None,
              budget: Optional[int] = None) -> Value:
    """Compositional evaluation of a checked term."""
    return _run(st, term, False, env, budget)


def eval_formula(st: Structure, f: Term, env: Optional[Env] = None,
                 budget: Optional[int] = None) -> bool:
    """Two-valued semantics; quantifiers enumerate the bound type."""
    return _run(st, f, True, env, budget)


def _run(st: Structure, node: Node, is_formula: bool, env: Optional[Env],
         budget: Optional[int]):
    """Evaluate a node compiled for its environment's names as given, so
    each shape of environment (the same names in the same order) compiles
    it once; a binder in the node still shadows a name."""
    env = env or {}
    run, size, sites = _compiled(node, is_formula, tuple(env))
    return run(_frame(st, element_budget(budget), env.values(), size, sites))


def _frame(st: Structure, budget: int, values: Iterable, size: int,
           sites: tuple[Site, ...] = ()) -> Frame:
    """A frame of ``size`` slots: the structure, the budget, then
    ``values``.  Each typed site's slot holds the symbol's typed reads
    when the symbol's domain carriers are those its arguments are drawn
    from: a typed slot's carrier, or the codomain of an inner site that
    has its reads.  Any other site keeps None, and so does every site
    that reads it."""
    frame = [st, budget, *values]
    frame += [None] * (size - len(frame))
    if sites:
        codomains: dict[int, str] = {}  # the sites filled, by slot
        for site, head, sources in sites:
            typed = st._typed.get(head)
            if typed is _UNBUILT:
                typed = st._typed_of(head)
            if typed is not None:
                reads, domain, codomain = typed
                if tuple(codomains.get(s) if s.__class__ is int else s
                         for s in sources) == domain:
                    frame[site] = reads
                    codomains[site] = codomain
    return frame


Site = tuple[int, str, tuple[Union[str, int], ...]]


class _Layout:
    """What compiling one node lays out in its frame: ``size``, which
    every binder and typed site grows by one; ``carriers``, the carrier
    of each slot known to hold an atom of it; and ``sites``, each
    typed site as ``(slot, symbol, arguments)``, an argument given as
    its slot's carrier or as the slot of the site it reads, inner sites
    first."""

    __slots__ = ("size", "carriers", "sites")

    def __init__(self, size: int, carriers: dict[int, str]) -> None:
        self.size, self.carriers, self.sites = size, carriers, []

    def slot(self) -> int:
        self.size += 1
        return self.size - 1


def _compiled(node: Node, is_formula: bool, scope: tuple[str, ...],
              carriers: tuple[Optional[str], ...] = ()
              ) -> tuple[Code, int, tuple[Site, ...]]:
    """The node's closure with the names of ``scope`` in the first slots
    (of a name given twice, the later one), its frame size and its typed
    sites; kept on the node, per scope, which may name what it never reads.
    ``carriers`` gives the base type of each scope slot known to hold an
    atom of its carrier, or None for any other; a scope slot past its
    end, such as an environment's, is typed by nothing."""
    codes = node.__dict__.get("_compiled")
    if codes is None:
        codes = {}
        object.__setattr__(node, "_compiled", codes)
    key = (is_formula, scope, carriers)
    code = codes.get(key)
    if code is None:
        slots = {name: i for i, name in enumerate(scope, _FIRST_SLOT)}
        layout = _Layout(_FIRST_SLOT + len(scope), {
            i: c for i, c in enumerate(carriers, _FIRST_SLOT) if c is not None})
        run = (_formula if is_formula else _term)(node, slots, layout)
        code = codes[key] = (run, layout.size, tuple(layout.sites))
    return code


def _bind(x: str, t: TypeExpr, slots: dict[str, int],
          layout: _Layout) -> tuple[int, dict[str, int]]:
    """A new slot for a binder over type ``t``, and the slots of its
    scope."""
    slot = layout.slot()
    if isinstance(t, Base):
        layout.carriers[slot] = t.name
    return slot, {**slots, x: slot}


def _term(t: Term, slots: dict[str, int], layout: _Layout) -> Code:
    """Compile a term under ``slots`` (the slot of each name in scope)
    into the frame ``layout``."""
    match t:
        case Var(_) | App(str(), _):
            return _sourced(t, slots, layout)[0]
        case App(head, args):
            function = _term(head, slots, layout)
            arguments = [_term(a, slots, layout) for a in args]

            def application(fr):
                value = function(fr)
                for argument in arguments:
                    if not isinstance(value, _Tabular):
                        raise StructureError("application of a non-table value")
                    value = value.apply(argument(fr))
                return value
            return application
        case Pair(a, b):
            first, second = _term(a, slots, layout), _term(b, slots, layout)
            return lambda fr: PairV(first(fr), second(fr))
        case Proj1(p) | Proj2(p):
            pair = _term(p, slots, layout)
            side = "first" if isinstance(t, Proj1) else "second"

            def projection(fr):
                v = pair(fr)
                if not isinstance(v, PairV):
                    raise StructureError(f"{side} projection of a non-pair value")
                return getattr(v, side)
            return projection
        case Inl(v) | Inr(v):
            inner = _term(v, slots, layout)
            injection = InlV if isinstance(t, Inl) else InrV
            return lambda fr: injection(inner(fr))
        case Lambda() if not free_vars(t):
            return _lifted(t)
        case Lambda(x, annot, body):
            return _lambda(x, annot, body, slots, layout)
        case Star():
            return lambda fr: StarV()
        case Sup(l, b):
            label, branches = _term(l, slots, layout), _term(b, slots, layout)

            def tree(fr):
                label_v = label(fr)
                branch_v = branches(fr)
                if not isinstance(branch_v, _Tabular):
                    raise StructureError("sup branches must evaluate to a table")
                return TreeV(label_v, tuple(out for _, out in branch_v.entries))
            return tree
        case Absurd(_):
            return _failing("evaluated a term of the empty type")
    if isinstance(t, FORMULAS):  # a formula in term position: its truth value
        if free_vars(t):
            return _truth(_formula(t, slots, layout))
        return _lifted(t)
    return _failing(f"not a term: {t!r}")


def _formula(f: Term, slots: dict[str, int],
             layout: _Layout) -> Callable[[Frame], bool]:
    """Compile a formula, as ``_term`` compiles a term, to its test; a
    term that is no formula node tests its value."""
    match f:
        case RelAtom(name, args):
            arguments = _tuple_of([_term(a, slots, layout) for a in args])

            def relation(fr):
                table = fr[_STRUCTURE].rel_tables.get(name)
                if table is None:
                    raise StructureError(f"no table for relation {name!r}")
                return arguments(fr) in table
            return relation
        case Eq(_, lhs, rhs):
            left, right = _term(lhs, slots, layout), _term(rhs, slots, layout)
            return lambda fr: left(fr) == right(fr)
        case Member(e, p):
            element = _term(e, slots, layout)
            predicate = _term(p, slots, layout)

            def member(fr):
                pred = predicate(fr)
                if not isinstance(pred, _Tabular):
                    raise StructureError("membership predicate is not a table")
                return pred.apply(element(fr)) == TRUE
            return member
        case Top():
            return lambda fr: True
        case Bottom():
            return lambda fr: False
        case And(l, r):
            left = _formula(l, slots, layout)
            right = _formula(r, slots, layout)
            return lambda fr: left(fr) and right(fr)
        case Or(l, r):
            left = _formula(l, slots, layout)
            right = _formula(r, slots, layout)
            return lambda fr: left(fr) or right(fr)
        case Implies(l, r):
            left = _formula(l, slots, layout)
            right = _formula(r, slots, layout)
            return lambda fr: (not left(fr)) or right(fr)
        case Not(b):
            body = _formula(b, slots, layout)
            return lambda fr: not body(fr)
        case Forall(x, t, b) | Exists(x, t, b):
            domain = _domain(t, slots)
            slot, inner = _bind(x, t, slots, layout)
            body = _formula(b, inner, layout)
            if isinstance(f, Forall):
                def forall(fr):
                    for v in domain(fr):
                        fr[slot] = v
                        if not body(fr):
                            return False
                    return True
                return forall

            def exists(fr):
                for v in domain(fr):
                    fr[slot] = v
                    if body(fr):
                        return True
                return False
            return exists
    value = _term(f, slots, layout)
    return lambda fr: value(fr) == TRUE


def _sourced(t: Term, slots: dict[str, int],
             layout: _Layout) -> tuple[Code, Optional[Union[str, int]]]:
    """Compile a term, with where a typed site can read it: the carrier
    of the typed slot it reads, the slot of the typed site it is, or
    None.  A name that no binder or environment provides is read as the
    constant ``(name)`` once it is found to be a constant, so a variable
    shadows a constant of the same name; a constant, and a symbol of at
    most two arguments each of which a typed site can read, is a typed
    site of its own."""
    # class tests, not a match: a goal built per query is compiled per query
    if isinstance(t, Var):
        name, slot = t.name, slots.get(t.name)
        if slot is not None:
            return itemgetter(slot), layout.carriers.get(slot)
        read = _symbol(name, [])

        def constant(fr):
            sym = fr[_STRUCTURE].signature.fun(name)
            if sym is None or not sym.is_constant:
                raise StructureError(f"unbound variable {name!r} at evaluation")
            return read(fr)
        return _site(name, [], [], constant, layout)
    if isinstance(t, App) and isinstance(t.head, str):
        parts, sources = [], []
        for a in t.args:
            part, source = _sourced(a, slots, layout)
            parts.append(part)
            sources.append(source)
        return _site(t.head, parts, sources, _symbol(t.head, parts), layout)
    return _term(t, slots, layout), None


def _site(head: str, parts: list[Code], sources: list, checked: Code,
          layout: _Layout) -> tuple[Code, Optional[int]]:
    """A symbol read, as a typed site when it has at most two arguments
    and every argument has a source, with the site's slot; else
    ``checked`` and None."""
    if len(parts) > 2 or None in sources:
        return checked, None
    site = layout.slot()
    layout.sites.append((site, head, tuple(sources)))
    return _typed_symbol(site, parts, checked), site


def _typed_symbol(site: int, parts: list[Code], checked: Code) -> Code:
    """A typed site: the value its frame slot's reads give at the
    arguments' indices, or ``checked``'s when the slot holds None."""
    if not parts:
        def typed(fr):
            value = fr[site]
            return checked(fr) if value is None else value
        return typed
    if len(parts) == 1:
        (only,) = parts

        def typed(fr):
            flat = fr[site]
            return checked(fr) if flat is None else flat[only(fr).index]
        return typed
    first, second = parts

    def typed(fr):
        rows = fr[site]
        if rows is None:
            return checked(fr)
        return rows[first(fr).index][second(fr).index]
    return typed


def _symbol(head: str, parts: list[Code]) -> Code:
    """A function symbol applied to arguments, read by key: the path of
    every symbol outside a typed site, and of a typed site whose frame
    holds no reads.  The table is looked up before any argument is
    evaluated, so a missing table is reported first.  Symbols of arity
    0, 1 and 2 are written out: a call per lookup, or a list
    comprehension before Python 3.12, would cost more than the read."""

    def missing(st: Structure, key: tuple):
        raise StructureError(
            f"table for {head!r} has no entry for "
            f"{tuple(map(st.render, key))}") from None

    if not parts:
        def symbol(fr):
            st = fr[_STRUCTURE]
            table = st.fun_tables.get(head)
            if table is None:
                raise StructureError(f"no table for symbol {head!r}")
            try:
                return table[()]
            except KeyError:
                missing(st, ())
        return symbol
    if len(parts) == 1:
        (only,) = parts

        def symbol(fr):
            st = fr[_STRUCTURE]
            table = st.fun_tables.get(head)
            if table is None:
                raise StructureError(f"no table for symbol {head!r}")
            key = (only(fr),)
            try:
                return table[key]
            except KeyError:
                missing(st, key)
        return symbol
    if len(parts) == 2:
        first, second = parts

        def symbol(fr):
            st = fr[_STRUCTURE]
            table = st.fun_tables.get(head)
            if table is None:
                raise StructureError(f"no table for symbol {head!r}")
            key = (first(fr), second(fr))
            try:
                return table[key]
            except KeyError:
                missing(st, key)
        return symbol
    arguments = _tuple_of(parts)

    def symbol(fr):
        st = fr[_STRUCTURE]
        table = st.fun_tables.get(head)
        if table is None:
            raise StructureError(f"no table for symbol {head!r}")
        key = arguments(fr)
        try:
            return table[key]
        except KeyError:
            missing(st, key)
    return symbol


def _tuple_of(parts: list[Code]) -> Callable[[Frame], tuple]:
    """The argument tuple of a symbol or relation.  Unary and binary
    symbols build theirs without a list comprehension, which costs a
    function call per lookup before Python 3.12."""
    if len(parts) == 1:
        (only,) = parts
        return lambda fr: (only(fr),)
    if len(parts) == 2:
        first, second = parts
        return lambda fr: (first(fr), second(fr))
    return lambda fr: tuple([part(fr) for part in parts])


def _lambda(x: str, annot: TypeExpr, body: Term, slots: dict[str, int],
            layout: _Layout) -> Code:
    domain = _domain(annot, slots)
    slot, inner = _bind(x, annot, slots, layout)
    value = _term(body, inner, layout)

    def table(fr):
        entries = []
        for v in domain(fr):
            fr[slot] = v
            entries.append((v, value(fr)))
        return TableV(tuple(entries))
    return table


def _truth(test: Callable[[Frame], bool]) -> Code:
    return lambda fr: TRUE if test(fr) else FALSE


def _lifted(t: Term) -> Code:
    """A closed lambda or formula in term position, compiled once on its
    own.  It evaluates the same under every environment, so it keeps its
    last structure and value, and the structure holds nothing."""
    run = t.__dict__.get("_lifted")
    if run is None:
        layout = _Layout(_FIRST_SLOT, {})
        if isinstance(t, Lambda):
            inner = _lambda(t.binder, t.annot, t.body, {}, layout)
        else:
            inner = _truth(_formula(t, {}, layout))
        size, sites = layout.size, tuple(layout.sites)
        last: list = [None, None]  # structure, value

        def run(fr):
            st = fr[_STRUCTURE]
            if last[0] is not st:
                last[:] = st, inner(_frame(st, fr[_BUDGET], [], size, sites))
            return last[1]
        object.__setattr__(t, "_lifted", run)
    return run


def _failing(message: str) -> Code:
    def fail(fr):
        raise StructureError(message)
    return fail


def _domain(t: TypeExpr,
            slots: dict[str, int]) -> Callable[[Frame], Iterable[Value]]:
    """Compile the enumeration of a bound variable's type: ``_elements``
    with the type's free variables read from their slots."""
    names = [(name, slots[name]) for name in sorted(free_vars(t))
             if name in slots]
    return lambda fr: _elements(
        fr[_STRUCTURE], t, {name: fr[i] for name, i in names}, fr[_BUDGET])


def all_environments(st: Structure, ctx: Context,
                     budget: Optional[int] = None) -> Iterator[Env]:
    """Every assignment of values to the context's telescope, in
    canonical order."""
    budget = element_budget(budget)
    names = ctx.names()
    frame = _frame(st, budget, [], _FIRST_SLOT + len(names))
    for _ in _assignments(ctx, frame):
        yield dict(zip(names, frame[_FIRST_SLOT:]))


def _assignments(ctx: Context, frame: Frame) -> Iterator[None]:
    """Write each assignment to the context's telescope, in canonical
    order, into the frame's first slots, and yield after each.  An
    entry's type is enumerated afresh for every assignment to the
    entries before it, which the type may mention.  One iterator per
    entry on a list, not one recursion, so any length of context runs."""
    domains = ctx.__dict__.get("_domains")
    if domains is None:
        domains, slots = [], {}
        for slot, (name, t) in enumerate(ctx.entries, _FIRST_SLOT):
            domains.append(_domain(t, slots))
            slots = {**slots, name: slot}
        object.__setattr__(ctx, "_domains", domains)
    if not domains:
        yield
        return
    last = len(domains) - 1
    pending = [iter(domains[0](frame))]  # one iterator per bound entry
    while pending:
        depth = len(pending) - 1
        if depth == last:
            slot = _FIRST_SLOT + depth
            for v in pending.pop():
                frame[slot] = v
                yield
            continue
        v = next(pending[-1], _END)
        if v is _END:
            pending.pop()
        else:
            frame[_FIRST_SLOT + depth] = v
            pending.append(iter(domains[depth + 1](frame)))


_END = object()


def counterexample(st: Structure, ctx: Context, f: Term,
                   budget: Optional[int] = None
                   ) -> Optional[tuple[tuple[str, Value], ...]]:
    """The first assignment to the context, in canonical order, under
    which the formula is false, as (name, value) pairs in context order;
    None when the formula holds under every assignment."""
    budget = element_budget(budget)
    names = ctx.names()
    run, frame, _ = _prepared(st, ctx, f, budget)
    for _ in _assignments(ctx, frame):
        if not run(frame):
            slots = {name: i for i, name in enumerate(names, _FIRST_SLOT)}
            return tuple((name, frame[slots[name]]) for name in names)
    return None


def _prepared(st: Structure, ctx: Context, f: Term, budget: int
              ) -> tuple[Callable[[Frame], bool], Frame, tuple[Site, ...]]:
    """The formula compiled for the context, a frame for it with its
    typed sites filled (see ``_frame``), and its typed sites."""
    carriers = tuple(t.name if isinstance(t, Base) else None
                     for _, t in ctx.entries)
    run, size, sites = _compiled(f, True, ctx.names(), carriers)
    return run, _frame(st, budget, [], size, sites), sites


def derivable(st: Structure, ctx: Context, f: Term,
              budget: Optional[int] = None) -> bool:
    """True when the formula evaluates to true under every substitution
    of the context in this model."""
    return counterexample(st, ctx, f, budget) is None


# ---------------------------------------------------------------------------
# theories
# ---------------------------------------------------------------------------

@_node
class TheoryAxiom(_Node):
    label: str
    context: Context
    formula: Term


@_node
class Theory(_Node):
    """Named axioms over one signature."""

    name: str
    signature: Signature
    axioms: tuple[TheoryAxiom, ...]

    def __init__(self, name: str, signature: Signature,
                 axioms: tuple[TheoryAxiom, ...]) -> None:
        _set(self, "name", name)
        _set(self, "signature", signature)
        _set(self, "axioms", axioms)


@_node
class AxiomResult(_Node):
    """One axiom's outcome, with the first counterexample if it failed."""

    label: str
    passed: bool
    counterexample: Optional[tuple[tuple[str, Value], ...]]

    def __init__(self, label: str, passed: bool,
                 counterexample: Optional[tuple[tuple[str, Value], ...]]) -> None:
        _set(self, "label", label)
        _set(self, "passed", passed)
        _set(self, "counterexample", counterexample)


@_node
class TheoryReport(_Node):
    theory: str
    structure: str
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self, st: Optional[Structure] = None) -> str:
        lines = []
        for r in self.results:
            if r.passed:
                lines.append(f"{r.label}: pass")
            else:
                env = " ".join(
                    f"({name} {render_value(v, st)})"
                    for name, v in (r.counterexample or ()))
                lines.append(f"{r.label}: FAIL counterexample ({env})")
        total = len(self.results)
        good = sum(1 for r in self.results if r.passed)
        lines.append(f"{total} axiom(s), {good} pass, {total - good} fail")
        return "\n".join(lines)


def check_theory(st: Structure, th: Theory, structure_name: str = "structure",
                 budget: Optional[int] = None) -> TheoryReport:
    """Evaluate every axiom under every substitution of its context,
    recording the first counterexample of each failing axiom."""
    if st.signature != th.signature:
        raise StructureError(
            f"structure is over {st.signature.name!r}, theory over "
            f"{th.signature.name!r}")
    budget = element_budget(budget)
    results = []
    for axiom in th.axioms:
        found = counterexample(st, axiom.context, axiom.formula, budget)
        results.append(AxiomResult(axiom.label, found is None, found))
    return TheoryReport(th.name, structure_name, tuple(results))


# ---------------------------------------------------------------------------
# structure homomorphisms
# ---------------------------------------------------------------------------

@_node(frozen=False, eq=False)
class StructureHom(_Node):
    """A family of maps between carriers, one per base type."""

    source: Structure
    target: Structure
    component_maps: dict[str, dict[Value, Value]]


def identity_hom(st: Structure) -> StructureHom:
    return StructureHom(st, st, {
        base: {v: v for v in st.carrier(base)}
        for base in st.signature.base_types})


def check_structure_hom(h: StructureHom,
                        budget: Optional[int] = None) -> Verdict:
    """Totality of the components, commuting squares for every function
    symbol, a fiberwise map for every type family, and preservation of
    every relation.  Compatibility with the constructors is checked at
    base types and extended componentwise through products, dependent
    sums, coproducts, trees (label by label), family members (by
    ``_moved``) and, for bijective components, function types; a
    component that is not a bijection where one is needed, a table entry
    missing in the source or the target, or a domain past the budget
    fails the check with the reason.

    A family is checked fiberwise, as a quiver hom needs: every member
    of the source fiber at ``args``, moved by ``_moved``, must lie in the
    target fiber at the moved ``args``.  No bijectivity between fibers
    is required."""
    budget = element_budget(budget)
    sig = h.source.signature
    if sig != h.target.signature:
        return Verdict.failed("source and target have different signatures")
    for base in sig.base_types:
        cmap = h.component_maps.get(base)
        if cmap is None:
            return Verdict.failed(f"component map missing for {base!r}")
        for v in h.source.carrier(base):
            if v not in cmap:
                return Verdict.failed(f"component map for {base!r} is not total")
            if cmap[v] not in h.target.carrier(base):
                return Verdict.failed(
                    f"component map for {base!r} leaves the target carrier")
    try:
        for sym in sig.fun_symbols:
            try:
                domain = h.source._domain_tuples(sym.domain, budget)
            except BudgetError:
                domain = None
            if domain is None:
                return Verdict.failed(
                    f"domain of {sym.name!r} exceeds the budget")
            source_table = h.source.fun_tables.get(sym.name, {})
            target_table = h.target.fun_tables.get(sym.name, {})
            for args in domain:
                if args not in source_table:
                    return _not_total("source", sym.name, args, h.source)
                mapped_args = tuple(
                    _transport(h, v, t, budget)
                    for v, t in zip(args, sym.domain))
                if mapped_args not in target_table:
                    return _not_total("target", sym.name, mapped_args, h.target)
                if sym.is_family:
                    fiber = target_table[mapped_args]
                    for v in source_table[args]:
                        moved = _moved(h, v)
                        if moved not in fiber:
                            shown = ", ".join(h.source.render(a) for a in args)
                            return Verdict.failed(
                                f"fiber of {sym.name!r} at ({shown}) sends "
                                f"{h.source.render(v)} to "
                                f"{h.target.render(moved)}, outside the "
                                "target fiber")
                    continue
                lhs = _transport(h, source_table[args], sym.codomain, budget)
                rhs = target_table[mapped_args]
                if lhs != rhs:
                    shown = ", ".join(h.source.render(a) for a in args)
                    return Verdict.failed(
                        f"square for {sym.name!r} fails at ({shown}): "
                        f"{h.target.render(lhs)} != {h.target.render(rhs)}")
        for rel in sig.rel_symbols:
            for tup in h.source.ordered_tuples(rel.name):
                mapped = tuple(
                    _transport(h, v, t, budget)
                    for v, t in zip(tup, rel.arity_types))
                accepted = h.target.rel_tables.get(rel.name, frozenset())
                if mapped not in accepted:
                    shown = ", ".join(h.source.render(v) for v in tup)
                    return Verdict.failed(
                        f"relation {rel.name!r} not preserved at ({shown})")
    except _NotTransported as err:
        return Verdict.failed(str(err))
    return Verdict.passed()


def _not_total(side: str, name: str, args: tuple[Value, ...],
               st: Structure) -> Verdict:
    return Verdict.failed(f"{side} table for {name!r} is not total: missing "
                          f"{tuple(map(st.render, args))}")


def _moved(h: StructureHom, v: Value) -> Value:
    """A family member moved along the components: by the component map
    of the base type whose source carrier holds it (the first in
    signature order when several do), whatever its atom tag, and as it
    is when no carrier holds it."""
    for base in h.source.signature.base_types:
        if v in h.source.carrier(base):
            return h.component_maps[base][v]
    return v


class _NotTransported(StructureError):
    """A value the components cannot carry to the target, such as a
    table along a component that is not a bijection: a failed check."""


def _transport(h: StructureHom, v: Value, t: TypeExpr, budget: int) -> Value:
    match t:
        case Base(name):
            try:
                return h.component_maps[name][v]
            except KeyError:
                raise StructureError(
                    f"component map for {name!r} is not total") from None
        case Unit() | Prop() | PropType():
            return v
        case Sigma(_, a, b):
            assert isinstance(v, PairV)
            return PairV(_transport(h, v.first, a, budget),
                         _transport(h, v.second, b, budget))
        case Coproduct(a, b):
            if isinstance(v, InlV):
                return InlV(_transport(h, v.value, a, budget))
            assert isinstance(v, InrV)
            return InrV(_transport(h, v.value, b, budget))
        case Pi(_, dom_t, cod_t):
            assert isinstance(v, _Tabular)
            moved = {
                _transport(h, arg, dom_t, budget): _transport(h, out, cod_t, budget)
                for arg, out in v.entries}
            target_dom = tuple(iter_type(h.target, dom_t, budget=budget))
            if len(moved) != len(v.entries) or set(moved) != set(target_dom):
                raise _NotTransported(
                    f"cannot transport along {show(t)}: component is not a "
                    "bijection")
            return type(v)(tuple((arg, moved[arg]) for arg in target_dom))
        case W(_, label_type, _):
            assert isinstance(v, TreeV)
            return wfold(v, lambda label, branches: TreeV(
                _transport(h, label, label_type, budget), branches))
        case FamApp(_, _):
            return _moved(h, v)
    raise _NotTransported(f"component transport not supported for {show(t)}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_value(v: Value, st=None) -> str:
    """Deterministic S-expression rendering of a semantic value.  ``st``
    may be a structure, a plain atom-tag-to-names mapping, or None."""
    match v:
        case Atom(carrier, index):
            names = st.element_names if isinstance(st, Structure) else st
            if names:
                per_carrier = names.get(carrier)
                if (per_carrier is not None and isinstance(index, int)
                        and 0 <= index < len(per_carrier)):
                    return per_carrier[index]
            return f"(atom {carrier} {index})"
        case StarV():
            return "star"
        case TruthV(b):
            return "true" if b else "false"
        case PairV(a, b):
            return f"(pair {render_value(a, st)} {render_value(b, st)})"
        case InlV(x):
            return f"(inl {render_value(x, st)})"
        case InrV(x):
            return f"(inr {render_value(x, st)})"
        case RatV(q):
            return str(q)
        case TableV(entries):
            if entries and all(isinstance(out, TruthV) for _, out in entries):
                members = " ".join(render_value(k, st)
                                   for k, out in entries if out.value)
                return f"(set {members})" if members else "(set)"
            body = " ".join(
                f"({render_value(k, st)} {render_value(out, st)})"
                for k, out in entries)
            return f"(table {body})" if entries else "(table)"
        case SectionV(entries):
            body = " ".join(
                f"({render_value(k, st)} {render_value(out, st)})"
                for k, out in entries)
            return f"(section {body})" if entries else "(section)"
        case TreeV():
            return tree_text(
                v, lambda t: f"(tree {render_value(t.label, st)}"
                + (" " if t.branches else ""), " ", lambda t: ")")
    raise StructureError(f"not a value: {v!r}")
