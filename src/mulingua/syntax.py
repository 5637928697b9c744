"""Abstract syntax: signatures, type expressions, and terms.

Everything here is immutable data. The two syntactic categories are
mutually recursive: terms carry type annotations, and type expressions
may mention terms (family application, and a proposition read as the
type of its proofs).  Formulas are the terms of type ``Prop``: the
formula classes (``FORMULAS``) are term classes, and any term of type
``Prop`` stands as a formula.

Every node class is a record declared through ``records``: it derives
from ``_Node`` and names its fields in ``__match_args__``, and ``_Node``
and one constructor per field count write construction, ``repr``,
equality, hashing and frozenness once over them, so importing this
module generates no method per class.  A field holds a child node, a
tuple of child nodes, or plain data (a name or an index).
The binding forms (``Lambda``, ``Pi``, ``Sigma``, ``W``, ``Forall``,
``Exists``) all have the layout ``(binder, outer, inner)``: the bound
name, a type the binder does not scope over, and the body it does scope
over.  So ``alpha_key``, ``free_vars`` and ``substitute`` are each
written once, over the fields, with variables and binders as the only
special cases; ``show`` is one keyword table plus the bare names
(``Var``, ``Base``), the head forms (``App`` of a symbol, ``FamApp``)
and the sugar below.

There is one function type, ``Pi``, and one pair type, ``Sigma``: the
reader's sugar ``(-> A B)`` and ``(* A B)`` are a Pi and a Sigma whose
binder does not occur in B (see ``arrow`` and ``product``), ``(power A)``
is ``(-> A Prop)``, and ``show`` prints such a Pi as the arrow and such
a Sigma as the product.  Propositions are types: the empty type ``0``
is ``(prop bottom)``, the unit type ``1`` is ``(prop top)``, and the
negation ``(not F)`` is ``(implies F bottom)``; ``show`` prints them
back as ``0``, ``1`` and ``(not F)``.  The reader reads ``(formula F)``
inside a term as F itself.

Binding forms compare and hash up to renaming of their bound variable;
all other nodes are plain structural data.  ``substitute`` performs
simultaneous capture-avoiding substitution across both categories.

Data derived from a node is memoized on the frozen instance, beside its
fields: ``free_vars`` and ``alpha_key`` are computed once per node, and
the evaluator keeps a node's compiled closures, and a closed term's last
value, on the node (see ``semantics._compiled`` and
``semantics._lifted``), so derived data is freed together with the node.
The ``pr1``/``pr2`` chain that ``kernel.elaborate`` makes of a ``(proj t
i)`` keeps that source node beside its fields, and ``show`` prints it.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Iterator, Mapping, Optional, Union, get_args

from .records import _Node, _node, _set


# ---------------------------------------------------------------------------
# node classes
# ---------------------------------------------------------------------------

class _Binding(_Node):
    """Base of the nodes ``(binder, outer, inner)`` with one bound
    variable scoping over ``inner``: alpha-aware equality."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented if not isinstance(other, _Binding) else False
        return alpha_key(self) == alpha_key(other)

    def __hash__(self) -> int:
        return hash(alpha_key(self))


# -- type expressions -------------------------------------------------------

@_node
class Base(_Node):
    name: str


@_node
class Prop(_Node):
    pass


@_node
class Universe(_Node):
    """The level-1 kind of types.

    Only legal as the declared codomain of a function symbol, which turns
    that symbol into a type family; anywhere inside a level-0 type
    expression it is a level violation.
    """


@_node
class Coproduct(_Node):
    left: "TypeExpr"
    right: "TypeExpr"


@_node
class Pi(_Binding):
    binder: str
    index_type: "TypeExpr"
    body: "TypeExpr"


@_node
class Sigma(_Binding):
    binder: str
    index_type: "TypeExpr"
    body: "TypeExpr"


@_node
class W(_Binding):
    """Well-founded trees: labels drawn from ``label_type``, each label's
    branching arity given by ``arity_body`` (which may mention the binder)."""

    binder: str
    label_type: "TypeExpr"
    arity_body: "TypeExpr"


@_node
class FamApp(_Node):
    """A declared type family applied to argument terms."""

    name: str
    args: tuple["Term", ...]


@_node
class PropType(_Node):
    """A proposition read as the (sub-singleton) type of its proofs."""

    prop: "Term"


TypeExpr = Union[
    Base, Prop, Universe, Coproduct, Pi, Sigma, W, FamApp, PropType,
]


def arrow(dom: TypeExpr, cod: TypeExpr) -> Pi:
    """The function type ``(-> dom cod)``: a Pi whose binder does not
    occur in ``cod``.  The predicate type ``(power A)`` is
    ``arrow(A, Prop())``."""
    return Pi(fresh_name("_", free_vars(cod)), dom, cod)


def product(left: TypeExpr, right: TypeExpr) -> Sigma:
    """The pair type ``(* left right)``: a Sigma whose binder does not
    occur in ``right``."""
    return Sigma(fresh_name("_", free_vars(right)), left, right)


# -- terms ------------------------------------------------------------------

@_node
class Var(_Node):
    name: str


@_node
class App(_Node):
    """Application of a signature symbol (head is a name) or of a term."""

    head: Union[str, "Term"]
    args: tuple["Term", ...] = ()

    def __init__(self, head: Union[str, "Term"], args: tuple = ()) -> None:
        _set(self, "head", head)
        _set(self, "args", args)


@_node
class Pair(_Node):
    first: "Term"
    second: "Term"


@_node
class Proj1(_Node):
    pair: "Term"


@_node
class Proj2(_Node):
    pair: "Term"


@_node
class Inl(_Node):
    value: "Term"


@_node
class Inr(_Node):
    value: "Term"


@_node
class Lambda(_Binding):
    binder: str
    annot: "TypeExpr"
    body: "Term"


@_node
class TupleProj(_Node):
    """0-based projection from a right-nested product spine."""

    tuple_term: "Term"
    index: int


@_node
class Sup(_Node):
    """Tree constructor: a label plus a branch function into the same
    tree type."""

    label: "Term"
    branches: "Term"


@_node
class Star(_Node):
    pass


@_node
class Absurd(_Node):
    """Eliminate a term of the empty type at any expected type."""

    scrutinee: "Term"


# -- formulas: the terms of type Prop ----------------------------------------

@_node
class RelAtom(_Node):
    name: str
    args: tuple["Term", ...]


@_node
class Eq(_Node):
    """Typed equality of two terms."""

    type: "TypeExpr"
    lhs: "Term"
    rhs: "Term"


@_node
class Member(_Node):
    """Propositional membership: a predicate evaluated at an element."""

    element: "Term"
    predicate: "Term"


@_node
class Top(_Node):
    pass


@_node
class Bottom(_Node):
    pass


@_node
class And(_Node):
    left: "Term"
    right: "Term"


@_node
class Or(_Node):
    left: "Term"
    right: "Term"


@_node
class Implies(_Node):
    left: "Term"
    right: "Term"


@_node
class Forall(_Binding):
    binder: str
    var_type: "TypeExpr"
    body: "Term"


@_node
class Exists(_Binding):
    binder: str
    var_type: "TypeExpr"
    body: "Term"


Formula = Union[
    RelAtom, Eq, Member, Top, Bottom, And, Or, Implies, Forall, Exists,
]
FORMULAS = get_args(Formula)

Term = Union[
    Var, App, Pair, Proj1, Proj2, Inl, Inr, Lambda, TupleProj, Sup, Star,
    Absurd, Formula,
]

Node = Union[TypeExpr, Term]


# ---------------------------------------------------------------------------
# signatures and contexts
# ---------------------------------------------------------------------------

@_node
class FunSymbol(_Node):
    """A function symbol f : A1, ..., An -> B.  Arity 0 gives a constant.
    A codomain of ``Universe()`` declares a type family instead."""

    name: str
    domain: tuple[TypeExpr, ...]
    codomain: TypeExpr

    @property
    def arity(self) -> int:
        return len(self.domain)

    @property
    def is_constant(self) -> bool:
        return self.arity == 0 and not self.is_family

    @property
    def is_family(self) -> bool:
        return isinstance(self.codomain, Universe)


@_node
class RelSymbol(_Node):
    """A relation symbol R on A1, ..., An.  Arity 0 gives an atomic
    proposition."""

    name: str
    arity_types: tuple[TypeExpr, ...]

    @property
    def arity(self) -> int:
        return len(self.arity_types)


@_node
class Signature(_Node):
    """Named base types, function symbols and relation symbols, each name
    declared once."""

    name: str
    base_types: tuple[str, ...]
    fun_symbols: tuple[FunSymbol, ...] = ()
    rel_symbols: tuple[RelSymbol, ...] = ()

    def __init__(self, name: str, base_types: tuple[str, ...],
                 fun_symbols: tuple[FunSymbol, ...] = (),
                 rel_symbols: tuple[RelSymbol, ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "base_types", base_types)
        _set(self, "fun_symbols", fun_symbols)
        _set(self, "rel_symbols", rel_symbols)
        for label, names in (
            ("base type", self.base_types),
            ("function symbol", [f.name for f in self.fun_symbols]),
            ("relation symbol", [r.name for r in self.rel_symbols]),
        ):
            seen = set()
            for n in names:
                if n in seen:
                    raise ValueError(f"duplicate {label} {n!r} in signature {self.name!r}")
                seen.add(n)

    def has_base(self, name: str) -> bool:
        return name in self.base_types

    def fun(self, name: str) -> Optional[FunSymbol]:
        for f in self.fun_symbols:
            if f.name == name:
                return f
        return None

    def rel(self, name: str) -> Optional[RelSymbol]:
        for r in self.rel_symbols:
            if r.name == name:
                return r
        return None


@_node
class Context(_Node):
    """An ordered telescope of typed variables."""

    entries: tuple[tuple[str, TypeExpr], ...] = ()

    def __init__(self, entries: tuple[tuple[str, TypeExpr], ...] = ()) -> None:
        _set(self, "entries", entries)

    @staticmethod
    def of(*pairs: tuple[str, TypeExpr]) -> "Context":
        return Context(tuple(pairs))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def type_of(self, name: str) -> Optional[TypeExpr]:
        for entry_name, entry_type in reversed(self.entries):
            if entry_name == name:
                return entry_type
        return None

    def extend(self, name: str, t: TypeExpr) -> "Context":
        return Context(self.entries + ((name, t),))

    def __iter__(self) -> Iterator[tuple[str, TypeExpr]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# generic traversal
# ---------------------------------------------------------------------------

def _fields(node: Node) -> list:
    return [getattr(node, name) for name in node.__match_args__]


def _map_fields(node: Node, f: Callable) -> list:
    """The node's field values with ``f`` applied to each child node,
    inside tuples too; names and indices pass through unchanged."""
    out = []
    for value in _fields(node):
        if isinstance(value, _Node):
            value = f(value)
        elif isinstance(value, tuple):
            value = tuple(map(f, value))
        out.append(value)
    return out


def _children(node: Node) -> Iterator[Node]:
    for value in _fields(node):
        if isinstance(value, _Node):
            yield value
        elif isinstance(value, tuple):
            yield from value


# ---------------------------------------------------------------------------
# alpha-equivalence
# ---------------------------------------------------------------------------

def alpha_key(node: Node):
    """Canonical hashable rendering, memoized on the node: bound variables
    become binder depths (de Bruijn levels), free variables keep their
    names.  Two nodes are alpha-equivalent iff their keys are equal."""
    key = node.__dict__.get("_alpha_key")
    if key is None:
        key = _key(node, {}, 0)
        object.__setattr__(node, "_alpha_key", key)
    return key


def _key(node: Node, bound: dict[str, int], depth: int):
    if isinstance(node, Var):
        return (Var, bound.get(node.name, node.name))
    if isinstance(node, _Binding):
        x, outer, inner = _fields(node)
        return (type(node), _key(outer, bound, depth),
                _key(inner, {**bound, x: depth}, depth + 1))
    return (type(node), *_map_fields(node, lambda n: _key(n, bound, depth)))


def alpha_eq(a: Node, b: Node) -> bool:
    return alpha_key(a) == alpha_key(b)


# ---------------------------------------------------------------------------
# free variables and substitution
# ---------------------------------------------------------------------------

def free_vars(node: Node) -> frozenset[str]:
    """The variables free in the node, memoized on it."""
    names = node.__dict__.get("_free_vars")
    if names is None:
        if isinstance(node, Var):
            names = frozenset((node.name,))
        elif isinstance(node, _Binding):
            x, outer, inner = _fields(node)
            names = free_vars(outer) | (free_vars(inner) - {x})
        else:
            names = frozenset().union(*map(free_vars, _children(node)))
        object.__setattr__(node, "_free_vars", names)
    return names


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(node: Node, subst: Mapping[str, Term]) -> Node:
    """Simultaneous capture-avoiding substitution of terms for variables.

    Works uniformly on terms (formulas among them) and type expressions;
    bound variables are renamed when a replacement would capture them.  A
    node in which no substituted variable is free comes back unchanged.
    """
    return _substitute(node, dict(subst))


def _substitute(node: Node, s: dict[str, Term]) -> Node:
    if s.keys().isdisjoint(free_vars(node)):
        return node
    if isinstance(node, Var):
        return s[node.name]
    if isinstance(node, _Binding):
        x, outer, inner = _fields(node)
        new_x, inner_s = _under_binder(x, inner, s)
        return type(node)(new_x, _substitute(outer, s),
                          _substitute(inner, inner_s))
    return type(node)(*_map_fields(node, lambda n: _substitute(n, s)))


def _under_binder(x: str, inner: Node,
                  s: dict[str, Term]) -> tuple[str, dict[str, Term]]:
    """Restrict the substitution to the binder's scope and rename the
    binder if any replacement would capture it.  Returns the (possibly
    fresh) binder and the substitution for the scope."""
    inner_fv = free_vars(inner)
    active = {k: v for k, v in s.items() if k != x and k in inner_fv}
    if any(x in free_vars(v) for v in active.values()):
        avoid = set(inner_fv)
        for v in active.values():
            avoid |= free_vars(v)
        avoid |= set(active)
        new_x = fresh_name(x, avoid)
        active[x] = Var(new_x)
        return new_x, active
    return x, active


# ---------------------------------------------------------------------------
# rendering (S-expression style, used in diagnostics and by the DSL printer)
# ---------------------------------------------------------------------------

_KEYWORDS: dict[type, str] = {
    Prop: "Prop", Universe: "Type",
    Coproduct: "+", Pi: "pi", Sigma: "sigma", W: "w",
    PropType: "prop",
    App: "apply", Pair: "pair", Proj1: "pr1", Proj2: "pr2", Inl: "inl",
    Inr: "inr", Lambda: "lambda", TupleProj: "proj", Sup: "sup",
    Star: "star", Absurd: "absurd",
    RelAtom: "rel", Eq: "=", Member: "in", Top: "top", Bottom: "bottom",
    And: "and", Or: "or", Implies: "implies",
    Forall: "forall", Exists: "exists",
}


# The reader's sugar: keywords with no class of their own, each with the
# sort it reads as, the function that builds its node and the sorts of
# its fields.  ``(formula F)`` is F itself.  Each read builds a fresh
# node: a node keeps its compiled code, per environment shape.
SUGAR: dict[str, tuple[str, Callable[..., Node], tuple[str, ...]]] = {
    "*": ("TypeExpr", product, ("TypeExpr", "TypeExpr")),
    "->": ("TypeExpr", arrow, ("TypeExpr", "TypeExpr")),
    "power": ("TypeExpr", lambda dom: arrow(dom, Prop()), ("TypeExpr",)),
    "0": ("TypeExpr", lambda: PropType(Bottom()), ()),
    "1": ("TypeExpr", lambda: PropType(Top()), ()),
    "not": ("Term", lambda f: Implies(f, Bottom()), ("Term",)),
    "formula": ("Term", lambda f: f, ("Term",)),
}

# The keyword table and the sugar read backwards, for the ``.mul``
# reader: per class (or sugar builder) the sort of each field, from its
# annotation (``TypeExpr``, ``Term``, ``str``, ``int``, or ``Term...``
# for a tuple of terms; an application head reads as a term), and per
# sort the class of each keyword.
_ANNOTATED = {"tuple[Term, ...]": "Term...", "Union[str, Term]": "Term"}
FIELD_SORTS: dict[Callable[..., Node], tuple[str, ...]] = {
    **{cls: tuple(_ANNOTATED.get(a, a)
                  for a in (f.type.replace("'", "") for f in fields(cls)))
       for cls in get_args(Node)},
    **{build: sorts for _, build, sorts in SUGAR.values()},
}
KEYWORD_CLASSES: dict[str, dict[str, Callable[..., Node]]] = {
    sort: {**{kw: cls for cls, kw in _KEYWORDS.items() if cls in get_args(union)},
           **{kw: build for kw, (of, build, _) in SUGAR.items() if of == sort}}
    for sort, union in (("TypeExpr", TypeExpr), ("Term", Term))
}


def show(node: Node) -> str:
    source = node.__dict__.get("_source")
    if source is not None:  # an elaborated projection prints as written
        return show(source)
    match node:
        case Var(name) | Base(name):
            return name
        case App(str() as head, args) | FamApp(head, args):
            return f"({' '.join([head, *map(show, args)])})"
        case Pi(x, dom, cod) if x not in free_vars(cod):
            return f"(-> {show(dom)} {show(cod)})"
        case Sigma(x, left, right) if x not in free_vars(right):
            return f"(* {show(left)} {show(right)})"
        case PropType(Top()):
            return "1"
        case PropType(Bottom()):
            return "0"
        case Implies(f, Bottom()):
            return f"(not {show(f)})"
        case _Binding():
            x, outer, inner = _fields(node)
            return f"({_KEYWORDS[type(node)]} ({x} {show(outer)}) {show(inner)})"
    parts = [_KEYWORDS[type(node)]]
    for value in _map_fields(node, show):
        if isinstance(value, tuple):
            parts.extend(value)
        else:
            parts.append(str(value))
    return parts[0] if len(parts) == 1 else f"({' '.join(parts)})"
