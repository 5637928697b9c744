"""The ``.mul`` source language: declarations for signatures, theories,
structures, contexts, terms, formulas, named types, and quiver requests.

Declarations resolve strictly top-down (no forward references) against
a workspace that already holds the built-in signatures, theories, and
models, and names are unique per kind.  The naming policy lives in one
function, ``_load_declaration``, for every form in the table ``_FORMS``:
a taken name is refused before the declaration's body is read, and a
declaration is entered in its table and listed in ``Workspace.declared``
only once it is judged.  An anonymous ``(formula F)`` is named
``formulaN``, N one more than the number of formulas the workspace
holds, with ``'`` appended while that name is taken.

Signatures, theories and structures are judged as they load: a
signature's symbols must be well-formed, each axiom of a theory must be
a well-formed formula in its well-formed context over the theory's
signature, and a structure must be total, and refuses an element name,
a clause, a table entry, a set or fiber member or a relation tuple
given twice.  Contexts, terms, formulas and types name no signature, so
the verb that uses one judges it over its structure's signature.

Grammar sketch::

    (signature NAME (types T ...)
               (fun (f (A ...) B) ...)
               (rel (R (A ...)) ...))
    (theory NAME over SIG (axiom [LABEL] (ctx (x A) ...) FORMULA) ...)
    (structure NAME of SIG
               (carrier T (e ...))
               (fun f ((args) val) ...)
               (fun F ((args) (set member ...)) ...)  ; a type family
               (rel R (tuple ...) ...))
    (context NAME (x A) ...)
    (term NAME CTX TERM)          ; CTX a context name or (ctx ...)
    (formula [NAME] [CTX] FORMULA)
    (type NAME TYPEEXPR)
    (quiver NAME table STRUCT)
    (quiver NAME group-action STRUCT PITCH-TYPE ACTION-FUN)
    (quiver NAME winding MODULUS MAX-WINDING)

Types use ``(* A B)``, ``(+ A B)``, ``(-> A B)``, ``(pi (x A) B)``,
``(sigma (x A) B)``, ``(w (x A) B)``, ``(power A)``, ``(prop F)``,
``0``, ``1``, ``Prop``, and family application ``(F t ...)``; a
function symbol whose codomain is ``Type`` declares a family.  Terms
are variables, ``star``, symbol application ``(f t ...)``,
``(pair s t)``, ``(pr1 t)``, ``(pr2 t)``, ``(inl t)``, ``(inr t)``,
``(lambda (x A) t)``, ``(apply f t ...)``, ``(proj t i)``,
``(sup l b)``, ``(absurd t)``.  Formulas are the terms of type
``Prop``: ``(forall (x A) F)``, ``(exists (x A) F)``, ``(and F G)``,
``(or F G)``, ``(implies F G)``, ``(not F)``, ``(= A s t)``,
``(in t P)``, ``(rel R t ...)``, ``top``, ``bottom``, and any other
term the kernel types ``Prop``.  The reader follows ``syntax._KEYWORDS``,
the table ``show`` prints with, and the sugar ``syntax.SUGAR``:
``(-> A B)`` and ``(power A)`` read as a Pi, ``(* A B)`` as a Sigma,
and ``(formula F)`` inside a term as F.  One generic reader covers
types and terms, with ``*``, ``+``, ``->``, ``and``, ``or`` and
``implies`` also taking more than two arguments, nested to the right.
A value ``(pair s t)`` reads s against its Sigma's index type, t
against a body without the binder.

Carrier element names may be symbols or bare integers; the words
``star``, ``true``, and ``false`` are reserved for value literals.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, MutableMapping
from dataclasses import field
from fractions import Fraction
from functools import reduce
from itertools import groupby, repeat
from typing import Optional

from . import musiclib
from .diagnostics import BudgetError, StructureError
from .kernel import validate_signature
from .logic import well_formed_formula
from .records import _Node, _node
from .semantics import (
    Atom, FinSet, InlV, InrV, PairV, RatV, SectionV, StarV, Structure,
    TableV, Theory, TheoryAxiom, TreeV, TruthV, Value, interpret_type,
    render_value,
)
from .sexpr import MAX_DEPTH, SNode, Sym, parse_sexprs
from .syntax import (
    FIELD_SORTS, KEYWORD_CLASSES, And, App, Base, Context, Coproduct,
    FamApp, FunSymbol, Implies, Or, Pi, Prop, RelSymbol, Sigma,
    Signature, Term, TypeExpr, Var, W, _Binding, arrow, free_vars, product,
    show,
)
from .voiceleading import (
    GroupAction, Quiver, WindingPaths, sigma_vls_signature, vls,
    vls_of_structure,
)


class BuiltOnLookup(MutableMapping):
    """A name table whose entries start as factories.  An entry is built
    the first time it is looked up, at most once; membership, length and
    iteration see every name without building anything."""

    def __init__(self, factories: dict[str, Callable[[], object]]) -> None:
        self._factories = dict(factories)
        self._values = dict.fromkeys(factories)

    def __getitem__(self, name: str):
        if name in self._factories:
            self._values[name] = self._factories[name]()
            del self._factories[name]
        return self._values[name]

    def __setitem__(self, name: str, value) -> None:
        self._factories.pop(name, None)
        self._values[name] = value

    def __delitem__(self, name: str) -> None:
        del self._values[name]
        self._factories.pop(name, None)

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


@_node(frozen=False)
class Workspace(_Node):
    """Everything nameable, builtin or loaded from source files.
    ``declared`` records what came from files, in order."""

    signatures: MutableMapping[str, Signature] = field(default_factory=dict)
    theories: MutableMapping[str, Theory] = field(default_factory=dict)
    structures: MutableMapping[str, Structure] = field(default_factory=dict)
    contexts: MutableMapping[str, Context] = field(default_factory=dict)
    terms: MutableMapping[str, tuple[Context, Term]] = field(default_factory=dict)
    formulas: MutableMapping[str, tuple[Context, Term]] = field(
        default_factory=dict)
    types: MutableMapping[str, TypeExpr] = field(default_factory=dict)
    quivers: MutableMapping[str, Quiver] = field(default_factory=dict)
    declared: list[tuple[str, str]] = field(default_factory=list)

    def __init__(self, signatures=None, theories=None, structures=None,
                 contexts=None, terms=None, formulas=None, types=None,
                 quivers=None, declared=None) -> None:
        self.signatures = {} if signatures is None else signatures
        self.theories = {} if theories is None else theories
        self.structures = {} if structures is None else structures
        self.contexts = {} if contexts is None else contexts
        self.terms = {} if terms is None else terms
        self.formulas = {} if formulas is None else formulas
        self.types = {} if types is None else types
        self.quivers = {} if quivers is None else quivers
        self.declared = [] if declared is None else declared


# ---------------------------------------------------------------------------
# node helpers
# ---------------------------------------------------------------------------

def _sym(node: SNode, what: str = "a name") -> str:
    if not isinstance(node.value, Sym):
        raise node.error(f"expected {what}")
    return node.value.text


def _items(node: SNode, what: str = "a list") -> list[SNode]:
    if not node.is_list:
        raise node.error(f"expected {what}")
    return node.value


def _head(node: SNode) -> str:
    items = _items(node)
    if not items:
        raise node.error("empty expression")
    return _sym(items[0], "a keyword head")


def element_name(node: SNode) -> str:
    if isinstance(node.value, Sym):
        return node.value.text
    if isinstance(node.value, int):
        return str(node.value)
    raise node.error("expected an element name")


# ---------------------------------------------------------------------------
# types, terms, formulas
# ---------------------------------------------------------------------------

# One reader for the two sorts, driven by the keyword table ``show``
# prints with.  Per sort: its name in messages, what heads a list of it,
# and the classes of a symbol that is no keyword, alone and as a head.
_SORTS = {
    "TypeExpr": ("type expression", "a type constructor", Base, FamApp),
    "Term": ("term", "a term head", Var, App),
}
_NOUNS = {"TypeExpr": "type", "Term": "term", "int": "index"}
# what the forms (apply f t ...) and (rel R t ...) start with
_HEADS = {"Term": "a function term", "str": "a relation name"}
# binary forms written with two or more arguments, nested to the right
_RIGHT_NESTED = frozenset((product, Coproduct, arrow, And, Or, Implies))


def parse_type_node(node: SNode) -> TypeExpr:
    return _read(node, "TypeExpr")


def parse_term_node(node: SNode) -> Term:
    return _read(node, "Term")


def parse_formula_node(node: SNode) -> Term:
    """A formula is a term; the kernel checks that it has type Prop."""
    return _read(node, "Term")


def _read(node: SNode, sort: str):
    """Read the node as a field of a sort in ``FIELD_SORTS``."""
    v = node.value
    if sort == "int":  # checked to be a number by the caller
        return v
    if sort == "str":
        return _sym(node, _HEADS[sort])
    what, head_what, atom, head_form = _SORTS[sort]
    keywords = KEYWORD_CLASSES[sort]
    if isinstance(v, Sym):
        cls = keywords.get(v.text)
        if cls is not None and not FIELD_SORTS[cls]:
            return cls()
        return atom(v.text)
    if isinstance(v, int) and sort == "TypeExpr":
        if str(v) in keywords:  # the numerals 0 and 1
            return keywords[str(v)]()
        raise node.error(f"unexpected number {v} in type position")
    if not isinstance(v, list):
        raise node.error(f"expected a {what}")
    if not v:
        raise node.error(f"empty {what}")
    head, rest = _sym(v[0], head_what), v[1:]
    cls = keywords.get(head)
    sorts = FIELD_SORTS.get(cls)
    if not sorts:  # no keyword, or one that stands alone
        return head_form(head, tuple(map(_read, rest, repeat("Term"))))
    if cls in _RIGHT_NESTED:
        if len(rest) < 2:
            raise node.error(f"'{head}' takes at least two {_NOUNS[sort]}s")
        if len(rest) > MAX_DEPTH:  # each argument past the first nests one deeper
            raise node.error(f"'{head}' takes at most {MAX_DEPTH} {_NOUNS[sort]}s")
        parts = reversed([*map(_read, rest, repeat(sort))])
        return reduce(lambda right, left: cls(left, right), parts)
    if isinstance(cls, type) and issubclass(cls, _Binding):
        if len(rest) != 2:
            raise node.error(f"'{head}' takes a binder and a body")
        return cls(*_parse_binder(rest[0]), _read(rest[1], sorts[2]))
    if sorts[-1] == "Term...":
        if not rest:
            raise node.error(f"'{head}' takes {_HEADS[sorts[0]]}")
        return cls(_read(rest[0], sorts[0]),
                   tuple(map(_read, rest[1:], repeat("Term"))))
    if len(rest) != len(sorts) or ("int" in sorts and any(
            s == "int" and not isinstance(r.value, int)
            for r, s in zip(rest, sorts))):
        raise node.error(f"'{head}' takes {_takes(sorts)}")
    return cls(*map(_read, rest, sorts))


def _takes(sorts: tuple[str, ...]) -> str:
    """Fields in words: 'one type', 'a type and two terms', ..."""
    if len(sorts) == 1:
        return f"one {_NOUNS[sorts[0]]}"
    return " and ".join(
        f"two {_NOUNS[s]}s" if len(list(g)) == 2
        else f"{'an' if s == 'int' else 'a'} {_NOUNS[s]}"
        for s, g in groupby(sorts))


def _parse_binder(node: SNode) -> tuple[str, TypeExpr]:
    items = _items(node, "a binder (x A)")
    if len(items) != 2:
        raise node.error("a binder is written (x A)")
    return _sym(items[0], "a variable"), _read(items[1], "TypeExpr")


# ---------------------------------------------------------------------------
# values (type-directed, with explicit fallbacks)
# ---------------------------------------------------------------------------

def parse_value_node(node: SNode, expected: Optional[TypeExpr],
                     scratch: Structure) -> Value:
    v = node.value
    if isinstance(v, Fraction):
        return RatV(v)
    if isinstance(v, (Sym, int)):
        text = v.text if isinstance(v, Sym) else str(v)
        if text == "star":
            return StarV()
        if text == "true":
            return TruthV(True)
        if text == "false":
            return TruthV(False)
        if isinstance(expected, Base):
            try:
                return scratch.named_atom(expected.name, text)
            except StructureError as err:
                raise node.error(str(err)) from None
        if expected is not None:
            raise node.error(
                f"cannot resolve element {text!r} without a base type to "
                "look it up in")
        owners = _carriers_naming(scratch, text)
        if len(owners) == 1:
            return scratch.named_atom(owners[0], text)
        raise node.error(
            f"element {text!r} is named in "
            + (f"carriers {', '.join(owners)}" if owners else "no carrier")
            + "; write (atom T i) for the i-th element of carrier T")
    if isinstance(v, list):
        if not v:
            raise node.error("empty value")
        head = _sym(v[0], "a value head")
        rest = v[1:]
        match head:
            case "atom":
                if (len(rest) != 2 or not isinstance(rest[1].value, int)):
                    raise node.error("'atom' takes a carrier tag and an index")
                return Atom(_sym(rest[0], "a carrier tag"), rest[1].value)
            case "pair":
                first_t, second_t = _pair_types(expected)
                if len(rest) != 2:
                    raise node.error("'pair' takes two values")
                return PairV(parse_value_node(rest[0], first_t, scratch),
                             parse_value_node(rest[1], second_t, scratch))
            case "inl" | "inr":
                if len(rest) != 1:
                    raise node.error(f"'{head}' takes one value")
                inner_t = None
                if isinstance(expected, Coproduct):
                    inner_t = expected.left if head == "inl" else expected.right
                inner = parse_value_node(rest[0], inner_t, scratch)
                return InlV(inner) if head == "inl" else InrV(inner)
            case "set":
                domain_t = _subset_domain(node, expected)
                dom = interpret_type(scratch, domain_t)
                members = set(_distinct(
                    ((r, parse_value_node(r, domain_t, scratch)) for r in rest),
                    scratch, "a set"))
                unknown = members - set(dom)
                if unknown:
                    raise node.error("set member outside the expected domain")
                return TableV(tuple((d, TruthV(d in members)) for d in dom))
            case "table" | "section":
                entries = []
                key_t, out_t = _table_types(expected)
                for entry in rest:
                    pair = _items(entry, "a (key value) entry")
                    if len(pair) != 2:
                        raise entry.error("a table entry is (key value)")
                    entries.append((parse_value_node(pair[0], key_t, scratch),
                                    parse_value_node(pair[1], out_t, scratch)))
                if key_t is not None:
                    order = {k: i for i, k in
                             enumerate(interpret_type(scratch, key_t))}
                    entries.sort(key=lambda kv: order.get(kv[0], len(order)))
                ctor = TableV if head == "table" else SectionV
                return ctor(tuple(entries))
            case "tree":
                if not rest:
                    raise node.error("'tree' takes a label")
                label_t, tree_t = ((expected.label_type, expected)
                                   if isinstance(expected, W) else (None, None))
                label = parse_value_node(rest[0], label_t, scratch)
                branches = tuple(parse_value_node(r, tree_t, scratch)
                                 for r in rest[1:])
                if not all(isinstance(b, TreeV) for b in branches):
                    raise node.error("tree branches must be trees")
                return TreeV(label, branches)
            case _:
                raise node.error(f"unknown value head {head!r}")
    raise node.error("expected a value")


def _fiber(node: SNode, scratch: Structure, where: str) -> FinSet:
    """A family's fiber, written (set member ...): its members in the
    order written, each read with no expected type.  ``where`` names the
    fiber in the message that refuses a member given twice."""
    items = node.value if node.is_list else None
    if not items or not isinstance(items[0].value, Sym) \
            or items[0].value.text != "set":
        raise node.error("a family's fiber is written (set member ...)")
    return FinSet(_distinct(
        ((m, parse_value_node(m, None, scratch)) for m in items[1:]),
        scratch, where))


def _distinct(read: Iterable[tuple[SNode, Value | tuple[Value, ...]]],
              scratch: Structure, where: str) -> tuple:
    """The values read, in order.  A member, or a tuple of them, that
    is read a second time is refused at its second node."""
    seen: dict = {}
    for node, v in read:
        if v in seen:
            shown = (f"tuple {_tuple_text(v, scratch)}" if isinstance(v, tuple)
                     else f"member {scratch.render(v)}")
            raise node.error(f"{shown} is given twice in {where}")
        seen[v] = None
    return tuple(seen)


def _tuple_text(values: tuple[Value, ...], scratch: Structure) -> str:
    return f"({' '.join(map(scratch.render, values))})"


def _carriers_naming(st: Structure, name: str) -> list[str]:
    return [c for c, names in st.element_names.items() if name in names]


def _pair_types(expected: Optional[TypeExpr]):
    match expected:
        case Sigma(x, first, second):
            return first, None if x in free_vars(second) else second
    return None, None


def _subset_domain(node: SNode, expected: Optional[TypeExpr]) -> TypeExpr:
    match expected:
        case Pi(_, dom, Prop()):
            return dom
    raise node.error(
        "'set' values need an expected subset type (power or predicate)")


def _table_types(expected: Optional[TypeExpr]):
    match expected:
        case Pi(x, dom, cod):
            return dom, None if x in free_vars(cod) else cod
    return None, None


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------

def load_source(text: str, ws: Optional[Workspace] = None) -> Workspace:
    """Parse and resolve a source file into the workspace (a fresh one
    with the builtins when none is given)."""
    if ws is None:
        ws = builtin_workspace()
    for node in parse_sexprs(text):
        try:
            _load_declaration(node, ws)
        except BudgetError as err:
            raise node.error(f"budget exceeded: {err}") from None
    return ws


def _load_declaration(node: SNode, ws: Workspace) -> None:
    """Check a declaration's form, name it, refuse a name its table
    already holds, read and judge it, then enter it and list it in
    ``ws.declared``: a refused declaration reaches neither."""
    head = _head(node)
    if head not in _FORMS:
        raise node.error(f"unknown declaration head {head!r}")
    kind, fits, usage, read = _FORMS[head]
    items = node.value
    if not fits(items):
        raise node.error(usage)
    table = getattr(ws, kind)
    if head == "formula" and len(items) == 2:
        name = f"formula{len(table) + 1}"
        while name in table:
            name += "'"
    else:
        name = _sym(items[1], f"a {head} name")
    if name in table:
        raise node.error(f"duplicate {head} name {name!r}")
    table[name] = read(node, name, ws)
    ws.declared.append((head, name))


def _named(node: SNode, table: MutableMapping, noun: str):
    """The entry of ``table`` that the symbol at ``node`` names."""
    name = _sym(node, f"a {noun} name")
    if name not in table:
        raise node.error(f"unknown {noun} {name!r}")
    return table[name]


def _resolve_context(node: SNode, ws: Workspace) -> Context:
    if isinstance(node.value, Sym):
        return _named(node, ws.contexts, "context")
    items = _items(node, "a context")
    if not items or items[0].value != Sym("ctx"):
        raise node.error("expected (ctx (x A) ...) or a context name")
    return Context(tuple(_parse_binder(n) for n in items[1:]))


def _read_signature(node: SNode, name: str, ws: Workspace) -> Signature:
    base_types: tuple[str, ...] = ()
    fun_symbols: list[FunSymbol] = []
    rel_symbols: list[RelSymbol] = []
    for clause in node.value[2:]:
        match _head(clause):
            case "types":
                base_types += tuple(_sym(n, "a type name")
                                    for n in clause.value[1:])
            case "fun":
                for entry in clause.value[1:]:
                    parts = _items(entry, "a (f (A ...) B) entry")
                    if len(parts) != 3:
                        raise entry.error(
                            "a function symbol is (name (domain ...) codomain)")
                    fun_symbols.append(FunSymbol(
                        _sym(parts[0], "a symbol name"),
                        tuple(parse_type_node(d)
                              for d in _items(parts[1], "a domain list")),
                        parse_type_node(parts[2])))
            case "rel":
                for entry in clause.value[1:]:
                    parts = _items(entry, "an (R (A ...)) entry")
                    if len(parts) != 2:
                        raise entry.error(
                            "a relation symbol is (name (types ...))")
                    rel_symbols.append(RelSymbol(
                        _sym(parts[0], "a relation name"),
                        tuple(parse_type_node(t)
                              for t in _items(parts[1], "an arity list"))))
            case other:
                raise clause.error(f"unknown signature clause {other!r}")
    try:
        sig = Signature(name, base_types, tuple(fun_symbols), tuple(rel_symbols))
    except ValueError as err:
        raise node.error(str(err)) from None
    verdict = validate_signature(sig)
    if not verdict:
        raise node.error(verdict.reason)
    return sig


def _read_theory(node: SNode, name: str, ws: Workspace) -> Theory:
    items = node.value
    sig = _named(items[3], ws.signatures, "signature")
    axioms = []
    for clause in items[4:]:
        parts = _items(clause, "an axiom")
        if not parts or parts[0].value != Sym("axiom"):
            raise clause.error("expected (axiom [label] (ctx ...) FORMULA)")
        if len(parts) == 4:
            label = _sym(parts[1], "an axiom label")
            ctx_node, formula_node = parts[2], parts[3]
        elif len(parts) == 3:
            label = f"axiom{len(axioms) + 1}"
            ctx_node, formula_node = parts[1], parts[2]
        else:
            raise clause.error("expected (axiom [label] (ctx ...) FORMULA)")
        ctx = _resolve_context(ctx_node, ws)
        formula = parse_formula_node(formula_node)
        verdict = well_formed_formula(sig, ctx, formula)
        if not verdict:
            raise clause.error(f"axiom {label} is not well-formed over "
                               f"{items[3].value.text}: {verdict.reason}")
        axioms.append(TheoryAxiom(label, ctx, formula))
    return Theory(name, sig, tuple(axioms))


def _read_structure(node: SNode, name: str, ws: Workspace) -> Structure:
    items = node.value
    sig = _named(items[3], ws.signatures, "signature")

    carriers: dict[str, FinSet] = {}
    element_names: dict[str, tuple[str, ...]] = {}
    for clause in items[4:]:
        if _head(clause) == "carrier":
            parts = clause.value
            if len(parts) != 3:
                raise clause.error("a carrier is (carrier T (names ...))")
            tag = _sym(parts[1], "a base type name")
            if not sig.has_base(tag):
                raise parts[1].error(f"signature {items[3].value.text!r} "
                                     f"has no base type {tag!r}")
            if tag in carriers:
                raise clause.error(f"a second carrier clause for {tag!r}")
            nodes = _items(parts[2], "an element list")
            names = tuple(map(element_name, nodes))
            seen: set[str] = set()
            for n, text in zip(nodes, names):
                if text in seen:
                    raise n.error(
                        f"element {text!r} is named twice in carrier {tag!r}")
                seen.add(text)
            carriers[tag] = FinSet(tuple(
                Atom(tag, i) for i in range(len(names))))
            element_names[tag] = names
    missing = [b for b in sig.base_types if b not in carriers]
    if missing:
        raise node.error(f"missing carrier(s) for {missing}")
    scratch = Structure(sig, carriers, element_names=element_names)

    fun_tables: dict[str, dict[tuple[Value, ...], Value | FinSet]] = {}
    rel_tables: dict[str, frozenset[tuple[Value, ...]]] = {}
    for clause in items[4:]:
        match _head(clause):
            case "carrier":
                pass
            case "fun":
                parts = clause.value
                if len(parts) < 2:
                    raise clause.error("'fun' takes a function symbol")
                fname = _sym(parts[1], "a function symbol")
                sym = sig.fun(fname)
                if sym is None:
                    raise parts[1].error(f"unknown function symbol {fname!r}")
                if fname in fun_tables:
                    raise clause.error(f"a second fun clause for {fname!r}")
                table: dict[tuple[Value, ...], Value | FinSet] = {}
                for entry in parts[2:]:
                    pair = _items(entry, "an (args value) entry")
                    if len(pair) != 2:
                        raise entry.error("a table entry is ((args ...) value)")
                    arg_nodes = _items(pair[0], "an argument list")
                    if len(arg_nodes) != sym.arity:
                        raise pair[0].error(
                            f"{fname!r} takes {sym.arity} argument(s)")
                    key = tuple(
                        parse_value_node(a, d, scratch)
                        for a, d in zip(arg_nodes, sym.domain))
                    if key in table:
                        raise entry.error(f"a second entry for {fname!r} "
                                          f"at {_tuple_text(key, scratch)}")
                    if sym.is_family:
                        table[key] = _fiber(
                            pair[1], scratch, f"the fiber of {fname!r} at "
                            f"{_tuple_text(key, scratch)}")
                    else:
                        table[key] = parse_value_node(
                            pair[1], sym.codomain, scratch)
                fun_tables[fname] = table
            case "rel":
                parts = clause.value
                if len(parts) < 2:
                    raise clause.error("'rel' takes a relation symbol")
                rname = _sym(parts[1], "a relation symbol")
                rel = sig.rel(rname)
                if rel is None:
                    raise parts[1].error(f"unknown relation symbol {rname!r}")
                if rname in rel_tables:
                    raise clause.error(f"a second rel clause for {rname!r}")
                tuples = []
                for entry in parts[2:]:
                    vals = _items(entry, "a tuple")
                    if len(vals) != rel.arity:
                        raise entry.error(
                            f"{rname!r} takes {rel.arity} component(s)")
                    tuples.append((entry, tuple(
                        parse_value_node(v, t, scratch)
                        for v, t in zip(vals, rel.arity_types))))
                rel_tables[rname] = frozenset(
                    _distinct(tuples, scratch, f"relation {rname!r}"))
            case other:
                raise clause.error(f"unknown structure clause {other!r}")
    for rel in sig.rel_symbols:
        rel_tables.setdefault(rel.name, frozenset())
    st = Structure(sig, carriers, fun_tables, rel_tables, element_names)
    verdict = st.validate()
    if not verdict:
        raise node.error(verdict.reason)
    return st


# The declaration forms, by head: the Workspace table each fills, whether
# a form's items (its head first) fit it, the usage message when they do
# not, and the reader of the judged entry, given the form's node, its
# name and the workspace.  ``_load_declaration`` does the rest.
_FORMS = {
    "signature": ("signatures", lambda items: len(items) >= 2,
                  "'signature' takes a name", _read_signature),
    "theory": ("theories",
               lambda items: len(items) >= 4 and items[2].value == Sym("over"),
               "'theory' is (theory NAME over SIG (axiom ...) ...)",
               _read_theory),
    "structure": ("structures",
                  lambda items: len(items) >= 4 and items[2].value == Sym("of"),
                  "'structure' is (structure NAME of SIG ...)",
                  _read_structure),
    "context": ("contexts", lambda items: len(items) >= 2,
                "'context' takes a name",
                lambda node, name, ws: Context(
                    tuple(map(_parse_binder, node.value[2:])))),
    "term": ("terms", lambda items: len(items) == 4,
             "'term' takes a name, a context, and a term",
             lambda node, name, ws: (_resolve_context(node.value[2], ws),
                                     parse_term_node(node.value[3]))),
    # (formula F), (formula NAME F) or (formula NAME CTX F)
    "formula": ("formulas", lambda items: 2 <= len(items) <= 4,
                "'formula' takes an optional name, an optional context, "
                "and a formula",
                lambda node, name, ws: (
                    _resolve_context(node.value[2], ws)
                    if len(node.value) == 4 else Context(),
                    parse_formula_node(node.value[-1]))),
    "type": ("types", lambda items: len(items) == 3,
             "'type' takes a name and a type expression",
             lambda node, name, ws: parse_type_node(node.value[2])),
    "quiver": ("quivers", lambda items: len(items) >= 3,
               "'quiver' takes a name and a rule form",
               lambda node, name, ws: quiver_of_rule(node, node.value[2:], ws)),
}


def quiver_of_rule(node: SNode, rule: list[SNode], ws: Workspace) -> Quiver:
    """The voice-leading space of a rule: ``table STRUCT``, ``winding N
    W`` or ``group-action STRUCT PITCH-TYPE FUN``, as the items after a
    quiver's name or as a rule form ``(winding 12 1)``.  Errors in the
    rule as a whole are placed at ``node``."""
    if not rule:
        raise node.error("empty rule form")
    kind, args = _sym(rule[0], "a rule kind"), rule[1:]
    try:
        match kind:
            case "table":
                if len(args) != 1:
                    raise node.error("'table' takes a structure name")
                st = _named(args[0], ws.structures, "structure")
                q = vls_of_structure(st)
            case "group-action":
                if len(args) != 3:
                    raise node.error("'group-action' takes a structure, a "
                                     "pitch type and an action symbol")
                st = _named(args[0], ws.structures, "structure")
                pitch_type = _sym(args[1], "a base type")
                action = group_action_from(
                    st, pitch_type, _sym(args[2], "a function symbol"))
                q = vls(st.carrier(pitch_type), action)
            case "winding":
                if len(args) != 2 or not all(
                        isinstance(a.value, int) for a in args):
                    raise node.error(
                        "'winding' takes a modulus and a maximum winding")
                return _winding_quiver(args[0].value, args[1].value)
            case other:
                raise node.error(f"unknown quiver rule kind {other!r}")
    except StructureError as err:
        raise node.error(str(err)) from None
    q.element_names = dict(st.element_names)
    return q


def group_action_from(st: Structure, pitch_type: str,
                      act_name: str) -> GroupAction:
    """Project a group-with-action structure onto a plain group plus an
    action table: the structure's star/e/inv must be the group template's
    symbols on the acting type, and an action symbol must send (acting
    type, pitch type) to the pitch type.  The tables are read in place."""
    act = st.signature.fun(act_name)
    if act is None or act.arity != 2:
        raise StructureError(
            f"action symbol {act_name!r} must be binary")
    group_base = act.domain[0]
    if not isinstance(group_base, Base):
        raise StructureError("action's first argument must be a base type")
    if act.domain[1] != Base(pitch_type) or act.codomain != Base(pitch_type):
        raise StructureError(
            f"action symbol {act_name!r} must send "
            f"({group_base.name}, {pitch_type}) to {pitch_type}")
    template = musiclib.group_symbols(group_base.name)
    if tuple(st.signature.fun(f.name) for f in template) != template:
        raise StructureError(
            f"a group acting through {act_name!r} needs " + ", ".join(
                " ".join([f.name, ":", *map(show, f.domain), "->",
                          show(f.codomain)]) for f in template))
    group = Structure(
        signature=musiclib.group_signature(),
        carriers={"G": st.carrier(group_base.name)},
        fun_tables={f.name: st.fun_tables[f.name] for f in template},
        element_names=st.element_names,
    )
    return GroupAction(group, st.fun_tables[act_name])


# ---------------------------------------------------------------------------
# printing declarations back to source
# ---------------------------------------------------------------------------

def signature_to_dsl(sig: Signature) -> str:
    lines = [f"(signature {sig.name}"]
    lines.append("  (types " + " ".join(sig.base_types) + ")")
    if sig.fun_symbols:
        entries = " ".join(
            f"({f.name} ({' '.join(show(d) for d in f.domain)}) "
            f"{show(f.codomain)})"
            for f in sig.fun_symbols)
        lines.append(f"  (fun {entries})")
    if sig.rel_symbols:
        entries = " ".join(
            f"({r.name} ({' '.join(show(t) for t in r.arity_types)}))"
            for r in sig.rel_symbols)
        lines.append(f"  (rel {entries})")
    return "\n".join(lines) + ")"


def context_to_dsl(ctx: Context) -> str:
    return "(ctx " + " ".join(
        f"({name} {show(t)})" for name, t in ctx.entries) + ")"


def theory_to_dsl(th: Theory) -> str:
    lines = [f"(theory {th.name} over {th.signature.name}"]
    for axiom in th.axioms:
        lines.append(
            f"  (axiom {axiom.label} {context_to_dsl(axiom.context)} "
            f"{show(axiom.formula)})")
    return "\n".join(lines) + ")"


def structure_to_dsl(st: Structure, name: str) -> str:
    """Render a structure as a loadable declaration.  Atoms print by
    their element names, so only structures with named carriers can be
    exported faithfully; a family member whose name several carriers
    share prints as ``(atom T i)``.  A carrier whose elements are not its
    own atoms in order, such as a carrier of pitch-class sets, has no
    source form and is refused."""
    sig = st.signature
    lines = [f"(structure {name} of {sig.name}"]
    for base in sig.base_types:
        carrier = st.carrier(base)
        if carrier.elements != tuple(Atom(base, i) for i in range(len(carrier))):
            raise StructureError(
                f"carrier {base!r} cannot be written in source: its elements "
                f"are not the atoms (atom {base} 0), (atom {base} 1), ...")
        names = st.element_names.get(base)
        if names is None:
            names = tuple(str(i) for i in range(len(st.carrier(base))))
        lines.append(f"  (carrier {base} ({' '.join(names)}))")
    for sym in sig.fun_symbols:
        entries = []
        for key, out in st.fun_tables.get(sym.name, {}).items():
            args = " ".join(render_value(a, st) for a in key)
            shown = (" ".join(["(set", *(_member_text(m, st) for m in out)])
                     + ")" if sym.is_family else render_value(out, st))
            entries.append(f"(({args}) {shown})")
        lines.append(f"  (fun {sym.name} {' '.join(entries)})")
    for rel in sig.rel_symbols:
        entries = " ".join(
            f"({' '.join(render_value(v, st) for v in tup)})"
            for tup in st.ordered_tuples(rel.name))
        lines.append(f"  (rel {rel.name} {entries})")
    return "\n".join(lines) + ")"


def _member_text(v: Value, st: Structure) -> str:
    """A family member, read back with no expected type: by its element
    name when exactly one carrier has that name."""
    text = render_value(v, st)
    if isinstance(v, Atom) and len(_carriers_naming(st, text)) > 1:
        return f"(atom {v.carrier} {v.index})"
    return text


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def builtin_workspace() -> Workspace:
    """The stdlib: group and interval-system theories, cyclic models and
    falsifiers, the pitch-class structures, the dominance and
    leading-tone models, and the transposition/inversion quiver.  Each
    is built the first time its name is looked up."""
    ws = Workspace()
    ws.signatures = BuiltOnLookup({
        "group": musiclib.group_signature,
        "gis": musiclib.gis_signature,
        "music": lambda: musiclib.music_signature(12),
        "harmony": musiclib.harmony_signature,
        "dominance": musiclib.dominance_signature,
        "domfunc": musiclib.domfunc_signature,
        "vls": sigma_vls_signature,
    })
    ws.theories = BuiltOnLookup({
        "group": musiclib.make_group_theory,
        "gis": musiclib.make_gis_theory,
    })
    ws.structures = BuiltOnLookup({
        "z12": lambda: musiclib.cyclic_group_structure(12),
        "z12-sub": lambda: musiclib.subtraction_structure(12),
        "z7": lambda: musiclib.cyclic_group_structure(7),
        "trivial": musiclib.trivial_group_structure,
        "z12gis": lambda: musiclib.z_gis_structure(12),
        "z7gis": lambda: musiclib.z_gis_structure(7),
        "gis-const": lambda: musiclib.constant_int_gis(12),
        "z12music": lambda: musiclib.z_music_structure(12),
        "harm-minor": lambda: musiclib.dominance_model("harmonic_minor"),
        "nat-minor": lambda: musiclib.dominance_model("natural_minor"),
        "domfunc-harm": lambda: musiclib.domfunc_model("harmonic_minor"),
        "domfunc-empty": lambda: musiclib.domfunc_model(empty=True),
        "domfunc-adversarial": lambda: musiclib.domfunc_model(
            "harmonic_minor", drop_leading_tone_of="A"),
        "triads": musiclib.triad_model,
    })
    ws.quivers = BuiltOnLookup({
        "ti-quiver": _pitch_class_quiver,
        "winding12": lambda: _winding_quiver(12, 1),
    })
    ws.formulas = BuiltOnLookup({"dominance": musiclib.dominance_formula})
    return ws


def _pitch_class_quiver() -> Quiver:
    """The voice-leading space of the TI action on the twelve pitch
    classes, with pitch classes and TI elements named for display."""
    ti = musiclib.ti_group(12)
    q = vls(musiclib.pitch_universe(12).carrier, ti)
    q.element_names = {"PC": tuple(str(i) for i in range(12)),
                       "TI": ti.group.element_names["TI"]}
    return q


def _winding_quiver(n: int, w: int) -> Quiver:
    """The winding space on n points, atoms tagged PC named 0 to n-1.
    The rule comes first: it refuses a space past the budget before any
    point is made."""
    rule = WindingPaths(n, w)
    q = vls(FinSet(tuple(Atom("PC", i) for i in range(n))), rule)
    q.element_names = {"PC": tuple(str(i) for i in range(n))}
    return q
