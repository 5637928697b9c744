"""Seeded random generators, and a call recorder, shared across the
test modules."""

from __future__ import annotations

import dataclasses
import random
import sys
from contextlib import contextmanager

from mulingua.semantics import (
    Atom, FinSet, InlV, InrV, PairV, SectionV, StarV, Structure, TableV,
    TreeV, TruthV, Value,
)
from mulingua.syntax import (
    And, App, Base, Bottom, Context, Coproduct, Eq, Exists, FamApp, Forall,
    Formula, FunSymbol, Implies, Lambda, Member, Or, Pair, Pi, Prop, PropType,
    Proj1, Proj2, RelAtom, RelSymbol, Sigma, Signature, Term, Top, TypeExpr,
    Universe, Var, W, _Node, arrow, product, substitute,
)

G = Base("G")


# The empty type, the unit type and negation, as the reader reads 0, 1
# and (not F); fresh nodes, as each read builds.
def zero() -> PropType:
    return PropType(Bottom())


def unit() -> PropType:
    return PropType(Top())


def neg(f: Term) -> Implies:
    return Implies(f, Bottom())


def random_group_element_term(rng: random.Random, ctx: Context,
                              depth: int) -> Term:
    """A term of the single group type over the group signature."""
    leaves = [App("e")] + [Var(n) for n in ctx.names()]
    if depth <= 0:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(leaves)
    if roll < 0.75:
        return App("star", (
            random_group_element_term(rng, ctx, depth - 1),
            random_group_element_term(rng, ctx, depth - 1)))
    return App("inv", (random_group_element_term(rng, ctx, depth - 1),))


def random_typed_term(rng: random.Random, ctx: Context,
                      depth: int) -> tuple[Term, TypeExpr]:
    """A well-typed term over the group signature together with its
    type; mixes group elements, pairs, and lambdas."""
    roll = rng.random()
    if depth <= 0 or roll < 0.6:
        return random_group_element_term(rng, ctx, depth), G
    if roll < 0.85:
        left, lt = random_typed_term(rng, ctx, depth - 1)
        right, rt = random_typed_term(rng, ctx, depth - 1)
        return Pair(left, right), product(lt, rt)
    binder = f"x{rng.randrange(1000)}"
    while ctx.type_of(binder) is not None:
        binder += "'"
    body = random_group_element_term(rng, ctx.extend(binder, G), depth - 1)
    return Lambda(binder, G, body), arrow(G, G)


# ---------------------------------------------------------------------------
# small relational models and random formulas over them
# ---------------------------------------------------------------------------

def tiny_signature() -> Signature:
    x = Base("X")
    return Signature(
        name="tiny",
        base_types=("X",),
        fun_symbols=(FunSymbol("f", (x,), x),),
        rel_symbols=(RelSymbol("R", (x,)), RelSymbol("S", (x, x))),
    )


def random_tiny_structure(rng: random.Random, size: int) -> Structure:
    atoms = [Atom("X", i) for i in range(size)]
    return Structure(
        signature=tiny_signature(),
        carriers={"X": FinSet(tuple(atoms))},
        fun_tables={
            "f": {(a,): rng.choice(atoms) for a in atoms} if atoms else {},
        },
        rel_tables={
            "R": frozenset((a,) for a in atoms if rng.random() < 0.5),
            "S": frozenset((a, b) for a in atoms for b in atoms
                           if rng.random() < 0.4),
        },
    )


def random_formula(rng: random.Random, vars_in_scope: list[str],
                   depth: int, fresh: list[int],
                   allow_negation: bool = True) -> Formula:
    """A closed formula when ``vars_in_scope`` is empty: quantifiers
    introduce the variables the atoms consume."""
    x = Base("X")

    def atom() -> Formula:
        if not vars_in_scope:
            return Top() if rng.random() < 0.5 else Bottom()
        def term() -> Term:
            t: Term = Var(rng.choice(vars_in_scope))
            if rng.random() < 0.35:
                t = App("f", (t,))
            return t
        roll = rng.random()
        if roll < 0.4:
            return RelAtom("R", (term(),))
        if roll < 0.6 and len(vars_in_scope) >= 1:
            return RelAtom("S", (term(), term()))
        return Eq(x, term(), term())

    if depth <= 0:
        return atom()
    roll = rng.random()
    if roll < 0.25:
        return atom()
    if roll < 0.60:
        left = random_formula(rng, vars_in_scope, depth - 1, fresh,
                              allow_negation)
        right = random_formula(rng, vars_in_scope, depth - 1, fresh,
                               allow_negation)
        ctor = rng.choice([And, Or, Implies])
        return ctor(left, right)
    if allow_negation and roll < 0.7:
        return neg(random_formula(rng, vars_in_scope, depth - 1, fresh,
                                  allow_negation))
    fresh[0] += 1
    name = f"v{fresh[0]}"
    body = random_formula(rng, vars_in_scope + [name], depth - 1, fresh,
                          allow_negation)
    ctor = Forall if rng.random() < 0.5 else Exists
    return ctor(name, x, body)


def random_closed_formula(rng: random.Random, depth: int = 4,
                          allow_negation: bool = True) -> Formula:
    return random_formula(rng, [], depth, [0], allow_negation)


# ---------------------------------------------------------------------------
# random types over a structure with a type family
# ---------------------------------------------------------------------------

def family_signature() -> Signature:
    x = Base("X")
    return Signature(
        name="fam",
        base_types=("X", "Y"),
        fun_symbols=(FunSymbol("f", (x,), x), FunSymbol("F", (x,), Universe())),
        rel_symbols=(RelSymbol("R", (x,)),),
    )


def random_family_structure(rng: random.Random) -> Structure:
    """One to three points of X, none to two of Y, and the family F
    sending each point of X to a random fiber of Y."""
    xs = [Atom("X", i) for i in range(rng.randrange(1, 4))]
    ys = [Atom("Y", i) for i in range(rng.randrange(3))]
    return Structure(
        signature=family_signature(),
        carriers={"X": FinSet(tuple(xs)), "Y": FinSet(tuple(ys))},
        fun_tables={
            "f": {(a,): rng.choice(xs) for a in xs},
            "F": {(a,): FinSet(tuple(y for y in ys if rng.random() < 0.5))
                  for a in xs},
        },
        rel_tables={"R": frozenset((a,) for a in xs if rng.random() < 0.5)},
    )


def random_type(rng: random.Random, depth: int,
                scope: tuple[str, ...] = ()) -> TypeExpr:
    """A type over ``family_signature``, closed when ``scope`` is empty;
    ``scope`` names the variables of type X bound outside.  Binders over
    X make Pi, Sigma and W dependent through the family F and through
    proposition types; a W type whose arity is empty at some labels and
    not at others has infinitely many trees."""
    x = Base("X")
    leaves = [x, Base("Y"), zero(), unit(), Prop()]
    if scope:
        leaves += [FamApp("F", (_random_x_term(rng, scope),)),
                   PropType(_random_x_formula(rng, scope, 1))]
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    roll = rng.randrange(8)
    if roll < 3:
        ctor = (product, Coproduct, arrow)[roll]
        return ctor(random_type(rng, depth - 1, scope),
                    random_type(rng, depth - 1, scope))
    if roll == 3:
        return arrow(random_type(rng, depth - 1, scope), Prop())
    binder = f"x{len(scope)}"
    if roll == 7:  # labels in X, so the arity can differ from label to label
        label = Var(binder)
        return W(binder, x, rng.choice((
            FamApp("F", (label,)), PropType(RelAtom("R", (label,))),
            random_type(rng, 0, scope + (binder,)))))
    dependent = rng.random() < 0.8
    index = x if dependent else random_type(rng, depth - 1, scope)
    inner = scope + (binder,) if dependent else scope
    ctor = (Pi, Sigma, Sigma)[roll - 4]
    return ctor(binder, index, random_type(rng, depth - 1, inner))


def _random_x_term(rng: random.Random, scope: tuple[str, ...]) -> Term:
    t: Term = Var(rng.choice(scope))
    return App("f", (t,)) if rng.random() < 0.3 else t


def _random_x_formula(rng: random.Random, scope: tuple[str, ...],
                      depth: int) -> Formula:
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        if rng.random() < 0.6:
            return RelAtom("R", (_random_x_term(rng, scope),))
        return Eq(Base("X"), _random_x_term(rng, scope),
                  _random_x_term(rng, scope))
    if roll < 0.7:
        return neg(_random_x_formula(rng, scope, depth - 1))
    binder = f"y{len(scope)}"
    ctor = Forall if rng.random() < 0.5 else Exists
    return ctor(binder, Base("X"),
                _random_x_formula(rng, scope + (binder,), depth - 1))


def random_pair_sigma(rng: random.Random) -> Sigma:
    """``(sigma (q (* A B)) (prop F))`` over ``family_signature``: F is
    one to four conjuncts, nested either way, each reading q as ``(pr1
    q)``, as ``(pr2 q)``, as both, as a whole, or not at all.  The
    factors are mostly base types, so most conjuncts evaluate, and
    ``(f (pr1 q))`` at a point of Y raises."""
    q = Var("q")
    factors = [Base("X"), Base("X"), Base("Y"), random_type(rng, 1)]
    pair_type = product(rng.choice(factors), rng.choice(factors))
    components = {"u": Proj1(q), "v": Proj2(q)}

    def conjunct() -> Formula:
        roll = rng.random()
        if roll < 0.1:
            return rng.choice((Top(), Bottom()))
        if roll < 0.2:
            return Eq(pair_type, q, q)
        scope = rng.choice((("u",), ("u",), ("v",), ("u", "v")))
        return substitute(_random_x_formula(rng, scope, 2), components)

    conjuncts = [conjunct() for _ in range(rng.randrange(1, 5))]
    while len(conjuncts) > 1:
        i = rng.randrange(len(conjuncts) - 1)
        conjuncts[i:i + 2] = [And(conjuncts[i], conjuncts[i + 1])]
    return Sigma("q", pair_type, PropType(conjuncts[0]))


# ---------------------------------------------------------------------------
# random formulas over function constants
# ---------------------------------------------------------------------------

A_TYPE, B_TYPE = Base("A"), Base("B")
# a predicate on A as the reader builds each of its three spellings,
# (power A), (-> A Prop) and (pi (x A) Prop): one type
PREDICATE_TYPES = (arrow(A_TYPE, Prop()), arrow(A_TYPE, Prop()),
                   Pi("x", A_TYPE, Prop()))
FUNCTION_CONSTANTS = dict(zip(("pw", "ar", "pi"), PREDICATE_TYPES),
                          tab=arrow(A_TYPE, B_TYPE))


def function_signature() -> Signature:
    return Signature(
        name="functions", base_types=("A", "B"),
        fun_symbols=tuple(FunSymbol(name, (), t)
                          for name, t in FUNCTION_CONSTANTS.items()))


def random_function_structure(rng: random.Random) -> Structure:
    """One to three points of A, one or two of B, a random subset of A
    for each predicate constant (the Pi one a table or a section) and a
    random table from A to B."""
    a_atoms = [Atom("A", i) for i in range(rng.randrange(1, 4))]
    b_atoms = [Atom("B", i) for i in range(rng.randrange(1, 3))]

    def subset(ctor):
        return ctor(tuple((a, TruthV(rng.random() < 0.5)) for a in a_atoms))

    return Structure(
        signature=function_signature(),
        carriers={"A": FinSet(tuple(a_atoms)), "B": FinSet(tuple(b_atoms))},
        fun_tables={
            "pw": {(): subset(TableV)},
            "ar": {(): subset(TableV)},
            "pi": {(): subset(rng.choice((TableV, SectionV)))},
            "tab": {(): TableV(tuple((a, rng.choice(b_atoms))
                                     for a in a_atoms))},
        },
    )


FUNCTION_CONTEXT = Context.of(("a", A_TYPE))


def random_function_formula(rng: random.Random, depth: int) -> Formula:
    """A formula over ``function_signature`` in ``FUNCTION_CONTEXT``
    that applies the function constants, lambdas and quantified
    functions, tests membership in them and compares them.  Each term
    is drawn for a type, but one draw in eight is for a type picked at
    random instead, so some formulas are ill-typed."""
    fresh = [0]
    types = (A_TYPE, B_TYPE, Prop(), *FUNCTION_CONSTANTS.values())

    def binder() -> str:
        fresh[0] += 1
        return f"v{fresh[0]}"

    def term(t: TypeExpr, scope: tuple, depth: int) -> Term:
        if rng.random() < 0.125:
            t = rng.choice(types)
        leaves = [Var(n) for n, u in scope if u == t] + [
            Var(n) for n, u in FUNCTION_CONSTANTS.items() if u == t]
        # A and the function types always have a leaf: the context's a,
        # or a constant
        if leaves and (depth <= 0 or t == A_TYPE or rng.random() < 0.4):
            return rng.choice(leaves)
        if t == B_TYPE:
            return App(Var("tab"), (term(A_TYPE, scope, depth - 1),))
        if t == Prop():
            if depth > 0 and rng.random() < 0.5:
                return formula(scope, depth - 1)
            return App(term(rng.choice(PREDICATE_TYPES), scope, depth - 1),
                       (term(A_TYPE, scope, depth - 1),))
        x = binder()
        cod = Prop() if t in PREDICATE_TYPES else B_TYPE
        return Lambda(x, A_TYPE, term(cod, scope + ((x, A_TYPE),), depth - 1))

    def formula(scope: tuple, depth: int) -> Formula:
        roll = rng.random()
        if depth <= 0 or roll < 0.35:
            kind = rng.randrange(3)
            if kind == 0:
                return Member(term(A_TYPE, scope, depth),
                              term(rng.choice(PREDICATE_TYPES), scope, depth))
            t = rng.choice(types) if kind == 1 else Prop()
            return Eq(t, term(t, scope, depth), term(t, scope, depth))
        if roll < 0.55:
            return rng.choice((And, Or, Implies))(formula(scope, depth - 1),
                                                  formula(scope, depth - 1))
        if roll < 0.65:
            return neg(formula(scope, depth - 1))
        x = binder()
        t = rng.choice((A_TYPE, B_TYPE) + PREDICATE_TYPES)
        return rng.choice((Forall, Exists))(
            x, t, formula(scope + ((x, t),), depth - 1))

    return formula(tuple(FUNCTION_CONTEXT), depth)


def random_prop_formula(rng: random.Random, depth: int) -> Formula:
    """A closed, well-typed formula over ``function_signature`` in which
    formulas and terms of type Prop change places: a variable of type
    Prop, or a predicate applied to an element with ``apply``, stands in
    formula position, and a formula stands in term position, as a side
    of ``(= Prop F G)`` or as a lambda's body."""
    fresh = [0]
    predicate = PREDICATE_TYPES[0]

    def binder() -> str:
        fresh[0] += 1
        return f"v{fresh[0]}"

    def bound(scope: tuple, t: TypeExpr) -> list:
        return [Var(n) for n, u in scope if u == t]

    def predicate_term(scope: tuple, depth: int) -> Term:
        if depth > 0 and rng.random() < 0.4:
            x = binder()
            return Lambda(x, A_TYPE, formula(scope + ((x, A_TYPE),), depth - 1))
        return rng.choice(bound(scope, predicate)
                          + [Var(n) for n in ("pw", "ar", "pi")])

    def formula(scope: tuple, depth: int) -> Formula:
        props, elements = bound(scope, Prop()), bound(scope, A_TYPE)
        roll = rng.random()
        if depth <= 0 or roll < 0.2:
            leaves = [lambda: rng.choice((Top(), Bottom()))]
            if props:
                leaves += [lambda: rng.choice(props)] * 2
            if elements:
                leaves += [
                    lambda: App(predicate_term(scope, depth),
                                (rng.choice(elements),)),
                    lambda: Member(rng.choice(elements),
                                   predicate_term(scope, depth))]
            return rng.choice(leaves)()
        if roll < 0.4:
            return rng.choice((And, Or, Implies))(formula(scope, depth - 1),
                                                  formula(scope, depth - 1))
        if roll < 0.5:
            return neg(formula(scope, depth - 1))
        if roll < 0.65:
            return Eq(Prop(), formula(scope, depth - 1),
                      formula(scope, depth - 1))
        x = binder()
        t = rng.choice((A_TYPE, Prop(), Prop(), predicate))
        return rng.choice((Forall, Exists))(
            x, t, formula(scope + ((x, t),), depth - 1))

    return formula((), depth)


# ---------------------------------------------------------------------------
# renaming
# ---------------------------------------------------------------------------

BINDERS = (Lambda, Pi, Sigma, W, Forall, Exists)


def rename_bound(node, renaming=None):
    """Rename every bound variable to ``<name>_r``, independently of the
    library's own traversal.  Generated names never contain '_', so the
    new names capture nothing."""
    renaming = renaming or {}
    if isinstance(node, Var):
        return Var(renaming.get(node.name, node.name))
    values = [getattr(node, f.name) for f in dataclasses.fields(node)]
    if isinstance(node, BINDERS):
        x, outer, inner = values
        return type(node)(x + "_r", rename_bound(outer, renaming),
                          rename_bound(inner, {**renaming, x: x + "_r"}))
    out = []
    for value in values:
        if isinstance(value, tuple):
            value = tuple(rename_bound(v, renaming) for v in value)
        elif isinstance(value, _Node):
            value = rename_bound(value, renaming)
        out.append(value)
    return type(node)(*out)


# ---------------------------------------------------------------------------
# semantic values
# ---------------------------------------------------------------------------

def random_value(rng: random.Random, depth: int) -> Value:
    """A value nested up to ``depth`` deep: atoms at the leaves, over
    them pairs, injections, tables, sections and trees."""
    roll = rng.randrange(8) if depth > 0 else rng.randrange(3)
    if roll == 0:
        return Atom(rng.choice(("X", "Y", "PC")), rng.randrange(-2, 13))
    if roll == 1:
        return rng.choice((StarV(), TruthV(False), TruthV(True)))
    if roll == 2:
        return Atom("v", rng.randrange(4))
    if roll in (3, 4):
        return PairV(random_value(rng, depth - 1),
                     random_value(rng, depth - 1))
    if roll == 5:
        return rng.choice((InlV, InrV))(random_value(rng, depth - 1))
    if roll == 6:
        return rng.choice((TableV, SectionV))(tuple(
            (Atom("X", i), random_value(rng, depth - 1))
            for i in range(rng.randrange(3))))
    return TreeV(random_value(rng, depth - 1), tuple(
        TreeV(random_value(rng, depth - 2), ())
        for _ in range(rng.randrange(3))))


# ---------------------------------------------------------------------------
# small quivers
# ---------------------------------------------------------------------------

def explicit_quiver(num_vertices: int, arrow_pairs):
    """A quiver from (source, target) index pairs; each arrow carries a
    globally distinct payload atom, so arrow k has payload index k."""
    from mulingua.voiceleading import ExplicitTable, vls

    verts = FinSet(tuple(Atom("v", i) for i in range(num_vertices)))
    fibers: dict = {}
    for i, (s, t) in enumerate(arrow_pairs):
        key = (Atom("v", s), Atom("v", t))
        fibers.setdefault(key, []).append(Atom("a", i))
    table = {key: FinSet(tuple(payloads)) for key, payloads in fibers.items()}
    return vls(verts, ExplicitTable(table))


# ---------------------------------------------------------------------------
# calls made
# ---------------------------------------------------------------------------

@contextmanager
def calls_into(*modules):
    """Record, in order, the name of every function of the given modules
    called inside the block, so a test can check that nothing was built."""
    files = {module.__file__ for module in modules}
    called: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            called.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield called
    finally:
        sys.setprofile(previous)
