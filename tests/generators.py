"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import dataclasses
import random

from mulingua.semantics import Atom, FinSet, Structure
from mulingua.syntax import (
    And, App, Arrow, Base, Bottom, Context, Eq, Exists, Forall, Formula,
    FunSymbol, Implies, Lambda, Not, Or, Pair, Pi, Product, RelAtom,
    RelSymbol, Sigma, Signature, Term, Top, TypeExpr, Var, W, _Node,
)

G = Base("G")


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
        return Pair(left, right), Product(lt, rt)
    binder = f"x{rng.randrange(1000)}"
    while ctx.type_of(binder) is not None:
        binder += "'"
    body = random_group_element_term(rng, ctx.extend(binder, G), depth - 1)
    return Lambda(binder, G, body), Arrow(G, G)


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
        return Not(random_formula(rng, vars_in_scope, depth - 1, fresh,
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
