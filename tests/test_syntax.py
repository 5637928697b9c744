"""The generic traversal over syntax nodes: rendering, alpha-invariance,
free variables, substitution, the DSL round trip, and the closed-term
value memo."""

import dataclasses
import gc
import typing
import weakref

from hypothesis import given, settings, strategies as hst

from mulingua.dsl import parse_formula_node, parse_term_node, parse_type_node
from mulingua.musiclib import z_music_structure
from mulingua.proofs import all_interval_type, inhabit
from mulingua.semantics import Atom, eval_term
from mulingua.sexpr import parse_sexprs
from mulingua.syntax import (
    Absurd, And, App, Arrow, Base, Bottom, Context, Coproduct, Eq, Exists,
    FamApp, Forall, FormulaTerm, Implies, Inl, Inr, Lambda, Member, Not, Or,
    Pair, Pi, Power, Product, Prop, PropType, Proj1, Proj2, RelAtom, Sigma,
    Star, Sup, Term, Top, TupleProj, TypeExpr, Unit, Universe, Var, W, Zero,
    _Node, alpha_key, free_vars, show, substitute,
)

from generators import random_formula, random_typed_term, rename_bound

G = Base("G")

# One instance of every node class with its rendering.
SHOWN = [
    (G, "G"),
    (Zero(), "0"),
    (Unit(), "1"),
    (Prop(), "Prop"),
    (Universe(), "Type"),
    (Product(G, Unit()), "(* G 1)"),
    (Coproduct(G, Zero()), "(+ G 0)"),
    (Arrow(G, Prop()), "(-> G Prop)"),
    (Pi("x", G, FamApp("F", (Var("x"),))), "(pi (x G) (F x))"),
    (Sigma("x", G, PropType(Top())), "(sigma (x G) (prop top))"),
    (W("l", G, FamApp("Ar", (Var("l"),))), "(w (l G) (Ar l))"),
    (Power(G), "(power G)"),
    (FamApp("F", (Var("a"), App("e"))), "(F a (e))"),
    (PropType(Bottom()), "(prop bottom)"),
    (Var("a"), "a"),
    (App("star", (Var("a"), App("inv", (Var("b"),)))), "(star a (inv b))"),
    (Pair(Var("a"), Star()), "(pair a star)"),
    (Proj1(Var("p")), "(pr1 p)"),
    (Proj2(Var("p")), "(pr2 p)"),
    (Inl(Var("a")), "(inl a)"),
    (Inr(Star()), "(inr star)"),
    (Lambda("x", G, App(Var("f"), (Var("x"),))), "(lambda (x G) (apply f x))"),
    (TupleProj(Var("t"), 2), "(proj t 2)"),
    (Sup(Var("l"), Var("b")), "(sup l b)"),
    (FormulaTerm(Member(Var("a"), Var("P"))), "(formula (in a P))"),
    (Star(), "star"),
    (Absurd(Var("z")), "(absurd z)"),
    (RelAtom("R", (Var("a"), Var("b"))), "(rel R a b)"),
    (Eq(G, Var("a"), App("e")), "(= G a (e))"),
    (Member(Var("a"), Var("P")), "(in a P)"),
    (Top(), "top"),
    (Bottom(), "bottom"),
    (And(Top(), Bottom()), "(and top bottom)"),
    (Or(Bottom(), Top()), "(or bottom top)"),
    (Implies(Top(), Not(Bottom())), "(implies top (not bottom))"),
    (Not(Top()), "(not top)"),
    (Forall("x", G, RelAtom("R", (Var("x"),))), "(forall (x G) (rel R x))"),
    (Exists("y", Arrow(G, G), RelAtom("P", ())), "(exists (y (-> G G)) (rel P))"),
]


def _node_classes(cls=_Node):
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub):
            yield sub
        yield from _node_classes(sub)


def test_show_golden_for_every_node_class():
    for node, text in SHOWN:
        assert show(node) == text


def test_golden_table_lists_every_node_class():
    listed = {type(node) for node, _ in SHOWN}
    classes = set(_node_classes())
    assert listed == classes
    assert len(classes) == 38


def test_every_golden_rendering_reads_back_to_the_same_node():
    for node, text in SHOWN:
        if isinstance(node, typing.get_args(TypeExpr)):
            parse = parse_type_node
        elif isinstance(node, typing.get_args(Term)):
            parse = parse_term_node
        else:
            parse = parse_formula_node
        (sexpr,) = parse_sexprs(text)
        back = parse(sexpr)
        assert back == node and type(back) is type(node), text
        assert alpha_key(back) == alpha_key(node)


def test_apply_with_no_arguments_and_nullary_symbols():
    assert show(App("e")) == "(e)"
    assert show(App(Var("f"))) == "(apply f)"
    assert show(RelAtom("P", ())) == "(rel P)"


# ---------------------------------------------------------------------------
# properties over the shared generators
# ---------------------------------------------------------------------------

SCOPE = Context.of(("a", G), ("b", G))


def _samples(rng):
    """A term over ``a`` and ``b`` with its type, an open formula over
    them, and that formula under a type binder, each with its parser."""
    term, ty = random_typed_term(rng, SCOPE, 4)
    formula = random_formula(rng, ["a", "b"], 4, [0])
    return ((term, parse_term_node), (ty, parse_type_node),
            (formula, parse_formula_node),
            (Sigma("s", G, PropType(formula)), parse_type_node))


@settings(max_examples=150, deadline=None)
@given(hst.randoms(use_true_random=False))
def test_renaming_bound_variables_changes_nothing(rng):
    for node, _ in _samples(rng):
        renamed = rename_bound(node)
        assert renamed == node and node == renamed
        assert hash(renamed) == hash(node)
        assert alpha_key(renamed) == alpha_key(node)
        assert free_vars(renamed) == free_vars(node)


@settings(max_examples=150, deadline=None)
@given(hst.randoms(use_true_random=False))
def test_renaming_a_free_variable_is_seen(rng):
    for node, _ in _samples(rng):
        if "a" in free_vars(node):
            moved = substitute(node, {"a": Var("fresh_a")})
            assert moved != node
            assert alpha_key(moved) != alpha_key(node)
            assert "fresh_a" in free_vars(moved)


@settings(max_examples=150, deadline=None)
@given(hst.randoms(use_true_random=False))
def test_show_parses_back_to_the_same_node(rng):
    for node, parse in _samples(rng):
        text = show(node)
        (sexpr,) = parse_sexprs(text)
        back = parse(sexpr)
        assert back == node
        assert show(back) == text


# ---------------------------------------------------------------------------
# derived data memoized on the node
# ---------------------------------------------------------------------------

def test_derived_data_is_computed_once_per_node():
    node = Forall("x", G, Eq(G, Var("x"), Var("a")))
    assert free_vars(node) is free_vars(node) == {"a"}
    assert alpha_key(node) is alpha_key(node)


def test_substitution_leaves_a_node_without_those_variables_unchanged():
    node = Lambda("x", G, Pair(Var("x"), Var("a")))
    assert substitute(node, {"b": Var("c")}) is node
    assert substitute(node, {"x": Var("c")}) is node
    out = substitute(node, {"a": Var("x")})
    assert show(out) == "(lambda (x' G) (pair x' x))"
    assert out.annot is node.annot


def test_fresh_binder_avoids_only_names_free_in_its_scope():
    node = Lambda("x", G, Pair(Var("x"), Var("a")))
    unrelated = {"a": Var("x"), "x'": Var("c"), "b": Var("x''")}
    assert show(substitute(node, unrelated)) == "(lambda (x' G) (pair x' x))"
    # the binder does not scope over its type, so a free x' there stays
    pi = Pi("x", FamApp("F", (Var("x'"),)), FamApp("F", (Var("x"), Var("a"))))
    assert show(substitute(pi, {"a": Var("x")})) == "(pi (x' (F x')) (F x' x))"


def test_all_interval_query_leaves_no_state_behind():
    st = z_music_structure(12)
    sizes = {k: len(v) for k, v in vars(st).items() if hasattr(v, "__len__")}
    goal = all_interval_type(st, [Atom("PC", p) for p in (0, 1, 4, 6)])
    predicate = goal.body.body.prop.left.left.predicate
    assert isinstance(predicate, Lambda) and not free_vars(predicate)
    ref = weakref.ref(predicate)
    assert inhabit(st, goal) is not None
    del goal, predicate
    gc.collect()
    assert ref() is None
    assert {k: len(v) for k, v in vars(st).items()
            if hasattr(v, "__len__")} == sizes


def test_closed_term_value_is_kept_per_structure():
    st = z_music_structure(12)
    moved = dataclasses.replace(
        st, fun_tables={**st.fun_tables, "p0": {(): Atom("PC", 5)}})
    pc = Base("PC")
    predicate = Lambda("p", pc, FormulaTerm(Eq(pc, Var("p"), App("p0"))))
    first = eval_term(st, predicate)
    assert eval_term(st, predicate) is first
    assert eval_term(moved, predicate) != first
    assert eval_term(st, predicate) == first
