"""The generic traversal over syntax nodes: rendering, alpha-invariance,
free variables, substitution, the DSL round trip, and the closed-term
value memo."""

import dataclasses
import gc
import os
import pathlib
import subprocess
import sys
import typing
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from mulingua.diagnostics import Verdict
from mulingua.dsl import (
    Workspace, parse_formula_node, parse_term_node, parse_type_node,
)
from mulingua.kernel import ContextMorphism
from mulingua.musiclib import (
    cyclic_group_structure, pitch_universe, scale_library, ti_group,
    z_music_structure,
)
from mulingua.proofs import ProofObject, all_interval_type, inhabit
from mulingua.records import _INITS, _Node
from mulingua.semantics import (
    Atom, AxiomResult, FinSet, InlV, InrV, PairV, RatV, SectionV, StarV,
    TableV, Theory, TheoryAxiom, TheoryReport, TreeV, TruthV, eval_term,
    identity_hom,
)
from mulingua.sexpr import SNode, Sym, parse_sexprs
from mulingua.syntax import (
    Absurd, And, App, Base, Bottom, Context, Coproduct, Eq, Exists, FamApp,
    Forall, Formula, FunSymbol, Implies, Inl, Inr, Lambda, Member, Or, Pair,
    Pi, Prop, PropType, Proj1, Proj2, RelAtom, RelSymbol, Sigma, Signature,
    Star, Sup, Term, Top, TupleProj, TypeExpr, Universe, Var, W, _Binding,
    alpha_key, arrow, free_vars, product, show, substitute,
)
from mulingua.voiceleading import (
    ExplicitTable, QuiverHom, WindingPaths, vls,
)
from mulingua.wtypes import RhythmSpec

from generators import (
    neg, random_formula, random_type, random_typed_term, rename_bound, unit,
    zero,
)

G = Base("G")

# One instance of every node class, and of each sugar form, with its
# rendering.
SHOWN = [
    (G, "G"),
    (zero(), "0"),
    (unit(), "1"),
    (Prop(), "Prop"),
    (Universe(), "Type"),
    (product(G, unit()), "(* G 1)"),
    (Coproduct(G, zero()), "(+ G 0)"),
    (arrow(G, Prop()), "(-> G Prop)"),
    (Pi("x", G, FamApp("F", (Var("x"),))), "(pi (x G) (F x))"),
    (Sigma("x", G, FamApp("F", (Var("x"),))), "(sigma (x G) (F x))"),
    (W("l", G, FamApp("Ar", (Var("l"),))), "(w (l G) (Ar l))"),
    (Pi("x", G, Prop()), "(-> G Prop)"),
    (Sigma("x", G, PropType(RelAtom("R", ()))), "(* G (prop (rel R)))"),
    (FamApp("F", (Var("a"), App("e"))), "(F a (e))"),
    (PropType(Eq(G, Var("a"), Var("a"))), "(prop (= G a a))"),
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
    (Star(), "star"),
    (Absurd(Var("z")), "(absurd z)"),
    (RelAtom("R", (Var("a"), Var("b"))), "(rel R a b)"),
    (Eq(G, Var("a"), App("e")), "(= G a (e))"),
    (Member(Var("a"), Var("P")), "(in a P)"),
    (Top(), "top"),
    (Bottom(), "bottom"),
    (And(Top(), Bottom()), "(and top bottom)"),
    (Or(Bottom(), Top()), "(or bottom top)"),
    (Implies(Top(), neg(Bottom())), "(implies top (not bottom))"),
    (neg(Top()), "(not top)"),
    (Forall("x", G, RelAtom("R", (Var("x"),))), "(forall (x G) (rel R x))"),
    (Exists("y", arrow(G, G), RelAtom("P", ())), "(exists (y (-> G G)) (rel P))"),
]


def _record_classes(cls=_Node):
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub):
            yield sub
        yield from _record_classes(sub)


def test_show_golden_for_every_node_class():
    for node, text in SHOWN:
        assert show(node) == text


def test_golden_table_lists_every_node_class():
    listed = {type(node) for node, _ in SHOWN}
    classes = {cls for cls in _record_classes()
               if cls.__module__ == "mulingua.syntax"}
    assert listed == classes - {FunSymbol, RelSymbol, Signature, Context}
    assert listed == {*typing.get_args(TypeExpr), *typing.get_args(Term)}
    assert set(typing.get_args(Formula)) < listed
    assert len(listed) == 31


# One instance of every other record class, with the dataclass flags it
# had as a dataclass: (record, frozen, eq).
Z3 = cyclic_group_structure(3)
G0, G1 = Atom("G", 0), Atom("G", 1)
LEAF = TreeV(StarV(), ())
PITCH = FinSet((G0, G1))
RECORDS = [
    (Verdict(False, "why"), True, True),
    (Sym("x"), True, True),
    (SNode([SNode(Sym("a"), 1, 2)], 1, 1), False, True),
    (ContextMorphism(Context.of(("a", G)), Context(), ()), True, True),
    (ProofObject(G0, G), True, True),
    (RhythmSpec(Fraction(1), (Fraction(1, 2), Fraction(1, 2))), True, True),
    (pitch_universe(3), True, True),
    (scale_library(), True, True),
    (G0, True, True),
    (StarV(), True, True),
    (TruthV(True), True, True),
    (PairV(G0, InlV(StarV())), True, True),
    (InlV(G1), True, True),
    (InrV(TruthV(False)), True, True),
    (RatV(Fraction(3, 4)), True, True),
    (TableV(((G0, G1), (G1, G0))), True, True),
    (SectionV(((G0, TruthV(True)),)), True, True),
    (TreeV(G0, (LEAF, TreeV(G1, (LEAF,)))), True, True),
    (PITCH, True, True),
    (Z3, False, False),
    (TheoryAxiom("refl", Context.of(("a", G)), Eq(G, Var("a"), Var("a"))),
     True, True),
    (Theory("t", Z3.signature, ()), True, True),
    (AxiomResult("refl", False, (("a", G0),)), True, True),
    (TheoryReport("t", "z3", (AxiomResult("refl", True, None),)), True, True),
    (identity_hom(Z3), False, False),
    (ti_group(3), False, False),
    (WindingPaths(3, 1), True, True),
    (ExplicitTable({(G0, G1): FinSet((Atom("a", 0),))}), False, False),
    (vls(PITCH, ExplicitTable({(G0, G1): FinSet((Atom("a", 0),))})),
     False, False),
    (QuiverHom({G0: G1}, {G1: G0}), False, True),
    (Workspace(), False, True),
    (FunSymbol("f", (G, G), G), True, True),
    (RelSymbol("R", (G,)), True, True),
    (Signature("s", ("G",), (FunSymbol("e", (), G),), (RelSymbol("R", ()),)),
     True, True),
    (Context.of(("a", G), ("b", Prop())), True, True),
]
# The methods a record class wrote itself when it was a dataclass, which
# its twin takes over: Sym's repr is its text, and TreeV walks a tree on
# a stack.
OWN_METHODS = {Sym: ("__repr__",), TreeV: ("__eq__", "__hash__", "__repr__")}


def _twin(cls, frozen, eq):
    """A dataclass, generated by ``dataclasses``, with the name, fields,
    flags and own methods of a record class: the reference its methods
    must match."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory,
            init=f.init, repr=f.repr, compare=f.compare))
        for f in dataclasses.fields(cls)], frozen=frozen, eq=eq,
        namespace={name: vars(cls)[name] for name in OWN_METHODS.get(cls, ())})


def _field_specs(cls):
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
             f.compare) for f in dataclasses.fields(cls)]


def _outcome(action):
    try:
        return "returned", action()
    except Exception as err:
        return type(err), str(err)


def _hash(record):
    """The hash, or how hashing went: by identity, or refused."""
    outcome = _outcome(lambda: hash(record))
    if outcome == ("returned", object.__hash__(record)):
        return "identity"
    return outcome


def test_node_classes_behave_as_frozen_dataclasses():
    shown = [(node, True, True) for node, _ in [*SHOWN, (App("e"), "(e)")]]
    assert {type(r) for r, _, _ in shown + RECORDS} == set(_record_classes())
    for record, frozen, eq in shown + RECORDS:
        cls = type(record)
        values = [getattr(record, f.name) for f in dataclasses.fields(cls)
                  if f.init]
        twin_cls = _twin(cls, frozen, eq)
        twin, twin_again = twin_cls(*values), twin_cls(*values)
        for f in dataclasses.fields(cls):
            if not f.init:  # Quiver's arrows, which it computes
                object.__setattr__(twin, f.name, getattr(record, f.name))
        assert repr(record) == repr(twin)
        assert _field_specs(cls) == _field_specs(twin_cls)
        assert cls.__match_args__ == twin_cls.__match_args__
        again = cls(*values)
        if cls.__init__ not in _INITS:  # takes its fields by keyword too
            assert (dataclasses.replace(record) == record) is eq
        assert (again == record, again != record) == (eq, not eq)
        if isinstance(record, Atom):  # one object per element, as its eq
            assert _hash(record) == "identity"
        elif not isinstance(record, _Binding):  # these hash up to renaming
            assert _hash(record) == _hash(twin)
        for name in (*cls.__match_args__, "other"):
            assert _outcome(lambda: setattr(again, name, 1)) \
                == _outcome(lambda: setattr(twin_again, name, 1))
            assert _outcome(lambda: delattr(again, name)) \
                == _outcome(lambda: delattr(twin_again, name))
    assert App("e") == App("e", ())
    with pytest.raises(TypeError):
        Pair(Var("x"))


# The methods of the package's classes whose code was compiled from source
# text at run time: dataclasses writes each method it adds to a class as
# text and compiles it, giving its code the file name "<string>" (Python
# 3.10 to 3.13).
GENERATED_METHODS = """
import sys
import mulingua.cli
print(sorted(
    f"{cls.__qualname__}.{name}"
    for module_name, module in list(sys.modules.items())
    if module_name.split(".")[0] == "mulingua"
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module_name
    for name, method in vars(cls).items()
    if getattr(getattr(method, "__code__", None), "co_filename", None)
    == "<string>"))
"""


def test_importing_the_cli_generates_no_method():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", GENERATED_METHODS], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_a_formula_is_a_term_and_formula_is_reader_sugar_for_it():
    """A formula node stands in term position with no wrapper: ``(formula
    F)`` inside a term reads as F, and ``show`` prints F."""
    node = Lambda("x", G, Member(Var("x"), Var("P")))
    for text in ("(lambda (x G) (formula (in x P)))",
                 "(lambda (x G) (in x P))"):
        (sexpr,) = parse_sexprs(text)
        assert parse_term_node(sexpr) == node
    assert show(node) == "(lambda (x G) (in x P))"
    (sexpr,) = parse_sexprs("(formula (formula top))")
    assert parse_formula_node(sexpr) == Top()


def test_every_golden_rendering_reads_back_to_the_same_node():
    for node, text in SHOWN:
        parse = (parse_type_node if isinstance(node, typing.get_args(TypeExpr))
                 else parse_term_node)
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
    them, that formula under a type binder, and a closed type of Pi,
    Sigma, W, family and power types, each with its parser."""
    term, ty = random_typed_term(rng, SCOPE, 4)
    formula = random_formula(rng, ["a", "b"], 4, [0])
    return ((term, parse_term_node), (ty, parse_type_node),
            (formula, parse_formula_node),
            (Sigma("s", G, PropType(formula)), parse_type_node),
            (random_type(rng, 3), parse_type_node))


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
    predicate = Lambda("p", pc, Eq(pc, Var("p"), App("p0")))
    first = eval_term(st, predicate)
    assert eval_term(st, predicate) is first
    assert eval_term(moved, predicate) != first
    assert eval_term(st, predicate) == first
