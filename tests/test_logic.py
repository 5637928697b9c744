"""Formula well-formedness, free variables, and their interaction with
substitution."""

import random

import pytest

from mulingua.dsl import load_source, parse_formula_node, parse_type_node
from mulingua.kernel import well_formed_type
from mulingua.logic import well_formed_formula
from mulingua.musiclib import harmony_signature, music_signature
from mulingua.proofs import inhabit, prop_as_type
from mulingua.semantics import eval_formula
from mulingua.sexpr import parse_sexprs
from mulingua.syntax import (
    And, App, Base, Context, Eq, Exists, Forall, Implies, Lambda, Member, Or,
    Prop, RelAtom, Top, Var, alpha_eq, arrow, free_vars, show, substitute,
)

from generators import (
    function_signature, random_formula, random_function_structure,
    random_prop_formula, tiny_signature,
)

HARMONY = harmony_signature()
MUSIC = music_signature(12)
TINY = tiny_signature()
EMPTY = Context()


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------

def test_membership_with_power_typed_predicate():
    ctx = Context.of(("p", Base("PC")), ("s", arrow(Base("PC"), Prop())))
    assert well_formed_formula(MUSIC, ctx, Member(Var("p"), Var("s")))


def test_membership_with_predicate_lambda():
    ctx = Context.of(("p", Base("PC")))
    pred = Lambda("q", Base("PC"), Top())
    assert well_formed_formula(MUSIC, ctx, Member(Var("p"), pred))


def test_dominance_atom_in_context():
    ctx = Context.of(("c", Base("Chord")), ("k", Base("Key")))
    assert well_formed_formula(HARMONY, ctx, RelAtom("dom", (Var("c"), Var("k"))))


def test_the_context_is_checked_before_the_formula():
    x = Base("X")
    for ctx, reason in ((Context.of(("a", Base("Z"))),
                         "entry 'a': unknown base type 'Z'"),
                        (Context.of(("a", x), ("a", x)),
                         "duplicate context variable 'a'")):
        assert well_formed_formula(TINY, ctx, Top()).reason == reason
        assert well_formed_formula(
            TINY, ctx, RelAtom("R", (Var("b"),))).reason == reason


def test_dominance_atom_unbound_in_empty_context():
    v = well_formed_formula(HARMONY, EMPTY, RelAtom("dom", (Var("c"), Var("k"))))
    assert not v and "unbound variable" in v.reason


def test_unknown_relation():
    v = well_formed_formula(HARMONY, EMPTY, RelAtom("nope", ()))
    assert not v and "unknown relation" in v.reason


def test_relation_arity_mismatch():
    ctx = Context.of(("c", Base("Chord")))
    v = well_formed_formula(HARMONY, ctx, RelAtom("dom", (Var("c"),)))
    assert not v and "arity mismatch" in v.reason


def test_equality_type_mismatch():
    ctx = Context.of(("x", Base("Pitch")), ("k", Base("Key")))
    v = well_formed_formula(HARMONY, ctx, Eq(Base("Pitch"), Var("x"), Var("k")))
    assert not v and "type mismatch" in v.reason


def test_non_predicate_in_membership():
    ctx = Context.of(("p", Base("PC")), ("q", Base("PC")))
    v = well_formed_formula(MUSIC, ctx, Member(Var("p"), Var("q")))
    assert v.reason == ("non-predicate in membership: q has type PC, "
                        "expected a predicate on PC")


def test_a_predicate_on_another_domain_is_no_predicate_in_membership():
    ctx = Context.of(("p", Base("PC")), ("s", arrow(Base("IC"), Prop())))
    v = well_formed_formula(MUSIC, ctx, Member(Var("p"), Var("s")))
    assert v.reason == ("non-predicate in membership: s has type (-> IC Prop), "
                        "expected a predicate on PC")


def test_higher_order_quantification():
    f = Forall("s", arrow(Base("PC"), Prop()),
               Exists("p", Base("PC"), Member(Var("p"), Var("s"))))
    assert well_formed_formula(MUSIC, EMPTY, f)


KERNEL = load_source("""
(signature s (types G) (fun (F (G) Type) (P () (-> G Prop))) (rel (R (G))))
""").signatures["s"]


@pytest.mark.parametrize("entry, formula, reason", [
    ("G", "(= G (F x) x)", "type family 'F' used in term position"),
    ("G", "(= G (R x) x)",
     "relation symbol 'R' applied as a function; use a relation atom"),
    ("G", "(= G (sup x x) x)", "sup checked against non-tree type G"),
    ("G", "(= G (inl x) x)", "injection checked against non-coproduct type G"),
    ("G", "(in (inl x) P)",
     "injection needs an expected coproduct type to check against"),
    ("G", "(in (sup x x) P)",
     "sup needs an expected tree type to check against"),
    ("G", "(in (absurd x) P)", "absurd needs an expected type to check against"),
    ("(H x)", "top", "entry 'x': unknown type family 'H'"),
])
def test_the_kernel_refuses_each_misplaced_form(entry, formula, reason):
    (t,), (f,) = parse_sexprs(entry), parse_sexprs(formula)
    ctx = Context.of(("x", parse_type_node(t)))
    assert well_formed_formula(KERNEL, ctx, parse_formula_node(f)).reason \
        == reason


def test_quantifier_may_shadow_context_variable():
    ctx = Context.of(("x", Base("X")))
    f = And(RelAtom("R", (Var("x"),)),
            Exists("x", Base("X"), RelAtom("R", (Var("x"),))))
    assert well_formed_formula(TINY, ctx, f)


# ---------------------------------------------------------------------------
# free variables
# ---------------------------------------------------------------------------

def test_quantifier_binds_its_variable():
    f = Forall("x", Base("PC"), Member(Var("x"), Var("s")))
    assert free_vars(f) == {"s"}


def test_top_has_no_free_variables():
    assert free_vars(Top()) == frozenset()


def test_shadowed_conjunct_keeps_outer_occurrence_free():
    f = And(RelAtom("R", (Var("x"),)),
            Exists("x", Base("X"), RelAtom("R", (Var("x"),))))
    assert free_vars(f) == {"x"}


def _free_vars_oracle(f):
    """Independent recursive computation, structured differently from
    the library's traversal."""
    from mulingua import syntax as s
    match f:
        case s.Var(n):
            return {n}
        case s.App(head, args):
            out = set() if isinstance(head, str) else _free_vars_oracle(head)
            for a in args:
                out |= _free_vars_oracle(a)
            return out
        case s.RelAtom(_, args):
            out = set()
            for a in args:
                out |= _free_vars_oracle(a)
            return out
        case s.Eq(_, l, r):
            return _free_vars_oracle(l) | _free_vars_oracle(r)
        case s.Member(e, p):
            return _free_vars_oracle(e) | _free_vars_oracle(p)
        case s.Top() | s.Bottom():
            return set()
        case s.And(l, r) | s.Or(l, r) | s.Implies(l, r):
            return _free_vars_oracle(l) | _free_vars_oracle(r)
        case s.Forall(x, _, b) | s.Exists(x, _, b):
            return _free_vars_oracle(b) - {x}
    raise AssertionError(f)


def test_free_vars_against_oracle():
    rng = random.Random(23)
    for _ in range(120):
        f = random_formula(rng, ["x", "y"], 4, [0])
        assert set(free_vars(f)) == _free_vars_oracle(f)


def test_substitution_commutes_with_free_vars():
    rng = random.Random(29)
    replacement = App("f", (Var("z"),))
    for _ in range(120):
        f = random_formula(rng, ["x", "y"], 4, [0])
        out = substitute(f, {"x": replacement})
        expected = set(free_vars(f))
        if "x" in expected:
            expected = (expected - {"x"}) | set(free_vars(replacement))
        assert set(free_vars(out)) == expected


def test_quantifier_capture_is_avoided():
    x = Base("X")
    f = Forall("y", x, RelAtom("S", (Var("x"), Var("y"))))
    out = substitute(f, {"x": Var("y")})
    assert isinstance(out, Forall)
    assert out.binder != "y"
    assert free_vars(out) == {"y"}
    # and alpha-equivalent formulas compare equal
    assert Forall("a", x, RelAtom("R", (Var("a"),))) == \
        Forall("b", x, RelAtom("R", (Var("b"),)))


def test_weakening_with_fresh_variables():
    rng = random.Random(31)
    base = Context.of(("x", Base("X")), ("y", Base("X")))
    extended = base.extend("zfresh", Base("X")).extend(
        "wfresh", arrow(Base("X"), Prop()))
    for _ in range(60):
        f = random_formula(rng, ["x", "y"], 3, [0])
        if well_formed_formula(TINY, base, f):
            assert well_formed_formula(TINY, extended, f)


# ---------------------------------------------------------------------------
# formulas are the terms of type Prop
# ---------------------------------------------------------------------------

def test_a_term_of_type_prop_is_a_formula_and_a_formula_a_term():
    """Over formulas with Prop variables and applied predicates in
    formula position, and formulas in term position: the kernel accepts
    each, it is true exactly when its proposition-as-type is inhabited,
    and its rendering reads back to the same formula."""
    rng = random.Random(2026_26)
    sig = function_signature()
    in_formula_position, shown = set(), []
    for _ in range(200):
        st = random_function_structure(rng)
        f = random_prop_formula(rng, rng.randrange(2, 5))
        assert well_formed_formula(sig, EMPTY, f), show(f)
        t = prop_as_type(f)
        assert well_formed_type(sig, EMPTY, t), show(t)
        assert eval_formula(st, f) == (inhabit(st, t) is not None), show(f)
        (node,) = parse_sexprs(show(f))
        assert alpha_eq(parse_formula_node(node), f)
        in_formula_position |= set(map(type, _formula_positions(f)))
        shown.append(show(f))
    # the draws put a variable and an application in formula position,
    # and formulas in each term position
    assert {Var, App, Member, Eq, Forall, Exists} <= in_formula_position
    for needle in ("(= Prop ", "(lambda "):
        assert any(needle in text for text in shown), needle


def _formula_positions(f):
    """f and, recursively, its operands and quantified bodies."""
    yield f
    match f:
        case And(l, r) | Or(l, r) | Implies(l, r):
            yield from _formula_positions(l)
            yield from _formula_positions(r)
        case Forall(_, _, body) | Exists(_, _, body):
            yield from _formula_positions(body)
