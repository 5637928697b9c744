"""Formula well-formedness, free variables, and their interaction with
substitution."""

import random

from mulingua.logic import well_formed_formula
from mulingua.musiclib import harmony_signature, music_signature
from mulingua.syntax import (
    And, App, Base, Context, Eq, Exists, Forall, FormulaTerm, Lambda,
    Member, Prop, RelAtom, Top, Var, arrow, free_vars, substitute,
)

from generators import random_formula, tiny_signature

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
    pred = Lambda("q", Base("PC"), FormulaTerm(Top()))
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
        case s.Not(b):
            return _free_vars_oracle(b)
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
