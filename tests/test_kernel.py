"""Judgment checking: formation rules, bidirectional term typing,
substitution, and context morphisms."""

import itertools
import random
import re

import pytest

from mulingua.diagnostics import StructureError, TypeCheckError
from mulingua.dsl import parse_formula_node, parse_type_node
from mulingua.kernel import (
    ContextMorphism, check_context_morphism, check_term,
    compose_context_morphisms, elaborate, identity_morphism, infer_term,
    validate_signature, well_formed_context, well_formed_type,
)
from mulingua.logic import well_formed_formula
from mulingua.musiclib import (
    group_signature, harmony_signature, music_signature,
    trivial_group_structure,
)
from mulingua.semantics import eval_formula
from mulingua.sexpr import parse_sexprs
from mulingua.syntax import (
    Absurd, App, Base, Context, Coproduct, Eq, Exists, FamApp, Forall,
    FunSymbol, Inl, Lambda, Pair, Pi, Prop, PropType, Proj1, Proj2, Sigma,
    Signature, Star, Sup, TupleProj, Universe, Var, W, alpha_eq, arrow,
    free_vars, product, show, substitute,
)

from generators import (
    random_group_element_term, random_typed_term, unit, zero,
)

GROUP = group_signature()
HARMONY = harmony_signature()
MUSIC = music_signature(12)
G = Base("G")
EMPTY = Context()


# ---------------------------------------------------------------------------
# formation rules
# ---------------------------------------------------------------------------

def test_product_of_declared_bases_is_well_formed():
    assert well_formed_type(GROUP, EMPTY, product(G, G))


def test_unknown_base_type_is_rejected():
    v = well_formed_type(GROUP, EMPTY, Pi("x", zero(), Base("Mystery")))
    assert not v
    assert "unknown base type" in v.reason


def test_dependent_arity_family_telescope():
    ctx = Context.of(("n", Base("PC")))
    t = Sigma("x", Base("PC"),
              arrow(FamApp("fin", (Var("x"),)), Base("PC")))
    assert well_formed_type(MUSIC, ctx, t)


def test_binder_shadowing_is_rejected():
    ctx = Context.of(("x", G))
    v = well_formed_type(GROUP, ctx,
                         Pi("x", G, PropType(Eq(G, Var("x"), App("e")))))
    assert not v
    assert "shadowing" in v.reason


def test_a_binder_its_body_does_not_use_shadows_nothing():
    """An arrow's binder does not occur in its codomain, so it binds
    nothing: nested arrows are well formed where the context already
    holds the binder's name, and so is a written Pi that does not use
    its binder."""
    t = arrow(G, arrow(G, G))
    assert t.binder == t.body.binder == "_"
    ctx = Context.of(("_", G))
    assert well_formed_type(GROUP, ctx, t)
    assert check_term(GROUP, ctx, Lambda("x", G, Lambda("y", G, Var("_"))), t)
    assert well_formed_type(GROUP, Context.of(("x", G)), Pi("x", G, G))


def test_level_violation_is_rejected():
    v = well_formed_type(GROUP, EMPTY, product(G, Universe()))
    assert not v
    assert "level violation" in v.reason


def test_simple_types_and_constructors():
    for t in (zero(), unit(), Prop(), arrow(G, Prop()), Coproduct(G, unit()),
              arrow(product(G, G), Prop())):
        assert well_formed_type(GROUP, EMPTY, t)


def test_signature_validation():
    assert validate_signature(GROUP)
    assert validate_signature(MUSIC)
    assert validate_signature(HARMONY)


def test_context_telescope_discipline():
    assert well_formed_context(MUSIC, Context.of(
        ("n", Base("PC")), ("s", arrow(Base("PC"), Prop()))))
    dup = Context.of(("n", Base("PC")), ("n", Base("IC")))
    assert not well_formed_context(MUSIC, dup)


# ---------------------------------------------------------------------------
# term checking
# ---------------------------------------------------------------------------

def test_interval_judgment():
    ctx = Context.of(("x", Base("Pitch")), ("y", Base("Pitch")))
    assert check_term(HARMONY, ctx, App("i", (Var("x"), Var("y"))),
                      Base("IVLS"))


def test_star_checks_against_unit():
    assert check_term(GROUP, EMPTY, Star(), unit())


def test_triad_judgment():
    ctx = Context.of(("s", Base("DiatonicScale")), ("d", Base("ScaleDegree")))
    assert check_term(HARMONY, ctx, App("triad", (Var("s"), Var("d"))),
                      Base("Chord"))


def test_unbound_variable():
    v = check_term(GROUP, EMPTY, Var("nope"), G)
    assert not v and "unbound variable" in v.reason


def test_constants_are_valid_in_any_context():
    assert check_term(GROUP, EMPTY, Var("e"), G)
    assert check_term(GROUP, Context.of(("x", G)), Var("e"), G)


def test_arity_mismatch():
    v = check_term(GROUP, EMPTY, App("star", (App("e"),)), G)
    assert not v and "arity mismatch" in v.reason


def test_projection_of_non_product():
    v = check_term(GROUP, EMPTY, Proj1(App("e")), G)
    assert not v and "projection of non-product" in v.reason


def test_application_of_non_function():
    ctx = Context.of(("x", G))
    v = check_term(GROUP, ctx, App(Var("x"), (Var("x"),)), G)
    assert v.reason == "application of non-function: x has type G"


def test_applying_a_section_substitutes_the_argument():
    pc = Base("PC")
    ctx = Context.of(("a", pc), ("f", Pi("x", pc, FamApp("fin", (Var("x"),)))))
    assert infer_term(MUSIC, ctx, App(Var("f"), (Var("a"),))) == FamApp(
        "fin", (Var("a"),))


def test_sup_branch_domain_mismatch():
    wtype = W("x", Coproduct(unit(), G), unit())
    bad = Sup(Inl(Star()), Lambda("b", zero(), Var("b")))
    v = check_term(GROUP, EMPTY, bad, wtype)
    assert not v and "domain" in v.reason


def test_sup_accepts_leaf_nodes():
    # constant empty arity: every label is a leaf
    wtype = W("x", G, zero())
    leaf = Sup(App("e"), Lambda("b", zero(), Absurd(Var("b"))))
    assert check_term(GROUP, EMPTY, leaf, wtype)


def test_dependent_arity_tree_type_is_well_formed():
    wtype = W("x", Base("PC"), FamApp("fin", (Var("x"),)))
    assert well_formed_type(MUSIC, EMPTY, wtype)


def test_dependent_pair_checking():
    ctx = Context.of(("p", Base("PC")))
    t = Sigma("x", Base("PC"), arrow(FamApp("fin", (Var("x"),)), Base("PC")))
    term = Pair(Var("p"), Lambda("k", FamApp("fin", (Var("p"),)), Var("p")))
    assert check_term(MUSIC, ctx, term, t)


def test_tuple_projection_on_spine():
    ctx = Context.of(("t", product(G, product(G, unit()))))
    assert infer_term(GROUP, ctx, TupleProj(Var("t"), 0)) == G
    assert infer_term(GROUP, ctx, TupleProj(Var("t"), 2)) == unit()
    v = check_term(GROUP, ctx, TupleProj(Var("t"), 3), G)
    assert not v and "out of range" in v.reason


def test_tuple_projection_walks_into_a_dependent_tail():
    """``(proj t j)`` walks every nested sum, as evaluation flattens
    every pair, and reads a dependent body's binder as the projection
    before it."""
    t = Var("t")
    tail = Sigma("x", G, PropType(Eq(G, Var("x"), Var("x"))))
    ctx = Context.of(("t", product(G, tail)))
    assert infer_term(GROUP, ctx, TupleProj(t, 1)) == G
    assert infer_term(GROUP, ctx, TupleProj(t, 2)) == PropType(
        Eq(G, TupleProj(t, 1), TupleProj(t, 1)))
    for i in (3, -1):
        v = check_term(GROUP, ctx, TupleProj(t, i), G)
        assert v.reason == (f"projection index {i} out of range for "
                            "(* G (sigma (x G) (prop (= G x x))))")
    # a dependent pair is a spine of its own
    ctx = Context.of(("t", tail))
    assert infer_term(GROUP, ctx, TupleProj(t, 1)) == PropType(
        Eq(G, TupleProj(t, 0), TupleProj(t, 0)))


@pytest.mark.parametrize("tail", [
    "(sigma (x G) (prop (= G x x)))", "(sigma (x G) G)"])
def test_a_pair_projection_of_a_spine_component_is_refused(tail):
    """Component 1 of (* G tail) is the tail's first component, of type
    G, so projecting it again is refused; evaluation would find no pair
    there."""
    f = parse_formula_node(parse_sexprs(
        f"(forall (t (* G {tail})) (= G (pr1 (proj t 1)) (pr1 (proj t 1))))"
    )[0])
    v = well_formed_formula(GROUP, EMPTY, f)
    assert v.reason == "projection of non-product: (proj t 1) has type G"


def test_the_last_component_of_a_dependent_tail_checks_and_evaluates():
    f = parse_formula_node(parse_sexprs(
        "(forall (t (* G (sigma (x G) (prop (= G x x)))))"
        " (= (prop (= G (proj t 1) (proj t 1))) (proj t 2) (proj t 2)))")[0])
    assert well_formed_formula(GROUP, EMPTY, f)
    _, core = elaborate(GROUP, EMPTY, f)
    assert eval_formula(trivial_group_structure(), core) is True


def test_elaboration_rewrites_each_projection_into_its_chain():
    t = Var("t")
    spine = product(G, product(G, unit()))
    f = parse_formula_node(parse_sexprs(
        "(forall (t (* G (* G 1))) (and (= G (proj t 0) (proj t 1))"
        " (= 1 (proj t 2) star)))")[0])
    ctx, core = elaborate(GROUP, EMPTY, f)
    assert ctx is EMPTY and show(core) == show(f)
    assert core.body.left == Eq(G, Proj1(t), Proj1(Proj2(t)))
    assert core.body.right.lhs == Proj2(Proj2(t))
    assert well_formed_formula(GROUP, EMPTY, core)
    # a context entry is elaborated in the entries before it
    ctx = Context.of(("t", spine), ("u", PropType(
        Eq(G, TupleProj(t, 1), TupleProj(t, 0)))))
    elaborated, _ = elaborate(GROUP, ctx, Var("u"))
    u_type = elaborated.entries[1][1]
    assert u_type == PropType(Eq(G, Proj1(Proj2(t)), Proj1(t)))
    assert show(u_type) == "(prop (= G (proj t 1) (proj t 0)))"
    # no projection: the same objects
    g = parse_formula_node(parse_sexprs(
        "(forall (x G) (= G (star x e) x))")[0])
    for context in (EMPTY, elaborated):
        again, same = elaborate(GROUP, context, g)
        assert again is context and same is g


def test_an_unelaborated_projection_does_not_evaluate():
    f = parse_formula_node(parse_sexprs(
        "(forall (t (* G G)) (= G (proj t 0) (pr1 t)))")[0])
    with pytest.raises(StructureError, match="^not a term: TupleProj"):
        eval_formula(trivial_group_structure(), f)
    assert eval_formula(trivial_group_structure(),
                        elaborate(GROUP, EMPTY, f)[1]) is True


def test_absurd_checks_at_any_type():
    ctx = Context.of(("z", zero()))
    assert check_term(GROUP, ctx, Absurd(Var("z")), G)
    assert check_term(GROUP, ctx, Absurd(Var("z")), product(G, Prop()))


def test_lambda_against_arrow_and_pi():
    assert check_term(GROUP, EMPTY, Lambda("x", G, Var("x")), arrow(G, G))
    wrong = check_term(GROUP, EMPTY, Lambda("x", unit(), Var("x")),
                       arrow(G, G))
    assert not wrong and "domain" in wrong.reason
    pc = Base("PC")
    assert check_term(MUSIC, EMPTY, Lambda("k", pc, Var("k")),
                      Pi("x", pc, pc))
    # lambdas whose body type mentions the binder synthesize a product
    section = Lambda("k", pc, Lambda("j", FamApp("fin", (Var("k"),)), Var("j")))
    inferred = infer_term(MUSIC, EMPTY, section)
    assert isinstance(inferred, Pi)


def test_a_lambda_domain_that_does_not_match_is_refused_with_its_reason():
    pc = Base("PC")
    assert check_term(GROUP, EMPTY, Lambda("x", unit(), Var("x")),
                      arrow(G, G)).reason == (
        "lambda domain annotation 1 does not match expected domain G")
    assert check_term(MUSIC, EMPTY, Lambda("k", unit(), Var("k")),
                      Pi("x", pc, pc)).reason == (
        "lambda domain annotation 1 does not match expected domain PC")


def test_a_pi_lambda_renames_a_binder_the_context_holds():
    """The lambda binds k, which the context holds too: the body's k and
    the context's k must stay apart once the Pi's binder becomes k."""
    pc = Base("PC")

    def fin(name):
        return FamApp("fin", (Var(name),))

    ctx = Context.of(("k", pc), ("c", fin("k")))
    expected = Pi("x", pc, arrow(fin("x"), fin("k")))
    assert check_term(MUSIC, ctx, Lambda("k", pc, Lambda("j", fin("k"),
                                                         Var("c"))), expected)
    v = check_term(MUSIC, ctx, Lambda("k", pc, Lambda("j", fin("k"),
                                                      Var("j"))), expected)
    assert v.reason == "type mismatch: j has type (fin k'), expected (fin k)"


def test_an_arrow_lambda_renames_a_binder_its_codomain_mentions():
    """Against (-> PC (fin k)), whose k is the context's, a lambda that
    binds k must not capture the codomain's k."""
    pc = Base("PC")

    def fin(name):
        return FamApp("fin", (Var(name),))

    ctx = Context.of(("k", pc), ("c", fin("k")), ("g", Pi("y", pc, fin("y"))))
    expected = arrow(pc, fin("k"))
    assert check_term(MUSIC, ctx, Lambda("k", pc, Var("c")), expected)
    v = check_term(MUSIC, ctx, Lambda("k", pc, App(Var("g"), (Var("k"),))),
                   expected)
    assert v.reason == ("type mismatch: (apply g k') has type (fin k'), "
                        "expected (fin k)")


def test_a_lambda_binder_that_shadows_the_context_captures_no_entry_type():
    """h takes an element of (fin k) for the context's k.  A lambda that
    binds k anew must not hand h an element of (fin k) for its own k,
    whichever spelling of the expected type, and when it is inferred."""
    pc = Base("PC")

    def fin(name):
        return FamApp("fin", (Var(name),))

    ctx = Context.of(("k", pc), ("c", fin("k")), ("h", arrow(fin("k"), pc)),
                     ("g", Pi("y", pc, fin("y"))))
    capture = Lambda("k", pc, App(Var("h"), (App(Var("g"), (Var("k"),)),)))
    mismatch = ("type mismatch: (apply g k') has type (fin k'), "
                "expected (fin k)")
    for expected in (Pi("x", pc, pc), arrow(pc, pc)):
        assert check_term(MUSIC, ctx, capture, expected).reason == mismatch
    with pytest.raises(TypeCheckError, match=re.escape(mismatch)):
        infer_term(MUSIC, ctx, capture)
    # the inferred type of a lambda that ignores its binder is an arrow
    # into the context's (fin k)
    inferred = infer_term(MUSIC, ctx, Lambda("k", pc, Var("c")))
    assert alpha_eq(inferred, arrow(pc, fin("k")))
    assert show(inferred) == "(-> PC (fin k))"


def test_a_lambda_binder_named_after_a_constant_captures_no_type():
    """The context's c lies in (F e) for the constant e.  A lambda that
    binds e anew is renamed apart wherever the constant is free in a
    context type or in the expected codomain, checked or inferred."""
    g_type = Base("G")
    sig = Signature(name="s", base_types=("G",), fun_symbols=(
        FunSymbol("e", (), g_type), FunSymbol("F", (g_type,), Universe()),
        FunSymbol("g", (), Pi("y", g_type, FamApp("F", (Var("y"),))))))
    fe = FamApp("F", (Var("e"),))  # as the reader builds (F e)
    ctx = Context.of(("c", fe))
    capture = Lambda("e", g_type, App(Var("g"), (Var("e"),)))
    mismatch = "type mismatch: (apply g e') has type (F e'), expected (F e)"
    assert check_term(sig, ctx, capture, arrow(g_type, fe)).reason == mismatch
    assert check_term(sig, EMPTY, capture, arrow(g_type, fe)).reason == mismatch
    assert check_term(sig, ctx, Lambda("e", g_type, Var("c")), arrow(g_type, fe))
    inferred = infer_term(sig, ctx, Lambda("e", g_type, Var("c")))
    assert show(inferred) == "(-> G (F e))"


@pytest.mark.parametrize("quantifier", [Forall, Exists])
def test_a_quantifier_binder_that_shadows_the_context_captures_no_entry_type(
        quantifier):
    """c is an element of (fin k) for the context's k.  A quantifier that
    binds k anew is renamed apart, as a lambda is, so c is not compared
    at (fin k) for its own k; one that no context type mentions renames
    nothing."""
    pc = Base("PC")

    def fin(name):
        return FamApp("fin", (Var(name),))

    ctx = Context.of(("k", pc), ("c", fin("k")), ("g", Pi("y", pc, fin("y"))))
    capture = quantifier(
        "k", pc, Eq(fin("k"), Var("c"), App(Var("g"), (Var("k"),))))
    assert well_formed_formula(MUSIC, ctx, capture).reason == (
        "type mismatch: c has type (fin k), expected (fin k')")
    assert well_formed_formula(
        MUSIC, ctx, quantifier("k", pc, Eq(fin("k"), Var("c"), Var("c")))
    ).reason == "type mismatch: c has type (fin k), expected (fin k')"
    assert well_formed_formula(
        MUSIC, ctx, quantifier("c", pc, Eq(pc, Var("c"), Var("k"))))
    unmentioned = quantifier("g", pc, Eq(Base("IC"), Var("g"), Var("g")))
    assert well_formed_formula(MUSIC, ctx, unmentioned).reason == (
        "type mismatch: g has type PC, expected IC")


# the three spellings of a predicate on PC, as the reader reads them
SPELLINGS = ("(power PC)", "(-> PC Prop)", "(pi (x PC) Prop)")


def _read_type(text):
    (node,) = parse_sexprs(text)
    return parse_type_node(node)


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_every_spelling_of_a_predicate_applies_and_takes_a_lambda(spelling):
    predicate = _read_type(spelling)
    pc = Base("PC")
    ctx = Context.of(("a", pc), ("s", predicate))
    assert infer_term(MUSIC, ctx, App(Var("s"), (Var("a"),))) == Prop()
    assert check_term(MUSIC, ctx, Lambda("q", pc, App(Var("s"), (Var("q"),))),
                      predicate)


def test_the_spellings_of_a_predicate_are_one_type():
    pc = Base("PC")
    predicates = [_read_type(text) for text in SPELLINGS]
    lam = Lambda("q", pc, Eq(pc, Var("q"), Var("q")))
    for given, expected in itertools.product(predicates, repeat=2):
        assert alpha_eq(given, expected)
        assert check_term(MUSIC, Context.of(("s", given)), Var("s"), expected)
    for predicate in predicates:
        assert show(predicate) == "(-> PC Prop)"
        assert check_term(MUSIC, EMPTY, lam, predicate)


def test_bidirectional_coherence():
    rng = random.Random(7)
    ctx = Context.of(("a", G), ("b", G))
    for _ in range(60):
        term, t = random_typed_term(rng, ctx, 4)
        inferred = infer_term(GROUP, ctx, term)
        assert alpha_eq(inferred, t)
        assert check_term(GROUP, ctx, term, inferred)


def test_checker_rejects_ill_formed_expected_type():
    v = check_term(GROUP, EMPTY, Star(), Base("Mystery"))
    assert not v and "ill-formed expected type" in v.reason


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_alpha_equivalent_terms_compare_equal():
    left = Lambda("x", G, Var("x"))
    right = Lambda("y", G, Var("y"))
    assert left == right
    assert hash(left) == hash(right)
    assert Pair(left, Star()) == Pair(right, Star())
    assert Lambda("x", G, Var("z")) != Lambda("y", G, Var("y"))
    assert Pi("a", G, product(G, G)) == Pi("b", G, product(G, G))


def test_substitute_direct_replacement():
    term = App("i", (Var("x"), Var("y")))
    out = substitute(term, {"x": Var("c0"), "y": Var("c7")})
    assert out == App("i", (Var("c0"), Var("c7")))


def test_substitute_bound_occurrence_shielded():
    term = Lambda("x", G, Var("x"))
    assert substitute(term, {"x": App("e")}) == term


def test_substitute_capture_avoided():
    term = Lambda("y", G, Var("x"))
    out = substitute(term, {"x": Var("y")})
    assert isinstance(out, Lambda)
    assert out.binder != "y"
    assert out.body == Var("y")
    # alpha-equivalent to a lambda with any fresh binder returning y
    assert alpha_eq(out, Lambda("z", G, Var("y")))


def test_substitution_preserves_types():
    rng = random.Random(11)
    ctx = Context.of(("a", G), ("b", G))
    for _ in range(80):
        term, t = random_typed_term(rng, ctx, 5)
        replacement = random_group_element_term(rng, Context(), 3)
        out = substitute(term, {"a": replacement})
        assert check_term(GROUP, Context.of(("b", G)), out, t), \
            f"substitution broke typing for {term}"


def test_sequential_substitution_matches_simultaneous():
    # t[a := s][b := u] == t[a := s, b := u] for closed replacements
    rng = random.Random(113)
    ctx = Context.of(("a", G), ("b", G))
    for _ in range(60):
        term, _ = random_typed_term(rng, ctx, 5)
        s = random_group_element_term(rng, Context(), 3)
        u = random_group_element_term(rng, Context(), 3)
        sequential = substitute(substitute(term, {"a": s}), {"b": u})
        simultaneous = substitute(term, {"a": s, "b": u})
        assert alpha_eq(sequential, simultaneous)


def test_free_vars_after_substitution():
    rng = random.Random(13)
    ctx = Context.of(("a", G), ("b", G))
    for _ in range(60):
        term, _ = random_typed_term(rng, ctx, 4)
        replacement = random_group_element_term(rng, Context.of(("b", G)), 2)
        out = substitute(term, {"a": replacement})
        expected = (free_vars(term) - {"a"}) | (
            free_vars(replacement) if "a" in free_vars(term) else frozenset())
        assert free_vars(out) == expected


# ---------------------------------------------------------------------------
# context morphisms
# ---------------------------------------------------------------------------

def _random_morphism(rng, source: Context, target: Context) -> ContextMorphism:
    return ContextMorphism(source, target, tuple(
        random_group_element_term(rng, source, 2) for _ in target.names()))


def test_identity_laws():
    rng = random.Random(17)
    gamma = Context.of(("a", G), ("b", G))
    delta = Context.of(("x", G),)
    f = _random_morphism(rng, gamma, delta)
    assert compose_context_morphisms(identity_morphism(gamma), f) == f
    assert compose_context_morphisms(f, identity_morphism(delta)) == f


def test_composition_is_associative():
    rng = random.Random(19)
    a = Context.of(("a", G))
    b = Context.of(("b1", G), ("b2", G))
    c = Context.of(("c1", G))
    d = Context.of(("d1", G), ("d2", G))
    for _ in range(40):
        f = _random_morphism(rng, a, b)
        g = _random_morphism(rng, b, c)
        h = _random_morphism(rng, c, d)
        left = compose_context_morphisms(compose_context_morphisms(f, g), h)
        right = compose_context_morphisms(f, compose_context_morphisms(g, h))
        assert left == right


def test_morphism_checking():
    gamma = Context.of(("a", G))
    delta = Context.of(("x", G), ("y", G))
    good = ContextMorphism(gamma, delta, (Var("a"), App("inv", (Var("a"),))))
    assert check_context_morphism(GROUP, good)
    bad = ContextMorphism(gamma, delta, (Var("a"),))
    assert not check_context_morphism(GROUP, bad)
    ill = ContextMorphism(gamma, delta, (Var("a"), Star()))
    v = check_context_morphism(GROUP, ill)
    assert not v and "component 1" in v.reason


def test_composition_substitutes():
    gamma = Context.of(("a", G))
    delta = Context.of(("x", G))
    theta = Context.of(("y", G))
    f = ContextMorphism(gamma, delta, (App("inv", (Var("a"),)),))
    g = ContextMorphism(delta, theta, (App("star", (Var("x"), Var("x"))),))
    composed = compose_context_morphisms(f, g)
    assert composed.components == (App("star", (
        App("inv", (Var("a"),)), App("inv", (Var("a"),)))),)


def test_composition_context_mismatch():
    f = ContextMorphism(Context.of(("a", G)), Context.of(("x", G)), (Var("a"),))
    g = ContextMorphism(Context.of(("y", unit())), Context(), ())
    with pytest.raises(TypeCheckError):
        compose_context_morphisms(f, g)


# A family F over G, and the dependent context (x G) (y (F x))
# (h (-> (F x) G)), whose later entries' types read the first entry.
FAMILY = Signature("family", ("G",), (FunSymbol("F", (G,), Universe()),), ())
DEPENDENT = Context.of(("x", G), ("y", FamApp("F", (Var("x"),))),
                       ("h", arrow(FamApp("F", (Var("x"),)), G)))
TWO = Context.of(("a", G), ("b", FamApp("F", (Var("a"),))),
                 ("c", G), ("d", FamApp("F", (Var("c"),))))


def _same_morphism(f: ContextMorphism, g: ContextMorphism) -> bool:
    return (f.source == g.source and f.target == g.target
            and len(f.components) == len(g.components)
            and all(map(alpha_eq, f.components, g.components)))


def _into_dependent(first: str, second: str, fiber: str) -> ContextMorphism:
    """(first, second, (lambda (k (F fiber)) a)) from TWO to DEPENDENT."""
    return ContextMorphism(TWO, DEPENDENT, (
        Var(first), Var(second),
        Lambda("k", FamApp("F", (Var(fiber),)), Var("a"))))


def test_a_dependent_context_morphism_checks_each_component_in_turn():
    """Each component is checked against its entry's type with the
    components before it put for the entries they stand for."""
    assert check_context_morphism(FAMILY, identity_morphism(DEPENDENT))
    assert check_context_morphism(FAMILY, identity_morphism(TWO))
    assert check_context_morphism(FAMILY, _into_dependent("a", "b", "a"))
    assert check_context_morphism(FAMILY, _into_dependent("c", "d", "c"))
    v = check_context_morphism(
        FAMILY, ContextMorphism(TWO, DEPENDENT, (Var("a"), Var("b"))))
    assert not v
    assert v.reason == "component count 2 does not match target length 3"
    for m, index in ((_into_dependent("a", "d", "a"), 1),
                     (_into_dependent("c", "b", "c"), 1),
                     (_into_dependent("a", "b", "c"), 2)):
        v = check_context_morphism(FAMILY, m)
        assert not v and v.reason.startswith(f"component {index}: "), v.reason


def test_dependent_context_morphisms_compose_with_identities():
    f = _into_dependent("c", "d", "c")
    left = compose_context_morphisms(identity_morphism(TWO), f)
    right = compose_context_morphisms(f, identity_morphism(DEPENDENT))
    assert _same_morphism(left, f) and _same_morphism(right, f)
    assert check_context_morphism(FAMILY, left)
    assert check_context_morphism(FAMILY, right)
    with pytest.raises(TypeCheckError, match="context mismatch"):
        compose_context_morphisms(identity_morphism(DEPENDENT), f)
