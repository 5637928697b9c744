"""Source-file parsing: grammar, resolution, errors, and round trips."""

import dataclasses
import pathlib
import random

import pytest

from mulingua import musiclib, voiceleading
from mulingua.diagnostics import MulinguaError, ParseError, StructureError
from mulingua.dsl import (
    _FORMS, Workspace, _load_declaration, builtin_workspace, context_to_dsl,
    load_source,
    parse_formula_node, parse_term_node, parse_type_node, signature_to_dsl,
    structure_to_dsl, theory_to_dsl,
)
from mulingua.logic import well_formed_formula
from mulingua.musiclib import (
    cyclic_group_structure, group_signature, make_group_theory,
)
from mulingua.semantics import (
    Atom, FinSet, InlV, InrV, PairV, SectionV, StarV, TableV, TreeV, TruthV,
    check_theory, eval_formula,
)
from mulingua.voiceleading import arrow_payload, vls_of_structure
from mulingua.sexpr import parse_sexprs, write_sexpr
from mulingua.syntax import (
    App, Base, Context, Eq, FamApp, Forall, Lambda, Pi, Prop, Sigma, Star,
    Universe, Var, arrow, product, show,
)

from generators import calls_into, random_formula, zero

GROUP_SOURCE = "(signature G (types G) (fun (star (G G) G) (e () G) (inv (G) G)))"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_one(text):
    nodes = parse_sexprs(text)
    assert len(nodes) == 1
    return nodes[0]


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

def test_reader_positions_and_values():
    node = parse_one("(a (b 1) 19/2 \"s\")")
    assert node.line == 1 and node.col == 1
    inner = node.value[1]
    assert inner.line == 1 and inner.col == 4


def test_unclosed_paren_reports_position():
    with pytest.raises(ParseError) as err:
        parse_sexprs("(")
    assert err.value.line == 1 and err.value.column == 1


def test_unexpected_close_paren():
    with pytest.raises(ParseError):
        parse_sexprs("\n  )")


def test_comments_are_skipped():
    assert len(parse_sexprs("; hello\n(a) ; trailing\n(b)")) == 2


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_sexprs("(rt 1/0)")


def test_write_round_trips_tokens():
    text = "(rt 19/2 (rt 2) (rt -3))"
    node = parse_one(text)
    assert write_sexpr(node) == text


# ---------------------------------------------------------------------------
# expression grammars
# ---------------------------------------------------------------------------

def test_parse_types():
    assert parse_type_node(parse_one("(* G G)")) == product(Base("G"), Base("G"))
    assert parse_type_node(parse_one("(-> G Prop)")) == arrow(Base("G"), Prop())
    assert parse_type_node(parse_one("(pi (x G) (power G))")) == \
        Pi("x", Base("G"), arrow(Base("G"), Prop()))
    assert parse_type_node(parse_one("(sigma (x PC) (fin x))")) == \
        Sigma("x", Base("PC"), FamApp("fin", (Var("x"),)))
    assert parse_type_node(parse_one("0")) == zero()
    assert parse_type_node(parse_one("Type")) == Universe()
    # n-ary arrows nest to the right
    assert parse_type_node(parse_one("(-> G G G)")) == \
        arrow(Base("G"), arrow(Base("G"), Base("G")))


def test_parse_terms():
    assert parse_term_node(parse_one("(star g e)")) == \
        App("star", (Var("g"), Var("e")))
    assert parse_term_node(parse_one("star")) == Star()
    assert parse_term_node(parse_one("(lambda (x G) x)")) == \
        Lambda("x", Base("G"), Var("x"))
    assert parse_term_node(parse_one("(apply f x y)")) == \
        App(Var("f"), (Var("x"), Var("y")))


def test_parse_identity_axiom_formula():
    f = parse_formula_node(parse_one("(forall (g G) (= G (star g e) g))"))
    assert f == Forall("g", Base("G"), Eq(
        Base("G"), App("star", (Var("g"), Var("e"))), Var("g")))


def test_formula_show_parse_round_trip():
    texts = [
        "(forall (g G) (= G (star g e) g))",
        "(and top (or bottom (rel R x)))",
        "(exists (s (power PC)) (in p s))",
        "(implies (not top) bottom)",
    ]
    for text in texts:
        f = parse_formula_node(parse_one(text))
        assert parse_formula_node(parse_one(show(f))) == f


# Malformed input in type (T), term (E) and formula (F) position, one or
# more per keyword form, with the exact error and where it points.  A
# formula is read as a term, so the reader names it a term.
MALFORMED = [
    ("T", "5", "1:1: unexpected number 5 in type position"),
    ("T", "(* G 5)", "1:6: unexpected number 5 in type position"),
    ("T", '"s"', "1:1: expected a type expression"),
    ("T", "1/2", "1:1: expected a type expression"),
    ("T", "()", "1:1: empty type expression"),
    ("T", "(* G ())", "1:6: empty type expression"),
    ("T", "(5 G)", "1:2: expected a type constructor"),
    ("T", "(* G)", "1:1: '*' takes at least two types"),
    ("T", "(+ G)", "1:1: '+' takes at least two types"),
    ("T", "(-> G)", "1:1: '->' takes at least two types"),
    ("T", "(pi (x G))", "1:1: 'pi' takes a binder and a body"),
    ("T", "(pi (x G) G G)", "1:1: 'pi' takes a binder and a body"),
    ("T", "(sigma x G)", "1:8: expected a binder (x A)"),
    ("T", "(w (x) G)", "1:4: a binder is written (x A)"),
    ("T", "(pi (5 G) G)", "1:6: expected a variable"),
    ("T", "(power)", "1:1: 'power' takes one type"),
    ("T", "(power G G)", "1:1: 'power' takes one type"),
    ("T", "(prop)", "1:1: 'prop' takes one term"),
    ("T", "(prop top bottom)", "1:1: 'prop' takes one term"),
    ("T", "(F (pair a))", "1:4: 'pair' takes two terms"),
    ("T", "(Prop 5)", "1:7: expected a term"),
    ("E", "5", "1:1: expected a term"),
    ("E", '"s"', "1:1: expected a term"),
    ("E", "1/2", "1:1: expected a term"),
    ("E", "()", "1:1: empty term"),
    ("E", "(3 a)", "1:2: expected a term head"),
    ("E", "(pair a)", "1:1: 'pair' takes two terms"),
    ("E", "(pr1)", "1:1: 'pr1' takes one term"),
    ("E", "(pr2 a b)", "1:1: 'pr2' takes one term"),
    ("E", "(inl)", "1:1: 'inl' takes one term"),
    ("E", "(inr a b)", "1:1: 'inr' takes one term"),
    ("E", "(lambda (x G))", "1:1: 'lambda' takes a binder and a body"),
    ("E", "(lambda x G a)", "1:1: 'lambda' takes a binder and a body"),
    ("E", "(lambda (x Type 1) a)", "1:9: a binder is written (x A)"),
    ("E", "(proj t)", "1:1: 'proj' takes a term and an index"),
    ("E", "(proj t x)", "1:1: 'proj' takes a term and an index"),
    ("E", "(proj t 1/2)", "1:1: 'proj' takes a term and an index"),
    ("E", "(proj (pair) 1)", "1:7: 'pair' takes two terms"),
    ("E", "(sup l)", "1:1: 'sup' takes two terms"),
    ("E", "(formula)", "1:1: 'formula' takes one term"),
    ("E", "(absurd)", "1:1: 'absurd' takes one term"),
    ("E", "(apply)", "1:1: 'apply' takes a function term"),
    ("E", "(apply (pr1) a)", "1:8: 'pr1' takes one term"),
    ("E", "(star a 5)", "1:9: expected a term"),
    ("E", "(f\n  (pair a b c))", "2:3: 'pair' takes two terms"),
    ("F", "5", "1:1: expected a term"),
    ("F", '"s"', "1:1: expected a term"),
    ("F", "()", "1:1: empty term"),
    ("F", "(5)", "1:2: expected a term head"),
    ("F", "(and top)", "1:1: 'and' takes at least two terms"),
    ("F", "(or)", "1:1: 'or' takes at least two terms"),
    ("F", "(implies top)", "1:1: 'implies' takes at least two terms"),
    ("F", "(not)", "1:1: 'not' takes one term"),
    ("F", "(not top top)", "1:1: 'not' takes one term"),
    ("F", "(forall (x G))", "1:1: 'forall' takes a binder and a body"),
    ("F", "(exists ((x) G) top)", "1:10: expected a variable"),
    ("F", "(= G a)", "1:1: '=' takes a type and two terms"),
    ("F", "(= G a b c)", "1:1: '=' takes a type and two terms"),
    ("F", "(= (* G) a b)", "1:4: '*' takes at least two types"),
    ("F", "(in a)", "1:1: 'in' takes two terms"),
    ("F", "(rel)", "1:1: 'rel' takes a relation name"),
    ("F", "(rel 5 a)", "1:6: expected a relation name"),
    ("F", "(rel R 5)", "1:8: expected a term"),
    ("F", "(forall (x (* G)) top)", "1:12: '*' takes at least two types"),
    ("F", "(and top\n bottom\n (not))", "3:2: 'not' takes one term"),
]


@pytest.mark.parametrize("sort, text, message", MALFORMED)
def test_malformed_expressions_are_reported_in_place(sort, text, message):
    parse = {"T": parse_type_node, "E": parse_term_node,
             "F": parse_formula_node}[sort]
    with pytest.raises(ParseError) as err:
        parse(parse_one(text))
    assert str(err.value) == message


# Input in formula (F), type (T) and term (E) position that reads, a
# formula being a term, and that the kernel refuses: each stands in a
# theory axiom over the group signature, in the context (a G) (b G), and
# the loader reports the kernel's reason at the axiom.
KERNEL_REFUSED = [
    ("F", "x", "unbound variable 'x'"),
    ("F", "and", "unbound variable 'and'"),
    ("F", "(foo a)", "unknown function symbol 'foo'"),
    ("F", "(top)", "unknown function symbol 'top'"),
    ("F", "(pair a b)", "pair checked against non-product type Prop"),
    ("F", "a", "type mismatch: a has type G, expected Prop"),
    ("T", "(prop x)", "unbound variable 'x'"),
    ("T", "(prop (inv a))", "type mismatch: (inv a) has type G, expected Prop"),
    ("E", "(formula a)", "type mismatch: a has type G, expected Prop"),
]
_IN_AN_AXIOM = {"F": "{}", "T": "(forall (q {}) top)", "E": "(= Prop {} top)"}


@pytest.mark.parametrize("sort, text, reason", KERNEL_REFUSED)
def test_a_formula_that_reads_is_refused_by_the_kernel(sort, text, reason):
    source = (f"(theory N over group\n"
              f"  (axiom a (ctx (a G) (b G)) {_IN_AN_AXIOM[sort].format(text)}))")
    with pytest.raises(ParseError) as err:
        load_source(source)
    assert str(err.value) == (
        f"2:3: axiom a is not well-formed over group: {reason}")


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------

def test_signature_declaration_matches_builder():
    ws = load_source(GROUP_SOURCE.replace("signature G", "signature mygroup"))
    declared = ws.signatures["mygroup"]
    built = group_signature()
    assert declared.base_types == built.base_types
    assert declared.fun_symbols == built.fun_symbols


def test_duplicate_names_are_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        load_source("(context c (x G)) (context c (y G))")
    with pytest.raises(ParseError, match="duplicate"):
        load_source("(signature group (types X))")  # collides with builtin


# One declaration of each form under the name N: its table, a body the
# loader refuses, and a body it accepts.
REFUSED_AND_ACCEPTED = [
    ("signature", "signatures", "(signature N (types A) (fun (f (B) A)))",
     "(signature N (types A))"),
    ("theory", "theories", "(theory N over group (axiom a (ctx) (= G x x)))",
     "(theory N over group (axiom a (ctx (x G)) (= G x x)))"),
    ("structure", "structures", "(structure N of group (carrier G (0)))",
     "(structure N of group (carrier G (0))"
     " (fun star ((0 0) 0)) (fun e (() 0)) (fun inv ((0) 0)))"),
    ("context", "contexts", "(context N (x))", "(context N (x G))"),
    ("term", "terms", "(term N nosuch x)", "(term N (ctx (x G)) x)"),
    ("formula", "formulas", "(formula N (ctx) (and top))", "(formula N top)"),
    ("type", "types", "(type N (* G))", "(type N (* G G))"),
    ("quiver", "quivers", "(quiver N table nosuch)", "(quiver N winding 3 0)"),
]


def test_a_refused_declaration_is_not_listed_and_its_name_stays_free():
    assert [(head, kind) for head, kind, _, _ in REFUSED_AND_ACCEPTED] == [
        (head, form[0]) for head, form in _FORMS.items()]
    for head, kind, refused, accepted in REFUSED_AND_ACCEPTED:
        ws = builtin_workspace()
        table = getattr(ws, kind)
        with pytest.raises(ParseError) as err:
            load_source(refused, ws)
        assert "duplicate" not in str(err.value), head
        assert ws.declared == [] and "N" not in table, head
        load_source(accepted, ws)
        assert ws.declared == [(head, "N")] and "N" in table, head
        entry = table["N"]
        # the duplicate-name check comes first: a second N is refused as
        # a duplicate, not for its body
        with pytest.raises(ParseError) as err:
            load_source(refused, ws)
        assert str(err.value) == f"1:1: duplicate {head} name 'N'"
        assert ws.declared == [(head, "N")] and table["N"] is entry, head
    # a refused anonymous formula takes no number
    ws = builtin_workspace()
    with pytest.raises(ParseError, match="'and' takes at least two"):
        load_source("(formula (and top))", ws)
    load_source("(formula top)", ws)
    assert ws.declared == [("formula", "formula2")]


def test_unknown_head_is_rejected():
    with pytest.raises(ParseError, match="unknown declaration head"):
        load_source("(frobnicate x)")


@pytest.mark.parametrize("source, message", [
    ("(context)", "1:1: 'context' takes a name"),
    ("(structure s of group (carrier G (0)) (fun))",
     "1:39: 'fun' takes a function symbol"),
    ("(structure s of group (carrier G (0)) (rel))",
     "1:39: 'rel' takes a relation symbol"),
], ids=["context", "fun", "rel"])
def test_a_declaration_without_its_name_is_a_parse_error(source, message):
    with pytest.raises(ParseError) as err:
        load_source(source)
    assert str(err.value) == message


def truncations(node):
    """Copies of a declaration with the trailing items of it, or of one
    of the lists inside it, dropped."""
    if not node.is_list:
        return
    items = node.value
    for k in range(len(items)):
        yield dataclasses.replace(node, value=items[:k])
    for i, item in enumerate(items):
        for cut in truncations(item):
            yield dataclasses.replace(
                node, value=[*items[:i], cut, *items[i + 1:]])


CLAUSES = """
(signature pointed (types P) (fun (p () P)) (rel (Q (P))))
(structure one of pointed (carrier P (x)) (fun p (() x)) (rel Q (x)))
(context c (a P) (b P))
(term t c (pair a p))
"""


@pytest.mark.parametrize("text", [
    (ROOT / "demo.mul").read_text(encoding="utf-8"),
    (ROOT / "tests" / "every_form.mul").read_text(encoding="utf-8"),
    CLAUSES,
], ids=["demo", "every_form", "clauses"])
def test_every_truncated_declaration_loads_or_is_a_load_error(text):
    ws = builtin_workspace()
    for node in parse_sexprs(text):
        for cut in truncations(node):
            copy = Workspace(**{
                f.name: (list if f.name == "declared" else dict)(
                    getattr(ws, f.name))
                for f in dataclasses.fields(Workspace)})
            try:
                _load_declaration(cut, copy)
            except MulinguaError:
                pass
        _load_declaration(node, ws)


def test_forward_references_are_rejected():
    with pytest.raises(ParseError, match="unknown signature"):
        load_source("(theory t over nowhere)")


def test_theory_and_structure_declarations():
    source = """
    (theory commutative over group
      (axiom commutes (ctx (a G) (b G)) (= G (star a b) (star b a))))
    (structure z2 of group
      (carrier G (0 1))
      (fun star ((0 0) 0) ((0 1) 1) ((1 0) 1) ((1 1) 0))
      (fun e (() 0))
      (fun inv ((0) 0) ((1) 1)))
    """
    ws = load_source(source)
    report = check_theory(ws.structures["z2"], ws.theories["commutative"])
    assert report.passed
    assert check_theory(ws.structures["z2"], make_group_theory()).passed


SMALL_SOURCE = "(signature small (types X Y) (fun (f (X) X)) (rel (R (X)) (S (X X))))"


def test_the_loader_and_the_kernel_agree_on_theory_axioms():
    """Seeded formulas over ``small``, in contexts that may repeat a
    variable, leave one out or give it an undeclared type: an axiom
    loads exactly when the kernel accepts it, and a refusal carries the
    kernel's reason at the axiom's clause."""
    rng = random.Random(16)
    ws = load_source(SMALL_SOURCE)
    sig = ws.signatures["small"]
    outcomes = []
    for i in range(200):
        entries = [(name, Base(rng.choice("XXXXXXYZ"))) for name in "ab"
                   if rng.random() < 0.9]
        if entries and rng.random() < 0.1:
            entries.append(entries[0])
        ctx = Context(tuple(entries))
        formula = random_formula(rng, ["a", "b"], rng.randrange(1, 4), [0])
        verdict = well_formed_formula(sig, ctx, formula)
        source = (f"(theory t{i} over small\n"
                  f"  (axiom ax{i} {context_to_dsl(ctx)} {show(formula)}))")
        try:
            load_source(source, ws)
        except ParseError as err:
            assert not verdict
            assert (err.line, err.column) == (2, 3)
            assert str(err) == (f"2:3: axiom ax{i} is not well-formed over "
                                f"small: {verdict.reason}")
            outcomes.append(False)
        else:
            assert verdict, verdict.reason
            assert ws.theories[f"t{i}"].axioms[0].formula == formula
            outcomes.append(True)
    assert 60 <= sum(outcomes) <= 140


def test_structure_totality_is_validated():
    source = """
    (structure broken of group
      (carrier G (0 1))
      (fun star ((0 0) 0))
      (fun e (() 0))
      (fun inv ((0) 0) ((1) 1)))
    """
    with pytest.raises(ParseError, match="not total"):
        load_source(source)


def test_anonymous_formulas_are_numbered_after_every_formula():
    # the builtin workspace holds one formula, `dominance`
    names = list(load_source("(formula top) (formula bottom)").formulas)
    assert names == ["dominance", "formula2", "formula3"]
    names = list(load_source("(formula formula2 top) (formula bottom)").formulas)
    assert names == ["dominance", "formula2", "formula3"]
    fresh = load_source("(formula top) (formula bottom)", Workspace())
    assert list(fresh.formulas) == ["formula1", "formula2"]


def test_anonymous_formula_declaration():
    ws = load_source("(formula (forall (g G) (= G (star g e) g)))")
    (ctx, f), = [ws.formulas[k] for k in ws.formulas if k.startswith("formula")]
    assert ctx == Context()
    assert isinstance(f, Forall)


def test_named_formula_with_context():
    ws = load_source(
        "(formula comm (ctx (a G) (b G)) (= G (star a b) (star b a)))")
    ctx, f = ws.formulas["comm"]
    assert ctx.names() == ("a", "b")
    assert eval_formula(cyclic_group_structure(12), f,
                        {"a": Atom("G", 2), "b": Atom("G", 5)})


def test_term_and_type_declarations():
    source = """
    (context pair-of-gs (x G) (y G))
    (term doubled pair-of-gs (star x x))
    (term squared (ctx (x G)) (star x x))
    (type gg (* G G))
    """
    ws = load_source(source)
    ctx, term = ws.terms["doubled"]
    assert ctx == ws.contexts["pair-of-gs"]
    assert term == App("star", (Var("x"), Var("x")))
    inline_ctx, _ = ws.terms["squared"]
    assert inline_ctx.names() == ("x",)
    assert ws.types["gg"] == product(Base("G"), Base("G"))


def test_subset_values_in_structures():
    source = """
    (structure tiny of vls
      (carrier Pitch (p q))
      (carrier Arrow (a b c))
      (fun vlr ((p p) (set a)) ((p q) (set b c)) ((q p) (set)) ((q q) (set))))
    """
    ws = load_source(source)
    st = ws.structures["tiny"]
    table = st.fun_tables["vlr"]
    entry = table[(Atom("Pitch", 0), Atom("Pitch", 1))]
    assert list(entry) == [Atom("Arrow", 1), Atom("Arrow", 2)]


def test_a_predicate_reads_as_a_set_and_a_power_as_a_table():
    """(-> A Prop) and (power A) read both value forms the same way."""
    st = load_source("""
        (signature subsets (types A)
          (fun (pred () (-> A Prop)) (sub () (power A))))
        (structure m of subsets
          (carrier A (a b))
          (fun pred (() (set b)))
          (fun sub (() (table (b true) (a false)))))""").structures["m"]
    a, b = Atom("A", 0), Atom("A", 1)
    members_b = TableV(((a, TruthV(False)), (b, TruthV(True))))
    assert st.fun_tables["pred"][()] == members_b
    assert st.fun_tables["sub"][()] == members_b
    reloaded(st)


def test_a_pair_reads_its_first_component_against_a_dependent_sum():
    """A pair value reads its first component against its sum's index
    type, a dependent sum's too, so an element name two carriers share
    resolves; the second is read against the body only when the body
    does not use the binder."""
    tables = []
    for codomain in ("(sigma (y X) (prop (= X y y)))", "(* X 1)"):
        st = load_source(f"""
            (signature s (types X Y) (fun (f (X) {codomain})))
            (structure m of s
              (carrier X (a b))
              (carrier Y (a))
              (fun f ((a) (pair a star)) ((b) (pair b star))))""").structures["m"]
        tables.append(st.fun_tables["f"])
        reloaded(st)
    assert tables[0] == tables[1]
    assert tables[0][(Atom("X", 0),)] == PairV(Atom("X", 0), StarV())


def test_a_set_is_refused_against_a_function_type_not_into_prop():
    with pytest.raises(ParseError) as err:
        load_source("""(signature s (types A B) (fun (t () (-> A B))))
            (structure m of s (carrier A (a)) (carrier B (b))
              (fun t (() (set a))))""")
    assert str(err.value) == (
        "3:26: 'set' values need an expected subset type (power or predicate)")


def test_quiver_declarations():
    source = """
    (structure tiny of vls
      (carrier Pitch (p q))
      (carrier Arrow (a b))
      (fun vlr ((p p) (set)) ((p q) (set a b)) ((q p) (set)) ((q q) (set))))
    (quiver tq table tiny)
    (quiver wind winding 3 1)
    """
    ws = load_source(source)
    assert len(ws.quivers["tq"].arrows) == 2
    assert len(ws.quivers["wind"].arrows) == 27


def test_group_action_quiver_declaration():
    source = """
    (signature cyc-act (types H X)
      (fun (star (H H) H) (e () H) (inv (H) H) (act (H X) X)))
    (structure rot of cyc-act
      (carrier H (r0 r1 r2))
      (carrier X (x0 x1 x2))
      (fun star ((r0 r0) r0) ((r0 r1) r1) ((r0 r2) r2)
                ((r1 r0) r1) ((r1 r1) r2) ((r1 r2) r0)
                ((r2 r0) r2) ((r2 r1) r0) ((r2 r2) r1))
      (fun e (() r0))
      (fun inv ((r0) r0) ((r1) r2) ((r2) r1))
      (fun act ((r0 x0) x0) ((r0 x1) x1) ((r0 x2) x2)
               ((r1 x0) x1) ((r1 x1) x2) ((r1 x2) x0)
               ((r2 x0) x2) ((r2 x1) x0) ((r2 x2) x1)))
    (quiver rotq group-action rot X act)
    """
    ws = load_source(source)
    q = ws.quivers["rotq"]
    assert len(q.vertices) == 3 and len(q.arrows) == 9


# ---------------------------------------------------------------------------
# printing round trips
# ---------------------------------------------------------------------------

def test_signature_print_parse_round_trip():
    for sig in (group_signature(),):
        ws = Workspace()
        text = signature_to_dsl(sig)
        load_source(text, ws)
        assert ws.signatures[sig.name] == sig


def test_theory_print_parse_round_trip():
    th = make_group_theory()
    ws = Workspace()
    ws.signatures["group"] = group_signature()
    load_source(theory_to_dsl(th), ws)
    again = ws.theories["group"]
    assert again.axioms == th.axioms


def test_structure_print_parse_round_trip():
    st = cyclic_group_structure(12)
    ws = Workspace()
    ws.signatures["group"] = group_signature()
    load_source(structure_to_dsl(st, "z12"), ws)
    again = ws.structures["z12"]
    assert again.carriers == st.carriers
    assert again.fun_tables == st.fun_tables
    assert again.rel_tables == st.rel_tables
    assert check_theory(again, make_group_theory()).passed


# ---------------------------------------------------------------------------
# builtins, built on first lookup
# ---------------------------------------------------------------------------

def test_builtin_workspace_builds_nothing_until_a_lookup():
    with calls_into(musiclib, voiceleading) as called:
        ws = builtin_workspace()
        assert "z12" in ws.structures and "ti-quiver" in ws.quivers
        assert "nope" not in ws.structures
        assert len(ws.structures) == 14 and len(ws.quivers) == 2
        assert len(ws.formulas) == 1 and list(ws.formulas) == ["dominance"]
        assert set(ws.signatures) == {
            "group", "gis", "music", "harmony", "dominance", "domfunc", "vls"}
        assert ws.structures.get("nope") is None
    assert called == []
    with calls_into(musiclib, voiceleading) as called:
        ws.quivers["ti-quiver"]
    assert "ti_group" in called and "vls" in called


def test_winding12_is_built_without_the_ti_group():
    ws = builtin_workspace()
    with calls_into(musiclib, voiceleading) as called:
        q = ws.quivers["winding12"]
    assert "ti_group" not in called and "cyclic_group_structure" not in called
    assert q.vertices == FinSet(tuple(Atom("PC", i) for i in range(12)))
    assert q.element_names == {"PC": tuple(map(str, range(12)))}


def test_builtin_is_built_once_per_workspace():
    ws = builtin_workspace()
    first = ws.quivers["ti-quiver"]
    with calls_into(musiclib, voiceleading) as called:
        assert ws.quivers["ti-quiver"] is first
        assert ws.quivers.get("ti-quiver") is first
    assert called == []
    assert dict(ws.quivers.items())["ti-quiver"] is first
    assert builtin_workspace().quivers["ti-quiver"] is not first


def test_builtin_name_can_be_replaced_or_removed_unbuilt():
    ws = builtin_workspace()
    mine = cyclic_group_structure(3)
    with calls_into(musiclib, voiceleading) as called:
        ws.structures["z12"] = mine
        del ws.structures["z7"]
    assert called == []
    assert ws.structures["z12"] is mine
    assert "z7" not in ws.structures and len(ws.structures) == 13
    with pytest.raises(KeyError):
        ws.structures["z7"]


def reloaded(st):
    """The structure printed by structure_to_dsl and loaded again."""
    fresh = Workspace()
    fresh.signatures[st.signature.name] = st.signature
    load_source(structure_to_dsl(st, "copy"), fresh)
    again = fresh.structures["copy"]
    assert again.carriers == st.carriers
    assert again.fun_tables == st.fun_tables
    assert again.rel_tables == st.rel_tables
    return again


def test_builtin_export_reload_consistency():
    ws = builtin_workspace()
    refused = []
    for name in ws.structures:
        try:
            reloaded(ws.structures[name])
        except StructureError as err:
            refused.append((name, str(err)))
    # the Chord carrier holds pitch-class-set tables, not atoms
    assert refused == [("triads", (
        "carrier 'Chord' cannot be written in source: its elements are "
        "not the atoms (atom Chord 0), (atom Chord 1), ..."))]


def test_a_relations_entries_print_in_rendered_order():
    # a relation is a frozenset of tuples of atoms, which hash by their
    # addresses, so its set order varies from run to run; the printed
    # order sorts by rendering, not by carrier index or declaration order
    st = load_source("""
    (signature order (types X) (rel (R (X X))))
    (structure s of order (carrier X (c a b))
      (rel R (c a) (b b) (a c) (c c) (b a) (a b) (c b)))""").structures["s"]
    assert structure_to_dsl(st, "s") == (
        "(structure s of order\n"
        "  (carrier X (c a b))\n"
        "  (rel R (a b) (a c) (b a) (b b) (c a) (c b) (c c)))")


FIBERS = """
(signature quiv (types Pitch Arrow) (fun (Fiber (Pitch Pitch) Type)))
(structure loops of quiv
  (carrier Pitch (home))
  (carrier Arrow (up down))
  (fun Fiber ((home home) (set up down))))
"""


def test_family_members_are_read_by_name_and_round_trip():
    st = load_source(FIBERS).structures["loops"]
    home = Atom("Pitch", 0)
    assert st.fun_tables["Fiber"][(home, home)] == FinSet.of(
        Atom("Arrow", 0), Atom("Arrow", 1))
    assert "(fun Fiber ((home home) (set up down)))" in structure_to_dsl(st, "c")
    reloaded(st)


def test_a_member_name_two_carriers_share_needs_an_atom():
    shared = FIBERS.replace("(home)", "(up)").replace("home", "up")
    with pytest.raises(ParseError) as err:
        load_source(shared)
    assert str(err.value) == (
        "6:28: element 'up' is named in carriers Pitch, Arrow; write "
        "(atom T i) for the i-th element of carrier T")
    with pytest.raises(ParseError, match="'nope' is named in no carrier"):
        load_source(FIBERS.replace("(set up down))))", "(set nope))))"))
    st = load_source(shared.replace(
        "(set up down))))", "(set (atom Arrow 0) down))))")).structures["loops"]
    assert "(fun Fiber ((up up) (set (atom Arrow 0) down)))" in \
        structure_to_dsl(st, "c")
    reloaded(st)


def test_a_fiber_member_outside_its_carrier_is_a_load_error():
    with pytest.raises(ParseError) as err:
        load_source(FIBERS.replace("(set up down)", "(set (atom Arrow 5))"))
    assert str(err.value) == (
        "3:1: family 'Fiber' at ('home', 'home') has member (atom Arrow 5) "
        "outside carrier 'Arrow'")


def test_a_fiber_is_written_as_a_set():
    for bare in ("(up down)", "()", "up", "((atom Arrow 0) down)"):
        with pytest.raises(ParseError) as err:
            load_source(FIBERS.replace("(set up down)", bare))
        assert str(err.value) == (
            "6:27: a family's fiber is written (set member ...)")
    empty = load_source(FIBERS.replace("(set up down)", "(set)"))
    assert "(fun Fiber ((home home) (set)))" in \
        structure_to_dsl(empty.structures["loops"], "c")
    reloaded(empty.structures["loops"])


def test_a_fiber_keeps_the_order_its_members_are_written_in():
    st = load_source("""
        (structure loops of vls
          (carrier Pitch (home))
          (carrier Arrow (up down))
          (fun vlr ((home home) (set down up))))""").structures["loops"]
    home, up, down = Atom("Pitch", 0), Atom("Arrow", 0), Atom("Arrow", 1)
    assert st.fun_tables["vlr"][(home, home)].elements == (down, up)
    assert [arrow_payload(a) for a in vls_of_structure(st).arrows] == [down, up]
    assert "(fun vlr ((home home) (set down up)))" in structure_to_dsl(st, "c")
    reloaded(st)


SECTION = """
(signature sec (types A B) (fun (s () (pi (x A) B))))
(structure st of sec
  (carrier A (x y))
  (carrier B (x y))
  (fun s (() (section (x y) (y x)))))
"""


def test_a_section_into_a_fixed_type_reads_its_outputs_against_it():
    st = load_source(SECTION).structures["st"]
    a, b = Atom("A", 0), Atom("A", 1)
    assert st.fun_tables["s"][()] == SectionV(
        ((a, Atom("B", 1)), (b, Atom("B", 0))))
    assert "(fun s (() (section (x y) (y x))))" in structure_to_dsl(st, "c")
    reloaded(st)


def test_tree_labels_are_read_against_the_w_type():
    ws = load_source("""
        (signature trees (types L)
          (fun (leafy () (w (x L) 0))
               (listy () (w (l (+ 1 L))
                            (prop (exists (a L) (= (+ 1 L) l (inr a))))))))
        (structure t of trees
          (carrier L (a b))
          (fun leafy (() (tree a)))
          (fun listy (() (tree (inr b) (tree (inl star))))))""")
    st = ws.structures["t"]
    assert st.fun_tables["leafy"][()] == TreeV(Atom("L", 0), ())
    assert st.fun_tables["listy"][()] == TreeV(
        InrV(Atom("L", 1)), (TreeV(InlV(StarV()), ()),))
    reloaded(st)


def test_every_value_form_round_trips():
    source = pathlib.Path(__file__).resolve().parent / "every_form.mul"
    reloaded(load_source(source.read_text(encoding="utf-8")).structures["every"])


def test_generated_round_trips():
    rng = random.Random(79)
    ws = builtin_workspace()
    base_text = theory_to_dsl(ws.theories["gis"])
    fresh = Workspace()
    fresh.signatures["gis"] = ws.signatures["gis"]
    load_source(base_text, fresh)
    assert fresh.theories["gis"].axioms == ws.theories["gis"].axioms
    # contexts print and reload
    for _ in range(20):
        names = [f"v{i}" for i in range(rng.randrange(1, 4))]
        ctx = Context(tuple((n, Base("G")) for n in names))
        text = f"(context c {context_to_dsl(ctx)[5:-1]})"
        ws2 = Workspace()
        load_source(text, ws2)
        assert ws2.contexts["c"] == ctx
