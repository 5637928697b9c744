"""Finite-set interpretation, evaluation, theory checking, and
structure homomorphisms."""

import ast
import copy
import dataclasses
import hashlib
import itertools
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as hst

from mulingua.diagnostics import BudgetError, MulinguaError, StructureError
from mulingua.dsl import load_source, parse_term_node, parse_type_node
from mulingua.kernel import check_term, infer_term
from mulingua.logic import well_formed_formula
from mulingua.musiclib import (
    cyclic_group_structure, group_signature, make_gis_theory,
    make_group_theory, music_signature, pitch_universe, subtraction_structure,
    ti_group, triad_model, trivial_group_structure, z_gis_structure,
    z_music_structure,
)
from mulingua.proofs import prop_as_type
from mulingua.semantics import (
    Atom, FinSet, InlV, InrV, PairV, SectionV, StarV, Structure,
    StructureHom, TableV, TreeV, TruthV, all_environments,
    check_structure_hom, check_theory, counterexample, derivable,
    eval_formula, eval_term,
    identity_hom, interpret_type, iter_type, render_value, type_size,
    value_in_type,
)
from mulingua.sexpr import parse_sexprs
from mulingua.syntax import (
    And, App, Base, Bottom, Context, Coproduct, Eq, Exists, FamApp, Forall,
    FunSymbol, Implies, Lambda, Member, Or, Pair, Pi, Prop, PropType, RelAtom,
    RelSymbol, Sigma, Signature, Star, Top, Universe, Var, W, arrow,
    free_vars, fresh_name, product, show, substitute,
)

from mulingua.voiceleading import transporters

from generators import (
    BINDERS, FUNCTION_CONTEXT, _random_x_formula, family_signature,
    function_signature, neg, random_closed_formula, random_family_structure,
    random_formula, random_function_formula, random_function_structure,
    random_group_element_term, random_tiny_structure, random_type,
    random_typed_term, rename_bound, tiny_signature, unit, zero,
)

GROUP = group_signature()
Z12 = cyclic_group_structure(12)
GIS12 = z_gis_structure(12)
MUSIC12 = z_music_structure(12)
G = Base("G")


# ---------------------------------------------------------------------------
# interpretation of types
# ---------------------------------------------------------------------------

def test_prop_is_two_valued():
    assert type_size(Z12, Prop()) == 2
    assert interpret_type(Z12, Prop()).elements == (TruthV(False), TruthV(True))


def test_product_counts_multiply():
    assert type_size(Z12, product(G, G)) == 144
    assert len(interpret_type(Z12, product(G, G))) == 144


def test_pi_over_empty_index_is_terminal():
    empty_sigma = Sigma("x", zero(), G)
    assert type_size(Z12, empty_sigma) == 0
    pi = Pi("p", empty_sigma, G)
    carrier = interpret_type(Z12, pi)
    assert carrier.elements == (SectionV(()),)


def test_arrow_and_power_sizes():
    assert type_size(Z12, arrow(unit(), G)) == 12
    assert type_size(Z12, arrow(G, Prop())) == 2 ** 12
    assert type_size(Z12, Pi("x", G, Prop())) == 2 ** 12


def test_coproduct_enumeration_order():
    c = interpret_type(Z12, Coproduct(unit(), Prop()))
    rendered = [render_value(v) for v in c]
    assert rendered == ["(inl star)", "(inr false)", "(inr true)"]


def test_dependent_sigma_size():
    # fibers fin(p) have p elements, so the total is 0 + 1 + ... + 11
    t = Sigma("p", Base("PC"), FamApp("fin", (Var("p"),)))
    assert type_size(MUSIC12, t) == sum(range(12))


def test_sizes_are_exact_up_to_the_budget_and_budget_plus_one_above():
    fin = FamApp("fin", (Var("p"),))
    cases = [  # (type, structure, exact size)
        (product(G, G), Z12, 144),
        (Coproduct(G, product(G, G)), Z12, 156),
        (arrow(G, Prop()), Z12, 2 ** 12),
        (Pi("x", G, Prop()), Z12, 2 ** 12),
        (Pi("x", G, G), Z12, 12 ** 12),
        (Sigma("x", G, G), Z12, 144),
        (Sigma("p", Base("PC"), fin), MUSIC12, sum(range(12))),
        (Pi("p", Base("PC"), fin), MUSIC12, 0),
        (Pi("p", Base("PC"), Coproduct(unit(), fin)), MUSIC12, 479001600),
        (Pi("x", Base("PC"), fin), MUSIC12, 5 ** 12),
    ]
    env = {"p": Atom("PC", 5)}
    for t, st, exact in cases:
        for budget in (exact - 1, exact, exact + 1, 10 ** 6):
            if budget >= 12:  # dependent fibers enumerate a 12-element index
                assert type_size(st, t, env, budget) == min(exact, budget + 1)
    assert type_size(MUSIC12, fin, env, budget=3) == 4
    # a size with thousands of digits is never computed
    huge = arrow(arrow(arrow(G, Prop()), Prop()), Prop())
    assert type_size(Z12, huge) == 10 ** 6 + 1
    assert type_size(Z12, arrow(huge, G), budget=10) == 11
    assert type_size(Z12, Pi("x", G, huge), budget=10) == 11


def test_only_a_family_symbol_has_fibers():
    """``pcint`` has a table, but it is no type family."""
    from mulingua.diagnostics import StructureError
    args = (App("p0"), App("p1"))
    for name in ("pcint", "nope"):
        with pytest.raises(StructureError,
                           match=f"no table for type family '{name}'"):
            interpret_type(MUSIC12, FamApp(name, args))


def test_budget_overflow_on_materialization():
    with pytest.raises(BudgetError):
        interpret_type(Z12, arrow(G, G))  # 12^12 tables


def test_quantifier_over_huge_function_type_overflows():
    f = Forall("f", arrow(G, G), Top())
    with pytest.raises(BudgetError):
        eval_formula(Z12, f)


def test_budget_env_var_override(monkeypatch):
    from mulingua.semantics import element_budget
    monkeypatch.setenv("MULINGUA_BUDGET", "10")
    assert element_budget() == 10
    assert element_budget(500) == 500
    with pytest.raises(BudgetError):
        interpret_type(Z12, product(G, G))  # 144 > 10
    monkeypatch.delenv("MULINGUA_BUDGET")
    assert element_budget() == 10 ** 6


@pytest.mark.parametrize("raw", ["-5", "0"])
def test_budget_env_var_must_be_positive(monkeypatch, raw):
    from mulingua.semantics import element_budget
    monkeypatch.setenv("MULINGUA_BUDGET", raw)
    with pytest.raises(BudgetError, match="positive integer"):
        element_budget()
    assert element_budget(3) == 3


def test_theory_check_reads_the_budget_variable_once(monkeypatch):
    import types
    from mulingua import semantics

    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    fake_os = types.SimpleNamespace(environ=Environ(MULINGUA_BUDGET="1000"))
    monkeypatch.setattr(semantics, "os", fake_os)
    assert check_theory(Z12, make_group_theory()).passed
    assert reads == ["MULINGUA_BUDGET"]
    reads.clear()
    ctx = Context.of(("a", G), ("b", G))
    assert derivable(Z12, ctx, Eq(G, Var("a"), Var("a")))
    assert reads == ["MULINGUA_BUDGET"]


def test_tree_type_of_leaves_is_finite():
    t = W("x", G, zero())
    carrier = interpret_type(Z12, t)
    assert len(carrier) == 12
    assert all(v.branches == () for v in carrier)


def test_tree_type_with_growth_overflows():
    t = W("p", Base("PC"), FamApp("fin", (Var("p"),)))
    with pytest.raises(BudgetError):
        type_size(MUSIC12, t)


def test_infinite_tree_type_yields_its_leaves_then_refuses():
    from mulingua.proofs import inhabit
    from mulingua.semantics import TreeV
    t = W("p", Base("PC"), FamApp("fin", (Var("p"),)))
    # (fin 0) is empty, so pitch class 0 is the one leaf; every other
    # label branches, so trees grow without end
    assert inhabit(MUSIC12, t).value == TreeV(Atom("PC", 0), ())
    with pytest.raises(BudgetError, match=r"^tree type \(w \(p PC\) \(fin p\)\) "
                                          r"has infinitely many trees$"):
        type_size(MUSIC12, t)


def test_tree_type_without_leaves_is_empty():
    assert type_size(Z12, W("x", G, unit())) == 0
    assert interpret_type(Z12, W("x", zero(), unit())) == FinSet(())


def test_product_reads_one_element_per_factor_before_the_first_tuple():
    from mulingua.semantics import _product
    reads = []

    def factor(name, size):
        for i in range(size):
            reads.append((name, i))
            yield i

    empty = _product([factor("a", 3), factor("b", 0), factor("c", 2)])
    assert next(empty, None) is None and reads == [("a", 0)]
    reads.clear()
    tuples = _product(factor(n, 2) for n in "ab")
    assert next(tuples) == (0, 0) and reads == [("a", 0), ("b", 0)]
    assert next(_product([factor("c", 2)], repeat=0)) == ()
    assert ("c", 0) not in reads


def test_product_follows_itertools_order():
    from mulingua.semantics import _product
    rng = random.Random(73)
    for _ in range(200):
        pools = [list(range(rng.randrange(4))) for _ in range(rng.randrange(4))]
        repeat = rng.randrange(3)
        assert (list(_product(map(iter, pools), repeat))
                == list(itertools.product(*pools, repeat=repeat)))


def test_arrow_witness_searches_the_codomain_once(monkeypatch):
    from mulingua import semantics
    from mulingua.proofs import inhabit
    calls = []
    evaluate = semantics.eval_formula

    def counting(*args):
        calls.append(args[1])
        return evaluate(*args)

    monkeypatch.setattr(semantics, "eval_formula", counting)
    # the first x with x * x = e other than e itself is 6
    square_root = Sigma("x", G, PropType(And(
        Eq(G, App("star", (Var("x"), Var("x"))), App("e")),
        neg(Eq(G, Var("x"), App("e"))))))
    alone = inhabit(Z12, square_root).value
    searched = len(calls)
    calls.clear()
    table = inhabit(Z12, arrow(G, square_root)).value
    assert len(calls) == searched
    assert table == TableV(tuple((g, alone) for g in Z12.carrier("G")))
    assert alone.first == Atom("G", 6)


def test_a_proposition_domain_evaluates_its_formula_once(monkeypatch):
    from mulingua import semantics
    inner = Eq(G, App("e"), App("e"))
    calls = []
    evaluate = semantics.eval_formula

    def counting(*args):
        calls.append(args[1])
        return evaluate(*args)

    monkeypatch.setattr(semantics, "eval_formula", counting)
    z3 = cyclic_group_structure(3)
    assert evaluate(z3, Forall("p", PropType(inner), Top()))
    assert calls == [inner]


def test_value_in_type():
    assert value_in_type(Z12, Atom("G", 3), G)
    assert not value_in_type(Z12, Atom("G", 3), unit())
    table = eval_term(Z12, Lambda("x", G, Var("x")))
    assert value_in_type(Z12, table, arrow(G, G))
    assert not value_in_type(Z12, table, arrow(G, Prop()))


def test_checked_tree_terms_evaluate_to_trees():
    # Trees whose branching arity is the position family of their label.
    # There is no reduction inside types, so the empty branch function of
    # a leaf goes through a declared eliminator with a semantically empty
    # domain.
    from mulingua.kernel import check_term
    from mulingua.musiclib import music_signature
    from mulingua.semantics import TreeV
    from mulingua.syntax import App, Context, FamApp, Signature, Sup, W
    from mulingua.syntax import FunSymbol

    tree_type = W("x", Base("PC"), FamApp("fin", (Var("x"),)))
    base_sig = music_signature(12)
    sig = Signature(
        base_sig.name, base_sig.base_types,
        base_sig.fun_symbols + (
            FunSymbol("nobranch", (FamApp("fin", (App("p0"),)),), tree_type),),
        base_sig.rel_symbols)
    st = dataclasses.replace(MUSIC12, signature=sig,
                             fun_tables={**MUSIC12.fun_tables, "nobranch": {}})
    assert st.validate()

    leaf = Sup(App("p0"),
               Lambda("b", FamApp("fin", (App("p0"),)),
                      App("nobranch", (Var("b"),))))
    assert check_term(sig, Context(), leaf, tree_type)
    leaf_value = eval_term(st, leaf)
    assert leaf_value == TreeV(Atom("PC", 0), ())
    assert value_in_type(st, leaf_value, tree_type)

    node = Sup(App("p2"),
               Lambda("b", FamApp("fin", (App("p2"),)), leaf))
    assert check_term(sig, Context(), node, tree_type)
    node_value = eval_term(st, node)
    assert node_value == TreeV(Atom("PC", 2), (leaf_value, leaf_value))
    assert value_in_type(st, node_value, tree_type)


# Values from outside most generated types, besides the ones other
# generated types enumerate.
STRANGERS = (Atom("X", 7), Atom("Y", 0), StarV(), TruthV(False),
             PairV(Atom("X", 0), Atom("Y", 0)), TableV(()), SectionV(()),
             TreeV(Atom("X", 0), ()))


def _outcome(thunk):
    """The thunk's value, or its error's type and message."""
    try:
        return thunk()
    except MulinguaError as err:
        return (type(err).__name__, str(err))


def type_records(rng: random.Random):
    """Per seeded type and budget: its size, up to its first 50 elements,
    and membership verdicts for some of them and for outside values; an
    error is recorded as its type and message, after the elements that
    came before it."""
    for _ in range(300):
        st = random_family_structure(rng)
        t, other = random_type(rng, 3), random_type(rng, 2)
        try:  # values of another type, mostly from outside this one
            outsiders = list(itertools.islice(
                iter_type(st, other, budget=1000), 3))
        except MulinguaError:
            outsiders = []
        for budget in (1000, 2):
            yield show(t), budget, _outcome(lambda: type_size(st, t, budget=budget))
            elements, error = [], None
            try:
                for v in itertools.islice(iter_type(st, t, budget=budget), 50):
                    elements.append(v)
            except MulinguaError as err:
                error = (type(err).__name__, str(err))
            yield [render_value(v, st) for v in elements], error
            for v in (*elements[:5], *outsiders, *STRANGERS):
                yield render_value(v, st), _outcome(
                    lambda: value_in_type(st, v, t, budget=budget))


def test_seeded_type_interpretation_matches_the_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for record in type_records(random.Random(2026_10)):
        digest.update(repr(record).encode("utf-8"))
        count += 1
    assert count == TYPE_COUNT
    assert digest.hexdigest() == TYPE_DIGEST


TYPE_COUNT = 7793
TYPE_DIGEST = (
    "f197fc83a55bec250612f773acec82c1de116d2c99c76688b551d29050441624")


def test_a_product_and_a_sigma_whose_binder_does_not_occur_are_one_type():
    """(* A B) and (sigma (x A) B), x not free in B, read as equal nodes
    with equal hashes, both printed as the product; the kernel accepts a
    pair term at one exactly when at the other; and they have the same
    size, elements and members at a budget above and below their size."""
    rng = random.Random(25)
    for _ in range(100):
        st = random_family_structure(rng)
        a, b = random_type(rng, 2), random_type(rng, 2)
        x = fresh_name("x", free_vars(b))
        pair_text = f"(* {show(a)} {show(b)})"
        read = [parse_type_node(parse_sexprs(text)[0]) for text in (
            pair_text, f"(sigma ({x} {show(a)}) {show(b)})")]
        assert read[0] == read[1] and hash(read[0]) == hash(read[1])
        assert [show(t) for t in read] == [pair_text, pair_text]
        outsiders = (*STRANGERS, PairV(Atom("X", 0), StarV()))
        for budget in (1000, 2):
            sizes, element_lists, verdicts = [], [], []
            for t in read:
                sizes.append(_outcome(lambda: type_size(st, t, budget=budget)))
                elements = _outcome(lambda: list(itertools.islice(
                    iter_type(st, t, budget=budget), 50)))
                element_lists.append(elements)
                values = elements[:5] if isinstance(elements, list) else []
                verdicts.append([_outcome(lambda: value_in_type(
                    st, v, t, budget=budget)) for v in (*values, *outsiders)])
            assert sizes[0] == sizes[1], pair_text
            assert element_lists[0] == element_lists[1], pair_text
            assert verdicts[0] == verdicts[1], pair_text
    ctx = Context.of(("g", G))
    for _ in range(200):
        term, _t = random_typed_term(rng, ctx, 3)
        if not isinstance(term, Pair):
            continue
        # a type the term has or, as often, one it does not
        (_, a), (_, b) = (random_typed_term(rng, ctx, 2) for _ in range(2))
        if rng.random() < 0.5:
            a, b = infer_term(GROUP, ctx, term.first), infer_term(
                GROUP, ctx, term.second)
        x = fresh_name("y", free_vars(b) | set(ctx.names()))
        verdicts = [bool(check_term(GROUP, ctx, term, t))
                    for t in (product(a, b), Sigma(x, a, b))]
        assert verdicts[0] == verdicts[1], show(term)


def test_each_sugar_form_and_its_expansion_are_one_type():
    """0 and (prop bottom), 1 and (prop top), and (not F) and (implies F
    bottom) read as equal nodes with equal hashes, printed as the sugar.
    0 and 1 have the size, elements and members of their expansions at a
    budget above and below their size, alone, inside a product, as an
    arrow's codomain and as a tree type's arity, and so has (prop (not
    F)) as an arity over F's variable; (not F) and its expansion have one
    truth value and one proof type.  The kernel takes star at (prop top)
    but not at (prop bottom), and absurd of a proof of bottom."""
    def read(text, sort=parse_type_node):
        return sort(parse_sexprs(text)[0])

    rng = random.Random(34)
    for _ in range(40):
        st = random_family_structure(rng)
        a = show(random_type(rng, 1))
        f = show(_random_x_formula(rng, ("x0",), 2))
        arity = "(w (x0 X) {})"  # the one shape that binds F's x0
        closed = ("{}", f"(* {a} {{}})", f"(-> {a} {{}})", arity)
        for sugar, expansion, shapes in (
                ("0", "(prop bottom)", closed), ("1", "(prop top)", closed),
                (f"(prop (not {f}))", f"(prop (implies {f} bottom))",
                 (arity,))):
            for shape in shapes:
                text = shape.format(sugar)
                types = [read(shape.format(t)) for t in (sugar, expansion)]
                assert types[0] == types[1], text
                assert hash(types[0]) == hash(types[1]), text
                assert [show(t) for t in types] == [text, text]
                for budget in (1000, 2):
                    sizes, element_lists, verdicts = [], [], []
                    for t in types:
                        sizes.append(_outcome(
                            lambda: type_size(st, t, budget=budget)))
                        elements = _outcome(lambda: list(itertools.islice(
                            iter_type(st, t, budget=budget), 50)))
                        element_lists.append(elements)
                        values = elements[:5] if isinstance(
                            elements, list) else []
                        verdicts.append([_outcome(lambda: value_in_type(
                            st, v, t, budget=budget))
                            for v in (*values, *STRANGERS)])
                    assert sizes[0] == sizes[1], text
                    assert element_lists[0] == element_lists[1], text
                    assert verdicts[0] == verdicts[1], text
        formulas = [read(text, parse_term_node) for text in (
            f"(not {f})", f"(implies {f} bottom)")]
        assert formulas[0] == formulas[1]
        assert hash(formulas[0]) == hash(formulas[1])
        assert [show(g) for g in formulas] == [f"(not {f})"] * 2
        for x0 in st.carrier("X"):
            truths = [_outcome(lambda: eval_formula(st, g, {"x0": x0}))
                      for g in formulas]
            assert truths[0] == truths[1], f
        assert prop_as_type(formulas[0]) == prop_as_type(formulas[1])
    sig, empty = family_signature(), Context()
    for text in ("1", "(prop top)"):
        assert check_term(sig, empty, Star(), read(text))
    assert [check_term(sig, empty, Star(), read(text)).reason
            for text in ("0", "(prop bottom)")] == [
        "type mismatch: star has type 1, expected 0"] * 2
    proof_of_bottom = Context.of(("z", read("(prop bottom)")))
    assert check_term(sig, proof_of_bottom, read("(absurd z)", parse_term_node),
                      Base("X"))


def test_a_table_and_a_section_are_members_of_a_function_type_alike():
    """Both membership tests take a function by its entries, whatever
    its class: a table and a section with the entries of an element of
    a seeded function type (arrow, power or Pi) are both in it."""
    rng = random.Random(22)
    checked = 0
    while checked < 60:
        st, t = random_family_structure(rng), random_type(rng, 3)
        try:
            members = interpret_type(st, t, budget=64)
        except MulinguaError:  # over the budget, or infinitely many trees
            continue
        functions = [v for v in members.elements[:3]
                     if isinstance(v, (TableV, SectionV))]
        for v in functions:
            for w in (TableV(v.entries), SectionV(v.entries)):
                assert value_in_type(st, w, t, budget=64), (show(t), w)
                assert w in members
        checked += bool(functions)


def test_a_function_whose_length_cannot_match_its_domain_is_refused_in_budget():
    """Membership sizes a function type's domain before enumerating it:
    at budget 2, a table or section shorter than the domain (144 pairs,
    or the 12 elements of G) is refused rather than over the budget, and
    the empty function lies in a function type whose domain is empty,
    although enumerating that domain walks the 12 elements of G.  The
    empty domain is the functions from G into 0: a pair type with an
    empty factor, such as (* G 0), stops at that factor's first element
    and walks nothing."""
    pairs = Sigma("x", G, G)
    pair = PairV(Atom("G", 0), Atom("G", 0))
    for v in (TableV(()), SectionV(()), SectionV(((pair, TruthV(True)),))):
        assert value_in_type(Z12, v, arrow(pairs, Prop()), budget=2) is False
    fiber = Pi("x", G, PropType(Eq(G, Var("x"), Var("x"))))
    assert value_in_type(Z12, SectionV(((Atom("G", 0), StarV()),)), fiber,
                         budget=2) is False
    # three entries may be the whole of an over-budget domain
    with pytest.raises(BudgetError):
        value_in_type(Z12, TableV(((pair, TruthV(True)),) * 3),
                      arrow(pairs, Prop()), budget=2)
    assert list(iter_type(Z12, Sigma("x", G, zero()), budget=2)) == []
    empty = Coproduct(arrow(G, zero()), zero())
    assert type_size(Z12, empty, budget=2) == 0
    with pytest.raises(BudgetError):
        list(iter_type(Z12, empty, budget=2))
    for v in (TableV(()), SectionV(())):
        assert value_in_type(Z12, v, arrow(empty, Prop()), budget=2)


def test_no_finite_function_is_total_on_infinitely_many_trees():
    """Over X = {0, 1} with R = {0}, the trees labelled by X whose arity
    at x is (prop (R x)) are infinitely many: 0 branches, 1 is a leaf.
    No finite table or section is a function on them, nor on a product
    or an arrow that has infinitely many elements through them; a product
    with an empty factor, or an arrow into an empty type, is empty
    however many trees it meets, so the empty function lies on it.
    Sizing and enumerating the tree type still raise, and a finite domain
    over the budget is still refused by enumerating it."""
    x0, x1 = Atom("X", 0), Atom("X", 1)
    sig = Signature("trees", ("X",), (), (RelSymbol("R", (X,)),))
    st = Structure(sig, {"X": FinSet.of(x0, x1)},
                   rel_tables={"R": frozenset({(x0,)})})
    trees = W("x0", X, PropType(RelAtom("R", (Var("x0"),))))
    assert value_in_type(st, SectionV(()), Pi("t", trees, unit()),
                         budget=1000) is False
    leaf = TreeV(x1, ())
    for dom in (trees, product(X, trees), arrow(X, trees),
                Coproduct(zero(), trees)):
        for v in (TableV(()), SectionV(()), TableV(((leaf, StarV()),))):
            assert value_in_type(st, v, arrow(dom, unit()), budget=1000) \
                is False, show(dom)
    for empty in (product(zero(), trees), arrow(trees, zero())):
        assert value_in_type(st, TableV(()), arrow(empty, unit()),
                             budget=1000), show(empty)
    for thunk in (lambda: type_size(st, trees, budget=1000),
                  lambda: list(iter_type(st, trees, budget=1000))):
        with pytest.raises(BudgetError, match="infinitely many trees"):
            thunk()
    pair = PairV(Atom("G", 0), Atom("G", 0))
    with pytest.raises(BudgetError, match="exceeds the element budget"):
        value_in_type(Z12, TableV(((pair, TruthV(True)),) * 3),
                      arrow(Sigma("x", G, G), Prop()), budget=2)


def test_a_table_on_one_function_into_infinitely_many_trees_is_checked():
    """The arrows from the empty type into the trees of the test above are
    one, the empty table, though the trees are infinitely many: a table
    with that one entry is a function on them, and an empty table is
    not."""
    x0, x1 = Atom("X", 0), Atom("X", 1)
    sig = Signature("trees", ("X",), (), (RelSymbol("R", (X,)),))
    st = Structure(sig, {"X": FinSet.of(x0, x1)},
                   rel_tables={"R": frozenset({(x0,)})})
    trees = W("x0", X, PropType(RelAtom("R", (Var("x0"),))))
    t = arrow(arrow(zero(), trees), unit())
    assert value_in_type(st, TableV(((TableV(()), StarV()),)), t) is True
    assert value_in_type(st, TableV(()), t) is False


def test_a_well_typed_formula_over_function_constants_does_not_go_wrong():
    """Whatever the kernel accepts, the evaluator runs to an answer: a
    power, an arrow into Prop and a Pi into Prop are each applied,
    tested with ``in`` and compared, without a StructureError."""
    rng = random.Random(20)
    sig = function_signature()
    accepted = refused = 0
    for _ in range(300):
        st = random_function_structure(rng)
        f = random_function_formula(rng, rng.randrange(1, 5))
        if not well_formed_formula(sig, FUNCTION_CONTEXT, f):
            refused += 1
            continue
        accepted += 1
        counterexample(st, FUNCTION_CONTEXT, f)
    assert accepted and refused


# ---------------------------------------------------------------------------
# evaluation of terms
# ---------------------------------------------------------------------------

def test_interval_function_evaluates():
    env = {"x": Atom("S", 0), "y": Atom("S", 7)}
    out = eval_term(GIS12, App("int", (Var("x"), Var("y"))), env)
    assert out == Atom("IVLS", 7)


def test_triad_lookup():
    st = triad_model()
    env = {"s": Atom("DiatonicScale", 0), "d": Atom("ScaleDegree", 0)}
    chord = eval_term(st, App("triad", (Var("s"), Var("d"))), env)
    members = {k.index for k, flag in chord.entries if flag.value}
    assert members == {0, 4, 7}


def test_triad_on_degree_five():
    st = triad_model()
    env = {"s": Atom("DiatonicScale", 0), "d": Atom("ScaleDegree", 4)}
    chord = eval_term(st, App("triad", (Var("s"), Var("d"))), env)
    members = {k.index for k, flag in chord.entries if flag.value}
    assert members == {7, 11, 2}


def test_lambda_evaluates_to_identity_table():
    table = eval_term(Z12, Lambda("x", G, Var("x")))
    assert isinstance(table, TableV)
    assert all(k == v for k, v in table.entries)
    assert table.domain_values() == Z12.carrier("G").elements


def test_evaluation_matches_checker():
    # checked terms evaluate without error into their type's carrier
    rng = random.Random(37)
    ctx = Context.of(("a", G), ("b", G))
    envs = [
        {"a": Atom("G", 2), "b": Atom("G", 9)},
        {"a": Atom("G", 0), "b": Atom("G", 5)},
    ]
    for _ in range(60):
        term, t = random_typed_term(rng, ctx, 4)
        assert check_term(GROUP, ctx, term, t)
        for env in envs:
            value = eval_term(Z12, term, env)
            assert value_in_type(Z12, value, t)


# ---------------------------------------------------------------------------
# evaluation of formulas
# ---------------------------------------------------------------------------

def test_vacuous_universal_is_true():
    assert eval_formula(Z12, Forall("x", zero(), Bottom()))


def test_interval_composition_law_holds():
    s = Base("S")
    f = Forall("r", s, Forall("s", s, Forall("t", s, Eq(
        Base("IVLS"),
        App("star", (App("int", (Var("r"), Var("s"))),
                     App("int", (Var("s"), Var("t"))))),
        App("int", (Var("r"), Var("t")))))))
    assert eval_formula(GIS12, f)


def test_membership_is_evaluation():
    scale = Lambda("p", Base("PC"), Or(Eq(Base("PC"), Var("p"), App("p0")),
                                       Eq(Base("PC"), Var("p"), App("p4"))))
    assert eval_formula(MUSIC12, Member(App("p4"), scale))
    assert not eval_formula(MUSIC12, Member(App("p5"), scale))


def test_existential_matches_brute_force():
    rng = random.Random(41)
    for size in (0, 1, 2, 3):
        for _ in range(20):
            st = random_tiny_structure(rng, size)
            body = RelAtom("R", (Var("x"),))
            looped = any(
                eval_formula(st, body, {"x": v})
                for v in st.carrier("X"))
            assert eval_formula(st, Exists("x", Base("X"), body)) == looped
            all_of = all(
                eval_formula(st, body, {"x": v})
                for v in st.carrier("X"))
            assert eval_formula(st, Forall("x", Base("X"), body)) == all_of


def test_boolean_laws_hold():
    rng = random.Random(43)
    for _ in range(150):
        st = random_tiny_structure(rng, rng.randrange(4))
        f = random_closed_formula(rng, 3)
        g = random_closed_formula(rng, 3)
        h = random_closed_formula(rng, 2)
        fv, gv, hv = (eval_formula(st, x) for x in (f, g, h))
        assert eval_formula(st, neg(And(f, g))) == eval_formula(
            st, Or(neg(f), neg(g)))
        assert eval_formula(st, neg(Or(f, g))) == eval_formula(
            st, And(neg(f), neg(g)))
        assert eval_formula(st, And(f, Or(g, h))) == (fv and (gv or hv))
        assert eval_formula(st, Or(f, And(g, h))) == (fv or (gv and hv))
        assert eval_formula(st, Implies(f, g)) == ((not fv) or gv)
        assert eval_formula(st, neg(neg(f))) == fv


def test_quantifier_adjunction_instances():
    # existential left adjoint, universal right adjoint, on all unary
    # relation tables over carriers of size up to 4
    x = Base("X")
    phi = RelAtom("R", (Var("x"),))
    closed_qs = (Top(), Bottom(),
                 Exists("y", x, RelAtom("R", (Var("y"),))),
                 Forall("y", x, RelAtom("R", (Var("y"),))))
    for size in range(5):
        atoms = [Atom("X", i) for i in range(size)]
        for bits in itertools.product([False, True], repeat=size):
            st = Structure(
                signature=tiny_signature(),
                carriers={"X": FinSet(tuple(atoms))},
                fun_tables={"f": {(a,): a for a in atoms}},
                rel_tables={
                    "R": frozenset((a,) for a, bit in zip(atoms, bits) if bit),
                    "S": frozenset(),
                },
            )
            for q in closed_qs:
                qv = eval_formula(st, q)
                exists_le_q = (not eval_formula(st, Exists("x", x, phi))) or qv
                pointwise_le = all(
                    (not eval_formula(st, phi, {"x": a})) or qv for a in atoms)
                assert exists_le_q == pointwise_le
                q_le_forall = (not qv) or eval_formula(st, Forall("x", x, phi))
                pointwise_ge = all(
                    (not qv) or eval_formula(st, phi, {"x": a}) for a in atoms)
                assert q_le_forall == pointwise_ge


# ---------------------------------------------------------------------------
# laws: substitution and renaming
# ---------------------------------------------------------------------------

def bound_names(node) -> set[str]:
    names = {node.binder} if isinstance(node, BINDERS) else set()
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(child):
                names |= bound_names(child)
    return names


def tiny_case(rng):
    """A tiny model, a formula over x and a, a term to put for x that
    mentions a name the formula binds when there is one, and values for
    every name involved."""
    st = random_tiny_structure(rng, rng.randrange(1, 4))
    formula = random_formula(rng, ["x", "a"], rng.randrange(1, 5), [0])
    capture = rng.choice(sorted(bound_names(formula)) or ["a"])
    term = Var(rng.choice(["a", capture]))
    if rng.random() < 0.5:
        term = App("f", (term,))
    atoms = st.carrier("X").elements
    env = {name: rng.choice(atoms) for name in ("x", "a", capture)}
    return st, formula, term, env


def group_case(rng):
    """As ``tiny_case``, for a term over x and a in a small group."""
    n = rng.randrange(1, 5)
    st = (subtraction_structure if rng.random() < 0.3
          else cyclic_group_structure)(n)
    term, _ = random_typed_term(rng, Context.of(("x", G), ("a", G)), 4)
    capture = rng.choice(sorted(bound_names(term)) or ["a"])
    replacement = random_group_element_term(
        rng, Context.of(("a", G), (capture, G)), 2)
    env = {name: Atom("G", rng.randrange(n)) for name in ("x", "a", capture)}
    return st, term, replacement, env


@settings(max_examples=200, deadline=None)
@given(hst.randoms(use_true_random=False))
def test_evaluation_commutes_with_substitution(rng):
    st, formula, term, env = tiny_case(rng)
    assigned = {**env, "x": eval_term(st, term, env)}
    assert eval_formula(st, substitute(formula, {"x": term}), env) \
        == eval_formula(st, formula, assigned)
    st, term, replacement, env = group_case(rng)
    assigned = {**env, "x": eval_term(st, replacement, env)}
    assert eval_term(st, substitute(term, {"x": replacement}), env) \
        == eval_term(st, term, assigned)


@settings(max_examples=200, deadline=None)
@given(hst.randoms(use_true_random=False))
def test_renaming_bound_variables_keeps_the_value(rng):
    st, formula, _, env = tiny_case(rng)
    assert eval_formula(st, rename_bound(formula), env) \
        == eval_formula(st, formula, env)
    st, term, _, env = group_case(rng)
    assert eval_term(st, rename_bound(term), env) == eval_term(st, term, env)


# ---------------------------------------------------------------------------
# theory checking
# ---------------------------------------------------------------------------

def test_group_theory_passes_on_z12():
    report = check_theory(Z12, make_group_theory())
    assert report.passed
    assert [r.label for r in report.results] == [
        "associativity", "identity", "inverses"]


def test_group_theory_passes_on_trivial_model():
    assert check_theory(trivial_group_structure(), make_group_theory()).passed


def test_subtraction_fails_associativity_with_counterexample():
    report = check_theory(subtraction_structure(12), make_group_theory())
    failed = {r.label: r for r in report.results if not r.passed}
    assert "associativity" in failed
    env = dict(failed["associativity"].counterexample)
    a, b, c = env["a"].index, env["b"].index, env["c"].index
    assert ((a - b) - c) % 12 != (a - (b - c)) % 12
    assert "FAIL" in report.render(subtraction_structure(12))


def test_gis_theory_passes_on_z12():
    report = check_theory(GIS12, make_gis_theory())
    assert report.passed


def test_gis_uniqueness_fails_on_constant_interval():
    from mulingua.musiclib import constant_int_gis
    report = check_theory(constant_int_gis(12), make_gis_theory())
    failed = {r.label for r in report.results if not r.passed}
    assert "interval-uniqueness" in failed
    assert "interval-existence" in failed
    assert "ivls-associativity" not in failed


def test_report_rendering_is_deterministic():
    report1 = check_theory(Z12, make_group_theory())
    report2 = check_theory(Z12, make_group_theory())
    assert report1.render(Z12) == report2.render(Z12)


def test_theory_requires_matching_signature():
    from mulingua.diagnostics import StructureError
    with pytest.raises(StructureError, match="theory over"):
        check_theory(GIS12, make_group_theory())


def test_derivable_quantifies_over_context():
    ctx = Context.of(("a", G), ("b", G))
    comm = Eq(G, App("star", (Var("a"), Var("b"))),
              App("star", (Var("b"), Var("a"))))
    assert derivable(Z12, ctx, comm)
    assert not derivable(subtraction_structure(12), ctx, comm)


def test_environment_enumeration_is_deterministic():
    ctx = Context.of(("a", G), ("b", Prop()))
    envs = [tuple(sorted((k, render_value(v)) for k, v in e.items()))
            for e in all_environments(Z12, ctx)]
    assert len(envs) == 24
    assert envs == sorted(set(envs), key=envs.index)


# ---------------------------------------------------------------------------
# structure homomorphisms
# ---------------------------------------------------------------------------

def test_identity_hom_checks():
    assert check_structure_hom(identity_hom(Z12))


def test_shift_is_not_a_group_hom():
    atoms = list(Z12.carrier("G"))
    shift = StructureHom(Z12, Z12, {
        "G": {a: atoms[(a.index + 1) % 12] for a in atoms}})
    v = check_structure_hom(shift)
    assert not v and "star" in v.reason


def test_multiplication_by_unit_is_a_hom():
    atoms = list(Z12.carrier("G"))
    times5 = StructureHom(Z12, Z12, {
        "G": {a: atoms[(5 * a.index) % 12] for a in atoms}})
    assert check_structure_hom(times5)


def test_non_total_component_map_is_rejected():
    v = check_structure_hom(StructureHom(Z12, Z12, {"G": {}}))
    assert not v and "not total" in v.reason


def test_component_map_must_land_in_target_carrier():
    stray = {a: Atom("elsewhere", 0) for a in Z12.carrier("G")}
    v = check_structure_hom(StructureHom(Z12, Z12, {"G": stray}))
    assert not v and "target carrier" in v.reason


def test_non_bijective_component_at_a_power_fails_the_check():
    sig = Signature(name="everything", base_types=("X",),
                    fun_symbols=(FunSymbol("all", (),
                                           arrow(Base("X"), Prop())),))
    xs = FinSet.of(Atom("X", 0), Atom("X", 1))
    st = Structure(sig, {"X": xs}, {"all": {
        (): TableV(tuple((x, TruthV(True)) for x in xs))}})
    collapse = StructureHom(st, st, {"X": {x: Atom("X", 0) for x in xs}})
    verdict = check_structure_hom(collapse)
    assert not verdict
    assert verdict.reason == ("cannot transport along (-> X Prop): "
                              "component is not a bijection")


def test_surjective_but_not_injective_component_at_a_power_fails_the_check():
    sig = Signature(name="some", base_types=("X",),
                    fun_symbols=(FunSymbol("first", (),
                                           arrow(Base("X"), Prop())),))
    xs, x0 = FinSet.of(Atom("X", 0), Atom("X", 1)), Atom("X", 0)
    source = Structure(sig, {"X": xs}, {"first": {
        (): TableV(tuple((x, TruthV(x == x0)) for x in xs))}})
    target = Structure(sig, {"X": FinSet.of(x0)}, {"first": {
        (): TableV(((x0, TruthV(False)),))}})
    merge = StructureHom(source, target, {"X": {x: x0 for x in xs}})
    verdict = check_structure_hom(merge)
    assert not verdict
    assert verdict.reason == ("cannot transport along (-> X Prop): "
                              "component is not a bijection")


A0, A1 = Atom("X", 0), Atom("X", 1)


@pytest.mark.parametrize("codomain, value, reason", [
    (Pi("x", Base("X"), Base("X")), SectionV(((A0, A1), (A1, A0))), ""),
    (Sigma("x", Base("X"), Base("X")), PairV(A0, A1), ""),
    (PropType(Top()), StarV(), ""),
    (W("x", Base("X"), zero()), TreeV(A0, ()), ""),
    (Pi("x", Base("X"), FamApp("F", (Var("x"),))),
     SectionV(((A0, A1), (A1, Atom("Tag", 0)))), ""),
], ids=["pi", "sigma", "prop", "w", "pi-family"])
def test_the_identity_hom_transports_each_codomain_or_fails_the_check(
        codomain, value, reason):
    sig = Signature(name="one", base_types=("X",), fun_symbols=(
        FunSymbol("F", (Base("X"),), Universe()),
        FunSymbol("c", (), codomain)))
    st = Structure(sig, {"X": FinSet.of(A0, A1)}, {
        "F": {(A0,): FinSet.of(A1), (A1,): FinSet.of(Atom("Tag", 0))},
        "c": {(): value}})
    assert check_structure_hom(identity_hom(st)).reason == reason


def test_a_section_into_a_family_moves_each_member_with_its_carrier():
    sig = Signature(name="one", base_types=("X",), fun_symbols=(
        FunSymbol("F", (Base("X"),), Universe()),
        FunSymbol("c", (), Pi("x", Base("X"), FamApp("F", (Var("x"),))))))
    fibers = {(A0,): FinSet.of(A1), (A1,): FinSet.of(A0)}
    swap = {"X": {A0: A1, A1: A0}}
    flip = Structure(sig, {"X": FinSet.of(A0, A1)}, {
        "F": fibers, "c": {(): SectionV(((A0, A1), (A1, A0)))}})
    assert check_structure_hom(StructureHom(flip, flip, swap))
    tagged = Structure(sig, {"X": FinSet.of(A0, A1)}, {
        "F": {(A0,): FinSet.of(Atom("Tag", 0)), (A1,): FinSet.of(A0)},
        "c": {(): SectionV(((A0, Atom("Tag", 0)), (A1, A0)))}})
    assert check_structure_hom(StructureHom(tagged, flip, swap)).reason == (
        "fiber of 'F' at ((atom X 0)) sends (atom Tag 0) to (atom Tag 0), "
        "outside the target fiber")


def test_a_tree_is_transported_label_by_label_at_any_depth():
    """A tree moves by the component map at every label, on an explicit
    stack, so a tree deeper than the recursion limit moves too."""
    chain = W("x", Base("X"), unit())
    sig = Signature(name="one", base_types=("X",),
                    fun_symbols=(FunSymbol("c", (), chain),))
    xs = FinSet.of(A0, A1)
    deep = TreeV(A0, ())
    for k in range(sys.getrecursionlimit() + 100):
        deep = TreeV((A0, A1)[k % 2], (deep,))
    st = Structure(sig, {"X": xs}, {"c": {(): deep}})
    assert check_structure_hom(identity_hom(st))
    swap = {"X": {A0: A1, A1: A0}}
    source = Structure(sig, {"X": xs}, {"c": {(): TreeV(A0, (TreeV(A1, ()),))}})
    target = Structure(sig, {"X": xs}, {"c": {(): TreeV(A1, (TreeV(A0, ()),))}})
    assert check_structure_hom(StructureHom(source, target, swap))
    assert check_structure_hom(StructureHom(source, source, swap)).reason == (
        "square for 'c' fails at (): (tree (atom X 1) (tree (atom X 0))) != "
        "(tree (atom X 0) (tree (atom X 1)))")


def test_a_section_is_transported_entrywise():
    sig = Signature(name="one", base_types=("X",), fun_symbols=(
        FunSymbol("c", (), Pi("x", Base("X"), Base("X"))),))
    xs = FinSet.of(A0, A1)
    swap = {"X": {A0: A1, A1: A0}}
    flip = Structure(sig, {"X": xs}, {"c": {(): SectionV(
        ((A0, A1), (A1, A0)))}})
    assert check_structure_hom(StructureHom(flip, flip, swap))
    constant = Structure(sig, {"X": xs}, {"c": {(): SectionV(
        ((A0, A0), (A1, A0)))}})
    assert check_structure_hom(StructureHom(constant, constant, swap)).reason == (
        "square for 'c' fails at (): (section ((atom X 0) (atom X 1)) "
        "((atom X 1) (atom X 1))) != (section ((atom X 0) (atom X 0)) "
        "((atom X 1) (atom X 0)))")


def test_a_hom_maps_each_fiber_of_a_family_into_the_target_fiber():
    pitch = Base("Pitch")
    sig = Signature("fibers", ("Pitch", "Arrow"), (
        FunSymbol("Fiber", (pitch, pitch), Universe()),))
    home, up, down = Atom("Pitch", 0), Atom("Arrow", 0), Atom("Arrow", 1)

    def fibered(*members):
        return Structure(
            sig, {"Pitch": FinSet.of(home), "Arrow": FinSet.of(up, down)},
            {"Fiber": {(home, home): FinSet(members)}},
            element_names={"Pitch": ("home",), "Arrow": ("up", "down")})

    source = fibered(up, down)
    both_down = StructureHom(source, fibered(up), {
        "Pitch": {home: home}, "Arrow": {up: down, down: down}})
    assert check_structure_hom(both_down).reason == (
        "fiber of 'Fiber' at (home, home) sends up to down, outside the "
        "target fiber")
    swap = StructureHom(source, source, {
        "Pitch": {home: home}, "Arrow": {up: down, down: up}})
    assert check_structure_hom(swap)
    # the fin atoms of z12music lie in no carrier, so they stay put
    assert check_structure_hom(identity_hom(MUSIC12))


def test_a_family_member_moves_by_the_carrier_that_holds_it():
    """The arrows are TI-tagged atoms in the Arrow carrier, so the
    conjugation by T1 moves them by the Arrow component."""
    ti, pitches = ti_group(12), pitch_universe(12).carrier
    pitch = Base("Pitch")
    sig = Signature("fibers", ("Pitch", "Arrow"), (
        FunSymbol("Fiber", (pitch, pitch), Universe()),))
    st = Structure(sig, {"Pitch": pitches, "Arrow": ti.elements()}, {
        "Fiber": {(x, y): transporters(ti, x, y)
                  for x in pitches for y in pitches}})
    t1 = ti.group.named_atom("TI", "T1")
    conjugation = StructureHom(st, st, {
        "Pitch": {x: ti.act(t1, x) for x in pitches},
        "Arrow": {g: ti.multiply(ti.multiply(t1, g), ti.inverse(t1))
                  for g in ti.elements()}})
    assert check_structure_hom(conjugation)
    t0 = ti.group.named_atom("TI", "T0")
    assert check_structure_hom(StructureHom(st, st, {
        "Pitch": conjugation.component_maps["Pitch"],
        "Arrow": {g: t0 for g in ti.elements()}})).reason == (
        "fiber of 'Fiber' at ((atom PC 0), (atom PC 1)) sends (atom TI 1) "
        "to (atom TI 0), outside the target fiber")


def test_a_family_member_tagged_with_a_base_type_lies_in_its_carrier():
    pitch = Base("Pitch")
    sig = Signature("fibers", ("Pitch", "Arrow"), (
        FunSymbol("Fiber", (pitch, pitch), Universe()),))
    p = Atom("Pitch", 0)
    stray = Structure(sig, {"Pitch": FinSet.of(p),
                            "Arrow": FinSet.of(Atom("Arrow", 0))},
                      {"Fiber": {(p, p): FinSet.of(Atom("Arrow", 5))}})
    assert stray.validate().reason == (
        "family 'Fiber' at ('(atom Pitch 0)', '(atom Pitch 0)') has member "
        "(atom Arrow 5) outside carrier 'Arrow'")
    # members tagged with no base type, like z12music's fin atoms, are free
    free = dataclasses.replace(
        stray, fun_tables={"Fiber": {(p, p): FinSet.of(Atom("fin", 5))}})
    assert free.validate() and MUSIC12.validate()


def test_missing_table_entry_fails_the_check():
    st = Structure(GROUP, Z12.carriers, {**Z12.fun_tables, "inv": {}})
    missing = "table for 'inv' is not total: missing ('(atom G 0)',)"
    assert st.validate().reason == missing
    assert check_structure_hom(identity_hom(st)).reason == "source " + missing
    target = Structure(GROUP, Z12.carriers, {
        **Z12.fun_tables, "inv": {k: v for k, v in Z12.fun_tables["inv"].items()
                                 if k != (Atom("G", 0),)}})
    verdict = check_structure_hom(StructureHom(Z12, target, {
        "G": {a: a for a in Z12.carrier("G")}}))
    assert verdict.reason == "target " + missing


def test_hom_check_budgets_the_whole_domain_of_a_symbol():
    sig = Signature(name="wide", base_types=("G",),
                    fun_symbols=(FunSymbol("f", (G,) * 6, G),))
    st = Structure(sig, {"G": Z12.carrier("G")}, {"f": {}})
    # no table of at most budget entries is total on a domain past it
    assert st.validate().reason == (
        "table for 'f' is not total: 0 entries for more than 1000000 "
        "argument tuples")
    verdict = check_structure_hom(identity_hom(st))
    assert verdict.reason == "domain of 'f' exceeds the budget"


def test_a_table_larger_than_the_budget_is_trusted():
    sig = Signature(name="wide", base_types=("G",),
                    fun_symbols=(FunSymbol("f", (G,) * 6, G),))
    atoms = Z12.carrier("G").elements
    table = {(a,) * 6: a for a in atoms[:11]}
    st = Structure(sig, {"G": Z12.carrier("G")}, {"f": table})
    assert st.validate(budget=10)
    del table[(atoms[0],) * 6]
    assert st.validate(budget=10).reason == (
        "table for 'f' is not total: 10 entries for more than 10 "
        "argument tuples")


def test_relation_preservation():
    st = random_tiny_structure(random.Random(47), 3)
    assert check_structure_hom(identity_hom(st))
    atoms = list(st.carrier("X"))
    rotate = {a: atoms[(a.index + 1) % 3] for a in atoms}
    hom = StructureHom(st, st, {"X": rotate})
    verdict = check_structure_hom(hom)
    # rotation is a hom iff it commutes with f and preserves R and S
    f = st.fun_tables["f"]
    ok = all(rotate[f[(a,)]] == f[(rotate[a],)] for a in atoms)
    ok = ok and all((rotate[a],) in st.rel_tables["R"]
                    for (a,) in st.rel_tables["R"])
    ok = ok and all((rotate[a], rotate[b]) in st.rel_tables["S"]
                    for (a, b) in st.rel_tables["S"])
    assert bool(verdict) == ok


X = Base("X")
X0, X1 = Atom("X", 0), Atom("X", 1)
SWAP = {X0: X1, X1: X0}


def two_points(sig, fun_tables, rel_tables=None):
    return Structure(sig, {"X": FinSet.of(X0, X1)}, fun_tables, rel_tables,
                     element_names={"X": ("x0", "x1")})


def test_a_hom_transports_pairs_and_injections_componentwise():
    # twist (a, b) is (inl b) on the diagonal and (inr a) off it
    sig = Signature("twisted", ("X",), (
        FunSymbol("twist", (product(X, X),), Coproduct(X, X)),))
    st = two_points(sig, {"twist": {
        (PairV(a, b),): InlV(b) if a == b else InrV(a)
        for a in (X0, X1) for b in (X0, X1)}})
    assert check_structure_hom(StructureHom(st, st, {"X": SWAP}))
    collapse = StructureHom(st, st, {"X": {X0: X0, X1: X0}})
    assert check_structure_hom(collapse).reason == (
        "square for 'twist' fails at ((pair x0 x1)): (inr x0) != (inl x0)")


def test_a_hom_transports_function_values_along_bijective_components():
    sig = Signature("maps", ("X",), (
        FunSymbol("to", (), arrow(X, X)),
        FunSymbol("some", (), arrow(X, Prop()))))

    def st(image, member):
        return two_points(sig, {
            "to": {(): TableV(((X0, image), (X1, image)))},
            "some": {(): TableV(((X0, TruthV(member == X0)),
                                 (X1, TruthV(member == X1))))}})

    source, target = st(X0, X0), st(X1, X1)
    assert check_structure_hom(StructureHom(source, target, {"X": SWAP}))
    assert check_structure_hom(identity_hom(source))
    same = StructureHom(source, target, {"X": {X0: X0, X1: X1}})
    assert check_structure_hom(same).reason == (
        "square for 'to' fails at (): (table (x0 x0) (x1 x0)) != "
        "(table (x0 x1) (x1 x1))")


def test_a_hom_check_names_its_first_refusal():
    marked = Signature("marked", ("X",), (), (RelSymbol("R", (X,)),))
    st = two_points(marked, {}, {"R": frozenset({(X0,)})})
    assert check_structure_hom(StructureHom(Z12, st, {"G": {}})).reason == (
        "source and target have different signatures")
    assert check_structure_hom(StructureHom(st, st, {})).reason == (
        "component map missing for 'X'")
    assert check_structure_hom(StructureHom(st, st, {"X": SWAP})).reason == (
        "relation 'R' not preserved at (x0)")


def test_structure_validation_names_what_is_wrong():
    family = Signature("fam", ("X",), (FunSymbol("F", (X,), Universe()),))
    assert two_points(family, {"F": {(X0,): X0, (X1,): X1}}).validate().reason \
        == "family 'F' must yield finite sets"
    marked = Signature("marked", ("X",), (), (RelSymbol("R", (X, X)),))
    assert two_points(marked, {}).validate().reason == (
        "missing table for relation 'R'")
    for stray in ((X0,), (X0, Atom("Y", 0)), (X0, TruthV(True))):
        st = two_points(marked, {}, {"R": frozenset({stray})})
        assert st.validate().reason == (
            "relation 'R' contains a tuple outside its type")


UNPRESERVED = """
from mulingua.semantics import (
    Atom, FinSet, Structure, StructureHom, check_structure_hom)
from mulingua.syntax import Base, RelSymbol, Signature
sig = Signature("marked", ("T",), (), (RelSymbol("R", (Base("T"),)),))
atoms = FinSet(tuple(Atom("T", i) for i in range(8)))
every = Structure(sig, {"T": atoms}, {}, {"R": frozenset((a,) for a in atoms)})
none = Structure(sig, {"T": atoms}, {}, {"R": frozenset()})
print(check_structure_hom(
    StructureHom(every, none, {"T": {a: a for a in atoms}})).reason)
"""


def test_an_unpreserved_relation_is_reported_whatever_the_hash_seed():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    reasons = {
        subprocess.run(
            [sys.executable, "-c", UNPRESERVED], capture_output=True,
            text=True, check=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1", "2")}
    assert reasons == {"relation 'R' not preserved at ((atom T 0))\n"}


def test_the_universe_is_not_enumerated():
    with pytest.raises(MulinguaError, match="^cannot enumerate Type$"):
        next(iter_type(Z12, Universe()))


# ---------------------------------------------------------------------------
# table reads by carrier position
# ---------------------------------------------------------------------------

def lookup_outcome(read):
    """What a lookup gives: ``("value", v)`` or ``("error", message)``."""
    try:
        return "value", read()
    except StructureError as err:
        return "error", f"{type(err).__name__}: {err}"


def test_a_missing_entry_at_a_float_index_is_reported_by_its_atom():
    """An atom whose index is no integer is not named after a carrier
    element, so a table without its entry says so in the usual words."""
    st = cyclic_group_structure(2)
    g1 = Atom("G", 1)
    inv = {k: v for k, v in st.fun_tables["inv"].items() if k != (g1,)}
    holey = dataclasses.replace(st, fun_tables={**st.fun_tables, "inv": inv})
    assert render_value(Atom("G", 1.0), st) == "(atom G 1.0)"
    with pytest.raises(StructureError, match=re.escape(
            "table for 'inv' has no entry for ('(atom G 1.0)',)")):
        eval_term(holey, App("inv", (Var("x"),)), {"x": Atom("G", 1.0)})


def plain_lookup(st, head, args):
    """A symbol's value by key in ``fun_tables``, with the evaluator's
    messages."""
    table = st.fun_tables.get(head)
    if table is None:
        raise StructureError(f"no table for symbol {head!r}")
    try:
        return table[args]
    except KeyError:
        raise StructureError(
            f"table for {head!r} has no entry for "
            f"{tuple(map(st.render, args))}") from None


def probe_arguments(st, carrier):
    """The carrier's atoms, then values that must read as the key lookup
    reads them: indices out of range, below zero, a bool and a float, an
    atom of no carrier, and a non-atom."""
    atoms = list(st.carriers.get(carrier, ()))
    return atoms + [Atom(carrier, -1), Atom(carrier, len(atoms)),
                    Atom(carrier, True), Atom(carrier, 1.0),
                    Atom("Elsewhere", 0), StarV()]


def assert_reads_match(st):
    """Every argument tuple of every symbol over base types gives, through
    ``eval_term``, the same object or the same message as the plain
    lookup: on the symbol's first evaluation and after."""
    for sym in st.signature.fun_symbols:
        if not all(isinstance(t, Base) for t in sym.domain):
            continue
        names = [f"x{k}" for k in range(sym.arity)]
        term = App(sym.name, tuple(map(Var, names)))
        probes = [probe_arguments(st, t.name) for t in sym.domain]
        for _ in range(2):
            for args in itertools.product(*probes):
                env = dict(zip(names, args))
                got = lookup_outcome(lambda: eval_term(st, term, env))
                want = lookup_outcome(lambda: plain_lookup(st, sym.name, args))
                assert got[0] == want[0], (sym.name, args, got, want)
                if got[0] == "value":
                    assert got[1] is want[1], (sym.name, args)
                else:
                    assert got[1] == want[1], (sym.name, args)


@settings(max_examples=100, deadline=None)
@given(hst.randoms(use_true_random=False))
def test_a_position_read_gives_what_the_table_gives(rng):
    for st in (random_tiny_structure(rng, rng.randrange(4)),
               random_family_structure(rng), random_function_structure(rng),
               (subtraction_structure if rng.random() < 0.5
                else cyclic_group_structure)(rng.randrange(1, 5))):
        assert_reads_match(st)


Y = Base("Y")
SPARSE = (Atom("X", 3), Atom("X", 7))


def unary_structure(carrier, table):
    sig = Signature("unary", ("X",), (FunSymbol("f", (X,), X),))
    return Structure(sig, {"X": FinSet(carrier)}, {"f": table})


def assert_typed_reads_declined(st):
    """Under a theory check too, every symbol reads its table by key: no
    typed site is filled, and the result or the error is the one the
    plain evaluator gives."""
    for sym in st.signature.fun_symbols:
        names = [f"x{k}" for k in range(sym.arity)]
        ctx = Context.of(*zip(names, sym.domain))
        term = App(sym.name, tuple(map(Var, names)))
        f = Eq(sym.codomain, term, term)
        assert_agrees(st, ctx, f)
        assert filled_sites(st, ctx, f)[0] == [], sym.name


def test_a_table_that_cannot_be_indexed_is_read_by_key():
    sparse = unary_structure(
        SPARSE, {(a,): b for a, b in zip(SPARSE, reversed(SPARSE))})
    foreign = unary_structure((X0, X1), {(X0,): X1, (Atom("Y", 1),): X0})
    floating = unary_structure((X0, X1), {(X0,): X1, (Atom("X", 1.0),): X0})
    star = Signature("magma", ("X",), (FunSymbol("star", (X, X), X),))
    holey = Structure(star, {"X": FinSet.of(X0, X1)}, {"star": {
        (X0, X0): X0, (X0, X1): X1, (X1, X0): X1}})
    for st in (sparse, foreign, floating, holey):
        assert_reads_match(st)
        assert_typed_reads_declined(st)
    assert eval_term(sparse, App("f", (Var("x"),)), {"x": SPARSE[1]}) \
        is SPARSE[0]
    assert lookup_outcome(lambda: eval_term(
        holey, App("star", (Var("a"), Var("b"))), {"a": X1, "b": X1})) == (
        "error", "StructureError: table for 'star' has no entry for "
                 "('(atom X 1)', '(atom X 1)')")


def test_a_holey_table_over_a_large_domain_allocates_no_index():
    atoms = FinSet(tuple(Atom("X", i) for i in range(3000)))
    sig = Signature("wide", ("X",), (FunSymbol("star", (X, X), X),))
    st = Structure(sig, {"X": atoms}, {"star": {(X0, X1): X1}})
    term = App("star", (Var("a"), Var("b")))
    tracemalloc.start()
    try:
        assert eval_term(st, term, {"a": X0, "b": X1}) == X1
        filled = filled_sites(st, Context.of(("a", X), ("b", X)),
                              Eq(X, term, Var("b")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert filled == ([], ["star"]) and peak < 10 ** 6


def test_a_ternary_table_is_read_by_key():
    sig = Signature("ternary", ("X", "Y"), (FunSymbol("g", (X, Y, X), X),))
    ys = tuple(Atom("Y", i) for i in range(3))
    st = Structure(sig, {"X": FinSet.of(X1, X0), "Y": FinSet(ys)}, {"g": {
        (a, y, b): (a if y.index else b) for a in (X0, X1) for y in ys
        for b in (X0, X1)}})
    assert_reads_match(st)
    ctx = Context.of(("a", X), ("y", Y), ("b", X))
    f = Eq(X, App("g", (Var("a"), Var("y"), Var("b"))), Var("a"))
    assert_agrees(st, ctx, f)
    assert filled_sites(st, ctx, f) == ([], [])  # three arguments: no site


def test_a_family_or_a_wrong_arity_is_read_by_key():
    st = random_family_structure(random.Random(3))
    assert_reads_match(st)
    ctx, x = Context.of(("x", X)), Var("x")
    for f, filled in ((Eq(X, App("f", (x,)), x), (["f"], [])),
                      (Eq(Universe(), App("F", (x,)), App("F", (x,))),
                       ([], ["F", "F"]))):
        assert_agrees(st, ctx, f)
        assert filled_sites(st, ctx, f) == filled
    group = cyclic_group_structure(3)
    g1 = Atom("G", 1)
    for head, args, shown in (("inv", (), "()"), ("star", (g1,), "('1',)"),
                              ("inv", (g1, g1), "('1', '1')"),
                              ("e", (g1,), "('1',)"),
                              ("star", (g1, g1, g1), "('1', '1', '1')")):
        names = [f"x{k}" for k in range(len(args))]
        term = App(head, tuple(map(Var, names)))
        for _ in range(2):
            assert lookup_outcome(lambda: eval_term(
                group, term, dict(zip(names, args)))) == (
                "error", f"StructureError: table for {head!r} has no "
                         f"entry for {shown}")
        ctx, f = Context.of(*[(name, G) for name in names]), Eq(G, term, term)
        assert_agrees(group, ctx, f)
        assert filled_sites(group, ctx, f)[0] == []


def test_an_atomic_proposition_reads_its_relation_table():
    sig = Signature("flags", ("X",), (), (RelSymbol("P", ()),
                                         RelSymbol("Q", ())))
    st = Structure(sig, {"X": FinSet.of(X0)}, {},
                   {"P": frozenset({()}), "Q": frozenset()})
    assert eval_formula(st, RelAtom("P", ())) is True
    assert eval_formula(st, RelAtom("Q", ())) is False


def test_a_missing_table_is_reported_before_any_argument():
    for arity in range(4):
        sig = Signature("bare", ("X",), (FunSymbol("f", (X,) * arity, X),))
        st = Structure(sig, {"X": FinSet.of(X0)})
        term = App("f", (Var("nowhere"),) * arity)
        assert lookup_outcome(lambda: eval_term(st, term)) == (
            "error", "StructureError: no table for symbol 'f'")
        ctx, f = Context.of(("x", X)), Eq(X, term, term)
        assert lookup_outcome(lambda: counterexample(st, ctx, f)) == (
            "error", "StructureError: no table for symbol 'f'")
        assert filled_sites(st, ctx, f)[0] == []


def test_a_replaced_structure_reads_its_own_tables():
    st = cyclic_group_structure(4)
    assert_reads_match(st)
    shifted = dataclasses.replace(st, fun_tables={
        **st.fun_tables, "inv": {(a,): Atom("G", (a.index + 1) % 4)
                                 for a in st.carrier("G")}})
    assert_reads_match(shifted)
    inv = App("inv", (Var("g"),))
    assert eval_term(shifted, inv, {"g": Atom("G", 1)}) == Atom("G", 2)
    assert eval_term(st, inv, {"g": Atom("G", 1)}) == Atom("G", 3)
    assert_reads_match(st)


def test_repeated_theory_checks_leave_no_state_behind():
    source = (pathlib.Path(__file__).resolve().parent.parent / "demo.mul")
    ws = load_source(source.read_text(encoding="utf-8"))
    st, theory = ws.structures["z4"], ws.theories["commutative"]
    sizes = {k: len(v) for k, v in vars(st).items() if hasattr(v, "__len__")}
    reports = {check_theory(st, theory, "z4") for _ in range(10)}
    assert len(reports) == 1 and next(iter(reports)).passed
    assert {k: len(v) for k, v in vars(st).items()
            if hasattr(v, "__len__")} == sizes
    star = dict(st.fun_tables["star"])
    del star[(st.named_atom("G", "1"), st.named_atom("G", "2"))]
    holey = dataclasses.replace(st, fun_tables={**st.fun_tables, "star": star})
    with pytest.raises(StructureError, match=re.escape(
            "table for 'star' has no entry for ('1', '2')")):
        check_theory(holey, theory, "z4")
    assert check_theory(st, theory, "z4") in reports


# ---------------------------------------------------------------------------
# typed symbol reads
# ---------------------------------------------------------------------------

# A formula compiled for a context reads a base-to-base symbol whose
# arguments are drawn from carriers with no check at the read, once the
# frame's sites are filled.  Every result, counterexample and error must
# be the one a plain evaluator gives that reads every table by key.

from mulingua.semantics import (
    FALSE, TRUE, Theory, TheoryAxiom, _Tabular, _prepared,
)
from mulingua.syntax import FORMULAS, Proj1, Proj2

H = Base("H")


def plain_value(st, t, env):
    """A term's value, every symbol read by key in ``fun_tables``, with
    the evaluator's messages and in its order."""
    match t:
        case Var(name) if name in env:
            return env[name]
        case Var(name):
            sym = st.signature.fun(name)
            if sym is None or not sym.is_constant:
                raise StructureError(f"unbound variable {name!r} at evaluation")
            return plain_lookup(st, name, ())
        case App(str() as head, args):
            if st.fun_tables.get(head) is None:
                raise StructureError(f"no table for symbol {head!r}")
            return plain_lookup(
                st, head, tuple(plain_value(st, a, env) for a in args))
        case App(head, args):
            value = plain_value(st, head, env)
            for a in args:
                if not isinstance(value, _Tabular):
                    raise StructureError("application of a non-table value")
                value = value.apply(plain_value(st, a, env))
            return value
        case Lambda(x, annot, body):
            return TableV(tuple((v, plain_value(st, body, {**env, x: v}))
                                for v in interpret_type(st, annot, env)))
        case Pair(a, b):
            return PairV(plain_value(st, a, env), plain_value(st, b, env))
        case Proj1(p) | Proj2(p):
            return getattr(plain_value(st, p, env),
                           "first" if isinstance(t, Proj1) else "second")
    assert isinstance(t, FORMULAS), t
    return TRUE if plain_truth(st, t, env) else FALSE


def plain_truth(st, f, env):
    match f:
        case RelAtom(name, args):
            table = st.rel_tables.get(name)
            if table is None:
                raise StructureError(f"no table for relation {name!r}")
            return tuple(plain_value(st, a, env) for a in args) in table
        case Eq(_, lhs, rhs):
            return plain_value(st, lhs, env) == plain_value(st, rhs, env)
        case Member(e, p):
            pred = plain_value(st, p, env)
            if not isinstance(pred, _Tabular):
                raise StructureError("membership predicate is not a table")
            return pred.apply(plain_value(st, e, env)) == TRUE
        case Top():
            return True
        case Bottom():
            return False
        case And(l, r):
            return plain_truth(st, l, env) and plain_truth(st, r, env)
        case Or(l, r):
            return plain_truth(st, l, env) or plain_truth(st, r, env)
        case Implies(l, r):
            return not plain_truth(st, l, env) or plain_truth(st, r, env)
        case Forall(x, t, b):
            return all(plain_truth(st, b, {**env, x: v})
                       for v in interpret_type(st, t, env))
        case Exists(x, t, b):
            return any(plain_truth(st, b, {**env, x: v})
                       for v in interpret_type(st, t, env))
    return plain_value(st, f, env) == TRUE


def plain_counterexample(st, ctx, f):
    for env in all_environments(st, ctx):
        if not plain_truth(st, f, env):
            return tuple((name, env[name]) for name in ctx.names())
    return None


def outcome(run):
    try:
        return "value", run()
    except StructureError as err:
        return "error", type(err), str(err)


def assert_agrees(st, ctx, f):
    """``counterexample`` gives what the plain evaluator gives: the same
    first counterexample, or the same exception and message."""
    assert outcome(lambda: counterexample(st, ctx, f)) == outcome(
        lambda: plain_counterexample(st, ctx, f)), show(f)


def filled_sites(st, ctx, f):
    """The symbols of the formula's typed sites under ``ctx``: those
    whose frame slot got the table's reads, and the rest."""
    _, frame, sites = _prepared(st, ctx, f, 10 ** 6)
    filled = [head for slot, head, _ in sites if frame[slot] is not None]
    return filled, [head for slot, head, _ in sites if frame[slot] is None]


def random_group_term(rng, scope, depth):
    """A term over the group signature: the names in scope, the constant
    written as a name and as an application, star and inv."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice([Var("e"), App("e"), *map(Var, scope)])
    if roll < 0.7:
        return App("star", (random_group_term(rng, scope, depth - 1),
                            random_group_term(rng, scope, depth - 1)))
    if roll < 0.9 or not scope:
        return App("inv", (random_group_term(rng, scope, depth - 1),))
    # an argument read off a pair is no typed source
    x, p = Var(rng.choice(scope)), f"p{depth}"
    return Proj1(App(Lambda(p, G, Pair(Var(p), x)), (x,)))


def random_group_formula(rng, scope, depth):
    """A formula over the group signature; a quantifier may shadow a
    name in scope."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return Eq(G, random_group_term(rng, scope, 2),
                  random_group_term(rng, scope, 2))
    if roll < 0.6:
        return rng.choice((And, Or, Implies))(
            random_group_formula(rng, scope, depth - 1),
            random_group_formula(rng, scope, depth - 1))
    if roll < 0.7:
        return neg(random_group_formula(rng, scope, depth - 1))
    x = rng.choice(["a", "b", "x", "y"])
    return rng.choice((Forall, Exists))(
        x, G, random_group_formula(rng, [*scope, x], depth - 1))


def group_with_carrier(elements, star, inv):
    """A group-signature structure whose tables are keyed by the atoms
    G 0..n-1, whatever its carrier holds."""
    atoms = [Atom("G", i) for i in range(len(elements))]
    n = len(atoms)
    return Structure(group_signature(), {"G": FinSet(tuple(elements))}, {
        "star": {(a, b): atoms[star(a.index, b.index) % n]
                 for a in atoms for b in atoms},
        "e": {(): atoms[0]},
        "inv": {(a,): atoms[inv(a.index) % n] for a in atoms}})


def declining_group(rng):
    """A group-signature structure that must decline typed reads of the
    symbols that read G (a carrier element that is a foreign atom, a
    float index or an index out of range), or of inv alone (an
    unvalidated table whose output leaves the carrier)."""
    n = rng.randrange(2, 5)
    elements = [Atom("G", i) for i in range(n)]
    kind = rng.randrange(4)
    if kind == 3:
        st = cyclic_group_structure(n)
        inv = dict(st.fun_tables["inv"])
        inv[(rng.choice(elements),)] = Atom("G", n + rng.randrange(3))
        return dataclasses.replace(
            st, fun_tables={**st.fun_tables, "inv": inv}), {"inv"}
    k = rng.randrange(n)
    elements[k] = (Atom("H", k), Atom("G", float(k)), Atom("G", n + k))[kind]
    return group_with_carrier(elements, lambda i, j: i + j,
                              lambda i: -i), {"star", "inv"}


@settings(max_examples=60, deadline=None)
@given(hst.randoms(use_true_random=False))
def test_typed_reads_agree_with_reads_by_key(rng):
    names = ("a", "b", "c")[:rng.randrange(4)]
    group_ctx = Context.of(*[(x, G) for x in names])
    scope = list(group_ctx.names())
    formulas = [random_group_formula(rng, scope, 3) for _ in range(3)]
    clean = (cyclic_group_structure if rng.random() < 0.5
             else subtraction_structure)(rng.randrange(1, 6))
    broken, declined = declining_group(rng)
    for st in (clean, broken):
        for f in formulas:
            assert_agrees(st, group_ctx, f)
            # compiled for an environment, whose values are of no known
            # type: only the binders and the constants are typed
            for env in all_environments(st, group_ctx):
                assert outcome(lambda: eval_formula(st, f, env)) == outcome(
                    lambda: plain_truth(st, f, env)), (show(f), env)
            # closed over the context by lambdas, whose binders are typed
            closed = f
            for x in reversed(scope):
                closed = Lambda(x, G, closed)
            assert outcome(lambda: eval_term(st, closed)) == outcome(
                lambda: plain_value(st, closed, {})), show(closed)
            filled, unfilled = filled_sites(st, group_ctx, f)
            if st is clean:
                assert not unfilled
            else:
                assert not declined & set(filled)
        theory = Theory("laws", GROUP, tuple(
            TheoryAxiom(f"ax{k}", group_ctx, f)
            for k, f in enumerate(formulas)))
        report = outcome(lambda: check_theory(st, theory).results)
        plain = outcome(lambda: tuple(
            (f"ax{k}", found is None, found) for k, found in enumerate(
                plain_counterexample(st, group_ctx, f) for f in formulas)))
        if report[0] == "value":
            report = "value", tuple((r.label, r.passed, r.counterexample)
                                    for r in report[1])
        assert report == plain

    tiny = random_tiny_structure(rng, rng.randrange(4))
    tiny_scope = ["u", "w"][:rng.randrange(3)]
    tiny_ctx = Context.of(*[(x, Base("X")) for x in tiny_scope])
    f = random_formula(rng, tiny_scope, 3, [0])
    assert_agrees(tiny, tiny_ctx, f)
    assert not filled_sites(tiny, tiny_ctx, f)[1]
    assert_agrees(random_function_structure(rng), FUNCTION_CONTEXT,
                  random_function_formula(rng, 3))


def test_an_inner_output_outside_its_carrier_gives_the_key_lookup_message():
    st = cyclic_group_structure(3)
    star = {**st.fun_tables["star"],
            (Atom("G", 1), Atom("G", 1)): Atom("G", 7)}
    st = dataclasses.replace(st, fun_tables={**st.fun_tables, "star": star})
    ctx = Context.of(("a", G), ("b", G), ("c", G))
    f = make_group_theory().axioms[0].formula  # associativity
    assert show(f) == "(= G (star (star a b) c) (star a (star b c)))"
    assert outcome(lambda: counterexample(st, ctx, f)) == (
        "error", StructureError,
        "table for 'star' has no entry for ('0', '(atom G 7)')")
    assert_agrees(st, ctx, f)
    assert filled_sites(st, ctx, f) == ([], ["star"] * 4)


def test_a_missing_table_under_a_short_circuited_branch_is_never_read():
    sig = Signature("partial", ("G",), (FunSymbol("f", (G,), G),
                                        FunSymbol("g", (G, G), G)))
    st = Structure(sig, {"G": FinSet.of(Atom("G", 0), Atom("G", 1))})
    ctx = Context.of(("a", G))
    f = Or(Eq(G, Var("a"), Var("a")), Forall("b", G, Eq(
        G, App("g", (App("f", (Var("a"),)), Var("b"))), Var("a"))))
    assert counterexample(st, ctx, f) is None
    assert filled_sites(st, ctx, f) == ([], ["f", "g"])
    with pytest.raises(StructureError, match="^no table for symbol 'g'$"):
        counterexample(st, ctx, Or(f.right, f.left))


def test_a_missing_entry_names_its_arguments():
    st = cyclic_group_structure(3)
    star = dict(st.fun_tables["star"])
    del star[(Atom("G", 1), Atom("G", 2))]
    holey = dataclasses.replace(st, fun_tables={**st.fun_tables, "star": star})
    for axiom in make_group_theory().axioms:
        assert_agrees(holey, axiom.context, axiom.formula)
    with pytest.raises(StructureError, match=re.escape(
            "table for 'star' has no entry for ('1', '2')")):
        check_theory(holey, make_group_theory())
    assert check_theory(st, make_group_theory()).passed


def test_a_replaced_structure_reads_its_own_tables_when_typed():
    st = cyclic_group_structure(4)
    theory = make_group_theory()
    assert check_theory(st, theory).passed
    first = theory.axioms[0]
    assert filled_sites(st, first.context, first.formula)[1] == []
    shifted = dataclasses.replace(st, fun_tables={
        **st.fun_tables, "star": subtraction_structure(4).fun_tables["star"]})
    report = check_theory(shifted, theory)
    assert not any(r.passed for r in report.results)
    for axiom, result in zip(theory.axioms, report.results):
        assert result.counterexample == plain_counterexample(
            shifted, axiom.context, axiom.formula)
    assert check_theory(st, theory).passed


def test_a_context_that_repeats_a_name_types_the_later_entry():
    sig = Signature("two", ("G", "H"), (FunSymbol("h", (H,), H),))
    hs = [Atom("H", i) for i in range(3)]
    st = Structure(sig, {"G": FinSet.of(Atom("G", 0), Atom("G", 1)),
                         "H": FinSet(tuple(hs))},
                   {"h": {(a,): hs[(a.index + 1) % 3] for a in hs}})
    ctx = Context.of(("x", G), ("x", H))
    f = neg(Eq(H, App("h", (Var("x"),)), Var("x")))
    assert filled_sites(st, ctx, f) == (["h"], [])
    assert counterexample(st, ctx, f) is None
    hx = App("h", (Var("x"),))
    f = Eq(H, App("h", (App("h", (hx,)),)), hx)
    assert counterexample(st, ctx, f) == (("x", hs[0]), ("x", hs[0]))
    assert_agrees(st, ctx, f)
    swapped = Context.of(("x", H), ("x", G))
    assert filled_sites(st, swapped, f) == ([], ["h"] * 4)
    assert_agrees(st, swapped, f)


class CountingTable(dict):
    """A table that records its reads by key in a shared list."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


def counting(st):
    """The structure with each table recording its reads by key, and the
    list they are recorded in."""
    reads = []
    return dataclasses.replace(st, fun_tables={
        name: CountingTable(table, reads)
        for name, table in st.fun_tables.items()}), reads


# a binder over a base type and a constant, evaluated under an
# environment and as a closed lambda
BOUND_UNDER_AN_ENVIRONMENT = (
    Forall("x", G, Eq(G, App("star", (Var("x"), App("e"))), Var("x"))),
    Lambda("x", G, App("star", (Var("x"), Var("e")))))


def reads_by_key(st):
    """For each of ``BOUND_UNDER_AN_ENVIRONMENT``, under every environment
    of one group element: the evaluator's outcome, the plain evaluator's,
    and the reads by key the evaluator took."""
    st, reads = counting(st)
    formula, closed = BOUND_UNDER_AN_ENVIRONMENT
    for node, run, plain in ((formula, eval_formula, plain_truth),
                             (closed, eval_term, plain_value)):
        for env in all_environments(st, Context.of(("a", G))):
            del reads[:]
            got = outcome(lambda: run(st, node, env))
            taken = len(reads)
            yield got, outcome(lambda: plain(st, node, env)), taken


def test_a_formula_compiles_once_per_environment_shape():
    """Under environments of the same names in the same order, a formula
    compiles once, whatever their values: a name it does not read only
    fills a slot, and one its binder shadows is read from the binder.
    Another order of the names is another shape, compiled once more."""
    double = App("star", (Var("x"), Var("x")))
    f = Exists("x", G, Eq(G, double, App("star", (Var("a"), Var("b")))))
    rng = random.Random(32)
    atoms = list(Z12.carrier("G"))
    for shape, entries in ((("a", "x", "b", "c"), 1), (("c", "b", "a"), 2)):
        truths = []
        for _ in range(100):
            env = {name: rng.choice(atoms) for name in shape}
            truths.append(eval_formula(Z12, f, env))
            assert truths[-1] == plain_truth(Z12, f, env)
        assert len(f.__dict__["_compiled"]) == entries
        assert set(truths) == {True, False}


def test_binders_and_constants_are_typed_under_an_environment():
    for st in (cyclic_group_structure(12), subtraction_structure(5)):
        for got, want, taken in reads_by_key(st):
            assert got == want and got[0] == "value"
            assert taken == 0


def test_a_declined_table_is_read_by_key_under_an_environment():
    kinds = set()
    for seed in range(24):
        broken, declined = declining_group(random.Random(seed))
        kinds.add("star" in declined)
        for got, want, taken in reads_by_key(broken):
            assert got == want
            # star is read by key, or, when only inv is declined, typed
            assert (taken > 0) == ("star" in declined)
    assert kinds == {True, False}


def test_a_constant_read_as_a_name_or_an_application_gives_one_error():
    elements = FinSet.of(Atom("G", 0), Atom("G", 1))
    for tables, message in (
            ({"e": {}}, "table for 'e' has no entry for ()"),
            ({}, "no table for symbol 'e'")):
        st = Structure(GROUP, {"G": elements}, tables)
        for t in (Var("e"), App("e")):
            want = ("error", StructureError, message)
            assert outcome(lambda: eval_term(st, t)) == want
            assert outcome(lambda: counterexample(
                st, Context(), Eq(G, t, t))) == want
            assert outcome(lambda: plain_value(st, t, {})) == want


# ---------------------------------------------------------------------------
# value hashes
# ---------------------------------------------------------------------------

# An Atom is the one object of its carrier and index, and hashes by
# identity.  A PairV keeps the hash it first computes, which must equal
# the hash a frozen dataclass generates, and must not depend on anything
# but the hash seed and the field values.
HASH_PARITY = """
import dataclasses, pathlib, pickle, random, sys
from generators import random_value
from mulingua.semantics import Atom, PairV, TreeV

TWINS = {}


def twin(value):
    # the value rebuilt from dataclasses generated by make_dataclass;
    # TreeV keeps its own hash, as in the record-twin test, and an atom,
    # which hashes by identity, is its own twin
    if isinstance(value, tuple):
        return tuple(twin(v) for v in value)
    if isinstance(value, Atom) or not dataclasses.is_dataclass(value):
        return value
    cls = type(value)
    names = [f.name for f in dataclasses.fields(cls)]
    if cls not in TWINS:
        TWINS[cls] = dataclasses.make_dataclass(
            cls.__name__, names, frozen=True,
            namespace={"__hash__": TreeV.__hash__} if cls is TreeV else {})
    return TWINS[cls](*(twin(getattr(value, name)) for name in names))


def rebuilt(value):
    # an equal value made of new objects, none of them hashed yet
    if isinstance(value, tuple):
        return tuple(rebuilt(v) for v in value)
    if not dataclasses.is_dataclass(value):
        return value
    return type(value)(*(rebuilt(getattr(value, f.name))
                         for f in dataclasses.fields(value)))


def nodes(value):
    if isinstance(value, tuple):
        for v in value:
            yield from nodes(v)
    elif dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from nodes(getattr(value, f.name))


rng = random.Random(24)
checked = 0
for _ in range(400):
    value = random_value(rng, rng.randrange(5))
    fresh = rebuilt(value)
    assert hash(value) == hash(twin(value)) == hash(value) == hash(fresh)
    assert fresh == value
    for node in nodes(value):
        checked += 1
        if isinstance(node, Atom):
            assert Atom(node.carrier, node.index) is node
            assert hash(node) == object.__hash__(node)
        if isinstance(node, PairV):
            assert hash(node) == hash((node.first, node.second))
            other = Atom("X", checked)
            moved = dataclasses.replace(node, second=other)
            assert hash(moved) == hash((node.first, other))
            assert hash(dataclasses.replace(node)) == hash(node)
            unhashed = PairV(node.first, node.second)
            moved = dataclasses.replace(unhashed, first=other)
            assert hash(moved) == hash((other, node.second))
            assert hash(unhashed) == hash(node)
# values pickled by a process with another hash seed hash as if built here
kept = pathlib.Path(sys.argv[1])
if kept.exists():
    for value in pickle.loads(kept.read_bytes()):
        assert hash(value) == hash(rebuilt(value))
        checked += 1
else:
    values = [random_value(rng, 4) for _ in range(50)]
    for value in values:
        hash(value)
    kept.write_bytes(pickle.dumps(values))
print("checked", checked)
"""


def test_value_hashes_equal_the_generated_ones_under_each_hash_seed(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", HASH_PARITY, str(tmp_path / "values")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root / 'tests'}"})
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(int(done.stdout.removeprefix("checked ")))
    assert outputs[1] == outputs[0] + 50


# ---------------------------------------------------------------------------
# interned atoms
# ---------------------------------------------------------------------------

def test_an_atom_is_one_object_however_it_is_built_or_copied():
    atom = Atom("G", 3)
    assert Atom("G", 3) is atom and Atom(carrier="G", index=3) is atom
    for copied in (copy.copy(atom), copy.deepcopy(atom),
                   pickle.loads(pickle.dumps(atom)),
                   dataclasses.replace(atom),
                   dataclasses.replace(Atom("G", 4), index=3)):
        assert copied is atom
    # equality is object's identity test, run in C
    assert Atom.__eq__ is object.__eq__ and Atom.__ne__ is object.__ne__
    for st in (Z12, copy.copy(Z12), copy.deepcopy(Z12),
               pickle.loads(pickle.dumps(Z12)),
               dataclasses.replace(Z12, fun_tables=dict(Z12.fun_tables))):
        assert st.carriers["G"].elements == Z12.carriers["G"].elements
        assert all(a is b for a, b in zip(st.carriers["G"],
                                          Z12.carriers["G"]))
        assert all(st.fun_tables["star"][a, b] is Z12.fun_tables["star"][a, b]
                   for a in Z12.carriers["G"] for b in Z12.carriers["G"])


def test_an_index_of_another_type_makes_another_atom():
    one = Atom("X", 1)
    for index in (1.0, True):
        other = Atom("X", index)
        assert other is not one and other != one and other is Atom("X", index)
        assert repr(other) == f"Atom(carrier='X', index={index!r})"
    assert Atom("X", 1.0) is not Atom("X", True)
    assert repr(one) == "Atom(carrier='X', index=1)"
    atoms = (one, Atom("X", 1.0), Atom("X", True))
    assert all(hash(atom) == object.__hash__(atom) for atom in atoms)
    assert len(set(atoms)) == 3


# Atoms hash by identity, so a set of atoms iterates in an order that
# follows their addresses.  This script interns, before anything else,
# the atoms a plain run of the pinned tests interns, in a seeded shuffled
# order, which moves every atom's address and hash; then it runs those
# tests, which pin the outputs of a run without the shuffle.  Without a
# seed it runs them plainly and writes down the atoms they interned.
SHUFFLED_ATOMS = """
import ast, pathlib, random, sys
import pytest
from mulingua import semantics

kept, seed, tests = pathlib.Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
if seed:
    keys = ast.literal_eval(kept.read_text())
    random.Random(int(seed)).shuffle(keys)
    for carrier, index in keys:
        semantics.Atom(carrier, index)
code = pytest.main(["-q", "-p", "no:cacheprovider", *tests])
if seed:
    assert len(semantics._ATOMS) == len(keys), "an atom was not shuffled"
else:
    kept.write_text(repr([key[:2] for key in semantics._ATOMS]))
sys.exit(code)
"""

PINNED_OUTPUTS = (
    "tests/test_evaluation.py::test_seeded_outcomes_match_the_pinned_digest",
    "tests/test_proofs.py::test_all_interval_proofs_match_golden_digest",
    "tests/test_proofs.py::test_formula_proofs_match_golden_digest",
    "tests/test_semantics.py::"
    "test_seeded_type_interpretation_matches_the_pinned_digest",
    "tests/test_musiclib.py::test_group_declarations_match_the_goldens",
    "tests/test_voiceleading.py::test_ordered_output_is_pinned",
    "tests/test_docs.py::test_documented_command_exits_as_documented",
)


def test_no_output_depends_on_an_atoms_address(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    kept = tmp_path / "atoms"

    def run(seed):
        return subprocess.Popen(
            [sys.executable, "-c", SHUFFLED_ATOMS, str(kept), seed,
             *PINNED_OUTPUTS],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})

    def finish(process):
        out, _ = process.communicate(timeout=120)
        assert process.returncode == 0 and "\n25 passed in " in out, out

    finish(run(""))
    for shuffled in [run(seed) for seed in ("0", "1")]:  # side by side
        finish(shuffled)
    assert len(ast.literal_eval(kept.read_text())) > 100


def _atoms_in(value):
    """Every atom in a value, a finite set or a tuple of values."""
    if isinstance(value, Atom):
        yield value
    elif isinstance(value, (FinSet, tuple)):
        for member in value:
            yield from _atoms_in(member)
    elif isinstance(value, (TableV, SectionV)):
        for key, out in value.entries:
            yield from _atoms_in(key)
            yield from _atoms_in(out)
    elif isinstance(value, TreeV):
        yield from _atoms_in(value.label)
        yield from _atoms_in(value.branches)
    elif isinstance(value, PairV):
        yield from _atoms_in(value.first)
        yield from _atoms_in(value.second)
    elif isinstance(value, (InlV, InrV)):
        yield from _atoms_in(value.value)


def test_every_loaded_table_holds_its_carriers_own_atoms():
    """Each atom of a carrier that a structure's tables hold (keys, values,
    family members, relation tuples) is that carrier's own object."""
    source = (pathlib.Path(__file__).resolve().parent.parent / "demo.mul")
    ws = load_source(source.read_text(encoding="utf-8"))
    structures = list(ws.structures.items())
    assert len(structures) > 10
    for name, st in structures:
        own = {id(a) for carrier in st.carriers.values() for a in carrier}
        tables = [*st.fun_tables.values(), *map(dict.fromkeys,
                                                st.rel_tables.values())]
        held = [atom for table in tables for item in table.items()
                for atom in _atoms_in(item) if atom.carrier in st.carriers]
        assert held, name
        assert all(id(atom) in own for atom in held), name
