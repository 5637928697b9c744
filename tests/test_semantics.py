"""Finite-set interpretation, evaluation, theory checking, and
structure homomorphisms."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as hst

from mulingua.diagnostics import BudgetError
from mulingua.kernel import check_term
from mulingua.musiclib import (
    cyclic_group_structure, group_signature, make_gis_theory,
    make_group_theory, music_signature, subtraction_structure, triad_model,
    trivial_group_structure, z_gis_structure, z_music_structure,
)
from mulingua.semantics import (
    Atom, FinSet, SectionV, Structure, StructureHom, TableV,
    TruthV, all_environments, check_structure_hom, check_theory, derivable,
    eval_formula, eval_term, identity_hom, interpret_type,
    render_value, type_size, value_in_type,
)
from mulingua.syntax import (
    And, App, Arrow, Base, Bottom, Context, Coproduct, Eq, Exists, FamApp,
    Forall, FunSymbol, Implies, Lambda, Member, Not, Or, Pi, Power, Product,
    Prop, PropType, RelAtom, Sigma, Signature, Top, Unit, Universe, Var,
    W, Zero, substitute,
)

from generators import (
    BINDERS, random_closed_formula, random_formula, random_group_element_term,
    random_tiny_structure, random_typed_term, rename_bound, tiny_signature,
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
    assert type_size(Z12, Product(G, G)) == 144
    assert len(interpret_type(Z12, Product(G, G))) == 144


def test_pi_over_empty_index_is_terminal():
    empty_sigma = Sigma("x", Zero(), G)
    assert type_size(Z12, empty_sigma) == 0
    pi = Pi("p", empty_sigma, G)
    carrier = interpret_type(Z12, pi)
    assert carrier.elements == (SectionV(()),)


def test_arrow_and_power_sizes():
    assert type_size(Z12, Arrow(Unit(), G)) == 12
    assert type_size(Z12, Arrow(G, Prop())) == 2 ** 12
    assert type_size(Z12, Power(G)) == 2 ** 12


def test_coproduct_enumeration_order():
    c = interpret_type(Z12, Coproduct(Unit(), Prop()))
    rendered = [render_value(v) for v in c]
    assert rendered == ["(inl star)", "(inr false)", "(inr true)"]


def test_dependent_sigma_size():
    # fibers fin(p) have p elements, so the total is 0 + 1 + ... + 11
    t = Sigma("p", Base("PC"), FamApp("fin", (Var("p"),)))
    assert type_size(MUSIC12, t) == sum(range(12))


def test_sizes_are_exact_up_to_the_budget_and_budget_plus_one_above():
    fin = FamApp("fin", (Var("p"),))
    cases = [  # (type, structure, exact size)
        (Product(G, G), Z12, 144),
        (Coproduct(G, Product(G, G)), Z12, 156),
        (Arrow(G, Prop()), Z12, 2 ** 12),
        (Power(G), Z12, 2 ** 12),
        (Pi("x", G, G), Z12, 12 ** 12),
        (Sigma("x", G, G), Z12, 144),
        (Sigma("p", Base("PC"), fin), MUSIC12, sum(range(12))),
        (Pi("p", Base("PC"), fin), MUSIC12, 0),
        (Pi("p", Base("PC"), Coproduct(Unit(), fin)), MUSIC12, 479001600),
        (Pi("x", Base("PC"), fin), MUSIC12, 5 ** 12),
    ]
    env = {"p": Atom("PC", 5)}
    for t, st, exact in cases:
        for budget in (exact - 1, exact, exact + 1, 10 ** 6):
            if budget >= 12:  # dependent fibers enumerate a 12-element index
                assert type_size(st, t, env, budget) == min(exact, budget + 1)
    assert type_size(MUSIC12, fin, env, budget=3) == 4
    # a size with thousands of digits is never computed
    huge = Power(Power(Power(G)))
    assert type_size(Z12, huge) == 10 ** 6 + 1
    assert type_size(Z12, Arrow(huge, G), budget=10) == 11
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
        interpret_type(Z12, Arrow(G, G))  # 12^12 tables


def test_quantifier_over_huge_function_type_overflows():
    f = Forall("f", Arrow(G, G), Top())
    with pytest.raises(BudgetError):
        eval_formula(Z12, f)


def test_budget_env_var_override(monkeypatch):
    from mulingua.semantics import element_budget
    monkeypatch.setenv("MULINGUA_BUDGET", "10")
    assert element_budget() == 10
    assert element_budget(500) == 500
    with pytest.raises(BudgetError):
        interpret_type(Z12, Product(G, G))  # 144 > 10
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
    t = W("x", G, Zero())
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
    assert type_size(Z12, W("x", G, Unit())) == 0
    assert interpret_type(Z12, W("x", Zero(), Unit())) == FinSet(())


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
        Not(Eq(G, Var("x"), App("e"))))))
    alone = inhabit(Z12, square_root).value
    searched = len(calls)
    calls.clear()
    table = inhabit(Z12, Arrow(G, square_root)).value
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
    assert not value_in_type(Z12, Atom("G", 3), Unit())
    table = eval_term(Z12, Lambda("x", G, Var("x")))
    assert value_in_type(Z12, table, Arrow(G, G))
    assert not value_in_type(Z12, table, Arrow(G, Prop()))


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
    assert eval_formula(Z12, Forall("x", Zero(), Bottom()))


def test_interval_composition_law_holds():
    s = Base("S")
    f = Forall("r", s, Forall("s", s, Forall("t", s, Eq(
        Base("IVLS"),
        App("star", (App("int", (Var("r"), Var("s"))),
                     App("int", (Var("s"), Var("t"))))),
        App("int", (Var("r"), Var("t")))))))
    assert eval_formula(GIS12, f)


def test_membership_is_evaluation():
    from mulingua.syntax import FormulaTerm
    scale = Lambda("p", Base("PC"), FormulaTerm(
        Or(Eq(Base("PC"), Var("p"), App("p0")),
           Eq(Base("PC"), Var("p"), App("p4")))))
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
        assert eval_formula(st, Not(And(f, g))) == eval_formula(
            st, Or(Not(f), Not(g)))
        assert eval_formula(st, Not(Or(f, g))) == eval_formula(
            st, And(Not(f), Not(g)))
        assert eval_formula(st, And(f, Or(g, h))) == (fv and (gv or hv))
        assert eval_formula(st, Or(f, And(g, h))) == (fv or (gv and hv))
        assert eval_formula(st, Implies(f, g)) == ((not fv) or gv)
        assert eval_formula(st, Not(Not(f))) == fv


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
                    fun_symbols=(FunSymbol("all", (), Power(Base("X"))),))
    xs = FinSet.of(Atom("X", 0), Atom("X", 1))
    st = Structure(sig, {"X": xs}, {"all": {
        (): TableV(tuple((x, TruthV(True)) for x in xs))}})
    collapse = StructureHom(st, st, {"X": {x: Atom("X", 0) for x in xs}})
    verdict = check_structure_hom(collapse)
    assert not verdict
    assert verdict.reason == ("cannot transport along (power X): "
                              "component is not a bijection")


def test_surjective_but_not_injective_component_at_a_power_fails_the_check():
    sig = Signature(name="some", base_types=("X",),
                    fun_symbols=(FunSymbol("first", (), Power(Base("X"))),))
    xs, x0 = FinSet.of(Atom("X", 0), Atom("X", 1)), Atom("X", 0)
    source = Structure(sig, {"X": xs}, {"first": {
        (): TableV(tuple((x, TruthV(x == x0)) for x in xs))}})
    target = Structure(sig, {"X": FinSet.of(x0)}, {"first": {
        (): TableV(((x0, TruthV(False)),))}})
    merge = StructureHom(source, target, {"X": {x: x0 for x in xs}})
    verdict = check_structure_hom(merge)
    assert not verdict
    assert verdict.reason == ("cannot transport along (power X): "
                              "component is not a bijection")


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
