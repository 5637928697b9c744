"""Inhabitation search, the formula-to-type translation, and the two
packaged musical propositions."""

import dataclasses
import functools
import itertools
import random
import re

import pytest

from mulingua.diagnostics import BudgetError, StructureError
from mulingua.musiclib import (
    cyclic_group_structure, domfunc_model, note_to_pc, z_music_structure,
)
from mulingua.proofs import (
    all_interval_type, domfunc_leading_tone_type, explain_refutation,
    first_empty_fiber, inhabit, interval_class, pcset_predicate, prop_as_type,
    render_witness,
)
from mulingua.semantics import (
    Atom, FinSet, PairV, SectionV, StarV, Structure, TableV,
    _first_component_split, eval_formula, iter_type, type_size,
    value_in_type,
)
from mulingua.syntax import (
    And, App, Base, Coproduct, Eq, FunSymbol, Pi, Proj1, Proj2, Prop, PropType,
    RelAtom, Sigma, Top, Var, arrow, free_vars, product, show,
)

from generators import (
    family_signature, neg, random_closed_formula, random_family_structure,
    random_pair_sigma, random_tiny_structure, unit, zero,
)

MUSIC12 = z_music_structure(12)
Z12 = cyclic_group_structure(12)
G = Base("G")


def pcs(*values):
    return [Atom("PC", v) for v in values]


# ---------------------------------------------------------------------------
# basic inhabitation
# ---------------------------------------------------------------------------

def test_unit_is_inhabited_by_star():
    proof = inhabit(Z12, unit())
    assert proof is not None and proof.value == StarV()


def test_zero_is_uninhabited():
    assert inhabit(Z12, zero()) is None


def test_pi_over_empty_index_has_empty_section():
    t = Pi("x", zero(), G)
    proof = inhabit(Z12, t)
    assert proof is not None and proof.value == SectionV(())


def test_arrow_out_of_empty_domain():
    proof = inhabit(Z12, arrow(zero(), zero()))
    assert proof is not None and proof.value == TableV(())


def test_a_pi_that_does_not_use_its_binder_is_proved_as_an_arrow():
    """Its proof is a table, and its refutation reads as the arrow's."""
    proof = inhabit(Z12, Pi("x", G, G))
    assert type(proof.value) is TableV
    assert render_witness(proof.value, Z12).startswith("(table (0 0) (1 0)")
    for t in (Pi("x", G, zero()), arrow(G, zero())):
        assert explain_refutation(Z12, t) == "the empty type has no elements"
    dependent = Pi("x", G, PropType(Eq(G, Var("x"), App("e"))))
    assert explain_refutation(Z12, dependent) == (
        "fiber at 1 is empty: proposition (= G x (e)) is false")


def test_power_is_inhabited_by_empty_subset():
    proof = inhabit(Z12, arrow(G, Prop()))
    assert proof is not None
    assert all(not flag.value for _, flag in proof.value.entries)


def test_witnesses_lie_in_their_types():
    for t in (unit(), product(G, G), Coproduct(zero(), G), arrow(G, G),
              arrow(G, Prop()), Sigma("x", G, unit()), Pi("x", G, G)):
        proof = inhabit(Z12, t)
        assert proof is not None
        assert value_in_type(Z12, proof.value, t)


def _decides(st, t, env=None):
    """Independent recursive decision procedure for inhabitation."""
    from mulingua import syntax as s
    from mulingua.semantics import iter_type
    env = env or {}
    match t:
        case s.Prop():
            return True
        case s.Base(name):
            return len(st.carrier(name)) > 0
        case s.Sigma(x, a, b) if x not in s.free_vars(b):
            return _decides(st, a, env) and _decides(st, b, env)
        case s.Coproduct(a, b):
            return _decides(st, a, env) or _decides(st, b, env)
        case s.Pi(x, a, b) if x not in s.free_vars(b):
            return (not _decides(st, a, env)) or _decides(st, b, env)
        case s.Pi(x, a, body):
            return all(_decides(st, body, {**env, x: v})
                       for v in iter_type(st, a, env))
        case s.Sigma(x, a, body):
            return any(_decides(st, body, {**env, x: v})
                       for v in iter_type(st, a, env))
        case s.PropType(f):
            return eval_formula(st, f, env)
    raise AssertionError(t)


def test_sigma_and_pi_decompose():
    rng = random.Random(53)
    bases = [zero(), unit(), G, Coproduct(zero(), zero())]

    def random_type(depth):
        if depth == 0:
            return rng.choice(bases)
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(bases)
        if roll < 0.5:
            return product(random_type(depth - 1), random_type(depth - 1))
        if roll < 0.65:
            return Coproduct(random_type(depth - 1), random_type(depth - 1))
        if roll < 0.8:
            return Sigma(f"s{depth}{rng.randrange(99)}", rng.choice(bases[1:]),
                         random_type(depth - 1))
        return Pi(f"p{depth}{rng.randrange(99)}", rng.choice(bases[1:]),
                  random_type(depth - 1))

    small = cyclic_group_structure(3)
    for _ in range(120):
        t = random_type(3)
        assert (inhabit(small, t) is not None) == _decides(small, t)


# ---------------------------------------------------------------------------
# formulas as types
# ---------------------------------------------------------------------------

def test_translation_shapes():
    from mulingua.syntax import (
        And, Bottom, Exists, Forall, Implies, Or, RelAtom, Top, Var,
    )
    x = Base("X")
    assert prop_as_type(Top()) == unit()
    assert prop_as_type(Bottom()) == zero()
    assert prop_as_type(And(Top(), Bottom())) == product(unit(), zero())
    assert prop_as_type(Or(Top(), Bottom())) == Coproduct(unit(), zero())
    assert prop_as_type(Implies(Top(), Bottom())) == arrow(unit(), zero())
    assert prop_as_type(neg(Top())) == arrow(unit(), zero())
    assert prop_as_type(Forall("x", x, Top())) == Pi("x", x, unit())
    assert prop_as_type(Exists("x", x, Top())) == Sigma("x", x, unit())
    atom = RelAtom("R", (Var("x"),))
    assert prop_as_type(atom) == PropType(atom)


def test_truth_is_inhabitation():
    rng = random.Random(59)
    for _ in range(160):
        st = random_tiny_structure(rng, rng.randrange(4))
        f = random_closed_formula(rng, 4)
        truth = eval_formula(st, f)
        proof = inhabit(st, prop_as_type(f))
        assert truth == (proof is not None), f"disagreement on {f}"
        if proof is not None:
            assert value_in_type(st, proof.value, proof.of)


# ---------------------------------------------------------------------------
# the all-interval proposition
# ---------------------------------------------------------------------------

def count_interval_classes(chord, n=12):
    return len({interval_class(n, y - x) for x in chord for y in chord})


def test_all_interval_tetrachord():
    t = all_interval_type(MUSIC12, pcs(0, 1, 4, 6))
    proof = inhabit(MUSIC12, t)
    assert proof is not None
    section = proof.value
    assert isinstance(section, SectionV) and len(section.entries) == 7
    for ic_value, witness in section.entries:
        pair = witness.first
        x, y = pair.first.index, pair.second.index
        assert x in (0, 1, 4, 6) and y in (0, 1, 4, 6)
        assert interval_class(12, y - x) == ic_value.index


def test_chromatic_fragment_is_refuted():
    t = all_interval_type(MUSIC12, pcs(0, 1, 2, 3))
    assert inhabit(MUSIC12, t) is None
    missing = first_empty_fiber(MUSIC12, t)
    assert missing == Atom("IC", 4)
    assert "ic4" in explain_refutation(MUSIC12, t)


def test_empty_chord_is_refuted():
    t = all_interval_type(MUSIC12, [])
    assert inhabit(MUSIC12, t) is None


def test_all_interval_agrees_with_counting_oracle():
    rng = random.Random(61)
    for _ in range(100):
        chord = [p for p in range(12) if rng.random() < 0.5]
        t = all_interval_type(MUSIC12, pcs(*chord))
        decided = inhabit(MUSIC12, t) is not None
        assert decided == (count_interval_classes(chord) == 7)


def test_chord_members_are_named_by_their_first_declared_constant():
    # "zero" is declared before p0 and names pitch class 0; p5 is dropped
    sig = MUSIC12.signature
    symbols = tuple(f for f in sig.fun_symbols if f.name != "p5")
    st = dataclasses.replace(
        MUSIC12,
        signature=dataclasses.replace(
            sig, fun_symbols=(FunSymbol("zero", (), Base("PC")),) + symbols),
        fun_tables={**MUSIC12.fun_tables, "zero": {(): Atom("PC", 0)}})
    term = pcset_predicate(st, pcs(4, 0))
    assert show(term) == (
        "(lambda (p PC) (or (= PC p (zero)) (= PC p (p4))))")
    with pytest.raises(StructureError,
                       match="^no constant of type PC names the value 5$"):
        pcset_predicate(st, pcs(0, 5))


def test_interval_class_symmetry():
    for n in (7, 12):
        for i in range(n):
            assert interval_class(n, i) == interval_class(n, n - i)


# ---------------------------------------------------------------------------
# the dominant/leading-tone proposition
# ---------------------------------------------------------------------------

def test_every_dominant_chord_contains_the_leading_tone():
    st = domfunc_model("harmonic_minor")
    for name in ("A", "C", "F#"):
        t = domfunc_leading_tone_type(st, Atom("Key", note_to_pc(name)))
        proof = inhabit(st, t)
        assert proof is not None
        assert len(proof.value.entries) == 2  # the V and vii chords


def test_empty_dominant_relation_is_vacuously_true():
    st = domfunc_model(empty=True)
    t = domfunc_leading_tone_type(st, Atom("Key", 0))
    assert type_size(st, t) == 1
    proof = inhabit(st, t)
    assert proof is not None and proof.value == SectionV(())


def test_adversarial_model_is_refuted_with_pair():
    st = domfunc_model("harmonic_minor", drop_leading_tone_of="A")
    key = Atom("Key", note_to_pc("A"))
    t = domfunc_leading_tone_type(st, key)
    assert inhabit(st, t) is None
    witness = first_empty_fiber(st, t)
    assert isinstance(witness, PairV)
    assert st.render(witness.first) == "A:5"
    # other keys are untouched
    other = domfunc_leading_tone_type(st, Atom("Key", note_to_pc("C")))
    assert inhabit(st, other) is not None


def test_witness_rendering_uses_pair_notation():
    t = all_interval_type(MUSIC12, pcs(0, 1, 4, 6))
    proof = inhabit(MUSIC12, t)
    rendered = render_witness(proof.value, MUSIC12)
    assert rendered.startswith("{ic0 => ((0, 0), star)")


def test_family_fibers():
    from mulingua.semantics import interpret_type
    from mulingua.syntax import FamApp, Var
    fiber = FamApp("fin", (Var("x"),))
    assert len(interpret_type(MUSIC12, fiber, {"x": Atom("PC", 4)})) == 4
    assert len(interpret_type(MUSIC12, fiber, {"x": Atom("PC", 0)})) == 0


def test_witness_is_first_in_enumeration_order():
    from mulingua.semantics import iter_type
    from mulingua.syntax import FamApp, Prop, Var
    pc = Base("PC")
    cases = [
        (Z12, product(G, G)),
        (Z12, Coproduct(zero(), G)),
        (Z12, arrow(G, Prop())),
        (Z12, arrow(Prop(), Prop())),
        (Z12, Pi("x", Prop(), G)),
        # the fiber over the first index value is empty, so the witness
        # skips ahead exactly as the enumeration does
        (MUSIC12, Sigma("p", pc, FamApp("fin", (Var("p"),)))),
    ]
    for st, t in cases:
        proof = inhabit(st, t)
        assert proof is not None
        assert proof.value == next(iter(iter_type(st, t)))


# ---------------------------------------------------------------------------
# a pair binder's leading conjuncts, tested once per first component
# ---------------------------------------------------------------------------

def _plain_sigma(st, t, budget):
    """``(sigma (q P) (prop F))`` enumerated plainly: P's elements within
    the budget (a product, where F does not read q, is not sized), each
    kept where the whole of F holds."""
    sized = t.binder in free_vars(t.body)
    if sized and type_size(st, t.index_type, budget=budget) > budget:
        raise BudgetError(f"enumeration of more than {budget} elements "
                          "exceeds the element budget")
    for v in iter_type(st, t.index_type, budget=budget):
        if eval_formula(st, t.body.prop, {t.binder: v}, budget):
            yield PairV(v, StarV())


def _first_50(elements):
    """The first 50 elements, and the error that ended them, if any."""
    got = []
    try:
        for v in itertools.islice(elements, 50):
            got.append(v)
    except (BudgetError, StructureError) as err:
        return got, type(err), str(err)
    return got, None, None


def test_a_pair_binder_enumerates_as_the_plain_nested_search():
    rng = random.Random(2027)
    split = 0
    for _ in range(400):
        st = random_family_structure(rng)
        t = random_pair_sigma(rng)
        split += _first_component_split(t) is not None
        for budget in (1000, 2):
            assert _first_50(iter_type(st, t, budget=budget)) == \
                _first_50(_plain_sigma(st, t, budget)), show(t)
    assert split > 200  # most cases reach the split


def _pair_sigma(pair_type, *conjuncts):
    return Sigma("q", pair_type, PropType(functools.reduce(And, conjuncts)))


X, Y = Base("X"), Base("Y")
Q = Var("q")
FAMILY = Structure(
    signature=family_signature(),
    carriers={"X": FinSet.of(Atom("X", 0), Atom("X", 1)),
              "Y": FinSet.of(Atom("Y", 0))},
    fun_tables={"f": {(Atom("X", 0),): Atom("X", 1),
                      (Atom("X", 1),): Atom("X", 0)},
                "F": {(Atom("X", 0),): FinSet.of(),
                      (Atom("X", 1),): FinSet.of(Atom("Y", 0))}},
    rel_tables={"R": frozenset({(Atom("X", 1),)})})
NO_F_OF_Y = "table for 'f' has no entry for ('(atom Y 0)',)"


def test_a_false_leading_conjunct_hides_a_later_error():
    never = neg(Eq(X, Proj1(Q), Proj1(Q)))
    raising = RelAtom("R", (App("f", (Proj2(Q),)),))
    t = _pair_sigma(product(X, Y), never, raising)
    assert _first_component_split(t) is not None
    assert list(iter_type(FAMILY, t)) == list(_plain_sigma(FAMILY, t, 1000)) == []


def test_a_raising_leading_conjunct_raises_as_the_plain_search_does():
    raising = RelAtom("R", (App("f", (Proj1(Q),)),))
    t = _pair_sigma(product(Y, X), raising, RelAtom("R", (Proj2(Q),)))
    assert _first_component_split(t) is not None
    for elements in (iter_type(FAMILY, t), _plain_sigma(FAMILY, t, 1000)):
        with pytest.raises(StructureError, match=f"^{re.escape(NO_F_OF_Y)}$"):
            next(elements)


def test_an_empty_second_factor_evaluates_no_conjunct(monkeypatch):
    from mulingua import semantics
    calls = []
    monkeypatch.setattr(semantics, "eval_formula",
                        lambda *args: calls.append(args))
    raising = RelAtom("R", (App("f", (Proj1(Q),)),))
    t = _pair_sigma(product(Y, zero()), raising, Top())
    assert _first_component_split(t) is not None
    assert list(iter_type(FAMILY, t)) == []
    # only the empty factor's proposition, bottom, is evaluated: once by
    # the budget check's type_size and once by the enumeration
    assert [args[1] for args in calls] == [zero().prop, zero().prop]


# ---------------------------------------------------------------------------
# golden proof objects
# ---------------------------------------------------------------------------

def _digest(lines):
    import hashlib
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_all_interval_proofs_match_golden_digest():
    # proof objects and refutations are part of the output contract:
    # any change to the search order or to the texts shows here
    rng = random.Random(67)
    lines = []
    for mask in rng.sample(range(4096), 300):
        chord = pcs(*(p for p in range(12) if mask >> p & 1))
        t = all_interval_type(MUSIC12, chord)
        proof = inhabit(MUSIC12, t)
        if proof is not None:
            lines.append(render_witness(proof.value, MUSIC12))
        else:
            missing = first_empty_fiber(MUSIC12, t)
            lines.append(f"{MUSIC12.render(missing)} "
                         f"{explain_refutation(MUSIC12, t)}")
    assert _digest(lines) == (
        "420056d888bca58d89fc161cca546bd7116551c6894f1097c37989f7d8df2912")


def test_formula_proofs_match_golden_digest():
    rng = random.Random(71)
    lines = []
    for _ in range(300):
        st = random_tiny_structure(rng, rng.randrange(4))
        f = random_closed_formula(rng, 4)
        t = prop_as_type(f)
        proof = inhabit(st, t)
        lines.append(repr(proof.value) if proof is not None
                     else explain_refutation(st, t))
    assert _digest(lines) == (
        "3cf083c9a8b5bfdfb53590a49f63c67484804e5d068ef0a74f97286c43a1d379")
