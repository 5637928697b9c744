"""The shipped musical structures: cyclic groups, interval systems,
the transposition/inversion group, scales, triads, and dominance."""

import pytest

from mulingua.kernel import validate_signature
from mulingua.musiclib import (
    NOTE_NAMES, SCALE_KINDS, contains_leading_tone, cyclic_group_structure,
    dominance_formula, dominance_model, domfunc_model, domfunc_signature,
    gis_signature, group_signature, harmony_signature, leading_tone_predicates,
    make_gis_theory, make_group_theory, music_signature, note_to_pc,
    pitch_universe, scale_library, subtraction_structure, ti_group, triad,
    trivial_group_structure, z_gis_structure, z_music_structure,
)
from mulingua.semantics import (
    Atom, all_environments, check_theory, eval_formula,
)


# ---------------------------------------------------------------------------
# signatures and theories
# ---------------------------------------------------------------------------

def test_all_signatures_validate():
    for sig in (group_signature(), gis_signature(), music_signature(12),
                harmony_signature(), domfunc_signature()):
        assert validate_signature(sig)


def test_theory_axioms_are_well_formed():
    from mulingua.kernel import well_formed_context
    from mulingua.logic import well_formed_formula
    for theory in (make_group_theory(), make_gis_theory()):
        for axiom in theory.axioms:
            assert well_formed_context(theory.signature, axiom.context)
            assert well_formed_formula(theory.signature, axiom.context,
                                       axiom.formula)


def test_group_theory_models():
    theory = make_group_theory()
    assert check_theory(cyclic_group_structure(12), theory).passed
    assert check_theory(trivial_group_structure(), theory).passed
    report = check_theory(subtraction_structure(12), theory)
    assert not report.passed
    failed = {r.label for r in report.results if not r.passed}
    assert "associativity" in failed


def test_pitch_universe_is_a_group():
    pu = pitch_universe(12)
    assert pu.n == 12 and len(pu.carrier) == 12
    assert check_theory(pu.structure, make_group_theory()).passed
    assert pu.atom(14) == Atom("PC", 2)


def test_gis_models():
    theory = make_gis_theory()
    assert check_theory(z_gis_structure(12), theory).passed
    assert check_theory(z_gis_structure(7), theory).passed


def test_constant_interval_falsifier():
    from mulingua.musiclib import constant_int_gis
    report = check_theory(constant_int_gis(12), make_gis_theory())
    failed = {r.label for r in report.results if not r.passed}
    assert "interval-uniqueness" in failed


# ---------------------------------------------------------------------------
# the transposition/inversion group
# ---------------------------------------------------------------------------

def test_ti_group_satisfies_group_axioms():
    ti = ti_group(12)
    assert check_theory(ti.group, make_group_theory()).passed


def test_ti_action_laws_hold_exhaustively():
    ti = ti_group(12)
    star = ti.group.fun_tables["star"]
    identity = ti.group.fun_tables["e"][()]
    pcs = [Atom("PC", x) for x in range(12)]
    for x in pcs:
        assert ti.action[(identity, x)] == x
    for g in ti.elements():
        for h in ti.elements():
            gh = star[(g, h)]
            for x in pcs:
                assert ti.action[(gh, x)] == ti.action[(g, ti.action[(h, x)])]


def ti_elements_by_name(ti):
    return {name: ti.group.named_atom("TI", name)
            for name in ti.group.element_names["TI"]}


def test_ti_multiplication_table():
    ti = ti_group(12)
    star = ti.group.fun_tables["star"]
    g = ti_elements_by_name(ti)
    assert star[(g["T3"], g["T5"])] == g["T8"]
    assert star[(g["T3"], g["I4"])] == g["I7"]
    assert star[(g["I4"], g["T3"])] == g["I1"]
    assert star[(g["I4"], g["I4"])] == g["T0"]


def test_ti_action_values():
    ti = ti_group(12)
    g = ti_elements_by_name(ti)
    assert ti.action[(g["T7"], Atom("PC", 0))] == Atom("PC", 7)
    assert ti.action[(g["I7"], Atom("PC", 0))] == Atom("PC", 7)
    assert ti.action[(g["I0"], Atom("PC", 3))] == Atom("PC", 9)


# ---------------------------------------------------------------------------
# scales and triads
# ---------------------------------------------------------------------------

def test_note_names():
    assert note_to_pc("C") == 0 and note_to_pc("A") == 9
    with pytest.raises(Exception):
        note_to_pc("H")


def test_scale_library_patterns():
    lib = scale_library()
    assert lib.scale("C", "major") == (0, 2, 4, 5, 7, 9, 11)
    assert lib.scale("A", "natural_minor") == (9, 11, 0, 2, 4, 5, 7)
    assert lib.scale("A", "harmonic_minor") == (9, 11, 0, 2, 4, 5, 8)
    assert lib.degree_pc("C", "major", 5) == 7


def test_triad_stacking():
    c_major = scale_library().scale("C", "major")
    assert triad(c_major, 5) == {7, 11, 2}
    assert triad(c_major, 1) == {0, 4, 7}
    with pytest.raises(ValueError):
        triad(c_major, 8)
    with pytest.raises(ValueError):
        triad(c_major, 0)


def test_leading_tone_detection():
    lib = scale_library()
    assert contains_leading_tone(lib.scale("A", "harmonic_minor"))
    assert not contains_leading_tone(lib.scale("A", "natural_minor"))
    assert contains_leading_tone(lib.scale("C", "major"))
    # degenerate scale whose seventh degree equals its first
    assert not contains_leading_tone((0, 2, 4, 5, 7, 9, 0))


def test_leading_tone_predicate_fragments():
    lib = scale_library()
    fragments = leading_tone_predicates(lib)
    with_lt = fragments["containsLeadingTone"]
    assert all(kind != "natural_minor" for _, kind in with_lt)
    assert ("A", "harmonic_minor") in with_lt and ("A", "major") in with_lt
    assert triad(lib.scale("A", "harmonic_minor"), 5) in fragments["dominant"]


# ---------------------------------------------------------------------------
# dominance depends on the scale kind
# ---------------------------------------------------------------------------

def test_dominance_formula_per_note_name():
    ctx, formula = dominance_formula()
    harm = dominance_model("harmonic_minor")
    nat = dominance_model("natural_minor")
    harm_envs = list(all_environments(harm, ctx))
    nat_envs = list(all_environments(nat, ctx))
    assert len(harm_envs) == len(nat_envs) == 12
    assert all(eval_formula(harm, formula, env) for env in harm_envs)
    assert all(not eval_formula(nat, formula, env) for env in nat_envs)


def test_biconditional_holds_by_evaluation():
    # dominant(V(sctype(n))) iff containsLeadingTone(sctype(n)), checked
    # by evaluating both sides rather than trusting the construction
    from mulingua.syntax import App, RelAtom, Var
    for kind in SCALE_KINDS:
        st = dominance_model(kind)
        ctx, _ = dominance_formula()
        scale_term = App("sctype", (Var("n"),))
        lhs = RelAtom("dominant", (App("V", (scale_term,)),))
        rhs = RelAtom("containsLeadingTone", (scale_term,))
        for env in all_environments(st, ctx):
            assert eval_formula(st, lhs, env) == eval_formula(st, rhs, env)


def test_domfunc_models():
    st = domfunc_model("harmonic_minor")
    assert len(st.carrier("Chord")) == 84
    # every key has exactly two dominant-function chords
    for i, name in enumerate(NOTE_NAMES):
        key = Atom("Key", i)
        chords = [c for (c, k) in st.rel_tables["domfunc"] if k == key]
        assert len(chords) == 2
        leading = st.fun_tables["lt"][(key,)]
        for chord in chords:
            assert (chord, leading) in st.rel_tables["contains"]
    assert not domfunc_model(empty=True).rel_tables["domfunc"]


def test_adversarial_domfunc_model_drops_one_leading_tone():
    st = domfunc_model("harmonic_minor", drop_leading_tone_of="A")
    key = Atom("Key", note_to_pc("A"))
    leading = st.fun_tables["lt"][(key,)]
    v_chord = st.named_atom("Chord", "A:5")
    assert (v_chord, leading) not in st.rel_tables["contains"]
    assert (v_chord, key) in st.rel_tables["domfunc"]


def test_music_structure_tables():
    st = z_music_structure(12)
    assert st.fun_tables["pcint"][(Atom("PC", 0), Atom("PC", 7))] == Atom("IVLS", 7)
    assert st.fun_tables["intclass"][(Atom("IVLS", 7),)] == Atom("IC", 5)
    assert st.fun_tables["p3"][()] == Atom("PC", 3)
    assert len(st.fun_tables["fin"][(Atom("PC", 4),)]) == 4
