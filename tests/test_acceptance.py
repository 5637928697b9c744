"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from mulingua.musiclib import (
    constant_int_gis, cyclic_group_structure, domfunc_model,
    dominance_formula, dominance_model, make_gis_theory, make_group_theory,
    note_to_pc, pitch_universe, subtraction_structure, ti_group,
    z_gis_structure, z_music_structure,
)
from mulingua.proofs import (
    all_interval_type, domfunc_leading_tone_type, explain_refutation,
    first_empty_fiber, inhabit, interval_class, prop_as_type,
)
from mulingua.semantics import (
    Atom, PairV, SectionV, all_environments, check_theory, eval_formula,
    type_size, value_in_type,
)
from mulingua.syntax import (
    Base, Bottom, Exists, Forall, RelAtom, Signature, Top, Var,
)
from mulingua.voiceleading import (
    arrow_payload, check_quiver_hom, conjugation_automorphism,
    enumerate_automorphisms, transporters, vls,
)
from mulingua.wtypes import (
    LIST_TYPE, RhythmSpec, encode_list, leaf_count, list_length, rhythm_leaf,
    rhythm_tree, to_list,
)

from generators import (
    explicit_quiver, neg, random_closed_formula, random_tiny_structure,
)
from mulingua.semantics import FinSet, Structure
from generators import tiny_signature


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_seconds
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"criterion {number} ({description}): {verdict} "
          f"[{elapsed:.2f}s, budget {limit_seconds}s]")
    assert ok, f"criterion {number} took {elapsed:.2f}s (> {limit_seconds}s)"


def test_criterion_01_group_theory_checking():
    with criterion(1, "group theory checking", 1.0):
        good = check_theory(cyclic_group_structure(12), make_group_theory())
        assert good.passed
        bad = check_theory(subtraction_structure(12), make_group_theory())
        failures = {r.label: r for r in bad.results if not r.passed}
        assert "associativity" in failures
        assert failures["associativity"].counterexample is not None
        rendered = bad.render(subtraction_structure(12))
        assert "associativity: FAIL counterexample ((a " in rendered


def test_criterion_02_gis_checking():
    with criterion(2, "generalized interval system checking", 1.0):
        assert check_theory(z_gis_structure(12), make_gis_theory()).passed
        report = check_theory(constant_int_gis(12), make_gis_theory())
        failed = {r.label for r in report.results if not r.passed}
        assert failed & {"interval-existence", "interval-uniqueness"}
        assert "interval-composition" not in failed


def test_criterion_03_ti_voice_leading_space():
    with criterion(3, "transposition/inversion voice-leading space", 2.0):
        rule = ti_group(12)
        pitch = pitch_universe(12).carrier
        quiver = vls(pitch, rule)
        assert len(quiver.vertices) == 12
        assert len(quiver.arrows) == 288
        for x in pitch:
            for y in pitch:
                assert len(transporters(rule, x, y)) == 2
        homs = [conjugation_automorphism(quiver, g) for g in rule.elements()]
        assert all(check_quiver_hom(quiver, quiver, h) for h in homs)
        distinct = {tuple(sorted((v.index, w.index)
                                 for v, w in h.gamma0.items()))
                    for h in homs}
        assert len(distinct) == 24


def test_criterion_04_automorphism_oracle():
    with criterion(4, "automorphism enumeration vs brute force", 30.0):
        checked = 0
        for nv in range(4):
            pair_space = [(s, t) for s in range(nv) for t in range(nv)]
            max_arrows = 4 if nv else 0
            for na in range(max_arrows + 1):
                for pairs in itertools.product(pair_space, repeat=na):
                    q = explicit_quiver(nv, pairs)
                    srcs = tuple(s for s, _ in pairs)
                    tgts = tuple(t for _, t in pairs)
                    expected = _brute_force_keys(nv, srcs, tgts)
                    got = _enumerated_keys(q, nv, na)
                    assert got == expected, (nv, pairs)
                    checked += 1
        assert checked == 1 + 5 + 341 + 7381


def _brute_force_keys(nv, srcs, tgts):
    na = len(srcs)
    found = set()
    arrow_indices = range(na)
    for vp in itertools.permutations(range(nv)):
        for ap in itertools.permutations(arrow_indices):
            if all(vp[srcs[a]] == srcs[ap[a]] and vp[tgts[a]] == tgts[ap[a]]
                   for a in arrow_indices):
                found.add((vp, ap))
    return found


def _enumerated_keys(q, nv, na):
    verts = [Atom("v", i) for i in range(nv)]
    keys = set()
    for h in enumerate_automorphisms(q, budget=10 ** 7):
        vp = tuple(h.gamma0[v].index for v in verts)
        ap = [0] * na
        for a, b in h.gamma1.items():
            ap[arrow_payload(a).index] = arrow_payload(b).index
        keys.add((vp, tuple(ap)))
    return keys


def test_criterion_05_all_interval_sets():
    with criterion(5, "all-interval pitch-class sets", 5.0):
        st = z_music_structure(12)
        tetrachord = [Atom("PC", p) for p in (0, 1, 4, 6)]
        proof = inhabit(st, all_interval_type(st, tetrachord))
        assert proof is not None
        assert isinstance(proof.value, SectionV)
        assert len(proof.value.entries) == 7
        chromatic = all_interval_type(st, [Atom("PC", p) for p in range(4)])
        assert inhabit(st, chromatic) is None
        missing = first_empty_fiber(st, chromatic)
        assert missing is not None and missing.carrier == "IC"
        assert f"ic{missing.index}" in explain_refutation(st, chromatic)
        rng = random.Random(101)
        for _ in range(500):
            chord = [p for p in range(12) if rng.random() < 0.5]
            decided = inhabit(
                st, all_interval_type(st, [Atom("PC", p) for p in chord]))
            classes = {interval_class(12, y - x)
                       for x in chord for y in chord}
            assert (decided is not None) == (len(classes) == 7)


def test_criterion_06_vacuous_truth():
    with criterion(6, "vacuous truth of the leading-tone sentence", 1.0):
        key = Atom("Key", note_to_pc("A"))
        empty = domfunc_model(empty=True)
        goal = domfunc_leading_tone_type(empty, key)
        assert type_size(empty, goal) == 1
        proof = inhabit(empty, goal)
        assert proof is not None and proof.value == SectionV(())
        adversarial = domfunc_model("harmonic_minor",
                                    drop_leading_tone_of="A")
        goal = domfunc_leading_tone_type(adversarial, key)
        assert inhabit(adversarial, goal) is None
        witness = first_empty_fiber(adversarial, goal)
        assert isinstance(witness, PairV)
        assert adversarial.render(witness.first) == "A:5"


def test_criterion_07_context_dependence():
    with criterion(7, "dominance depends on the scale kind", 1.0):
        ctx, formula = dominance_formula()
        harmonic = dominance_model("harmonic_minor")
        natural = dominance_model("natural_minor")
        harmonic_envs = list(all_environments(harmonic, ctx))
        natural_envs = list(all_environments(natural, ctx))
        assert len(harmonic_envs) == 12 and len(natural_envs) == 12
        assert all(eval_formula(harmonic, formula, env)
                   for env in harmonic_envs)
        assert all(not eval_formula(natural, formula, env)
                   for env in natural_envs)


def test_criterion_08_tree_values():
    with criterion(8, "tree values: lists and rhythms", 2.0):
        abc = [Atom("A", 0), Atom("A", 1), Atom("A", 2)]
        st = Structure(Signature("abc", ("A",)), {"A": FinSet(tuple(abc))})
        tree = encode_list(abc)
        assert value_in_type(st, tree, LIST_TYPE)
        assert to_list(tree) == abc
        assert list_length(tree) == 3
        rhythm = rhythm_tree(RhythmSpec(F(19, 2), (F(2), F(5, 2), F(3))), [
            rhythm_leaf(2),
            rhythm_tree(RhythmSpec(F(5, 2), (F(1), F(1), F(1))), [
                rhythm_tree(RhythmSpec(F(1), (F(2), F(1))),
                            [rhythm_leaf(2), rhythm_leaf(1)]),
                rhythm_leaf(1),
                rhythm_leaf(1),
            ]),
            rhythm_tree(RhythmSpec(F(3), (F(3, 2), F(2))),
                        [rhythm_leaf(F(3, 2)), rhythm_leaf(2)]),
        ])
        assert leaf_count(rhythm) == 7
        rng = random.Random(103)
        for _ in range(1000):
            items = [Atom("A", rng.randrange(3))
                     for _ in range(rng.randrange(21))]
            tree = encode_list(items)
            assert value_in_type(st, tree, LIST_TYPE)
            assert to_list(tree) == items


def test_criterion_09_truth_is_inhabitation():
    with criterion(9, "evaluation agrees with inhabitation", 10.0):
        rng = random.Random(107)
        for _ in range(200):
            st = random_tiny_structure(rng, rng.randrange(4))
            formula = random_closed_formula(rng, 4)
            assert eval_formula(st, formula) == (
                inhabit(st, prop_as_type(formula)) is not None)


def test_criterion_10_adjunction_and_boolean_laws():
    with criterion(10, "quantifier adjunctions and boolean laws", 10.0):
        x = Base("X")
        phi = RelAtom("R", (Var("x"),))
        closed = (Top(), Bottom(),
                  Exists("y", x, RelAtom("R", (Var("y"),))),
                  Forall("y", x, RelAtom("R", (Var("y"),))))
        for size in range(5):
            atoms = [Atom("X", i) for i in range(size)]
            for bits in itertools.product((False, True), repeat=size):
                st = Structure(
                    signature=tiny_signature(),
                    carriers={"X": FinSet(tuple(atoms))},
                    fun_tables={"f": {(a,): a for a in atoms}},
                    rel_tables={
                        "R": frozenset(
                            (a,) for a, bit in zip(atoms, bits) if bit),
                        "S": frozenset(),
                    },
                )
                for q in closed:
                    qv = eval_formula(st, q)
                    lhs = (not eval_formula(st, Exists("x", x, phi))) or qv
                    rhs = all((not eval_formula(st, phi, {"x": a})) or qv
                              for a in atoms)
                    assert lhs == rhs
                    lhs = (not qv) or eval_formula(st, Forall("x", x, phi))
                    rhs = all((not qv) or eval_formula(st, phi, {"x": a})
                              for a in atoms)
                    assert lhs == rhs
        from mulingua.syntax import And, Implies, Or
        rng = random.Random(109)
        for _ in range(150):
            st = random_tiny_structure(rng, rng.randrange(5))
            f = random_closed_formula(rng, 3)
            g = random_closed_formula(rng, 3)
            h = random_closed_formula(rng, 2)
            fv, gv, hv = (eval_formula(st, phi) for phi in (f, g, h))
            assert eval_formula(st, neg(And(f, g))) == \
                eval_formula(st, Or(neg(f), neg(g)))
            assert eval_formula(st, neg(Or(f, g))) == \
                eval_formula(st, And(neg(f), neg(g)))
            assert eval_formula(st, And(f, Or(g, h))) == (fv and (gv or hv))
            assert eval_formula(st, Or(And(f, g), And(f, h))) == \
                ((fv and gv) or (fv and hv))
            assert eval_formula(st, Implies(f, g)) == ((not fv) or gv)
