"""Voice-leading spaces: construction, transporters, homomorphisms,
conjugation, automorphism enumeration, and the table structures."""

import doctest
import hashlib
import itertools
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as hst

import mulingua.voiceleading
from generators import explicit_quiver
from mulingua.diagnostics import BudgetError, StructureError, Verdict
from mulingua.dsl import group_action_from, load_source
from mulingua.musiclib import pitch_universe, ti_group
from mulingua.semantics import (
    Atom, FinSet, PairV, Structure, StructureHom, check_structure_hom,
    identity_hom, iter_type, render_value,
)
from mulingua.syntax import Base, FamApp, Proj1, Proj2, Sigma, Var, product
from mulingua.voiceleading import (
    ExplicitTable, GroupAction, Quiver, QuiverHom, WindingPaths, arrow_payload,
    arrow_source, arrow_target, check_quiver_hom, compose_quiver_homs,
    conjugation_automorphism, enumerate_automorphisms, hom_to_quiver_hom,
    identity_quiver_hom, invert_quiver_hom, list_subjective,
    sigma_vls_signature, sigma_vls_structure, to_dot, transporters,
    validate_group_action, vls, vls_of_structure,
)

TI = ti_group(12)
PITCH = pitch_universe(12).carrier
TI_QUIVER = vls(PITCH, TI)


def pc(i):
    return Atom("PC", i % 12)


def ti(name):
    return TI.group.named_atom("TI", name)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_ti_space_has_one_arrow_per_group_element_and_vertex():
    assert len(TI_QUIVER.vertices) == 12
    assert len(TI_QUIVER.arrows) == 288  # 24 group elements x 12 sources


def test_single_point_empty_rule():
    point = FinSet.of(Atom("pt", 0))
    q = vls(point, ExplicitTable({(Atom("pt", 0), Atom("pt", 0)): FinSet(())}))
    assert len(q.vertices) == 1 and len(q.arrows) == 0


def test_winding_classes_per_pair():
    q = vls(PITCH, WindingPaths(12, 1))
    assert len(q.arrows) == 3 * 144
    fiber = [a for a in q.arrows
             if arrow_source(a) == pc(0) and arrow_target(a) == pc(7)]
    assert [arrow_payload(a).index for a in fiber] == [7 - 12, 7, 7 + 12]


def test_a_winding_rule_must_fit_the_budget(monkeypatch):
    monkeypatch.setenv("MULINGUA_BUDGET", str(3 * 144))
    assert len(vls(PITCH, WindingPaths(12, 1)).arrows) == 3 * 144
    monkeypatch.setenv("MULINGUA_BUDGET", str(3 * 144 - 1))
    with pytest.raises(BudgetError) as err:
        WindingPaths(12, 1)
    assert str(err.value) == (
        "winding rule over 12 points with maximum winding 1 makes 432 "
        "arrows, more than the element budget (431)")


def test_arrow_projections():
    arrow = TI_QUIVER.fibers[(pc(0), pc(7))][0]
    assert arrow_source(arrow) == pc(0)
    assert arrow_target(arrow) == pc(7)
    assert arrow_payload(arrow) == ti("T7")


def test_hand_built_quiver_keeps_arrows_in_their_fibers():
    x, y = pc(0), pc(1)
    points = FinSet.of(x, y)
    loop = PairV(PairV(x, x), ti("T0"))
    q = Quiver(points, {(x, x): (loop,)})
    assert q.arrows.elements == (loop,)
    with pytest.raises(StructureError, match="outside its fiber's pair"):
        Quiver(points, {(x, y): (loop,)})
    with pytest.raises(StructureError, match="leave the vertex set"):
        Quiver(FinSet.of(y), {(x, x): (loop,)})


def test_transporter_sets():
    assert transporters(TI, pc(0), pc(7)).elements == (ti("T7"), ti("I7"))
    assert transporters(TI, pc(0), pc(0)).elements == (ti("T0"), ti("I0"))


def test_transporters_partition_the_group():
    for x in (pc(0), pc(5)):
        seen = []
        for y in PITCH:
            seen.extend(transporters(TI, x, y))
        assert sorted(g.index for g in seen) == list(range(24))


def test_trivial_group_transporters():
    from mulingua.musiclib import trivial_group_structure
    trivial = trivial_group_structure()
    e = trivial.carrier("G").elements[0]
    points = FinSet.of(Atom("X", 0), Atom("X", 1))
    action = {(e, p): p for p in points}
    rule = GroupAction(trivial, action)
    assert transporters(rule, Atom("X", 0), Atom("X", 0)).elements == (e,)
    assert len(transporters(rule, Atom("X", 0), Atom("X", 1))) == 0


def test_invalid_action_is_rejected():
    bad_action = dict(TI.action)
    bad_action[(ti("T0"), pc(0))] = pc(1)  # breaks identity
    with pytest.raises(StructureError, match="invalid group action"):
        vls(PITCH, GroupAction(TI.group, bad_action))
    assert not validate_group_action(GroupAction(TI.group, bad_action), PITCH)


def test_rule_and_pitch_carrier_must_agree():
    with pytest.raises(StructureError, match="size"):
        vls(PITCH, WindingPaths(7, 1))
    stray = Atom("PC", 99)
    with pytest.raises(StructureError, match="outside the pitch set"):
        vls(PITCH, ExplicitTable({(stray, stray): FinSet(())}))
    bad_action = dict(TI.action)
    bad_action[(ti("T0"), stray)] = stray
    with pytest.raises(StructureError, match="outside the pitch set"):
        vls(PITCH, GroupAction(TI.group, bad_action))


def scanned_explicit_space(pitch, table):
    """The fibers and arrows of an explicit-table space by the all-pairs
    scan: every key checked for membership first, then one table lookup
    per pitch pair, in pitch-pair order."""
    for (x, y), fiber in table.items():
        if x not in pitch or y not in pitch:
            raise StructureError(
                "explicit table mentions vertices outside the pitch set")
    fibers = {}
    for x in pitch:
        for y in pitch:
            payloads = table.get((x, y), FinSet(()))
            if payloads:
                pair = PairV(x, y)
                fibers[(x, y)] = tuple(PairV(pair, t) for t in payloads)
    return fibers, itertools.chain.from_iterable(fibers.values())


def explicit_tables(rng):
    """Pitch sets with explicit tables: first every pair of three vertices
    in reverse pitch-pair order, keyed by equal atoms that are not the
    pitch set's, every other fiber given empty; then seeded random
    tables, a fifth of them with a key outside the pitch set."""
    pitch = FinSet(tuple(Atom("v", i) for i in range(3)))
    pairs = [(x, y) for x in pitch for y in pitch]
    yield pitch, {(Atom("v", x.index), Atom("v", y.index)):
                  FinSet((Atom("a", k),) if k % 2 else ())
                  for k, (x, y) in reversed(list(enumerate(pairs)))}
    for _ in range(300):
        n = rng.randrange(5)
        pitch = FinSet(tuple(Atom("v", i) for i in range(n)))
        pairs = [(x, y) for x in pitch for y in pitch]
        rng.shuffle(pairs)
        table, arrow = {}, itertools.count()
        for x, y in pairs[:rng.randrange(len(pairs) + 1)]:
            if rng.random() < 0.5:
                x, y = Atom("v", x.index), Atom("v", y.index)
            table[(x, y)] = FinSet(tuple(
                Atom("a", next(arrow)) for _ in range(rng.randrange(3))))
        if rng.random() < 0.2:
            items = list(table.items())
            stray = (Atom("v", rng.randrange(n + 1)), Atom("w", 0))
            items.insert(rng.randrange(len(items) + 1),
                         (stray[::rng.choice((1, -1))], FinSet(())))
            table = dict(items)
        yield pitch, table


def explicit_outcome(build):
    """The fibers in order, each with the identities of its key's atoms,
    and the arrows; or the error."""
    try:
        fibers, arrows = build()
    except StructureError as err:
        return "error", str(err)
    return ("space", [(key, tuple(map(id, key)), fiber)
                      for key, fiber in fibers.items()], list(arrows))


def test_an_explicit_space_matches_the_all_pairs_scan():
    for pitch, table in explicit_tables(random.Random(2402)):
        def built():
            q = vls(pitch, ExplicitTable(table))
            return q.fibers, q.arrows
        assert explicit_outcome(built) == explicit_outcome(
            lambda: scanned_explicit_space(pitch, table))


def test_per_pair_transporters_have_size_two():
    fibers = {}
    for arrow in TI_QUIVER.arrows:
        key = (arrow_source(arrow), arrow_target(arrow))
        fibers[key] = fibers.get(key, 0) + 1
    assert len(fibers) == 144
    assert set(fibers.values()) == {2}


def test_list_subjective():
    entries = list_subjective(TI_QUIVER)
    assert len(entries) == 288
    assert entries[0][0] == pc(0)
    empty = vls(FinSet.of(Atom("pt", 0)),
                ExplicitTable({(Atom("pt", 0), Atom("pt", 0)): FinSet(())}))
    assert list_subjective(empty) == []
    flat = vls(PITCH, WindingPaths(12, 0))
    assert len(list_subjective(flat)) == 144


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def test_identity_hom_checks():
    assert check_quiver_hom(TI_QUIVER, TI_QUIVER,
                            identity_quiver_hom(TI_QUIVER))


def test_vertex_shift_with_identity_arrows_fails():
    gamma0 = {v: pc(v.index + 1) for v in TI_QUIVER.vertices}
    h = QuiverHom({a: a for a in TI_QUIVER.arrows}, gamma0)
    v = check_quiver_hom(TI_QUIVER, TI_QUIVER, h)
    assert not v and "source square" in v.reason


def test_non_total_maps_are_rejected():
    v = check_quiver_hom(TI_QUIVER, TI_QUIVER, QuiverHom({}, {}))
    assert not v and "not total" in v.reason


def test_conjugation_by_identity_is_identity():
    h = conjugation_automorphism(TI_QUIVER, ti("T0"))
    assert h == identity_quiver_hom(TI_QUIVER)


def test_conjugation_by_inversion():
    h = conjugation_automorphism(TI_QUIVER, ti("I0"))
    assert check_quiver_hom(TI_QUIVER, TI_QUIVER, h)
    arrow = PairV(PairV(pc(0), pc(7)), ti("T7"))
    image = h.gamma1[arrow]
    assert image == PairV(PairV(pc(0), pc(5)), ti("T5"))


def test_all_conjugations_are_distinct_automorphisms():
    homs = [conjugation_automorphism(TI_QUIVER, g) for g in TI.elements()]
    assert len(homs) == 24
    assert all(check_quiver_hom(TI_QUIVER, TI_QUIVER, h) for h in homs)
    tables = {tuple(sorted((v.index, w.index)
                           for v, w in h.gamma0.items())) for h in homs}
    assert len(tables) == 24


def test_conjugation_is_functorial():
    elements = list(TI.elements())
    conj = {g: conjugation_automorphism(TI_QUIVER, g) for g in elements}
    star = TI.group.fun_tables["star"]
    for phi in elements:
        for psi in elements:
            composite = compose_quiver_homs(conj[psi], conj[phi])
            assert composite == conj[star[(phi, psi)]]


def test_conjugation_requires_group_element():
    with pytest.raises(StructureError):
        conjugation_automorphism(TI_QUIVER, pc(0))
    plain = vls(PITCH, WindingPaths(12, 0))
    with pytest.raises(StructureError):
        conjugation_automorphism(plain, ti("T1"))


# ---------------------------------------------------------------------------
# pointwise oracles: the group-action steps checked one point, one triple
# and one arrow at a time, as first written
# ---------------------------------------------------------------------------

def pointwise_validate_group_action(rule, points):
    e = rule.identity()
    for x in points:
        if rule.act(e, x) != x:
            return Verdict.failed(
                f"identity law fails at {rule.group.render(x)}")
    for g in rule.elements():
        for h in rule.elements():
            gh = rule.multiply(g, h)
            for x in points:
                if rule.act(gh, x) != rule.act(g, rule.act(h, x)):
                    return Verdict.failed(
                        f"compatibility fails at ({rule.group.render(g)}, "
                        f"{rule.group.render(h)}, {rule.group.render(x)})")
    return Verdict.passed()


def pointwise_transporters(rule, x, y):
    return FinSet(tuple(g for g in rule.elements() if rule.act(g, x) == y))


def pointwise_group_action_fibers(pitch, rule):
    """The fibers ``vls`` builds for a group action, through one
    transporter set per pitch pair."""
    for (_, x) in rule.action:
        if x not in pitch:
            raise StructureError(
                "action table mentions points outside the pitch set")
    v = pointwise_validate_group_action(rule, pitch)
    if not v:
        raise StructureError(f"invalid group action: {v.reason}")
    fibers = {}
    for x in pitch:
        for y in pitch:
            payloads = pointwise_transporters(rule, x, y)
            if payloads:
                fibers[(x, y)] = tuple(PairV(PairV(x, y), t)
                                       for t in payloads)
    return fibers


def pointwise_conjugation_automorphism(q, phi):
    rule = q.rule
    if not isinstance(rule, GroupAction):
        raise StructureError(
            "conjugation automorphisms need a group-action space")
    if phi not in rule.elements():
        raise StructureError("conjugating element is not in the acting group")
    phi_inv = rule.inverse(phi)
    gamma0 = {x: rule.act(phi, x) for x in q.vertices}
    gamma1 = {}
    for a in q.arrows:
        x, y, g = arrow_source(a), arrow_target(a), arrow_payload(a)
        conjugated = rule.multiply(rule.multiply(phi, g), phi_inv)
        gamma1[a] = PairV(PairV(gamma0[x], gamma0[y]), conjugated)
    return QuiverHom(gamma1, gamma0)


def pointwise_check_quiver_hom(q1, q2, h):
    for v in q1.vertices:
        if v not in h.gamma0:
            return Verdict.failed(f"vertex map not total at {render_value(v)}")
        if h.gamma0[v] not in q2.vertices:
            return Verdict.failed("vertex map leaves the target vertex set")
    for a in q1.arrows:
        if a not in h.gamma1:
            return Verdict.failed(f"arrow map not total at {render_value(a)}")
        image = h.gamma1[a]
        if image not in q2.arrows:
            return Verdict.failed("arrow map leaves the target arrow set")
        if arrow_source(image) != h.gamma0[arrow_source(a)]:
            return Verdict.failed(
                f"source square fails at {render_value(a)}")
        if arrow_target(image) != h.gamma0[arrow_target(a)]:
            return Verdict.failed(
                f"target square fails at {render_value(a)}")
    return Verdict.passed()


def outcome(f, *args):
    """What a call gives, in comparable form: a verdict's truth and
    reason, a value, or the type and message of what it raised."""
    try:
        result = f(*args)
    except Exception as err:
        return ("raised", type(err), str(err))
    if isinstance(result, Verdict):
        return ("verdict", result.ok, result.reason)
    if isinstance(result, QuiverHom):
        # insertion order counts too
        return ("hom", list(result.gamma0.items()), list(result.gamma1.items()))
    return ("value", result)


def space_fibers(pitch, rule):
    return list(vls(pitch, rule).fibers.items())


def reference_space_fibers(pitch, rule):
    return list(pointwise_group_action_fibers(pitch, rule).items())


ROT_SOURCE = """
(signature turns
  (types R X)
  (fun (star (R R) R) (e () R) (inv (R) R) (act (R X) X)))

(structure rot of turns                     ; the half turn of two points
  (carrier R (r0 r1))
  (carrier X (a b))
  (fun star ((r0 r0) r0) ((r0 r1) r1) ((r1 r0) r1) ((r1 r1) r0))
  (fun e (() r0))
  (fun inv ((r0) r0) ((r1) r1))
  (fun act ((r0 a) a) ((r0 b) b) ((r1 a) b) ((r1 b) a)))
"""


def test_the_rot_source_is_the_readmes():
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    assert ROT_SOURCE.strip() in readme


def rot_action():
    """The README's half turn of two points, with its points."""
    st = load_source(ROT_SOURCE).structures["rot"]
    return st.carrier("X"), group_action_from(st, "X", "act")


def group_action_cases():
    """Fresh (name, points, rule) triples: TI on 1..12 pitch classes
    and the README's rot action; each call builds new tables, so a case
    may be perturbed in place."""
    for n in range(1, 13):
        yield f"ti{n}", pitch_universe(n).carrier, ti_group(n)
    points, rule = rot_action()
    yield "rot", points, rule


@pytest.mark.parametrize("name", [name for name, _, _ in group_action_cases()])
def test_group_action_steps_match_their_pointwise_oracles(name):
    points, rule = next((p, r) for n, p, r in group_action_cases() if n == name)
    assert outcome(validate_group_action, rule, points) == \
        outcome(pointwise_validate_group_action, rule, points)
    assert outcome(space_fibers, points, rule) == \
        outcome(reference_space_fibers, points, rule)
    for x in points:
        for y in points:
            assert transporters(rule, x, y) == \
                pointwise_transporters(rule, x, y)
    q = vls(points, rule)
    for phi in rule.elements():
        h = conjugation_automorphism(q, phi)
        assert outcome(lambda: h) == \
            outcome(pointwise_conjugation_automorphism, q, phi)
        assert outcome(check_quiver_hom, q, q, h) == \
            outcome(pointwise_check_quiver_hom, q, q, h)


def test_an_identity_that_moves_points_fails_though_compatibility_holds():
    from mulingua.musiclib import trivial_group_structure
    trivial = trivial_group_structure()
    e = trivial.carrier("G").elements[0]
    points = FinSet.of(Atom("X", 0), Atom("X", 1))
    # e sends both points to the first: e.e = e holds on the point maps
    rule = GroupAction(trivial, {(e, p): Atom("X", 0) for p in points})
    expected = outcome(pointwise_validate_group_action, rule, points)
    assert expected[:2] == ("verdict", False)
    assert expected[2].startswith("identity law fails")
    assert outcome(validate_group_action, rule, points) == expected
    assert outcome(space_fibers, points, rule) == \
        outcome(reference_space_fibers, points, rule)


def perturb(rng, kind, points, rule):
    """Change the rule in place: one action entry changed, one star
    entry changed, one action entry deleted, or one image moved outside
    the points."""
    keys = list(rule.action)
    match kind:
        case "action":
            key = rng.choice(keys)
            others = [p for p in points if p != rule.action[key]]
            if others:
                rule.action[key] = rng.choice(others)
        case "star":
            star = rule.group.fun_tables["star"]
            key = rng.choice(list(star))
            others = [g for g in rule.elements() if g != star[key]]
            if others:
                star[key] = rng.choice(others)
        case "delete":
            del rule.action[rng.choice(keys)]
        case "outside":
            rule.action[rng.choice(keys)] = Atom("outside", 0)


PERTURBATIONS = ("action", "star", "delete", "outside")


@pytest.mark.parametrize("kind", PERTURBATIONS)
def test_perturbed_group_actions_match_their_pointwise_oracles(kind):
    rng = random.Random(f"perturb-{kind}")
    failures = 0
    for _ in range(3):
        for name, points, rule in group_action_cases():
            perturb(rng, kind, points, rule)
            expected = outcome(pointwise_validate_group_action, rule, points)
            assert outcome(validate_group_action, rule, points) == expected, name
            assert outcome(space_fibers, points, rule) == \
                outcome(reference_space_fibers, points, rule), name
            failures += expected[0] == "raised" or not expected[1]
    # most perturbations break a law; the oracle comparison is the point
    assert failures > 0


def test_conjugation_matches_its_oracle_when_the_group_changes_later():
    rng = random.Random("conjugate-perturbed")
    for name, points, rule in group_action_cases():
        q = vls(points, rule)
        star = rule.group.fun_tables["star"]
        key = rng.choice(list(star))
        if rng.random() < 0.5:
            star[key] = rng.choice(list(rule.elements()))
        else:
            del star[key]
        for phi in rule.elements():
            assert outcome(conjugation_automorphism, q, phi) == \
                outcome(pointwise_conjugation_automorphism, q, phi), name
    q = vls(PITCH, TI)
    for phi in (pc(0), Atom("TI", 99)):
        assert outcome(conjugation_automorphism, q, phi) == \
            outcome(pointwise_conjugation_automorphism, q, phi)
    plain = vls(PITCH, WindingPaths(12, 0))
    assert outcome(conjugation_automorphism, plain, ti("T1")) == \
        outcome(pointwise_conjugation_automorphism, plain, ti("T1"))


def break_hom(rng, reason, q, h):
    """Mutate a hom of q into q so that it fails with ``reason``, at a
    seeded vertex or arrow."""
    vertices, arrows = list(q.vertices), list(q.arrows)
    match reason:
        case "vertex map not total":
            del h.gamma0[rng.choice(vertices)]
        case "vertex map leaves the target vertex set":
            h.gamma0[rng.choice(vertices)] = Atom("outside", 0)
        case "arrow map not total":
            del h.gamma1[rng.choice(arrows)]
        case "arrow map leaves the target arrow set":
            h.gamma1[rng.choice(arrows)] = rng.choice(
                [Atom("outside", 0), PairV(PairV(pc(0), pc(0)), pc(0))])
        case "source square fails":
            a = rng.choice(arrows)
            image = h.gamma1[a]
            h.gamma1[a] = rng.choice([b for b in arrows
                                      if arrow_source(b) != arrow_source(image)])
        case "target square fails":
            a = rng.choice(arrows)
            image = h.gamma1[a]
            h.gamma1[a] = rng.choice([b for b in arrows
                                      if arrow_source(b) == arrow_source(image)
                                      and arrow_target(b) != arrow_target(image)])


HOM_FAILURES = (
    "vertex map not total", "vertex map leaves the target vertex set",
    "arrow map not total", "arrow map leaves the target arrow set",
    "source square fails", "target square fails",
)


@pytest.mark.parametrize("reason", HOM_FAILURES)
def test_broken_homs_fail_as_their_pointwise_oracle_says(reason):
    rng = random.Random(f"break-{reason}")
    for n in (2, 3, 7, 12):
        q = vls(pitch_universe(n).carrier, ti_group(n))
        for phi in rng.sample(list(q.rule.elements()), 3):
            h = conjugation_automorphism(q, phi)
            break_hom(rng, reason, q, h)
            got = outcome(check_quiver_hom, q, q, h)
            assert got == outcome(pointwise_check_quiver_hom, q, q, h)
            assert got[:2] == ("verdict", False)
            assert got[2].startswith(reason)


def test_homs_between_explicit_quivers_match_the_pointwise_oracle():
    rng = random.Random("explicit-homs")
    for _ in range(200):
        nv = rng.randint(1, 3)
        q1 = explicit_quiver(nv, [(rng.randrange(nv), rng.randrange(nv))
                                  for _ in range(rng.randint(0, 4))])
        q2 = explicit_quiver(3, [(rng.randrange(3), rng.randrange(3))
                                 for _ in range(rng.randint(0, 5))])
        gamma0 = {v: rng.choice(list(q2.vertices)) for v in q1.vertices}
        gamma1 = {a: rng.choice(list(q2.arrows)) for a in q1.arrows
                  if q2.arrows and rng.random() < 0.95}
        h = QuiverHom(gamma1, gamma0)
        assert outcome(check_quiver_hom, q1, q2, h) == \
            outcome(pointwise_check_quiver_hom, q1, q2, h)


# ---------------------------------------------------------------------------
# automorphism enumeration
# ---------------------------------------------------------------------------


def brute_force_automorphisms(q):
    verts = list(q.vertices)
    arrows = list(q.arrows)
    found = set()
    for vp in itertools.permutations(verts):
        g0 = dict(zip(verts, vp))
        for ap in itertools.permutations(arrows):
            g1 = dict(zip(arrows, ap))
            if all(arrow_source(g1[a]) == g0[arrow_source(a)]
                   and arrow_target(g1[a]) == g0[arrow_target(a)]
                   for a in arrows):
                found.add((tuple(g0[v] for v in verts),
                           tuple(g1[a] for a in arrows)))
    return found


def as_key_set(q, homs):
    verts = list(q.vertices)
    arrows = list(q.arrows)
    return {(tuple(h.gamma0[v] for v in verts),
             tuple(h.gamma1[a] for a in arrows)) for h in homs}


def test_two_parallel_loops_swap():
    q = explicit_quiver(1, [(0, 0), (0, 0)])
    homs = enumerate_automorphisms(q)
    assert len(homs) == 2
    assert homs[0] == identity_quiver_hom(q)


def test_single_arrow_forces_identity():
    q = explicit_quiver(2, [(0, 1)])
    assert len(enumerate_automorphisms(q)) == 1


def test_directed_three_cycle_has_three_rotations():
    q = explicit_quiver(3, [(0, 1), (1, 2), (2, 0)])
    homs = enumerate_automorphisms(q)
    assert len(homs) == 3
    assert as_key_set(q, homs) == brute_force_automorphisms(q)


def test_enumeration_matches_brute_force_on_random_quivers():
    rng = random.Random(73)
    for _ in range(60):
        nv = rng.randrange(1, 4)
        na = rng.randrange(0, 5)
        pairs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(na)]
        q = explicit_quiver(nv, pairs)
        homs = enumerate_automorphisms(q)
        assert as_key_set(q, homs) == brute_force_automorphisms(q)
        assert all(check_quiver_hom(q, q, h) for h in homs)
        assert homs[0] == identity_quiver_hom(q)


def test_automorphisms_form_a_group():
    q = explicit_quiver(3, [(0, 1), (1, 0), (2, 2), (2, 2)])
    homs = enumerate_automorphisms(q)
    keys = as_key_set(q, homs)
    for f in homs:
        assert as_key_set(q, [invert_quiver_hom(f)]) <= keys
        for g in homs:
            assert as_key_set(q, [compose_quiver_homs(f, g)]) <= keys


def explicit_quiver_cases():
    """Every explicit quiver with at most 3 vertices and 4 arrows."""
    for nv in range(4):
        pair_space = [(s, t) for s in range(nv) for t in range(nv)]
        for na in range((4 if nv else 0) + 1):
            yield from ((nv, pairs) for pairs in
                        itertools.product(pair_space, repeat=na))


def ordered_output_digest():
    """SHA-256 over the ordered output of the quiver layer: every
    automorphism list of the explicit quivers, map entries in insertion
    order, then the arrows, subjective list, DOT text and conjugations
    of the TI and winding spaces."""
    digest = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            digest.update(repr(part).encode())
        digest.update(b"\n")

    def feed_hom(h):
        feed(list(h.gamma0.items()), list(h.gamma1.items()))

    count = 0
    for nv, pairs in explicit_quiver_cases():
        q = explicit_quiver(nv, pairs)
        homs = enumerate_automorphisms(q, budget=10 ** 7)
        feed(nv, pairs, len(homs))
        for h in homs:
            feed_hom(h)
        count += 1
    assert count == 7728
    spaces = [("ti", TI_QUIVER)] + [
        (f"winding{w}", vls(PITCH, WindingPaths(12, w))) for w in range(3)]
    for name, q in spaces:
        feed(list(q.vertices), list(q.arrows), list_subjective(q))
        feed(to_dot(q, name))
    for g in TI.elements():
        feed_hom(conjugation_automorphism(TI_QUIVER, g))
    return digest.hexdigest()


def test_ordered_output_is_pinned():
    assert ordered_output_digest() == (
        "289fa529e2408e012fc237a44f45b806ac2bb484714613107663b9d66c0d5e8e")


def test_budget_refusal_suggests_conjugation():
    with pytest.raises(BudgetError, match="conjugation"):
        enumerate_automorphisms(TI_QUIVER, budget=1)
    with pytest.raises(BudgetError):
        enumerate_automorphisms(TI_QUIVER)  # 12! alone exceeds the default


def test_vertex_permutations_alone_are_held_to_the_budget():
    q = explicit_quiver(9, [])  # 9! = 362880 vertex permutations, no arrow
    with pytest.raises(BudgetError, match="candidate space exceeds"):
        enumerate_automorphisms(q, budget=1000)
    assert len(enumerate_automorphisms(explicit_quiver(6, []),
                                       budget=720)) == 720


def test_parallel_arrow_blowup_is_refused():
    q = explicit_quiver(1, [(0, 0)] * 12)  # 12! arrow bijections
    with pytest.raises(BudgetError):
        enumerate_automorphisms(q, budget=10 ** 6)


# ---------------------------------------------------------------------------
# table structures
# ---------------------------------------------------------------------------

def ti_table_structure():
    table = {(x, y): transporters(TI, x, y)
             for x in PITCH for y in PITCH}
    return sigma_vls_structure(PITCH, TI.elements(), table)


def ti_hom(pitch_map, arrow_map):
    m = ti_table_structure()
    return StructureHom(m, m, {"Pitch": pitch_map, "Arrow": arrow_map})


def test_table_structure_round_trip():
    m = ti_table_structure()
    assert m.signature == sigma_vls_signature()
    q = vls_of_structure(m)
    assert len(q.vertices) == 12 and len(q.arrows) == 288
    assert [(arrow_source(a), arrow_target(a), arrow_payload(a))
            for a in q.arrows] == list_subjective(TI_QUIVER)


def test_empty_arrow_carrier():
    point = FinSet.of(Atom("Pitch", 0))
    m = sigma_vls_structure(point, FinSet(()), {
        (Atom("Pitch", 0), Atom("Pitch", 0)): FinSet(())})
    q = vls_of_structure(m)
    assert len(q.vertices) == 1 and len(q.arrows) == 0


def test_two_pitch_one_arrow():
    pitches = FinSet.of(Atom("Pitch", 0), Atom("Pitch", 1))
    arrow = Atom("Arrow", 0)
    table = {(x, y): FinSet(()) for x in pitches for y in pitches}
    table[(Atom("Pitch", 0), Atom("Pitch", 1))] = FinSet.of(arrow)
    q = vls_of_structure(sigma_vls_structure(pitches, FinSet.of(arrow), table))
    assert len(q.vertices) == 2 and len(q.arrows) == 1


def test_vlr_table_must_be_total():
    with pytest.raises(StructureError, match="not total"):
        sigma_vls_structure(PITCH, TI.elements(), {})


def test_quiver_of_a_hand_built_structure_needs_a_total_vlr_table():
    points = FinSet.of(Atom("Pitch", 0), Atom("Pitch", 1))
    partial = Structure(sigma_vls_signature(),
                        {"Pitch": points, "Arrow": FinSet(())},
                        {"vlr": {(x, x): FinSet(()) for x in points}})
    with pytest.raises(StructureError, match="not total"):
        vls_of_structure(partial)


def test_vlr_table_must_stay_in_the_arrow_carrier():
    point, stray = Atom("Pitch", 0), Atom("Arrow", 1)
    with pytest.raises(StructureError, match="leaves the arrow carrier"):
        sigma_vls_structure(FinSet.of(point), FinSet.of(Atom("Arrow", 0)),
                            {(point, point): FinSet.of(stray)})


def test_induced_hom_from_identity():
    m = ti_table_structure()
    induced = hom_to_quiver_hom(identity_hom(m))
    assert induced == identity_quiver_hom(vls_of_structure(m))


def test_induced_hom_matches_conjugation():
    t1 = ti("T1")
    t1_inv = TI.group.fun_tables["inv"][(t1,)]
    star = TI.group.fun_tables["star"]
    pitch_map = {x: TI.action[(t1, x)] for x in PITCH}
    arrow_map = {g: star[(star[(t1, g)], t1_inv)] for g in TI.elements()}
    induced = hom_to_quiver_hom(ti_hom(pitch_map, arrow_map))
    conjugated = conjugation_automorphism(TI_QUIVER, t1)
    assert induced.gamma0 == conjugated.gamma0
    assert induced.gamma1 == conjugated.gamma1


def test_induced_hom_rejects_broken_square():
    atoms = list(TI.elements())
    swapped = dict(zip(atoms, atoms))
    swapped[atoms[0]], swapped[atoms[1]] = atoms[1], atoms[0]
    with pytest.raises(StructureError, match=(
            r"fiber of 'vlr' at \(\(atom PC 0\), \(atom PC 0\)\) sends "
            r"\(atom TI 0\) to \(atom TI 1\), outside the target fiber")):
        hom_to_quiver_hom(ti_hom({x: x for x in PITCH}, swapped))


def test_induced_hom_rejects_an_arrow_component_that_leaves_a_fiber():
    collapse = {g: ti("T0") for g in TI.elements()}
    with pytest.raises(StructureError, match=(
            r"fiber of 'vlr' at \(\(atom PC 0\), \(atom PC 1\)\) sends "
            r"\(atom TI 1\) to \(atom TI 0\), outside the target fiber")):
        hom_to_quiver_hom(ti_hom({x: x for x in PITCH}, collapse))


def test_induced_hom_rejects_a_surjective_but_not_injective_arrow_component():
    point, up, down = Atom("Pitch", 0), Atom("Arrow", 0), Atom("Arrow", 1)
    source = sigma_vls_structure(FinSet.of(point), FinSet.of(up, down), {
        (point, point): FinSet.of(up)})
    target = sigma_vls_structure(FinSet.of(point), FinSet.of(up), {
        (point, point): FinSet(())})
    with pytest.raises(StructureError, match=(
            r"fiber of 'vlr' at \(\(atom Pitch 0\), \(atom Pitch 0\)\) "
            r"sends \(atom Arrow 0\) to \(atom Arrow 0\), outside the "
            "target fiber")):
        hom_to_quiver_hom(StructureHom(source, target, {
            "Pitch": {point: point}, "Arrow": {up: up, down: up}}))


def test_induced_hom_may_merge_the_arrows_of_a_fiber():
    point, up, down = Atom("Pitch", 0), Atom("Arrow", 0), Atom("Arrow", 1)
    source = sigma_vls_structure(FinSet.of(point), FinSet.of(up, down), {
        (point, point): FinSet.of(up, down)})
    target = sigma_vls_structure(FinSet.of(point), FinSet.of(up), {
        (point, point): FinSet.of(up)})
    induced = hom_to_quiver_hom(StructureHom(source, target, {
        "Pitch": {point: point}, "Arrow": {up: up, down: up}}))
    loop = PairV(PairV(point, point), up)
    assert induced.gamma1 == {
        loop: loop, PairV(PairV(point, point), down): loop}
    assert check_quiver_hom(vls_of_structure(source),
                            vls_of_structure(target), induced)


def test_induced_hom_allows_a_non_bijective_pitch_component():
    point, up = Atom("Pitch", 0), Atom("Arrow", 0)
    points = FinSet.of(point, Atom("Pitch", 1))
    source = sigma_vls_structure(points, FinSet.of(up), {
        (x, y): FinSet.of(up) for x in points for y in points})
    target = sigma_vls_structure(FinSet.of(point), FinSet.of(up), {
        (point, point): FinSet.of(up)})
    induced = hom_to_quiver_hom(StructureHom(source, target, {
        "Pitch": {x: point for x in points}, "Arrow": {up: up}}))
    loop = PairV(PairV(point, point), up)
    assert set(induced.gamma1.values()) == {loop}
    assert check_quiver_hom(vls_of_structure(source),
                            vls_of_structure(target), induced)


def test_induced_hom_is_functorial_on_identities_and_composites():
    star = TI.group.fun_tables["star"]
    inv = TI.group.fun_tables["inv"]

    def hom_for(phi):
        phi_inv = inv[(phi,)]
        return ti_hom(
            {x: TI.action[(phi, x)] for x in PITCH},
            {g: star[(star[(phi, g)], phi_inv)] for g in TI.elements()})

    t2, t3 = ti("T2"), ti("T3")
    lhs = hom_to_quiver_hom(hom_for(star[(t2, t3)]))
    rhs = compose_quiver_homs(hom_to_quiver_hom(hom_for(t3)),
                              hom_to_quiver_hom(hom_for(t2)))
    assert lhs == rhs


# the space as the kernel writes it: the sum of the fibers of vlr
SPACE = Sigma("p", product(Base("Pitch"), Base("Pitch")),
              FamApp("vlr", (Proj1(Var("p")), Proj2(Var("p")))))


def random_model(rng):
    """A small model whose fibers list their arrows in random order."""
    pitch = FinSet(tuple(Atom("Pitch", i) for i in range(rng.randrange(1, 4))))
    arrows = FinSet(tuple(Atom("Arrow", i) for i in range(rng.randrange(4))))
    return sigma_vls_structure(pitch, arrows, {
        (x, y): FinSet(tuple(rng.sample(arrows.elements,
                                        rng.randrange(len(arrows) + 1))))
        for x in pitch for y in pitch})


def random_hom(rng, source):
    """Random component maps into the carriers of a random target, whose
    fibers hold the moved source fibers half of the time.

    An arrow in no fiber is not in the space, so the space cannot see
    where such an arrow is sent; the maps therefore stay inside the
    target carriers, and an empty target Arrow carrier gets one arrow
    that lies in no fiber."""
    target = random_model(rng)
    pitch_map = {x: rng.choice(target.carrier("Pitch").elements)
                 for x in source.carrier("Pitch")}
    arrows = target.carrier("Arrow").elements or (Atom("Arrow", 0),)
    arrow_map = {t: rng.choice(arrows) for t in source.carrier("Arrow")}
    fibers = dict(target.fun_tables["vlr"])
    if rng.random() < 0.5:
        for (x, y), fiber in source.fun_tables["vlr"].items():
            moved = (pitch_map[x], pitch_map[y])
            fibers[moved] = FinSet(tuple(dict.fromkeys(
                [*fibers[moved], *(arrow_map[t] for t in fiber)])))
    target = sigma_vls_structure(target.carrier("Pitch"), FinSet(arrows), fibers)
    return StructureHom(source, target,
                        {"Pitch": pitch_map, "Arrow": arrow_map})


def ti_conjugation_or_perturbation(rng):
    phi = rng.choice(TI.elements().elements)
    pitch_map = {x: TI.act(phi, x) for x in PITCH}
    arrow_map = {g: TI.multiply(TI.multiply(phi, g), TI.inverse(phi))
                 for g in TI.elements()}
    if rng.random() < 0.5:
        a, b = rng.sample(TI.elements().elements, 2)
        arrow_map[a], arrow_map[b] = arrow_map[b], arrow_map[a]
    return ti_hom(pitch_map, arrow_map)


def map_on_arrows(h):
    """((x, y), t) -> ((h x, h y), h t), whether or not h is a hom."""
    pitch_map, arrow_map = h.component_maps["Pitch"], h.component_maps["Arrow"]
    return QuiverHom({
        a: PairV(PairV(pitch_map[arrow_source(a)], pitch_map[arrow_target(a)]),
                 arrow_map[arrow_payload(a)])
        for a in vls_of_structure(h.source).arrows}, dict(pitch_map))


@settings(max_examples=150, deadline=None)
@given(hst.randoms(use_true_random=False))
def test_a_model_is_its_sigma_type_and_its_homs_are_quiver_homs(rng):
    h = (ti_conjugation_or_perturbation(rng) if rng.random() < 0.1
         else random_hom(rng, random_model(rng)))
    for st in (h.source, h.target):
        assert tuple(iter_type(st, SPACE)) == vls_of_structure(st).arrows.elements
    induced = map_on_arrows(h)
    verdict = check_structure_hom(h)
    assert bool(verdict) == bool(check_quiver_hom(
        vls_of_structure(h.source), vls_of_structure(h.target), induced))
    if verdict:
        assert hom_to_quiver_hom(h) == induced


def test_an_arrow_in_no_fiber_must_still_land_in_the_target_carrier():
    point, stray = Atom("Pitch", 0), Atom("Arrow", 0)
    source = sigma_vls_structure(FinSet.of(point), FinSet.of(stray), {
        (point, point): FinSet(())})
    target = sigma_vls_structure(FinSet.of(point), FinSet(()), {
        (point, point): FinSet(())})
    h = StructureHom(source, target,
                     {"Pitch": {point: point}, "Arrow": {stray: stray}})
    assert vls_of_structure(source).arrows == FinSet(())
    verdict = check_structure_hom(h)
    assert not verdict and "target carrier" in verdict.reason


def test_module_docstring_example_runs():
    result = doctest.testmod(mulingua.voiceleading)
    assert result.attempted > 0 and result.failed == 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_dot_output_is_stable():
    q = explicit_quiver(2, [(0, 1), (1, 0)])
    out1 = to_dot(q, "pair")
    out2 = to_dot(q, "pair")
    assert out1 == out2
    assert out1.startswith("digraph pair {")
    assert '  v0 -> v1 [label="(atom a 0)"];' in out1


def test_dot_quotes_names_and_labels_only_where_needed():
    q = explicit_quiver(1, [(0, 0)])
    q.element_names = {"v": ('say "hi"',), "a": ("back\\slash",)}
    assert to_dot(q, 'a "b" \\') == (
        'digraph "a \\"b\\" \\\\" {\n'
        '  v0 [label="say \\"hi\\""];\n'
        '  v0 -> v0 [label="back\\\\slash"];\n'
        '}\n')
    for plain in ("pair", "_x9", "é", "12", "-1.5", ".5"):
        assert to_dot(q, plain).startswith(f"digraph {plain} {{")
    for quoted in ("Graph", "strict", "2nd", "a-b", "1.2.3"):
        assert to_dot(q, quoted).startswith(f'digraph "{quoted}" {{')


def test_dot_id_pattern_matches_every_character_as_the_unicode_class_did():
    reference = re.compile(r"(?![0-9])[\w\x80-\U0010ffff]+"
                           r"|-?(\.[0-9]+|[0-9]+(\.[0-9]*)?)").fullmatch
    plain = mulingua.voiceleading._DOT_PLAIN_ID.fullmatch
    assert [c for c in range(0x110000) for text in (chr(c), "a" + chr(c))
            if (plain(text) is None) != (reference(text) is None)] == []
