"""Voice-leading spaces: construction, transporters, homomorphisms,
conjugation, automorphism enumeration, and the table structures."""

import doctest
import hashlib
import itertools
import random

import pytest

import mulingua.voiceleading
from mulingua.diagnostics import BudgetError, StructureError
from mulingua.musiclib import pitch_universe, ti_group
from mulingua.semantics import (
    Atom, FinSet, PairV, Structure, StructureHom, TableV, identity_hom,
)
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
# automorphism enumeration
# ---------------------------------------------------------------------------

from generators import explicit_quiver


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
                        {"vlr": {(x, x): TableV(()) for x in points}})
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
    with pytest.raises(StructureError,
                       match=r"square for 'vlr' fails at \("):
        hom_to_quiver_hom(ti_hom({x: x for x in PITCH}, swapped))


def test_induced_hom_needs_a_bijective_arrow_component():
    collapse = {g: ti("T0") for g in TI.elements()}
    with pytest.raises(StructureError, match="not a bijection"):
        hom_to_quiver_hom(ti_hom({x: x for x in PITCH}, collapse))


def test_induced_hom_rejects_a_surjective_but_not_injective_arrow_component():
    point, up, down = Atom("Pitch", 0), Atom("Arrow", 0), Atom("Arrow", 1)
    source = sigma_vls_structure(FinSet.of(point), FinSet.of(up, down), {
        (point, point): FinSet.of(up)})
    target = sigma_vls_structure(FinSet.of(point), FinSet.of(up), {
        (point, point): FinSet(())})
    with pytest.raises(StructureError, match="not a bijection"):
        hom_to_quiver_hom(StructureHom(source, target, {
            "Pitch": {point: point}, "Arrow": {up: up, down: up}}))


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
