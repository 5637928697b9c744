"""Voice-leading spaces as quivers: the space constructor, rules for
arrow fibers (group-action transporters, winding classes on a discrete
circle, explicit tables), quiver homomorphisms, conjugation
automorphisms, exhaustive automorphism enumeration, and structures over
the minimal pitch/arrow signature.

A space is the dependent sum, over ordered vertex pairs (x, y), of the
rule's fibers: its arrows are the triples ((x, y), t) with t in the
fiber at (x, y), and a ``Quiver`` keeps those fibers.  An arrow's source
and target are its projections, ``arrow_source`` and ``arrow_target``.
Quivers carry no composition law, so winding classes can be truncated
at a maximum winding number without breaking anything.

A group action's steps work once per group element or once per fiber,
not once per point or arrow.  Validation builds each element's point
map (its image of every point, as point indices) and checks the laws
on those maps, and ``vls`` sorts the elements into their fibers in one
pass over the same maps.  A conjugation automorphism conjugates each
payload once and moves each fiber to one target pair, and
``check_quiver_hom`` tests each source fiber against the payloads of
its target fiber.  Whatever that fast path cannot pass is scanned point
by point or arrow by arrow, which gives the verdict, message or
exception in the order the scan meets it.  Nothing is kept between
calls: the rules, quivers and homs are mutable records.

``vls`` and ``enumerate_automorphisms`` handle vertices by index, their
position in the vertex set: ``vls`` places each fiber of a rule at the
index pair of its endpoints, and ``enumerate_automorphisms`` finds the
image of the fiber at (i, j) at (image[i], image[j]), so neither hashes
a vertex per pitch pair or per vertex permutation.

A model of the minimal signature is a plain ``Structure``, and a map
between two models a ``StructureHom``; ``vls_of_structure`` and
``hom_to_quiver_hom`` carry them to a quiver and a quiver hom::

    >>> p, up, down = Atom("Pitch", 0), Atom("Arrow", 0), Atom("Arrow", 1)
    >>> loops = sigma_vls_structure(FinSet.of(p), FinSet.of(up, down),
    ...                             {(p, p): FinSet.of(up, down)})
    >>> len(vls_of_structure(loops).arrows)
    2
    >>> swap = StructureHom(loops, loops, {"Pitch": {p: p},
    ...                                    "Arrow": {up: down, down: up}})
    >>> loop = PairV(PairV(p, p), up)
    >>> hom_to_quiver_hom(swap).gamma1[loop] == PairV(PairV(p, p), down)
    True
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import field
from typing import Optional, Union

from .diagnostics import BudgetError, StructureError, Verdict
from .records import _Node, _node, _set
from .semantics import (
    Atom, FinSet, PairV, Structure, StructureHom, Value, check_structure_hom,
    element_budget, render_value,
)
from .syntax import Base, FunSymbol, Signature, Universe

__all__ = [
    "ExplicitTable", "GroupAction", "Quiver", "QuiverHom", "VLRule",
    "WindingPaths", "arrow_payload", "arrow_source", "arrow_target",
    "check_quiver_hom", "compose_quiver_homs", "conjugation_automorphism",
    "enumerate_automorphisms", "hom_to_quiver_hom", "identity_quiver_hom",
    "invert_quiver_hom",
    "list_subjective", "sigma_vls_signature", "sigma_vls_structure",
    "to_dot", "transporters", "validate_group_action", "vls",
    "vls_of_structure",
]


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

@_node(frozen=False, eq=False)
class GroupAction(_Node):
    """Arrows from x to y are the group elements transporting x to y.
    The group is a structure with ``star``/``e``/``inv`` tables on a
    single base type."""

    group: Structure
    action: dict[tuple[Value, Value], Value]

    @property
    def group_type(self) -> str:
        return self.group.signature.base_types[0]

    def elements(self) -> FinSet:
        return self.group.carrier(self.group_type)

    def act(self, g: Value, x: Value) -> Value:
        try:
            return self.action[(g, x)]
        except KeyError:
            raise StructureError(
                f"action table has no entry for ({self.group.render(g)}, "
                f"{self.group.render(x)})") from None

    def multiply(self, g: Value, h: Value) -> Value:
        return self.group.fun_tables["star"][(g, h)]

    def inverse(self, g: Value) -> Value:
        return self.group.fun_tables["inv"][(g,)]

    def identity(self) -> Value:
        return self.group.fun_tables["e"][()]


@_node
class WindingPaths(_Node):
    """Ways of getting between points of a discrete n-point circle:
    one class per integer displacement y - x + n*w with |w| bounded.
    Truncation only trims the arrow sets; quivers never compose arrows.
    The n^2 (2 max_winding + 1) arrows must fit the element budget: two
    integers could otherwise ask for any number of them."""

    modulus: int
    max_winding: int

    def __init__(self, modulus: int, max_winding: int) -> None:
        _set(self, "modulus", modulus)
        _set(self, "max_winding", max_winding)
        if modulus < 0:
            raise StructureError("modulus must be non-negative")
        if max_winding < 0:
            raise StructureError("maximum winding must be non-negative")
        arrows = modulus ** 2 * (2 * max_winding + 1)
        budget = element_budget()
        if arrows > budget:
            raise BudgetError(
                f"winding rule over {modulus} points with maximum "
                f"winding {max_winding} makes {arrows} arrows, more "
                f"than the element budget ({budget})")


@_node(frozen=False, eq=False)
class ExplicitTable(_Node):
    """Arrow fibers given directly per ordered vertex pair."""

    table: dict[tuple[Value, Value], FinSet]


VLRule = Union[GroupAction, WindingPaths, ExplicitTable]


def transporters(rule: GroupAction, x: Value, y: Value) -> FinSet:
    """The group elements carrying x to y, in group-carrier order: one
    action lookup per element.  ``vls`` builds all the fibers of a
    group action at once from its point maps instead."""
    return FinSet(tuple(
        g for g in rule.elements() if rule.act(g, x) == y))


def validate_group_action(rule: GroupAction, points: FinSet) -> Verdict:
    """Identity and compatibility laws, checked exhaustively.

    Each group element's point map (the image of every point, as point
    indices) is built once, |G|·|P| action lookups.  The identity's map
    must fix every point, and the map of each product g·h must be h's
    map followed by g's.  A law that fails there, or an action entry
    missing or outside the points, is reported by the pointwise scan
    over points and triples, with its message and in its order."""
    return _checked_laws(rule, points, _point_maps(rule, points))


def _point_maps(rule: GroupAction,
                points: FinSet) -> Optional[dict[Value, tuple[int, ...]]]:
    """Each group element's image of every point, as point indices, in
    group-carrier order; None if an entry is missing or leaves the
    points."""
    index = {x: i for i, x in enumerate(points)}
    action = rule.action
    maps = {}
    for g in rule.elements():
        row = tuple(index.get(action.get((g, x))) for x in points)
        if None in row:
            return None
        maps[g] = row
    return maps


def _checked_laws(rule: GroupAction, points: FinSet,
                  maps: Optional[dict[Value, tuple[int, ...]]]) -> Verdict:
    """The laws on the point maps; the pointwise scan where they fail
    or where maps is None."""
    e = rule.identity()
    if maps is not None and maps.get(e) == tuple(range(len(points))):
        star = rule.group.fun_tables["star"]
        if all(maps.get(star.get((g, h))) == tuple([g_map[i] for i in h_map])
               for g, g_map in maps.items() for h, h_map in maps.items()):
            return Verdict.passed()
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


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------

@_node(frozen=False, eq=False)
class Quiver(_Node):
    """A vertex set and the fibers of the space: for each ordered vertex
    pair (x, y) that has arrows, the arrows ((x, y), t) from x to y.
    ``arrows`` is their sum, fiber after fiber in the order given.

    ``element_names`` is display metadata (atom tag to name tuple) used
    only when rendering."""

    vertices: FinSet
    fibers: dict[tuple[Value, Value], tuple[Value, ...]]
    rule: Optional[VLRule] = field(default=None, repr=False)
    element_names: dict[str, tuple[str, ...]] = field(
        default_factory=dict, repr=False)
    arrows: FinSet = field(init=False)

    def __init__(self, vertices: FinSet,
                 fibers: dict[tuple[Value, Value], tuple[Value, ...]],
                 rule: Optional[VLRule] = None,
                 element_names: Optional[dict[str, tuple[str, ...]]] = None
                 ) -> None:
        self.vertices = vertices
        self.fibers = fibers
        self.rule = rule
        self.element_names = {} if element_names is None else element_names
        for (x, y), fiber in fibers.items():
            if x not in self.vertices or y not in self.vertices:
                raise StructureError("a fiber's endpoints leave the vertex set")
            pair = PairV(x, y)
            if any(not isinstance(a, PairV) or a.first != pair for a in fiber):
                raise StructureError("an arrow lies outside its fiber's pair")
        self.arrows = FinSet(tuple(
            itertools.chain.from_iterable(self.fibers.values())))

    def __repr__(self) -> str:
        # the fields a dataclass repr shows: rule and element_names are
        # declared repr=False
        return (f"Quiver(vertices={self.vertices!r}, fibers={self.fibers!r}, "
                f"arrows={self.arrows!r})")

    def render(self, v: Value) -> str:
        return render_value(v, self.element_names)


def arrow_source(arrow: Value) -> Value:
    assert isinstance(arrow, PairV) and isinstance(arrow.first, PairV)
    return arrow.first.first


def arrow_target(arrow: Value) -> Value:
    assert isinstance(arrow, PairV) and isinstance(arrow.first, PairV)
    return arrow.first.second


def arrow_payload(arrow: Value) -> Value:
    assert isinstance(arrow, PairV)
    return arrow.second


def _rule_fibers(pitch: FinSet, rule: VLRule) -> list:
    """The rule's fibers in pitch-pair order: the fiber at (x, y) is at
    i*n+j, where i and j are the positions of x and y in the pitch set."""
    n = len(pitch)
    match rule:
        case GroupAction():
            for (_, x) in rule.action:
                if x not in pitch:
                    raise StructureError(
                        "action table mentions points outside the pitch set")
            maps = _point_maps(rule, pitch)
            v = _checked_laws(rule, pitch, maps)
            if not v:
                raise StructureError(f"invalid group action: {v.reason}")
            # the laws hold and every action key lies in the pitch set,
            # so every element maps every point into it: maps is built
            return _transporter_fibers(n, maps)
        case WindingPaths(modulus, max_winding):
            if n != modulus:
                raise StructureError(
                    f"winding rule over {modulus} points got a pitch set of "
                    f"size {n}")
            return [FinSet(tuple(
                        Atom("disp", (j - i) % modulus + modulus * w)
                        for w in range(-max_winding, max_winding + 1)))
                    for i in range(n) for j in range(n)]
        case ExplicitTable(table):
            index = {x: i for i, x in enumerate(pitch)}
            cells: list = [()] * (n * n)
            for (x, y), fiber in table.items():
                i, j = index.get(x), index.get(y)
                if i is None or j is None:
                    raise StructureError(
                        "explicit table mentions vertices outside the pitch set")
                cells[i * n + j] = fiber
            return cells
    raise StructureError(f"not a voice-leading rule: {rule!r}")


def _transporter_fibers(n: int, maps: dict[Value, tuple[int, ...]]
                        ) -> list[FinSet]:
    """The transporters of every pair of the n points, in pair order,
    from the point maps in one pass over the group, so each fiber keeps
    group-carrier order."""
    cells: list[list[Value]] = [[] for _ in range(n * n)]
    for g, row in maps.items():
        for i, j in enumerate(row):
            cells[i * n + j].append(g)
    return [FinSet(tuple(gs)) for gs in cells]


def vls(pitch: FinSet, rule: VLRule) -> Quiver:
    """The voice-leading space of a pitch set and a rule: arrows are the
    triples ((x, y), t) with t in the rule's fiber at (x, y), fiber by
    fiber in pitch-pair order.  Each fiber is keyed by the pitch set's
    own atoms."""
    fibers = {}
    for (x, y), payloads in zip(itertools.product(pitch, repeat=2),
                                _rule_fibers(pitch, rule)):
        if payloads:
            pair = PairV(x, y)
            fibers[(x, y)] = tuple(PairV(pair, t) for t in payloads)
    return Quiver(pitch, fibers, rule)


def list_subjective(q: Quiver) -> list[tuple[Value, Value, Value]]:
    """The arrows of the space as (source, target, payload) triples, in
    canonical order."""
    return [(arrow_source(a), arrow_target(a), arrow_payload(a))
            for a in q.arrows]


# ---------------------------------------------------------------------------
# quiver homomorphisms
# ---------------------------------------------------------------------------

@_node(frozen=False)
class QuiverHom(_Node):
    """A vertex map and an arrow map."""

    gamma1: dict[Value, Value]
    gamma0: dict[Value, Value]

    def __init__(self, gamma1: dict[Value, Value],
                 gamma0: dict[Value, Value]) -> None:
        self.gamma1 = gamma1
        self.gamma0 = gamma0


def identity_quiver_hom(q: Quiver) -> QuiverHom:
    return QuiverHom({a: a for a in q.arrows}, {v: v for v in q.vertices})


def invert_quiver_hom(h: QuiverHom) -> QuiverHom:
    """Inverse of a bijective homomorphism."""
    gamma1 = {b: a for a, b in h.gamma1.items()}
    gamma0 = {w: v for v, w in h.gamma0.items()}
    if len(gamma1) != len(h.gamma1) or len(gamma0) != len(h.gamma0):
        raise StructureError("homomorphism is not bijective")
    return QuiverHom(gamma1, gamma0)


def check_quiver_hom(q1: Quiver, q2: Quiver, h: QuiverHom) -> Verdict:
    """Both source and target squares must commute pointwise.

    After the vertex map, each arrow of a source fiber (x, y) is tested
    against the target fiber at (gamma0 x, gamma0 y): an image among its
    arrows satisfies both squares and lies in the target.  At the first
    arrow that fails, the first reason that applies is given."""
    gamma0, gamma1 = h.gamma0, h.gamma1
    for v in q1.vertices:
        if v not in gamma0:
            return Verdict.failed(f"vertex map not total at {render_value(v)}")
        if gamma0[v] not in q2.vertices:
            return Verdict.failed("vertex map leaves the target vertex set")
    # gamma1 is read in step with the arrows: while its next key is the
    # arrow itself, its value is the image, found without hashing the
    # arrow (a conjugation builds gamma1 in arrow order)
    entries = iter(gamma1.items())
    for (x, y), fiber in q1.fibers.items():
        tx, ty = gamma0[x], gamma0[y]
        target = PairV(tx, ty)
        payloads = {b.second for b in q2.fibers.get((tx, ty), ())}
        for a in fiber:
            key, image = next(entries, (None, None))
            if key is not a:
                image = gamma1.get(a)
            if (isinstance(image, PairV) and image.second in payloads
                    and image.first == target):
                continue
            if a not in gamma1:
                return Verdict.failed(
                    f"arrow map not total at {render_value(a)}")
            if image not in q2.arrows:
                return Verdict.failed("arrow map leaves the target arrow set")
            if arrow_source(image) != tx:
                return Verdict.failed(
                    f"source square fails at {render_value(a)}")
            if arrow_target(image) != ty:
                return Verdict.failed(
                    f"target square fails at {render_value(a)}")
    return Verdict.passed()


def compose_quiver_homs(f: QuiverHom, g: QuiverHom) -> QuiverHom:
    """First f, then g."""
    return QuiverHom(
        {a: g.gamma1[b] for a, b in f.gamma1.items()},
        {v: g.gamma0[w] for v, w in f.gamma0.items()})


def conjugation_automorphism(q: Quiver, phi: Value) -> QuiverHom:
    """For a group-action space: vertices move by the action of phi,
    payloads by conjugation, so ((x, y), g) goes to
    ((phi x, phi y), phi g phi^-1).

    The target pair is formed once per fiber, and phi g phi^-1 once per
    distinct payload g within the call; gamma1 is filled fiber after
    fiber, which is the order of ``q.arrows``."""
    rule = q.rule
    if not isinstance(rule, GroupAction):
        raise StructureError(
            "conjugation automorphisms need a group-action space")
    if phi not in rule.elements():
        raise StructureError("conjugating element is not in the acting group")
    phi_inv = rule.inverse(phi)
    gamma0 = {x: rule.act(phi, x) for x in q.vertices}
    conjugates: dict[Value, Value] = {}
    gamma1 = {}
    for (x, y), fiber in q.fibers.items():
        target = PairV(gamma0[x], gamma0[y])
        for a in fiber:
            g = a.second
            conjugated = conjugates.get(g)
            if conjugated is None:
                conjugated = conjugates[g] = rule.multiply(
                    rule.multiply(phi, g), phi_inv)
            gamma1[a] = PairV(target, conjugated)
    return QuiverHom(gamma1, gamma0)


# ---------------------------------------------------------------------------
# automorphism enumeration
# ---------------------------------------------------------------------------

def enumerate_automorphisms(q: Quiver,
                            budget: Optional[int] = None) -> list[QuiverHom]:
    """All quiver automorphisms, ordered lexicographically by the vertex
    image tuple and then by per-fiber arrow bijections; the identity is
    always first.

    Backtracks, by vertex index, over the vertex permutations that keep
    the matrix M of fiber sizes, then extends each by every choice of
    bijections from each fiber onto the fiber at its image pair.  Refuses
    up front when the candidate space (vertex permutations times fiber
    bijections) exceeds the budget; conjugation automorphisms are the
    practical generator for large group-action spaces.
    """
    budget = element_budget(budget)
    vertices = list(q.vertices)
    n = len(vertices)
    candidate_space = 1
    for size in (n, *map(len, q.fibers.values())):
        candidate_space *= math.factorial(size)
        if candidate_space > budget:
            raise BudgetError(
                f"automorphism candidate space exceeds the budget ({budget}); "
                "for group-action spaces use conjugation automorphisms "
                "instead")

    # each fiber by the indices (i, j) of its endpoints, so an image
    # fiber is found at (image[i], image[j]) without hashing a vertex
    index = {v: i for i, v in enumerate(vertices)}
    m = [[0] * n for _ in range(n)]
    by_index = {}
    for (x, y), fiber in q.fibers.items():
        i, j = index[x], index[y]
        m[i][j] = len(fiber)
        by_index[(i, j)] = fiber

    results: list[QuiverHom] = []

    def assign(image: list[int]) -> None:
        i = len(image)
        if i == n:
            _emit(image)
            return
        for w in range(n):
            if (w not in image and m[i][i] == m[w][w]
                    and all(m[i][k] == m[w][image[k]]
                            and m[k][i] == m[image[k]][w] for k in range(i))):
                image.append(w)
                assign(image)
                image.pop()

    def _emit(image: list[int]) -> None:
        gamma0 = {v: vertices[j] for v, j in zip(vertices, image)}
        per_pair = [
            [tuple(zip(fiber, perm)) for perm in itertools.permutations(
                by_index.get((image[i], image[j]), ()))]
            for (i, j), fiber in by_index.items()]
        for combo in itertools.product(*per_pair):
            results.append(QuiverHom(
                dict(itertools.chain.from_iterable(combo)), dict(gamma0)))

    assign([])
    return results


# ---------------------------------------------------------------------------
# structures over the minimal pitch/arrow signature
# ---------------------------------------------------------------------------

def sigma_vls_signature() -> Signature:
    """Two base types and one type family sending an ordered pitch pair
    to its fiber of arrows."""
    pitch = Base("Pitch")
    return Signature(
        name="vls",
        base_types=("Pitch", "Arrow"),
        fun_symbols=(
            FunSymbol("vlr", (pitch, pitch), Universe()),
        ),
    )


def sigma_vls_structure(pitch: FinSet, arrows: FinSet,
                        fibers: dict[tuple[Value, Value], FinSet]) -> Structure:
    """A model of the minimal signature: the pitch and arrow carriers and
    the fiber of arrows at each ordered pitch pair, which must be given
    for every pair."""
    st = Structure(
        signature=sigma_vls_signature(),
        carriers={"Pitch": pitch, "Arrow": arrows},
        fun_tables={"vlr": dict(fibers)},
    )
    _check_model(st)
    return st


def vls_of_structure(st: Structure) -> Quiver:
    """Same construction as ``vls`` with the structure's vlr table as an
    explicit rule, each fiber in its member order: the arrows are the
    elements of the Sigma type (sigma (p (* Pitch Pitch)) (vlr (pr1 p)
    (pr2 p))) in the order the evaluator enumerates them."""
    if st.signature != sigma_vls_signature():
        raise StructureError("structure is not over the pitch/arrow signature")
    _check_model(st)
    return vls(st.carrier("Pitch"), ExplicitTable(st.fun_tables["vlr"]))


def _check_model(st: Structure) -> None:
    arrows = st.carrier("Arrow")
    for fiber in st.fun_tables.get("vlr", {}).values():
        if any(t not in arrows for t in fiber):
            raise StructureError("vlr table leaves the arrow carrier")
    verdict = st.validate()
    if not verdict:
        raise StructureError(verdict.reason)


def hom_to_quiver_hom(h: StructureHom) -> QuiverHom:
    """The quiver map ((x, y), t) -> ((h x, h y), h t) induced by a
    homomorphism of structures over the minimal signature.  Requires the
    arrow component to send each fiber of vlr at (x, y) into the fiber at
    (h x, h y); the first arrow that leaves its fiber is reported
    otherwise.  The assignment is functorial: identities map to
    identities and composites to composites."""
    verdict = check_structure_hom(h)
    if not verdict:
        raise StructureError(verdict.reason)
    source = vls_of_structure(h.source)
    pitch_map, arrow_map = h.component_maps["Pitch"], h.component_maps["Arrow"]
    gamma1 = {
        a: PairV(PairV(pitch_map[arrow_source(a)],
                       pitch_map[arrow_target(a)]),
                 arrow_map[arrow_payload(a)])
        for a in source.arrows}
    return QuiverHom(gamma1, dict(pitch_map))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

# Unquoted DOT IDs: names, where non-ASCII counts as a letter, and numerals.
# A name character is any but the ASCII ones other than letters, digits
# and '_': a class that compiles ten times faster than [\w\x80-\U0010ffff],
# which matches the same characters.
_DOT_PLAIN_ID = re.compile(r"(?![0-9])[^\x00-/:-@\[-^`{-\x7f]+"
                           r"|-?(\.[0-9]+|[0-9]+(\.[0-9]*)?)")
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(q: Quiver, name: str = "quiver") -> str:
    """Graphviz rendering with stable ordering, so output is diffable.
    The graph name is quoted unless it is a plain DOT ID."""
    if not _DOT_PLAIN_ID.fullmatch(name) or name.lower() in _DOT_KEYWORDS:
        name = _dot_quoted(name)
    lines = [f"digraph {name} {{"]
    index = {v: i for i, v in enumerate(q.vertices)}
    for v in q.vertices:
        lines.append(f"  v{index[v]} [label={_dot_quoted(q.render(v))}];")
    for a in q.arrows:
        label = _dot_quoted(q.render(arrow_payload(a)))
        lines.append(
            f"  v{index[arrow_source(a)]} -> v{index[arrow_target(a)]} "
            f"[label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
