"""Standard musical structures: cyclic pitch-class universes, the
transposition/inversion group and its action, interval classes, the
scale library with leading-tone and dominance predicates, and the
packaged group and generalized-interval-system theories.

Conventions: note names map to pitch classes by standard spelling
(C = 0 through B = 11); the shipped scale kinds are major, natural
minor, and harmonic minor; the V chord of a scale is its triad on
degree 5.  A scale contains the leading tone when degree 7 lies one
ascending semitone below degree 1 (mod 12); interval classes use the
representative min(i, n - i).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .diagnostics import StructureError
from .proofs import interval_class
from .semantics import (
    Atom, FinSet, Structure, TableV, Theory, TheoryAxiom, TruthV, Value,
)
from .syntax import (
    And, App, Base, Context, Eq, FunSymbol, Implies, RelAtom,
    RelSymbol, Signature, Universe, Var,
)
from .voiceleading import GroupAction

NOTE_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

SCALE_PATTERNS: dict[str, tuple[int, ...]] = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "natural_minor": (0, 2, 3, 5, 7, 8, 10),
    "harmonic_minor": (0, 2, 3, 5, 7, 8, 11),
}

SCALE_KINDS = tuple(SCALE_PATTERNS)


def note_to_pc(name: str) -> int:
    try:
        return NOTE_NAMES.index(name)
    except ValueError:
        raise StructureError(f"unknown note name {name!r}") from None


# ---------------------------------------------------------------------------
# the group theory and cyclic models
# ---------------------------------------------------------------------------

def group_signature() -> Signature:
    g = Base("G")
    return Signature(
        name="group",
        base_types=("G",),
        fun_symbols=(
            FunSymbol("star", (g, g), g),
            FunSymbol("e", (), g),
            FunSymbol("inv", (g,), g),
        ),
    )


def make_group_theory() -> Theory:
    """Associativity, two-sided identity, and two-sided inverses.  The
    quantified variables live in each axiom's context, so failing models
    report the offending elements."""
    g = Base("G")
    a, b, c, x = Var("a"), Var("b"), Var("c"), Var("g")
    e = App("e")

    def star(s, t):
        return App("star", (s, t))

    return Theory(
        name="group",
        signature=group_signature(),
        axioms=(
            TheoryAxiom(
                "associativity",
                Context.of(("a", g), ("b", g), ("c", g)),
                Eq(g, star(star(a, b), c), star(a, star(b, c)))),
            TheoryAxiom(
                "identity",
                Context.of(("g", g)),
                And(Eq(g, star(x, e), x), Eq(g, star(e, x), x))),
            TheoryAxiom(
                "inverses",
                Context.of(("g", g)),
                And(Eq(g, star(x, App("inv", (x,))), e),
                    Eq(g, star(App("inv", (x,)), x), e))),
        ),
    )


def cyclic_group_structure(n: int, tag: str = "G") -> Structure:
    """Integers mod n under addition, as a model of the group signature."""
    atoms = [Atom(tag, i) for i in range(n)]
    return Structure(
        signature=group_signature(),
        carriers={"G": FinSet(tuple(atoms))},
        fun_tables={
            "star": {(atoms[i], atoms[j]): atoms[(i + j) % n]
                     for i in range(n) for j in range(n)},
            "e": {(): atoms[0]},
            "inv": {(atoms[i],): atoms[(-i) % n] for i in range(n)},
        },
        element_names={tag: tuple(str(i) for i in range(n))},
    )


def subtraction_structure(n: int, tag: str = "G") -> Structure:
    """Same carrier with subtraction in place of the group operation;
    associativity fails."""
    st = cyclic_group_structure(n, tag)
    atoms = list(st.carrier("G"))
    star = {(atoms[i], atoms[j]): atoms[(i - j) % n]
            for i in range(n) for j in range(n)}
    return replace(st, fun_tables={**st.fun_tables, "star": star})


def trivial_group_structure() -> Structure:
    return cyclic_group_structure(1)


@dataclass(frozen=True)
class PitchUniverse:
    """Pitch classes as integers mod n with addition, negation, and zero."""

    n: int
    structure: Structure

    @property
    def carrier(self) -> FinSet:
        return self.structure.carrier("G")

    def atom(self, pc: int) -> Atom:
        return Atom("PC", pc % self.n)

    def pc(self, v: Value) -> int:
        assert isinstance(v, Atom)
        return v.index


def pitch_universe(n: int = 12) -> PitchUniverse:
    return PitchUniverse(n, cyclic_group_structure(n, tag="PC"))


# ---------------------------------------------------------------------------
# generalized interval systems
# ---------------------------------------------------------------------------

def gis_signature() -> Signature:
    s, ivls = Base("S"), Base("IVLS")
    return Signature(
        name="gis",
        base_types=("S", "IVLS"),
        fun_symbols=(
            FunSymbol("star", (ivls, ivls), ivls),
            FunSymbol("e", (), ivls),
            FunSymbol("inv", (ivls,), ivls),
            FunSymbol("int", (s, s), ivls),
            FunSymbol("u", (s, ivls), s),
        ),
    )


def make_gis_theory() -> Theory:
    """The interval group laws plus the two interval-system conditions:
    composition of intervals along three points, and existence (via the
    section u) and uniqueness of the endpoint realizing an interval."""
    s, ivls = Base("S"), Base("IVLS")
    a, b, c, g = Var("a"), Var("b"), Var("c"), Var("g")
    r, t, t2, i, sv = Var("r"), Var("t"), Var("t'"), Var("i"), Var("s")

    def star(x, y):
        return App("star", (x, y))

    def intv(x, y):
        return App("int", (x, y))

    group_laws = (
        TheoryAxiom(
            "ivls-associativity",
            Context.of(("a", ivls), ("b", ivls), ("c", ivls)),
            Eq(ivls, star(star(a, b), c), star(a, star(b, c)))),
        TheoryAxiom(
            "ivls-identity",
            Context.of(("g", ivls)),
            And(Eq(ivls, star(g, App("e")), g),
                Eq(ivls, star(App("e"), g), g))),
        TheoryAxiom(
            "ivls-inverses",
            Context.of(("g", ivls)),
            And(Eq(ivls, star(g, App("inv", (g,))), App("e")),
                Eq(ivls, star(App("inv", (g,)), g), App("e")))),
    )
    composition = TheoryAxiom(
        "interval-composition",
        Context.of(("r", s), ("s", s), ("t", s)),
        Eq(ivls, star(intv(r, sv), intv(sv, t)), intv(r, t)))
    existence = TheoryAxiom(
        "interval-existence",
        Context.of(("s", s), ("i", ivls)),
        Eq(ivls, intv(sv, App("u", (sv, i))), i))
    uniqueness = TheoryAxiom(
        "interval-uniqueness",
        Context.of(("s", s), ("t", s), ("t'", s)),
        Implies(Eq(ivls, intv(sv, t), intv(sv, t2)), Eq(s, t, t2)))
    return Theory(
        name="gis",
        signature=gis_signature(),
        axioms=group_laws + (composition, existence, uniqueness),
    )


def z_gis_structure(n: int = 12) -> Structure:
    """Points and intervals both integers mod n, the interval from x to
    y their difference, and u the translation s + i."""
    points = [Atom("S", i) for i in range(n)]
    ivls = [Atom("IVLS", i) for i in range(n)]
    return Structure(
        signature=gis_signature(),
        carriers={"S": FinSet(tuple(points)), "IVLS": FinSet(tuple(ivls))},
        fun_tables={
            "star": {(ivls[i], ivls[j]): ivls[(i + j) % n]
                     for i in range(n) for j in range(n)},
            "e": {(): ivls[0]},
            "inv": {(ivls[i],): ivls[(-i) % n] for i in range(n)},
            "int": {(points[x], points[y]): ivls[(y - x) % n]
                    for x in range(n) for y in range(n)},
            "u": {(points[x], ivls[i]): points[(x + i) % n]
                  for x in range(n) for i in range(n)},
        },
        element_names={
            "S": tuple(str(i) for i in range(n)),
            "IVLS": tuple(str(i) for i in range(n)),
        },
    )


def constant_int_gis(n: int = 12) -> Structure:
    """Falsifier: the interval function is constantly zero, so the
    endpoint realizing an interval is neither unique nor existent."""
    st = z_gis_structure(n)
    points = list(st.carrier("S"))
    zero = Atom("IVLS", 0)
    return replace(st, fun_tables={
        **st.fun_tables,
        "int": {(x, y): zero for x in points for y in points},
        "u": {(x, i): x for x in points for i in st.carrier("IVLS")},
    })


# ---------------------------------------------------------------------------
# the transposition/inversion group
# ---------------------------------------------------------------------------

def ti_group(n: int = 12) -> GroupAction:
    """The 2n transpositions and inversions acting on pitch classes:
    T_k sends x to x + k, I_k sends x to k - x.  The group's elements
    are named ``Tk`` and ``Ik``."""
    atoms = [Atom("TI", i) for i in range(2 * n)]
    names = tuple(f"T{i}" for i in range(n)) + tuple(f"I{i}" for i in range(n))

    def mult(a: int, b: int) -> int:
        a_inv, a_k = divmod(a, n)
        b_inv, b_k = divmod(b, n)
        k = (a_k - b_k) % n if a_inv else (a_k + b_k) % n
        return ((a_inv + b_inv) % 2) * n + k

    def invert(a: int) -> int:
        a_inv, a_k = divmod(a, n)
        return a if a_inv else (-a_k) % n

    group = Structure(
        signature=group_signature(),
        carriers={"G": FinSet(tuple(atoms))},
        fun_tables={
            "star": {(atoms[a], atoms[b]): atoms[mult(a, b)]
                     for a in range(2 * n) for b in range(2 * n)},
            "e": {(): atoms[0]},
            "inv": {(atoms[a],): atoms[invert(a)] for a in range(2 * n)},
        },
        element_names={"TI": names},
    )
    pcs = [Atom("PC", x) for x in range(n)]
    action: dict[tuple[Value, Value], Value] = {}
    for a in range(2 * n):
        a_inv, a_k = divmod(a, n)
        for x in range(n):
            image = (a_k - x) % n if a_inv else (x + a_k) % n
            action[(atoms[a], pcs[x])] = pcs[image]
    return GroupAction(group, action)


# ---------------------------------------------------------------------------
# pitch-class sets, intervals, interval classes
# ---------------------------------------------------------------------------

def music_signature(n: int = 12) -> Signature:
    """Pitch classes with their interval and interval-class maps, one
    constant per pitch class, and the finite-set family used for
    position-indexed branching."""
    pc, ivls, ic = Base("PC"), Base("IVLS"), Base("IC")
    constants = tuple(
        FunSymbol(f"p{i}", (), pc) for i in range(n))
    return Signature(
        name="music",
        base_types=("PC", "IVLS", "IC"),
        fun_symbols=(
            FunSymbol("pcint", (pc, pc), ivls),
            FunSymbol("intclass", (ivls,), ic),
            FunSymbol("fin", (pc,), Universe()),
        ) + constants,
    )


def z_music_structure(n: int = 12) -> Structure:
    pcs = [Atom("PC", i) for i in range(n)]
    ivls = [Atom("IVLS", i) for i in range(n)]
    ics = [Atom("IC", i) for i in range(n // 2 + 1)]
    fun_tables: dict[str, dict[tuple[Value, ...], Value | FinSet]] = {
        "pcint": {(pcs[x], pcs[y]): ivls[(y - x) % n]
                  for x in range(n) for y in range(n)},
        "intclass": {(ivls[i],): ics[interval_class(n, i)] for i in range(n)},
        "fin": {(pcs[k],): FinSet(tuple(Atom("fin", j) for j in range(k)))
                for k in range(n)},
    }
    for i in range(n):
        fun_tables[f"p{i}"] = {(): pcs[i]}
    return Structure(
        signature=music_signature(n),
        carriers={
            "PC": FinSet(tuple(pcs)),
            "IVLS": FinSet(tuple(ivls)),
            "IC": FinSet(tuple(ics)),
        },
        fun_tables=fun_tables,
        element_names={
            "PC": tuple(str(i) for i in range(n)),
            "IVLS": tuple(str(i) for i in range(n)),
            "IC": tuple(f"ic{i}" for i in range(n // 2 + 1)),
        },
    )


def pcset_value(pcs: Sequence[int], n: int = 12) -> TableV:
    """A pitch-class set as its characteristic table."""
    members = {p % n for p in pcs}
    return TableV(tuple(
        (Atom("PC", i), TruthV(i in members)) for i in range(n)))


# ---------------------------------------------------------------------------
# scales, triads, dominance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleLibrary:
    """Seven-note scales keyed by (note name, kind), each a tuple of
    pitch classes in degree order (index k holds degree k+1)."""

    scales: dict[tuple[str, str], tuple[int, ...]]

    def scale(self, note: str, kind: str) -> tuple[int, ...]:
        try:
            return self.scales[(note, kind)]
        except KeyError:
            raise StructureError(f"no scale {kind!r} on {note!r}") from None

    def degree_pc(self, note: str, kind: str, degree: int) -> int:
        scale = self.scale(note, kind)
        if not 1 <= degree <= 7:
            raise StructureError(f"scale degree {degree} out of range")
        return scale[degree - 1]


def scale_library() -> ScaleLibrary:
    scales = {}
    for root, name in enumerate(NOTE_NAMES):
        for kind, pattern in SCALE_PATTERNS.items():
            scales[(name, kind)] = tuple((root + step) % 12 for step in pattern)
    return ScaleLibrary(scales)


def triad(scale: Sequence[int], degree: int) -> frozenset[int]:
    """Stack every other note of the scale starting at the degree."""
    if not 1 <= degree <= 7:
        raise ValueError(f"scale degree {degree} out of range 1..7")
    if len(scale) != 7:
        raise ValueError("a seven-note scale is required")
    root = degree - 1
    return frozenset({scale[root], scale[(root + 2) % 7], scale[(root + 4) % 7]})


def contains_leading_tone(scale: Sequence[int]) -> bool:
    """Degree 7 one ascending semitone below degree 1 (mod 12)."""
    return (scale[6] + 1) % 12 == scale[0] % 12


def leading_tone_predicates(lib: ScaleLibrary) -> dict[str, frozenset]:
    """Relation fragments derived from the scale tables: which scales
    contain the leading tone, and the V chords of exactly those scales
    (so dominance holds iff the leading tone is present)."""
    with_lt = frozenset(
        key for key, scale in lib.scales.items()
        if contains_leading_tone(scale))
    dominant = frozenset(triad(lib.scales[key], 5) for key in with_lt)
    return {"containsLeadingTone": with_lt, "dominant": dominant}


def dominance_signature() -> Signature:
    note, scale, chord = Base("NoteName"), Base("Scale"), Base("Chord")
    return Signature(
        name="dominance",
        base_types=("NoteName", "Scale", "Chord"),
        fun_symbols=(
            FunSymbol("sctype", (note,), scale),
            FunSymbol("V", (scale,), chord),
        ),
        rel_symbols=(
            RelSymbol("containsLeadingTone", (scale,)),
            RelSymbol("dominant", (chord,)),
        ),
    )


def dominance_model(kind: str) -> Structure:
    """One scale per note name, all of the given kind; the dominant
    relation holds of a V chord exactly when its scale has the leading
    tone."""
    if kind not in SCALE_PATTERNS:
        raise StructureError(f"unknown scale kind {kind!r}")
    lib = scale_library()
    notes = [Atom("NoteName", i) for i in range(12)]
    scales = [Atom("Scale", i) for i in range(12)]
    chords = [Atom("Chord", i) for i in range(12)]
    with_lt = {
        i for i, name in enumerate(NOTE_NAMES)
        if contains_leading_tone(lib.scale(name, kind))}
    return Structure(
        signature=dominance_signature(),
        carriers={
            "NoteName": FinSet(tuple(notes)),
            "Scale": FinSet(tuple(scales)),
            "Chord": FinSet(tuple(chords)),
        },
        fun_tables={
            "sctype": {(notes[i],): scales[i] for i in range(12)},
            "V": {(scales[i],): chords[i] for i in range(12)},
        },
        rel_tables={
            "containsLeadingTone": frozenset((scales[i],) for i in with_lt),
            "dominant": frozenset((chords[i],) for i in with_lt),
        },
        element_names={
            "NoteName": NOTE_NAMES,
            "Scale": tuple(f"{name}-{kind}" for name in NOTE_NAMES),
            "Chord": tuple(f"V-of-{name}" for name in NOTE_NAMES),
        },
    )


def dominance_formula() -> tuple[Context, RelAtom]:
    """The sentence 'the V chord of the scale on n is dominant', in the
    context of one note name."""
    ctx = Context.of(("n", Base("NoteName")))
    formula = RelAtom(
        "dominant", (App("V", (App("sctype", (Var("n"),)),)),))
    return ctx, formula


# ---------------------------------------------------------------------------
# dominant function and leading tones (per-key chord models)
# ---------------------------------------------------------------------------

def domfunc_signature() -> Signature:
    key, chord, pc = Base("Key"), Base("Chord"), Base("PC")
    key_constants = tuple(
        FunSymbol(name, (), key) for name in NOTE_NAMES)
    return Signature(
        name="domfunc",
        base_types=("Key", "Chord", "PC"),
        fun_symbols=(FunSymbol("lt", (key,), pc),) + key_constants,
        rel_symbols=(
            RelSymbol("domfunc", (chord, key)),
            RelSymbol("contains", (chord, pc)),
        ),
    )


def domfunc_model(kind: str = "harmonic_minor", empty: bool = False,
                  drop_leading_tone_of: str | None = None) -> Structure:
    """Chords are the seven triads of each key's scale; dominant
    function holds of the V and vii chords in their own key; the leading
    tone of a key sits one semitone below its tonic.

    ``empty`` drops the dominant-function relation entirely;
    ``drop_leading_tone_of`` removes the leading tone from the named
    key's V chord, breaking the leading-tone property there.
    """
    lib = scale_library()
    keys = [Atom("Key", i) for i in range(12)]
    pcs = [Atom("PC", i) for i in range(12)]
    chords = []
    chord_names = []
    chord_pcs: list[frozenset[int]] = []
    for i, name in enumerate(NOTE_NAMES):
        scale = lib.scale(name, kind)
        for degree in range(1, 8):
            chords.append(Atom("Chord", len(chords)))
            chord_names.append(f"{name}:{degree}")
            chord_pcs.append(triad(scale, degree))
    contains = set()
    for chord, members in zip(chords, chord_pcs):
        for pc in members:
            contains.add((chord, pcs[pc]))
    if drop_leading_tone_of is not None:
        key_index = note_to_pc(drop_leading_tone_of)
        v_chord = chords[key_index * 7 + 4]
        leading = pcs[(key_index - 1) % 12]
        contains.discard((v_chord, leading))
    domfunc = set()
    if not empty:
        for i in range(12):
            domfunc.add((chords[i * 7 + 4], keys[i]))
            domfunc.add((chords[i * 7 + 6], keys[i]))
    fun_tables: dict[str, dict[tuple[Value, ...], Value]] = {
        "lt": {(keys[i],): pcs[(i - 1) % 12] for i in range(12)},
    }
    for i, name in enumerate(NOTE_NAMES):
        fun_tables[name] = {(): keys[i]}
    return Structure(
        signature=domfunc_signature(),
        carriers={
            "Key": FinSet(tuple(keys)),
            "Chord": FinSet(tuple(chords)),
            "PC": FinSet(tuple(pcs)),
        },
        fun_tables=fun_tables,
        rel_tables={
            "domfunc": frozenset(domfunc),
            "contains": frozenset(contains),
        },
        element_names={
            "Key": NOTE_NAMES,
            "Chord": tuple(chord_names),
            "PC": tuple(str(i) for i in range(12)),
        },
    )


# ---------------------------------------------------------------------------
# a judgment-level harmony signature (no model required)
# ---------------------------------------------------------------------------

def harmony_signature() -> Signature:
    """Symbols for the basic judgment examples: intervals from pitch
    pairs, triads from scale and degree, dominance of a chord in a key,
    and scale membership."""
    pitch, ivls = Base("Pitch"), Base("IVLS")
    dia, deg, chord, key = (Base("DiatonicScale"), Base("ScaleDegree"),
                            Base("Chord"), Base("Key"))
    pc = Base("PC")
    return Signature(
        name="harmony",
        base_types=("Pitch", "IVLS", "DiatonicScale", "ScaleDegree",
                    "Chord", "Key", "PC"),
        fun_symbols=(
            FunSymbol("i", (pitch, pitch), ivls),
            FunSymbol("triad", (dia, deg), chord),
        ),
        rel_symbols=(
            RelSymbol("dom", (chord, key)),
        ),
    )


def triad_model() -> Structure:
    """A small model interpreting triads: scales are the majors and
    natural minors on all roots, chords are characteristic tables of
    pitch-class sets."""
    lib = scale_library()
    dia_keys = [(name, kind) for kind in ("major", "natural_minor")
                for name in NOTE_NAMES]
    dias = [Atom("DiatonicScale", i) for i in range(len(dia_keys))]
    degrees = [Atom("ScaleDegree", i) for i in range(7)]
    pitches = [Atom("Pitch", i) for i in range(12)]
    pcs = [Atom("PC", i) for i in range(12)]
    ivls = [Atom("IVLS", i) for i in range(12)]
    keys = [Atom("Key", i) for i in range(12)]
    chord_values: list[TableV] = []
    triad_table: dict[tuple[Value, ...], Value] = {}
    for d, (name, kind) in zip(dias, dia_keys):
        scale = lib.scale(name, kind)
        for k, degree in enumerate(degrees):
            value = pcset_value(sorted(triad(scale, k + 1)))
            if value not in chord_values:
                chord_values.append(value)
            triad_table[(d, degree)] = value
    return Structure(
        signature=harmony_signature(),
        carriers={
            "Pitch": FinSet(tuple(pitches)),
            "IVLS": FinSet(tuple(ivls)),
            "DiatonicScale": FinSet(tuple(dias)),
            "ScaleDegree": FinSet(tuple(degrees)),
            "Chord": FinSet(tuple(chord_values)),
            "Key": FinSet(tuple(keys)),
            "PC": FinSet(tuple(pcs)),
        },
        fun_tables={
            "i": {(pitches[x], pitches[y]): ivls[(y - x) % 12]
                  for x in range(12) for y in range(12)},
            "triad": triad_table,
        },
        rel_tables={"dom": frozenset()},
        element_names={
            "DiatonicScale": tuple(f"{n}-{k}" for n, k in dia_keys),
            "ScaleDegree": tuple(str(i + 1) for i in range(7)),
            "Pitch": tuple(str(i) for i in range(12)),
            "PC": tuple(str(i) for i in range(12)),
            "IVLS": tuple(str(i) for i in range(12)),
            "Key": NOTE_NAMES,
        },
    )
