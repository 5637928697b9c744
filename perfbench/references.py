"""Reference answers for every workload, computed in plain Python.

Nothing here imports mulingua: each checker derives the expected answer
from the generated input alone and reads the program's output only
through attribute names (``carrier``/``index`` of atoms, ``first``/
``second`` of pairs, ``entries`` of sections, the maps of a homomorphism).
A checker returns True when the output is right.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# value shapes
# ---------------------------------------------------------------------------


def plain(value):
    """A program value as nested tuples: atoms (carrier, index), pairs
    (first, second), the unit value "*", sections tuples of entries."""
    kind = type(value).__name__
    if kind == "Atom":
        return (value.carrier, value.index)
    if kind == "PairV":
        return (plain(value.first), plain(value.second))
    if kind == "StarV":
        return "*"
    if kind == "SectionV":
        return tuple((plain(k), plain(v)) for k, v in value.entries)
    raise ValueError(f"unexpected value kind {kind}")


# ---------------------------------------------------------------------------
# allinterval
# ---------------------------------------------------------------------------

N_PC = 12


def interval_class(interval: int) -> int:
    interval %= N_PC
    return min(interval, N_PC - interval)


def allinterval_expected(chord):
    """The canonical proof that a chord holds every interval class, or
    None: for each class in order, the first pair (x, y) of chord
    members, x then y ascending, whose interval lies in the class."""
    members = sorted(set(chord))
    entries = []
    for ic in range(N_PC // 2 + 1):
        witness = next(((x, y) for x in members for y in members
                        if interval_class(y - x) == ic), None)
        if witness is None:
            return None
        x, y = witness
        entries.append((("IC", ic), ((("PC", x), ("PC", y)), "*")))
    return tuple(entries)


def check_allinterval(chord, proof) -> bool:
    expected = allinterval_expected(chord)
    if proof is None or expected is None:
        return proof is None and expected is None
    try:
        return plain(proof.value) == expected
    except (AttributeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# modelcheck
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """One generated model.  ``kind`` is "cyclic" (Z_n under addition),
    "subtraction" (Z_n under subtraction) or "const-gis" (a generalized
    interval system over Z_n whose interval function is constantly 0
    and whose transport u(p, i) is p).  The
    orders list the underlying integers in carrier order: ``order`` for
    the group carrier, ``points`` for the GIS point carrier."""

    name: str
    kind: str
    n: int
    order: tuple[int, ...]
    points: tuple[int, ...] = ()

    @property
    def is_gis(self) -> bool:
        return self.kind == "const-gis"

    def star(self, i: int, j: int) -> int:
        return (i - j) % self.n if self.kind == "subtraction" else (i + j) % self.n

    def inv(self, i: int) -> int:
        return (-i) % self.n

    def interval(self, p: int, q: int) -> int:
        return 0

    def transport(self, p: int, i: int) -> int:
        return p

    def group_name(self, i: int) -> str:
        return f"{'i' if self.is_gis else 'x'}{i}"

    def point_name(self, p: int) -> str:
        return f"s{p}"


def modelcheck_expected(spec: ModelSpec):
    """Per axiom, in theory order: (label, passed, counterexample) with
    the counterexample the first failing assignment, variables in
    context order, elements in carrier order, first variable outermost,
    given as (variable, element name) pairs."""
    g, s = spec.order, spec.points
    star, inv, e = spec.star, spec.inv, 0
    prefix = "ivls-" if spec.is_gis else ""
    laws = [
        (prefix + "associativity", (("a", g), ("b", g), ("c", g)),
         lambda a, b, c: star(star(a, b), c) == star(a, star(b, c))),
        (prefix + "identity", (("g", g),),
         lambda x: star(x, e) == x and star(e, x) == x),
        (prefix + "inverses", (("g", g),),
         lambda x: star(x, inv(x)) == e and star(inv(x), x) == e),
    ]
    if spec.is_gis:
        intv, u = spec.interval, spec.transport
        laws += [
            ("interval-composition", (("r", s), ("s", s), ("t", s)),
             lambda r, p, t: star(intv(r, p), intv(p, t)) == intv(r, t)),
            ("interval-existence", (("s", s), ("i", g)),
             lambda p, i: intv(p, u(p, i)) == i),
            ("interval-uniqueness", (("s", s), ("t", s), ("t2", s)),
             lambda p, t, t2: intv(p, t) != intv(p, t2) or t == t2),
        ]
    results = []
    for label, context, holds in laws:
        names = [name for name, _ in context]
        carriers = [carrier for _, carrier in context]
        counterexample = None
        for env in itertools.product(*carriers):
            if not holds(*env):
                counterexample = tuple(
                    (name, _element_name(spec, carrier, value))
                    for name, carrier, value in zip(names, carriers, env))
                break
        results.append((label, counterexample is None, counterexample))
    return tuple(results)


def _element_name(spec: ModelSpec, carrier, value: int) -> str:
    if spec.is_gis and carrier is spec.points:
        return spec.point_name(value)
    return spec.group_name(value)


def report_shape(spec: ModelSpec, report):
    """A theory report as (label, passed, counterexample) triples, with
    atoms named through the spec's carrier orders."""
    names = {"IVLS" if spec.is_gis else "G":
             [spec.group_name(i) for i in spec.order],
             "S": [spec.point_name(p) for p in spec.points]}
    shaped = []
    for r in report.results:
        counterexample = None
        if r.counterexample is not None:
            counterexample = tuple(
                (name, names[atom.carrier][atom.index])
                for name, atom in r.counterexample)
        shaped.append((r.label, bool(r.passed), counterexample))
    return tuple(shaped)


def check_modelcheck(spec: ModelSpec, report, expected=None) -> bool:
    if expected is None:
        expected = modelcheck_expected(spec)
    try:
        return report_shape(spec, report) == expected
    except (AttributeError, KeyError, IndexError, TypeError):
        return False


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------

def automorphism_oracle(num_vertices: int, pairs) -> frozenset:
    """Every (vertex permutation, arrow permutation) that preserves
    sources and targets, by brute force over both permutation groups."""
    srcs = [s for s, _ in pairs]
    tgts = [t for _, t in pairs]
    arrows = range(len(pairs))
    found = set()
    for vp in itertools.permutations(range(num_vertices)):
        for ap in itertools.permutations(arrows):
            if all(vp[srcs[a]] == srcs[ap[a]] and vp[tgts[a]] == tgts[ap[a]]
                   for a in arrows):
                found.add((vp, ap))
    return frozenset(found)


def automorphism_keys(num_vertices: int, num_arrows: int, homs) -> list:
    """The program's automorphisms as (vertex permutation, arrow
    permutation) keys; vertices are atoms ("v", i), and arrow k carries
    the payload atom ("a", k) as its second component."""
    keys = []
    for h in homs:
        image = {v.index: w.index for v, w in h.gamma0.items()}
        vp = tuple(image[i] for i in range(num_vertices))
        ap = [None] * num_arrows
        for a, b in h.gamma1.items():
            ap[a.second.index] = b.second.index
        keys.append((vp, tuple(ap)))
    return keys


def check_explicit_quiver(num_vertices: int, pairs, homs, oracle) -> bool:
    try:
        keys = automorphism_keys(num_vertices, len(pairs), homs)
    except (AttributeError, KeyError, IndexError, TypeError):
        return False
    return len(keys) == len(set(keys)) and set(keys) == oracle


def ti_act(n: int, element: int, x: int) -> int:
    """T_k (element k < n) sends x to x + k; I_k (element n + k) to k - x."""
    inverted, k = divmod(element, n)
    return (k - x) % n if inverted else (x + k) % n


@functools.cache
def ti_tables(n: int):
    """Composition (a after b) and inverses of the 2n elements, found by
    comparing their actions."""
    by_action = {tuple(ti_act(n, g, x) for x in range(n)): g
                 for g in range(2 * n)}
    mult = {(a, b): by_action[tuple(ti_act(n, a, ti_act(n, b, x))
                                    for x in range(n))]
            for a in range(2 * n) for b in range(2 * n)}
    inv = {a: next(b for b in range(2 * n) if mult[(a, b)] == 0)
           for a in range(2 * n)}
    return mult, inv


def check_ti(n: int, quiver, homs, verdicts) -> bool:
    """The transposition/inversion space on n pitch classes has n
    vertices and, for each of the 2n group elements, one arrow per
    vertex and its image (2n^2 arrows); conjugating by each element
    moves vertices by its action and arrow payloads by conjugation, and
    each conjugation passes the homomorphism check."""
    mult, inv = ti_tables(n)
    try:
        arrows = {((a.first.first.index, a.first.second.index), a.second.index)
                  for a in quiver.arrows}
        expected_arrows = {((x, ti_act(n, g, x)), g)
                           for x in range(n) for g in range(2 * n)}
        if len(quiver.vertices) != n or len(quiver.arrows) != 2 * n * n \
                or arrows != expected_arrows or len(homs) != 2 * n:
            return False
        for phi, (h, verdict) in enumerate(zip(homs, verdicts)):
            if not verdict:
                return False
            if {v.index: w.index for v, w in h.gamma0.items()} != \
                    {x: ti_act(n, phi, x) for x in range(n)}:
                return False
            for a, b in h.gamma1.items():
                (x, y), g = (a.first.first.index, a.first.second.index), a.second.index
                image = ((b.first.first.index, b.first.second.index), b.second.index)
                if image != ((ti_act(n, phi, x), ti_act(n, phi, y)),
                             mult[(mult[(phi, g)], inv[phi])]):
                    return False
        return True
    except (AttributeError, KeyError, TypeError):
        return False


def check_winding(quiver, modulus: int, max_winding: int) -> bool:
    """Arrows from x to y carry the displacements (y - x) mod n + n*w
    for |w| <= max_winding."""
    try:
        arrows = sorted((a.first.first.index, a.first.second.index,
                         a.second.index) for a in quiver.arrows)
    except AttributeError:
        return False
    expected = sorted(
        (x, y, (y - x) % modulus + modulus * w)
        for x in range(modulus) for y in range(modulus)
        for w in range(-max_winding, max_winding + 1))
    return len(quiver.vertices) == modulus and arrows == expected


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def check_cli(case, returncode: int, stdout: str) -> bool:
    return returncode == case.returncode and stdout == case.stdout
