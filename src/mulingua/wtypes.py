"""Well-founded tree values: specs, the tree constructor, a generic
fold, the list encoding, and rhythm trees.

A tree spec pairs a label domain with an arity map that gives each
label its finite set of branch positions.  The label domain may be a
finite set or open (``labels=None``), which is how rhythm trees live
here: their labels range over pairs of a rational duration and a list
of rational subdivision factors, an infinite domain.

Branches are stored in the canonical order of the label's arity set;
``wfold`` hands the step function an ordered mapping from arity
elements to folded results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, TypeVar, Union

from .diagnostics import StructureError, Verdict
from .semantics import (
    Atom, FinSet, InlV, InrV, PairV, RatV, StarV, TreeV, Value,
)

R = TypeVar("R")


@dataclass(frozen=True)
class WSpec:
    """Label domain plus arity map.  ``labels=None`` leaves the domain
    open; membership of labels is then not checked."""

    labels: Optional[FinSet]
    arity: Callable[[Value], FinSet]

    def arity_of(self, label: Value) -> FinSet:
        if self.labels is not None and label not in self.labels:
            raise StructureError(f"label {label!r} is not in the spec's domain")
        return self.arity(label)


def sup(spec: WSpec, label: Value,
        branches: Union[Mapping[Value, TreeV], Sequence[TreeV]] = ()) -> TreeV:
    """Build a checked tree node: the branches must cover the label's
    arity set exactly."""
    arity = spec.arity_of(label)
    if isinstance(branches, Mapping):
        extra = set(branches) - set(arity.elements)
        if extra:
            raise StructureError(f"extra branch position(s): {sorted(map(repr, extra))}")
        missing = [e for e in arity if e not in branches]
        if missing:
            raise StructureError(f"missing branch position(s): {[repr(e) for e in missing]}")
        ordered = tuple(branches[e] for e in arity)
    else:
        ordered = tuple(branches)
        if len(ordered) != len(arity):
            raise StructureError(
                f"label expects {len(arity)} branch(es), got {len(ordered)}")
    if not all(isinstance(b, TreeV) for b in ordered):
        raise StructureError("branches must be trees")
    return TreeV(label, ordered)


def check_tree(spec: WSpec, tree: TreeV) -> Verdict:
    """Structural audit: every node's branches are total on its arity."""
    try:
        _audit(spec, tree)
        return Verdict.passed()
    except StructureError as err:
        return Verdict.failed(str(err))


def _audit(spec: WSpec, tree: TreeV) -> None:
    arity = spec.arity_of(tree.label)
    if len(tree.branches) != len(arity):
        raise StructureError(
            f"node with label {tree.label!r} has {len(tree.branches)} "
            f"branch(es), arity demands {len(arity)}")
    for b in tree.branches:
        _audit(spec, b)


def wfold(spec: WSpec, tree: TreeV,
          step: Callable[[Value, dict[Value, R]], R]) -> R:
    """Structural recursion: fold the branches first, then combine with
    the label.  Terminates because trees are finite."""
    arity = spec.arity_of(tree.label)
    folded = {
        position: wfold(spec, branch, step)
        for position, branch in zip(arity, tree.branches)
    }
    return step(tree.label, folded)


def unfold_once(tree: TreeV) -> tuple[Value, tuple[TreeV, ...]]:
    return tree.label, tree.branches


# ---------------------------------------------------------------------------
# lists as trees
# ---------------------------------------------------------------------------

NIL_LABEL = InlV(StarV())


def list_spec(elements: FinSet) -> WSpec:
    """Lists over a finite element set: one nullary label for the empty
    list, one unary label per element."""
    labels = FinSet((NIL_LABEL,) + tuple(InrV(e) for e in elements))

    def arity(label: Value) -> FinSet:
        if label == NIL_LABEL:
            return FinSet(())
        return FinSet((StarV(),))

    return WSpec(labels, arity)


def encode_list(spec: WSpec, items: Sequence[Value]) -> TreeV:
    tree = sup(spec, NIL_LABEL, ())
    for item in reversed(items):
        tree = sup(spec, InrV(item), {StarV(): tree})
    return tree


def to_list(spec: WSpec, tree: TreeV) -> list[Value]:
    def step(label: Value, folded: dict[Value, list[Value]]) -> list[Value]:
        if label == NIL_LABEL:
            return []
        assert isinstance(label, InrV)
        return [label.value] + folded[StarV()]

    return wfold(spec, tree, step)


def list_length(spec: WSpec, tree: TreeV) -> int:
    return wfold(spec, tree, lambda label, folded: sum(folded.values())
                 + (0 if label == NIL_LABEL else 1))


# ---------------------------------------------------------------------------
# rhythm trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhythmSpec:
    """One node's data: a positive rational duration plus the positive
    rational proportional factors of its subdivisions.  The factors need
    not sum to the duration; they are relative proportions only."""

    duration: Fraction
    factors: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise StructureError("duration must be positive")
        if any(f <= 0 for f in self.factors):
            raise StructureError("proportional factors must be positive")


def _rat_list_value(factors: Sequence[Fraction]) -> Value:
    value: Value = StarV()
    for f in reversed(factors):
        value = PairV(RatV(f), value)
    return value


def _rat_list_of(value: Value) -> tuple[Fraction, ...]:
    factors = []
    while isinstance(value, PairV):
        head = value.first
        assert isinstance(head, RatV)
        factors.append(head.value)
        value = value.second
    return tuple(factors)


def rhythm_label(node: RhythmSpec) -> Value:
    return PairV(RatV(node.duration), _rat_list_value(node.factors))


def rhythm_spec_of(label: Value) -> RhythmSpec:
    assert isinstance(label, PairV) and isinstance(label.first, RatV)
    return RhythmSpec(label.first.value, _rat_list_of(label.second))


def rhythm_wspec() -> WSpec:
    """The open-domain spec for rhythm trees: a node's arity is the
    finite set of positions of its factor list."""

    def arity(label: Value) -> FinSet:
        node = rhythm_spec_of(label)
        return FinSet(tuple(Atom("fin", k) for k in range(len(node.factors))))

    return WSpec(None, arity)


def rhythm_tree(node: RhythmSpec, children: Sequence[TreeV] = ()) -> TreeV:
    """A checked rhythm node; the child count must match the factors."""
    if len(children) != len(node.factors):
        raise StructureError(
            f"node with {len(node.factors)} factor(s) got "
            f"{len(children)} child(ren)")
    return sup(rhythm_wspec(), rhythm_label(node), tuple(children))


def rhythm_leaf(duration: Fraction | int) -> TreeV:
    return rhythm_tree(RhythmSpec(Fraction(duration), ()), ())


def leaf_count(tree: TreeV) -> int:
    spec = rhythm_wspec()
    return wfold(spec, tree,
                 lambda _, folded: sum(folded.values()) if folded else 1)


def leaf_durations(tree: TreeV) -> list[Fraction]:
    """Absolute duration of each leaf, left to right: at every node the
    duration splits proportionally among the branches, so the leaf
    durations always sum to the root duration.  (An extension beyond the
    raw tree data, which records proportions only.)"""

    def rec(t: TreeV, absolute: Fraction) -> list[Fraction]:
        node = rhythm_spec_of(t.label)
        if not t.branches:
            return [absolute]
        total = sum(node.factors)
        out: list[Fraction] = []
        for factor, child in zip(node.factors, t.branches):
            out.extend(rec(child, absolute * factor / total))
        return out

    return rec(tree, rhythm_spec_of(tree.label).duration)


def render_rhythm_tree(tree: TreeV) -> str:
    node = rhythm_spec_of(tree.label)
    inner = "".join(" " + render_rhythm_tree(b) for b in tree.branches)
    return f"(rt {node.duration}{inner})"


def rhythm_tree_from_sexpr(text: str) -> TreeV:
    """Parse ``(rt DURATION CHILD ...)`` notation; a node's proportional
    factors are its children's durations."""
    from .diagnostics import ParseError
    from .sexpr import parse_sexprs

    nodes = parse_sexprs(text)
    if len(nodes) != 1:
        raise ParseError("expected exactly one rhythm tree", 1, 1)

    def build(node) -> TreeV:
        items = node.value
        if (not isinstance(items, list) or len(items) < 2
                or getattr(items[0].value, "text", None) != "rt"):
            raise node.error("a rhythm node is (rt DURATION CHILD ...)")
        duration = items[1].value
        if not isinstance(duration, (int, Fraction)):
            raise items[1].error("a duration is a number")
        children = [build(child) for child in items[2:]]
        factors = tuple(rhythm_spec_of(c.label).duration for c in children)
        try:
            return rhythm_tree(RhythmSpec(Fraction(duration), factors),
                               children)
        except StructureError as err:
            raise node.error(str(err)) from None

    return build(nodes[0])
