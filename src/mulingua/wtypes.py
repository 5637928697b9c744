"""Well-founded tree values: the list encoding and rhythm trees, over
the generic fold ``wfold``, which ``semantics`` defines beside ``TreeV``.

A tree is a ``TreeV``: a label and a tuple of branches, one per element
of the label's arity, in the arity's canonical order.  Tree types are
the ``W`` type expressions of the kernel, and ``semantics.value_in_type``
checks a tree against one.  Lists over the carrier ``A`` of a structure
are the type ``LIST_TYPE``.  Rhythm tree labels are rationals, which no
finite structure holds, so ``rhythm_tree`` checks each node where it is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .diagnostics import StructureError
from .semantics import (
    InlV, InrV, PairV, RatV, StarV, TreeV, Value, tree_text, wfold,
)
from .syntax import Base, Coproduct, Eq, Exists, Inr, PropType, Unit, Var, W


# ---------------------------------------------------------------------------
# lists as trees
# ---------------------------------------------------------------------------

NIL_LABEL = InlV(StarV())

_LIST_LABEL = Coproduct(Unit(), Base("A"))

# (w (l (+ 1 A)) (prop (exists (a A) (= (+ 1 A) l (inr a))))): the empty
# list is the leaf labelled (inl star); a cons labelled (inr a) has one
# branch, at position star, for the tail.
LIST_TYPE = W("l", _LIST_LABEL, PropType(
    Exists("a", Base("A"), Eq(_LIST_LABEL, Var("l"), Inr(Var("a"))))))


def encode_list(items: Sequence[Value]) -> TreeV:
    tree = TreeV(NIL_LABEL, ())
    for item in reversed(items):
        tree = TreeV(InrV(item), (tree,))
    return tree


def to_list(tree: TreeV) -> list[Value]:
    def step(label: Value, folded: tuple[list[Value], ...]) -> list[Value]:
        if label == NIL_LABEL:
            return []
        assert isinstance(label, InrV)
        folded[0].append(label.value)  # the items are gathered last first
        return folded[0]

    return wfold(tree, step)[::-1]


def list_length(tree: TreeV) -> int:
    return wfold(tree, lambda label, folded: sum(folded)
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


def rhythm_tree(node: RhythmSpec, children: Sequence[TreeV] = ()) -> TreeV:
    """A checked rhythm node: one child tree per factor."""
    children = tuple(children)
    if len(children) != len(node.factors):
        raise StructureError(
            f"node with {len(node.factors)} factor(s) got "
            f"{len(children)} child(ren)")
    if not all(isinstance(c, TreeV) for c in children):
        raise StructureError("branches must be trees")
    return TreeV(rhythm_label(node), children)


def rhythm_leaf(duration: Fraction | int) -> TreeV:
    return rhythm_tree(RhythmSpec(Fraction(duration), ()), ())


def leaf_count(tree: TreeV) -> int:
    return wfold(tree, lambda _, folded: sum(folded) if folded else 1)


def leaf_durations(tree: TreeV) -> list[Fraction]:
    """Absolute duration of each leaf, left to right: at every node the
    duration splits proportionally among the branches, so the leaf
    durations always sum to the root duration.  (An extension beyond the
    raw tree data, which records proportions only.)"""
    out: list[Fraction] = []
    pending = [(tree, rhythm_spec_of(tree.label).duration)]
    while pending:  # depth first, leftmost branch on top
        t, absolute = pending.pop()
        node = rhythm_spec_of(t.label)
        if not t.branches:
            out.append(absolute)
            continue
        total = sum(node.factors)
        pending.extend(reversed([
            (child, absolute * factor / total)
            for factor, child in zip(node.factors, t.branches)]))
    return out


def render_rhythm_tree(tree: TreeV) -> str:
    return tree_text(
        tree, lambda t: f"(rt {rhythm_spec_of(t.label).duration}"
        + (" " if t.branches else ""), " ", lambda t: ")")


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
