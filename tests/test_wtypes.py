"""Tree values: lists as a W type, folds, and rhythm trees."""

import random
from fractions import Fraction as F

import pytest

from mulingua.diagnostics import BudgetError, StructureError
from mulingua.dsl import parse_type_node
from mulingua.kernel import well_formed_type
from mulingua.semantics import (
    Atom, FinSet, InrV, Structure, TreeV, iter_type, value_in_type,
)
from mulingua.sexpr import parse_sexprs
from mulingua.syntax import Context, Signature, show
from mulingua.wtypes import (
    LIST_TYPE, NIL_LABEL, RhythmSpec, encode_list, leaf_count,
    leaf_durations, list_length, render_rhythm_tree, rhythm_leaf,
    rhythm_spec_of, rhythm_tree, to_list, wfold,
)

SIG = Signature("abc", ("A",))
ABC = Structure(SIG, {"A": FinSet.of(Atom("A", 0), Atom("A", 1), Atom("A", 2))})
NIL = TreeV(NIL_LABEL, ())


def abc_list(*indices):
    return [Atom("A", i) for i in indices]


def is_list(tree):
    return value_in_type(ABC, tree, LIST_TYPE)


# ---------------------------------------------------------------------------
# the list type
# ---------------------------------------------------------------------------

def test_list_type_is_well_formed_and_reads_back():
    assert well_formed_type(SIG, Context(()), LIST_TYPE)
    assert parse_type_node(parse_sexprs(show(LIST_TYPE))[0]) == LIST_TYPE


def test_empty_list_node():
    tree = encode_list([])
    assert tree == NIL
    assert is_list(tree)
    assert to_list(tree) == []


def test_singleton_list():
    tree = encode_list(abc_list(0))
    assert tree == TreeV(InrV(Atom("A", 0)), (NIL,))
    assert is_list(tree)
    assert to_list(tree) == abc_list(0)


def test_nested_sup_builds_abc():
    tree = TreeV(InrV(Atom("A", 0)), (
        TreeV(InrV(Atom("A", 1)), (
            TreeV(InrV(Atom("A", 2)), (NIL,)),)),))
    assert is_list(tree)
    assert to_list(tree) == abc_list(0, 1, 2)
    assert list_length(tree) == 3


def test_missing_branch_is_rejected():
    assert not is_list(TreeV(InrV(Atom("A", 0)), ()))


def test_extra_branch_is_rejected():
    assert not is_list(TreeV(NIL_LABEL, (NIL,)))


def test_label_outside_domain_is_rejected():
    assert not is_list(TreeV(Atom("B", 0), ()))
    assert not is_list(TreeV(InrV(Atom("B", 0)), (NIL,)))


def test_structural_audit():
    good = encode_list(abc_list(0, 1))
    assert is_list(good)
    # a unary label with no branch, below a well-formed node
    bad = TreeV(InrV(Atom("A", 1)), (TreeV(InrV(Atom("A", 0)), ()),))
    assert not is_list(bad)


def test_list_type_enumerates_the_empty_list_then_refuses():
    trees = iter_type(ABC, LIST_TYPE)
    assert next(trees) == NIL
    with pytest.raises(BudgetError, match="infinitely many trees"):
        next(trees)


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def test_fold_over_single_node():
    seen = []

    def step(label, folded):
        seen.append((label, folded))
        return 99

    assert wfold(NIL, step) == 99
    assert seen == [(NIL_LABEL, ())]


def test_fold_matches_repeated_unfolding():
    rng = random.Random(67)

    def by_unfolding(tree):
        return 1 + sum(by_unfolding(b) for b in tree.branches)

    for _ in range(60):
        items = abc_list(*(rng.randrange(3) for _ in range(rng.randrange(12))))
        tree = encode_list(items)
        node_count = wfold(tree, lambda _, folded: 1 + sum(folded))
        assert node_count == by_unfolding(tree)


def test_fold_hands_branches_in_order():
    rhythm = nested_subdivision_tree()

    def by_recursion(tree):
        return (rhythm_spec_of(tree.label).duration,
                tuple(by_recursion(b) for b in tree.branches))

    assert wfold(rhythm, lambda label, folded: (
        rhythm_spec_of(label).duration, folded)) == by_recursion(rhythm)


def test_ten_thousand_item_list_walks_without_recursion():
    items = abc_list(*(i % 3 for i in range(10_000)))
    tree = encode_list(items)
    assert to_list(tree) == items
    assert list_length(tree) == 10_000
    assert leaf_count(tree) == 1
    assert is_list(tree)
    assert not is_list(encode_list(items + [Atom("B", 0)]))


def test_ten_thousand_deep_rhythm_tree_counts_its_leaf():
    tree = rhythm_leaf(1)
    for _ in range(10_000):
        tree = rhythm_tree(RhythmSpec(F(1), (F(1),)), [tree])
    assert leaf_count(tree) == 1


def test_round_trip_encode_decode():
    rng = random.Random(71)
    for _ in range(300):
        items = abc_list(*(rng.randrange(3) for _ in range(rng.randrange(21))))
        tree = encode_list(items)
        assert is_list(tree)
        assert to_list(tree) == items
        assert list_length(tree) == len(items)


# ---------------------------------------------------------------------------
# rhythm trees
# ---------------------------------------------------------------------------

def nested_subdivision_tree():
    """Root 19/2 split 2 : 5/2 : 3; the 5/2 into three equal parts, the
    first of which splits 2 : 1; the 3 into 3/2 : 2."""
    return rhythm_tree(RhythmSpec(F(19, 2), (F(2), F(5, 2), F(3))), [
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


def test_nested_subdivision_checks_and_counts():
    tree = nested_subdivision_tree()
    assert leaf_count(tree) == 7
    assert rhythm_spec_of(tree.label).duration == F(19, 2)


def test_single_node_is_a_leaf():
    leaf = rhythm_tree(RhythmSpec(F(1), ()), [])
    assert leaf_count(leaf) == 1
    assert leaf.branches == ()


def test_child_count_mismatch():
    with pytest.raises(StructureError, match="factor"):
        rhythm_tree(RhythmSpec(F(2), (F(1), F(1))), [rhythm_leaf(1)])
    with pytest.raises(StructureError, match="branches must be trees"):
        rhythm_tree(RhythmSpec(F(2), (F(1),)), [F(1)])


def test_durations_and_factors_must_be_positive():
    with pytest.raises(StructureError):
        RhythmSpec(F(0), ())
    with pytest.raises(StructureError):
        RhythmSpec(F(1), (F(-1),))


def test_factors_need_not_sum_to_duration():
    # 5 split proportionally 1 : 1 : 1
    tree = rhythm_tree(RhythmSpec(F(5), (F(1), F(1), F(1))),
                       [rhythm_leaf(1)] * 3)
    assert leaf_durations(tree) == [F(5, 3)] * 3


def test_leaf_durations_split_proportionally():
    tree = nested_subdivision_tree()
    durations = leaf_durations(tree)
    assert len(durations) == 7
    assert sum(durations) == F(19, 2)
    total = F(2) + F(5, 2) + F(3)
    assert durations[0] == F(19, 2) * F(2) / total


def test_rhythm_rendering():
    assert render_rhythm_tree(nested_subdivision_tree()) == (
        "(rt 19/2 (rt 2) (rt 5/2 (rt 1 (rt 2) (rt 1)) (rt 1) (rt 1)) "
        "(rt 3 (rt 3/2) (rt 2)))")


def test_rhythm_parsing_round_trip():
    from mulingua.wtypes import rhythm_tree_from_sexpr
    text = ("(rt 19/2 (rt 2) (rt 5/2 (rt 1 (rt 2) (rt 1)) (rt 1) (rt 1)) "
            "(rt 3 (rt 3/2) (rt 2)))")
    tree = rhythm_tree_from_sexpr(text)
    assert tree == nested_subdivision_tree()
    assert render_rhythm_tree(tree) == text
    assert leaf_count(tree) == 7


def test_rhythm_parsing_rejects_malformed_nodes():
    from mulingua.diagnostics import ParseError
    from mulingua.wtypes import rhythm_tree_from_sexpr
    with pytest.raises(ParseError):
        rhythm_tree_from_sexpr("(rt)")
    with pytest.raises(ParseError):
        rhythm_tree_from_sexpr("(beat 1)")
