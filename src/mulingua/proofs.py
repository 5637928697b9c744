"""Propositions as types over finite families: inhabitation search,
the formula-to-type translation, and the packaged musical propositions
(the all-interval property and the dominant/leading-tone sentence).

Truth is inhabitation: a proposition holds when the corresponding type
has an element, and the element is the proof.  The search is canonical:
the proof is the first element ``semantics.iter_type`` yields, and
enumeration follows carrier order with pairs lexicographic, so proof
objects are reproducible byte for byte.  That first element is found
without enumerating the rest; a dependent product is decided fiber by
fiber (a section exists iff every fiber is inhabited), never by
enumerating the full section space.  A witness pair is searched
component by component: where a fiber's proposition is a conjunction
whose leading conjuncts read only the pair's first component, as the
all-interval fiber's ``(in (pr1 q) chord)`` does, they are tested once
per first component, before any second component is tried with it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .diagnostics import StructureError
from .records import _Node, _node
from .semantics import (
    Env, PairV, SectionV, Structure, Value, element_budget,
    interpret_type, iter_type, render_value,
)
# not used here: perfbench/test_tracer.py checks that its tracer rebinds it
from .semantics import type_size  # noqa: F401
from .syntax import (
    And, App, Base, Bottom, Coproduct, Eq, Exists, FamApp, Forall, Implies,
    Lambda, Member, Or, Pi, PropType, Proj1, Proj2, RelAtom, Sigma,
    Term, TypeExpr, Var, W, arrow, free_vars, product, show,
)

__all__ = [
    "ProofObject", "all_interval_type", "constant_for",
    "domfunc_leading_tone_type", "explain_refutation", "first_empty_fiber",
    "inhabit", "interval_class", "pcset_predicate", "prop_as_type",
    "render_witness",
]


@_node
class ProofObject(_Node):
    """A canonical inhabitant together with the proposition-as-type it
    proves."""

    value: Value
    of: TypeExpr


def inhabit(st: Structure, t: TypeExpr, env: Optional[Env] = None,
            budget: Optional[int] = None) -> Optional[ProofObject]:
    """First inhabitant in canonical enumeration order, or None."""
    value = next(iter_type(st, t, env, budget), None)
    return None if value is None else ProofObject(value, t)


def first_empty_fiber(st: Structure, t: Pi, env: Optional[Env] = None,
                      budget: Optional[int] = None) -> Optional[Value]:
    """For a dependent product: the first index value whose fiber is
    uninhabited, or None when a section exists."""
    env = env or {}
    budget = element_budget(budget)
    for v in interpret_type(st, t.index_type, env, budget):
        if next(iter_type(st, t.body, {**env, t.binder: v}, budget), None) is None:
            return v
    return None


def explain_refutation(st: Structure, t: TypeExpr, env: Optional[Env] = None,
                       budget: Optional[int] = None) -> Optional[str]:
    """A one-line reason the type is empty, or None when it is inhabited."""
    env = env or {}
    budget = element_budget(budget)
    if next(iter_type(st, t, env, budget), None) is not None:
        return None
    match t:
        case PropType(Bottom()):
            return "the empty type has no elements"
        case Base(name):
            return f"carrier {name!r} is empty"
        case Coproduct(_, _):
            return "neither summand is inhabited"
        case Pi(x, _, b) if x not in free_vars(b):  # an arrow
            return explain_refutation(st, b, env, budget)
        case Pi(x, _, body):
            bad = first_empty_fiber(st, t, env, budget)
            inner = explain_refutation(st, body, {**env, x: bad}, budget)
            return (f"fiber at {render_value(bad, st)} is empty"
                    + (f": {inner}" if inner else ""))
        case Sigma(x, a, b) if x not in free_vars(b):  # a product
            left = explain_refutation(st, a, env, budget)
            return left if left is not None else explain_refutation(st, b, env, budget)
        case Sigma(_, index_type, _):
            return f"no element of {show(index_type)} admits a witness"
        case W(_, label_type, _):
            no_label = explain_refutation(st, label_type, env, budget)
            return (f"the tree type has no labels: {no_label}" if no_label
                    else "every label demands branches, so no finite tree exists")
        case PropType(f):
            return f"proposition {show(f)} is false"
        case FamApp(_, _):
            return "the family's set at this argument is empty"
    return "uninhabited"


# ---------------------------------------------------------------------------
# propositions as types
# ---------------------------------------------------------------------------

def prop_as_type(f: Term) -> TypeExpr:
    """Conjunction becomes product, disjunction coproduct, implication
    function type (so ``(not F)``, the sugar for ``(implies F bottom)``,
    becomes functions into the empty type), and the quantifiers
    dependent product and sum; atoms, ``top`` and ``bottom``, and any
    other term of type Prop, stay propositions (sub-singleton types):
    ``(prop top)`` is the unit type ``1`` and ``(prop bottom)`` the empty
    type ``0``."""
    match f:
        case And(l, r):
            return product(prop_as_type(l), prop_as_type(r))
        case Or(l, r):
            return Coproduct(prop_as_type(l), prop_as_type(r))
        case Implies(l, r):
            return arrow(prop_as_type(l), prop_as_type(r))
        case Forall(x, t, body):
            return Pi(x, t, prop_as_type(body))
        case Exists(x, t, body):
            return Sigma(x, t, prop_as_type(body))
    return PropType(f)


# ---------------------------------------------------------------------------
# packaged musical propositions
# ---------------------------------------------------------------------------

def _constant_names(st: Structure, t: TypeExpr) -> dict[Value, str]:
    """Each value named by a constant of the given type, mapped to the
    first declared such constant."""
    names: dict[Value, str] = {}
    for sym in st.signature.fun_symbols:
        if sym.is_constant and sym.codomain == t:
            value = st.fun_tables.get(sym.name, {}).get(())
            if value is not None:
                names.setdefault(value, sym.name)
    return names


def constant_for(st: Structure, value: Value, t: TypeExpr) -> str:
    """Name of the first declared constant of the given type whose value
    matches."""
    name = _constant_names(st, t).get(value)
    if name is None:
        raise StructureError(
            f"no constant of type {show(t)} names the value "
            f"{st.render(value)}")
    return name


def pcset_predicate(st: Structure, pcs: Iterable[Value],
                    carrier: str = "PC") -> Term:
    """A pitch-class set as a closed predicate term: a lambda testing
    equality against each member's constant."""
    base = Base(carrier)
    names = _constant_names(st, base)
    ordered = sorted(pcs, key=st.carrier(carrier).index)
    body: Term = Bottom()
    for v in reversed(ordered):
        name = names[v] if v in names else constant_for(st, v, base)
        clause = Eq(base, Var("p"), App(name))
        body = clause if isinstance(body, Bottom) else Or(clause, body)
    return Lambda("p", base, body)


def interval_class(n: int, interval: int) -> int:
    """Representative of an interval under inversion: min(i, n - i)."""
    interval %= n
    return min(interval, n - interval)


def all_interval_type(st: Structure, chord: Iterable[Value]) -> TypeExpr:
    """The proposition that the chord realizes every interval class,
    as a dependent product over interval classes of dependent sums of
    witnessing pitch-class pairs.

    The chord enters as a closed predicate; each fiber constrains the
    pair to lie in the chord and to realize the bound interval class.
    """
    pc, ic = Base("PC"), Base("IC")
    chord_term = pcset_predicate(st, chord)
    pair = Var("q")
    realized = Eq(
        ic,
        App("intclass", (App("pcint", (Proj1(pair), Proj2(pair))),)),
        Var("i"))
    fiber = PropType(And(
        And(Member(Proj1(pair), chord_term), Member(Proj2(pair), chord_term)),
        realized))
    return Pi("i", ic, Sigma("q", product(pc, pc), fiber))


def domfunc_leading_tone_type(st: Structure, key: Value) -> TypeExpr:
    """The proposition that every chord with dominant function in the
    key contains the key's leading tone: a dependent product over the
    dependent sum of chords paired with proofs of dominant function."""
    key_term = App(constant_for(st, key, Base("Key")))
    witness = Var("x")
    pairs = Sigma("c", Base("Chord"),
                  PropType(RelAtom("domfunc", (Var("c"), key_term))))
    body = PropType(RelAtom(
        "contains", (Proj1(witness), App("lt", (key_term,)))))
    return Pi("x", pairs, body)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_witness(v: Value, st: Optional[Structure] = None) -> str:
    """Proof objects in pair notation: dependent pairs as (x, p),
    sections as braced assignments."""
    match v:
        case PairV(a, b):
            return f"({render_witness(a, st)}, {render_witness(b, st)})"
        case SectionV(entries):
            inner = "; ".join(
                f"{render_witness(k, st)} => {render_witness(out, st)}"
                for k, out in entries)
            return "{" + inner + "}"
        case _:
            return render_value(v, st)
