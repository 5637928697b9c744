"""Judgment checking: well-formed types, bidirectionally typed terms,
telescope contexts, and context morphisms composed by substitution.

Checking is bidirectional: introduction forms (pairs against dependent
sums, injections, tree nodes, ``absurd``) are checked against an
expected type, elimination forms and symbol applications synthesize
theirs.  The one function type is the dependent product and the one
pair type the dependent sum: ``(-> A Prop)`` is ``(pi (x A) Prop)`` and
``(* A B)`` is ``(sigma (x A) B)`` for x not in B, and ``(proj t i)``
walks the nested sums of t's type.  A binder that does not occur in its
body neither extends the context nor shadows.  Definitional equality of
types is structural up to renaming of bound variables; no reduction
happens inside types, since dependency is always over finite index
types that are resolved at evaluation time.

Formulas are the terms of type ``Prop``: a formula node synthesizes
``Prop``, and a connective's operands, a quantifier's body and the F of
``(prop F)`` check at ``Prop``.  A lambda's binder that shadows a
context variable is renamed apart, and so is a quantifier's where a type
of the context mentions its name, so neither captures a variable of
those types.

Diagnostics report the leftmost-innermost failure: recursion fails fast
left to right and the deepest message propagates unchanged.
"""

from __future__ import annotations

from .diagnostics import TypeCheckError, Verdict
from .records import _Node, _node
from .syntax import (
    FORMULAS, Absurd, And, App, Base, Bottom, Context, Coproduct, Eq, Exists,
    FamApp, Forall, Implies, Inl, Inr, Lambda, Member, Not, Or, Pair, Pi,
    Prop, PropType, Proj1, Proj2, RelAtom, Sigma, Signature, Star, Sup, Term,
    Top, TupleProj, TypeExpr, Unit, Universe, Var, W, Zero, alpha_eq, arrow,
    free_vars, fresh_name, product, show, substitute,
)

__all__ = [
    "ContextMorphism", "check_context_morphism", "check_term",
    "compose_context_morphisms", "identity_morphism", "infer_term",
    "validate_signature", "well_formed_context", "well_formed_type",
]


# ---------------------------------------------------------------------------
# type formation
# ---------------------------------------------------------------------------

def well_formed_type(sig: Signature, ctx: Context, t: TypeExpr) -> Verdict:
    """Is ``t`` derivable by the formation rules over ``sig`` in ``ctx``?"""
    try:
        _wf_type(sig, ctx, t)
        return Verdict.passed()
    except TypeCheckError as err:
        return Verdict.failed(str(err))


def _wf_type(sig: Signature, ctx: Context, t: TypeExpr) -> None:
    match t:
        case Base(name):
            if not sig.has_base(name):
                raise TypeCheckError(f"unknown base type {name!r}")
        case Zero() | Unit() | Prop():
            pass
        case Universe():
            raise TypeCheckError(
                "level violation: 'Type' cannot occur inside a type expression")
        case Coproduct(a, b):
            _wf_type(sig, ctx, a)
            _wf_type(sig, ctx, b)
        case Pi(x, outer, inner) | Sigma(x, outer, inner) | W(x, outer, inner):
            binds = x in free_vars(inner)
            if binds and ctx.type_of(x) is not None:
                raise TypeCheckError(f"binder shadowing: {x!r} is already in scope")
            _wf_type(sig, ctx, outer)
            _wf_type(sig, ctx.extend(x, outer) if binds else ctx, inner)
        case FamApp(name, args):
            fam = sig.fun(name)
            if fam is None or not fam.is_family:
                raise TypeCheckError(f"unknown type family {name!r}")
            if len(args) != fam.arity:
                raise TypeCheckError(
                    f"arity mismatch: family {name!r} takes {fam.arity} "
                    f"argument(s), got {len(args)}")
            for arg, dom in zip(args, fam.domain):
                _check(sig, ctx, arg, dom)
        case PropType(f):
            _check(sig, ctx, f, Prop())
        case _:
            raise TypeCheckError(f"not a type expression: {t!r}")


def well_formed_context(sig: Signature, ctx: Context) -> Verdict:
    """Telescope discipline: distinct names, each type well-formed over
    the earlier entries."""
    seen: list[tuple[str, TypeExpr]] = []
    for name, t in ctx:
        if any(name == n for n, _ in seen):
            return Verdict.failed(f"duplicate context variable {name!r}")
        v = well_formed_type(sig, Context(tuple(seen)), t)
        if not v:
            return Verdict.failed(f"entry {name!r}: {v.reason}")
        seen.append((name, t))
    return Verdict.passed()


def validate_signature(sig: Signature) -> Verdict:
    """Every symbol's domain and codomain types must be well-formed over
    the signature's own base types; 'Type' is legal only as the codomain
    of a family declaration."""
    empty = Context()
    for f in sig.fun_symbols:
        for d in f.domain:
            v = well_formed_type(sig, empty, d)
            if not v:
                return Verdict.failed(f"symbol {f.name!r}: {v.reason}")
        if not f.is_family:
            v = well_formed_type(sig, empty, f.codomain)
            if not v:
                return Verdict.failed(f"symbol {f.name!r}: {v.reason}")
    for r in sig.rel_symbols:
        for t in r.arity_types:
            v = well_formed_type(sig, empty, t)
            if not v:
                return Verdict.failed(f"relation {r.name!r}: {v.reason}")
    return Verdict.passed()


# ---------------------------------------------------------------------------
# terms: synthesis and checking
# ---------------------------------------------------------------------------

def infer_term(sig: Signature, ctx: Context, term: Term) -> TypeExpr:
    """Synthesize the type of an elimination-form term.

    Raises ``TypeCheckError`` for ill-typed terms and for introduction
    forms (injections, ``sup``, ``absurd``) that need an expected type.
    """
    return _infer(sig, ctx, term)


def check_term(sig: Signature, ctx: Context, term: Term,
               expected: TypeExpr) -> Verdict:
    """Is ``ctx |- term : expected`` derivable?"""
    wf = well_formed_type(sig, ctx, expected)
    if not wf:
        return Verdict.failed(f"ill-formed expected type: {wf.reason}")
    try:
        _check(sig, ctx, term, expected)
        return Verdict.passed()
    except TypeCheckError as err:
        return Verdict.failed(str(err))


def _infer(sig: Signature, ctx: Context, term: Term) -> TypeExpr:
    match term:
        case Var(name):
            t = ctx.type_of(name)
            if t is not None:
                return t
            f = sig.fun(name)
            if f is not None and f.is_constant:
                return f.codomain
            raise TypeCheckError(f"unbound variable {name!r}")
        case App(head, args) if isinstance(head, str):
            f = sig.fun(head)
            if f is None:
                if sig.rel(head) is not None:
                    raise TypeCheckError(
                        f"relation symbol {head!r} applied as a function; "
                        "use a relation atom")
                raise TypeCheckError(f"unknown function symbol {head!r}")
            if f.is_family:
                raise TypeCheckError(
                    f"type family {head!r} used in term position")
            if len(args) != f.arity:
                raise TypeCheckError(
                    f"arity mismatch: {head!r} takes {f.arity} argument(s), "
                    f"got {len(args)}")
            for arg, dom in zip(args, f.domain):
                _check(sig, ctx, arg, dom)
            return f.codomain
        case App(head, args):
            fun_type = _infer(sig, ctx, head)
            for arg in args:
                match fun_type:
                    case Pi(x, dom, cod):
                        _check(sig, ctx, arg, dom)
                        fun_type = substitute(cod, {x: arg})
                    case _:
                        raise TypeCheckError(
                            f"application of non-function: {show(head)} has "
                            f"type {show(fun_type)}")
            return fun_type
        case Pair(a, b):
            return product(_infer(sig, ctx, a), _infer(sig, ctx, b))
        case Proj1(p):
            match _infer(sig, ctx, p):
                case Sigma(_, index_type, _):
                    return index_type
                case other:
                    raise TypeCheckError(
                        f"projection of non-product: {show(p)} has type {show(other)}")
        case Proj2(p):
            match _infer(sig, ctx, p):
                case Sigma(x, _, body):
                    return substitute(body, {x: Proj1(p)})
                case other:
                    raise TypeCheckError(
                        f"projection of non-product: {show(p)} has type {show(other)}")
        case TupleProj(t, i):
            inferred = rest = _infer(sig, ctx, t)
            if not isinstance(inferred, Sigma):
                raise TypeCheckError(
                    f"projection of non-product: {show(t)} has type {show(inferred)}")
            # component j is the j-th nested sum's index type, read with
            # the earlier binders as projections; the last is the body
            j = 0
            while j < i and isinstance(rest, Sigma):
                rest = substitute(rest.body, {rest.binder: TupleProj(t, j)})
                j += 1
            if j != i:
                raise TypeCheckError(
                    f"projection index {i} out of range for {show(inferred)}")
            return rest.index_type if isinstance(rest, Sigma) else rest
        case Lambda(x, annot, body):
            _wf_type(sig, ctx, annot)
            if ctx.type_of(x) is not None:
                x, body = _rename_apart(ctx, x, body)
            return Pi(x, annot, _infer(sig, ctx.extend(x, annot), body))
        case Star():
            return Unit()
        case RelAtom(name, args):
            r = sig.rel(name)
            if r is None:
                raise TypeCheckError(f"unknown relation {name!r}")
            if len(args) != r.arity:
                raise TypeCheckError(
                    f"arity mismatch: relation {name!r} takes {r.arity} "
                    f"argument(s), got {len(args)}")
            for arg, t in zip(args, r.arity_types):
                _check(sig, ctx, arg, t)
            return Prop()
        case Eq(t, lhs, rhs):
            _wf_type(sig, ctx, t)
            _check(sig, ctx, lhs, t)
            _check(sig, ctx, rhs, t)
            return Prop()
        case Member(element, predicate):
            elem_type = _infer(sig, ctx, element)
            expected = arrow(elem_type, Prop())
            try:
                pred_type = _infer(sig, ctx, predicate)
            except TypeCheckError:
                _check(sig, ctx, predicate, expected)
            else:
                if not alpha_eq(pred_type, expected):
                    raise TypeCheckError(
                        f"non-predicate in membership: {show(predicate)} has "
                        f"type {show(pred_type)}, expected a predicate on "
                        f"{show(elem_type)}")
            return Prop()
        case Top() | Bottom():
            return Prop()
        case And(l, r) | Or(l, r) | Implies(l, r):
            operands = (l, r)
        case Not(body):
            operands = (body,)
        case Forall(x, t, body) | Exists(x, t, body):
            _wf_type(sig, ctx, t)
            # renamed only where it would capture: a chain of quantifiers
            # over one name renames nothing
            if any(x in free_vars(u) for _, u in ctx):
                x, body = _rename_apart(ctx, x, body)
            ctx, operands = ctx.extend(x, t), (body,)
        case Inl(_) | Inr(_):
            raise TypeCheckError(
                "injection needs an expected coproduct type to check against")
        case Sup(_, _):
            raise TypeCheckError(
                "sup needs an expected tree type to check against")
        case Absurd(_):
            raise TypeCheckError(
                "absurd needs an expected type to check against")
        case _:
            raise TypeCheckError(f"not a term: {term!r}")
    # a connective's operands and a quantifier's body are checked at Prop;
    # a formula node synthesizes Prop, so it is inferred, and a formula
    # nested as deep as the reader allows takes one frame per level
    for f in operands:
        if isinstance(f, FORMULAS):
            _infer(sig, ctx, f)
        else:
            _check(sig, ctx, f, Prop())
    return Prop()


def _check(sig: Signature, ctx: Context, term: Term, expected: TypeExpr) -> None:
    match (term, expected):
        case (Pair(a, b), Sigma(x, index_type, body)):
            _check(sig, ctx, a, index_type)
            _check(sig, ctx, b, substitute(body, {x: a}))
        case (Pair(_, _), _):
            raise TypeCheckError(
                f"pair checked against non-product type {show(expected)}")
        case (Inl(v), Coproduct(left, _)):
            _check(sig, ctx, v, left)
        case (Inr(v), Coproduct(_, right)):
            _check(sig, ctx, v, right)
        case (Inl(_) | Inr(_), _):
            raise TypeCheckError(
                f"injection checked against non-coproduct type {show(expected)}")
        case (Lambda(x, annot, body), Pi(y, dom, cod)):
            if not alpha_eq(annot, dom):
                raise TypeCheckError(
                    f"lambda domain annotation {show(annot)} does not match "
                    f"expected domain {show(dom)}")
            # a dependent Pi's binder becomes the lambda's, renamed apart
            if y in free_vars(cod) or ctx.type_of(x) is not None:
                z, body = _rename_apart(ctx, x, body, free_vars(cod))
                x, cod = z, substitute(cod, {y: Var(z)})
            _check(sig, ctx.extend(x, annot), body, cod)
        case (Sup(label, branches), W(x, label_type, arity_body)):
            _check(sig, ctx, label, label_type)
            arity = substitute(arity_body, {x: label})
            _check(sig, ctx, branches, arrow(arity, expected))
        case (Sup(_, _), _):
            raise TypeCheckError(
                f"sup checked against non-tree type {show(expected)}")
        case (Absurd(t), _):
            _check(sig, ctx, t, Zero())
        case _:
            inferred = _infer(sig, ctx, term)
            if not alpha_eq(inferred, expected):
                raise TypeCheckError(
                    f"type mismatch: {show(term)} has type {show(inferred)}, "
                    f"expected {show(expected)}")


def _rename_apart(ctx: Context, x: str, body: Term,
                  avoid: frozenset[str] = frozenset()) -> tuple[str, Term]:
    """Rename a lambda's or a quantifier's binder ``x`` apart from the
    context, the body and ``avoid``.  A binder that shadowed a context
    variable would capture it wherever a type mentions it: in the types
    the context gives the body's other variables, and in the codomain."""
    z = fresh_name(x, set(ctx.names()) | free_vars(body) | avoid)
    return z, substitute(body, {x: Var(z)})


# ---------------------------------------------------------------------------
# context morphisms
# ---------------------------------------------------------------------------

@_node
class ContextMorphism(_Node):
    """A tuple of terms over the source context, one per target entry."""

    source: Context
    target: Context
    components: tuple[Term, ...]


def check_context_morphism(sig: Signature, m: ContextMorphism) -> Verdict:
    if len(m.components) != len(m.target):
        return Verdict.failed(
            f"component count {len(m.components)} does not match target "
            f"length {len(m.target)}")
    names = m.target.names()
    for i, ((_, target_type), component) in enumerate(zip(m.target, m.components)):
        expected = substitute(
            target_type, {names[j]: m.components[j] for j in range(i)})
        v = check_term(sig, m.source, component, expected)
        if not v:
            return Verdict.failed(f"component {i}: {v.reason}")
    return Verdict.passed()


def identity_morphism(ctx: Context) -> ContextMorphism:
    return ContextMorphism(ctx, ctx, tuple(Var(n) for n in ctx.names()))


def compose_context_morphisms(f: ContextMorphism,
                              g: ContextMorphism) -> ContextMorphism:
    """First ``f``, then ``g``: substitute f's components for g's source
    variables inside g's components."""
    if f.target != g.source:
        raise TypeCheckError("context mismatch: f.target != g.source")
    subst = dict(zip(g.source.names(), f.components))
    return ContextMorphism(
        f.source, g.target,
        tuple(substitute(c, subst) for c in g.components))
