"""The higher-order formula language: well-formedness and traversal.

Formulas are the terms of type ``Prop``: relation atoms, typed equality,
membership in a predicate (a function type into ``Prop``, however it
is spelled), the constant truth values, connectives, and typed
quantifiers.  Quantified variables may have any constructor type
(function types, dependent products, powers), which is what makes the
language higher-order.

A quantifier may shadow a context variable; inside types, the dependent
binders reject shadowing outright.  Derivability of a formula in a
context is treated semantically (true in a given finite model under
every substitution of the context) rather than by proof search; see
``semantics.derivable``.
"""

from __future__ import annotations

from .diagnostics import TypeCheckError, Verdict
from .kernel import _check, _infer, _wf_type, well_formed_context
from .syntax import (
    And, Bottom, Context, Eq, Exists, Forall, Formula, Implies, Member, Not,
    Or, Prop, RelAtom, Signature, Top, alpha_eq, arrow, free_vars, show,
    substitute,
)

__all__ = ["well_formed_formula", "free_vars", "substitute"]


def well_formed_formula(sig: Signature, ctx: Context, f: Formula) -> Verdict:
    """Is the context well-formed, and in it do all atoms type-check and
    all quantifiers extend the context correctly?"""
    wf = well_formed_context(sig, ctx)
    if not wf:
        return wf
    try:
        _wf_formula(sig, ctx, f)
        return Verdict.passed()
    except TypeCheckError as err:
        return Verdict.failed(str(err))


def _wf_formula(sig: Signature, ctx: Context, f: Formula) -> None:
    match f:
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
        case Eq(t, lhs, rhs):
            _wf_type(sig, ctx, t)
            _check(sig, ctx, lhs, t)
            _check(sig, ctx, rhs, t)
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
        case Top() | Bottom():
            pass
        case And(l, r) | Or(l, r) | Implies(l, r):
            _wf_formula(sig, ctx, l)
            _wf_formula(sig, ctx, r)
        case Not(body):
            _wf_formula(sig, ctx, body)
        case Forall(x, t, body) | Exists(x, t, body):
            _wf_type(sig, ctx, t)
            _wf_formula(sig, ctx.extend(x, t), body)
        case _:
            raise TypeCheckError(f"not a formula: {f!r}")
