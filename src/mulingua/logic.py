"""The higher-order formula language: well-formedness.

Formulas are the terms of type ``Prop`` (relation atoms, typed
equality, membership in a predicate, the truth constants, connectives,
typed quantifiers over any type, and any other term of type ``Prop``),
and the kernel checks them as it checks every term.  A quantifier may
rebind a context variable's name; the kernel renames it apart where a
type of the context mentions that name.  Derivability is semantic (true
in a finite model under every assignment); see ``semantics.derivable``.
"""

from __future__ import annotations

from .diagnostics import Verdict
from .kernel import check_term, well_formed_context
from .syntax import Context, Prop, Signature, Term, free_vars, substitute

__all__ = ["well_formed_formula", "free_vars", "substitute"]


def well_formed_formula(sig: Signature, ctx: Context, f: Term) -> Verdict:
    """Is the context well-formed, and does the formula check at ``Prop``
    in it?"""
    wf = well_formed_context(sig, ctx)
    return check_term(sig, ctx, f, Prop()) if wf else wf
