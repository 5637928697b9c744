"""mulingua: a small typed language for musical structures.

A kernel of signatures, judgments, and type constructors; finite-set
models with two-valued higher-order evaluation and theory checking;
propositions-as-types inhabitation search; well-founded tree values,
with lists as a W type and checked rhythm trees; voice-leading spaces
as quivers with their transformations; and a stdlib of pitch-class
structures, all behind an S-expression command-line surface.
"""

from .diagnostics import (
    BudgetError, MulinguaError, ParseError, StructureError, TypeCheckError,
    Verdict,
)
from .kernel import (
    ContextMorphism, check_context_morphism, check_term,
    compose_context_morphisms, identity_morphism, infer_term,
    validate_signature, well_formed_context, well_formed_type,
)
from .logic import well_formed_formula
from .semantics import (
    Atom, FinSet, InlV, InrV, PairV, RatV, SectionV, StarV, Structure,
    StructureHom, TableV, Theory, TheoryAxiom, TreeV, TruthV, Value,
    all_environments, check_structure_hom, check_theory, derivable,
    eval_formula, eval_term, identity_hom, interpret_type, render_value,
    type_size,
)
from .syntax import (
    Absurd, And, App, Base, Bottom, Context, Coproduct, Eq, Exists, FamApp,
    Forall, Formula, FunSymbol, Implies, Inl, Inr, Lambda, Member, Not, Or,
    Pair, Pi, Prop, PropType, Proj1, Proj2, RelAtom, RelSymbol, Sigma,
    Signature, Star, Sup, Term, Top, TupleProj, TypeExpr, Unit, Universe,
    Var, W, Zero, alpha_eq, arrow, free_vars, product, show, substitute,
)

__version__ = "0.1.0"
