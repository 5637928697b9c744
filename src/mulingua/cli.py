"""Command-line driver.

Verbs: ``check`` (load the files, which judges every declaration the
loader can, and list the declarations), ``model-check`` (evaluate a
theory's axioms in a structure), ``eval`` (truth of a named formula in
a structure), ``prove`` (kernel-check a proposition-as-type, then search
it for an inhabitant), ``vls`` (build a voice-leading space and print
its size), ``autos`` (enumerate quiver automorphisms), and ``dot``
(Graphviz export).  The three quiver verbs take a quiver name or a rule
form such as ``(winding 12 1)``, read as the rule of a
``(quiver NAME ...)`` declaration is.

Exit codes: 0 for success (all axioms pass, formula true, type
inhabited, files loaded), 1 for a refutation (a failing axiom, a false
formula, an uninhabited type), 2 for usage, parse (a file that is not
UTF-8 among them), or budget errors, for a declaration the loader
refuses (an ill-formed axiom among them), and for input nested too
deeply; ``check`` never exits 1.  Built-in
names (the group/gis theories, the cyclic and interval-system models,
the pitch-class structures, the transposition/inversion quiver) are
available without loading any files; `.mul` files extend them.
MULINGUA_BUDGET, a positive integer, overrides the element budget.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .diagnostics import BudgetError, MulinguaError, ParseError
from .dsl import (
    Workspace, builtin_workspace, element_name, load_source, parse_type_node,
    quiver_of_rule,
)
from .kernel import elaborate, well_formed_type
from .logic import well_formed_formula
from .proofs import (
    all_interval_type, domfunc_leading_tone_type, explain_refutation,
    inhabit, render_witness,
)
from .semantics import (
    Atom, check_theory, counterexample, element_budget, render_value,
)
from .sexpr import parse_sexprs
from .syntax import Context
from .voiceleading import enumerate_automorphisms, to_dot


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        element_budget()  # reject a malformed MULINGUA_BUDGET before any work
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        ws = builtin_workspace()
        for path in getattr(args, "files", []):
            try:
                with open(path, "r", encoding="utf-8-sig") as handle:
                    text = handle.read()
                load_source(text, ws)
            except (ParseError, UnicodeDecodeError) as err:
                print(f"{path}: {err}", file=sys.stderr)
                return 2
        return args.run(args, ws)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except BudgetError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(str(err), file=sys.stderr)
        return 2
    except MulinguaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mulingua",
        description="check, model, and prove musical type theories")
    sub = parser.add_subparsers(dest="verb", required=True)

    check = sub.add_parser("check", help="validate declarations in files")
    check.add_argument("files", nargs="+")
    check.set_defaults(run=_run_check)

    model = sub.add_parser("model-check", help="check a theory in a structure")
    model.add_argument("theory")
    model.add_argument("structure")
    model.add_argument("files", nargs="*")
    model.set_defaults(run=_run_model_check)

    ev = sub.add_parser("eval", help="evaluate a named formula in a structure")
    ev.add_argument("structure")
    ev.add_argument("formula")
    ev.add_argument("files", nargs="*")
    ev.set_defaults(run=_run_eval)

    prove = sub.add_parser("prove", help="search a type for an inhabitant")
    prove.add_argument("structure")
    prove.add_argument("type", help="a named type, (allInterval pcs...), "
                                    "(domfunc-leading-tone KEY), or a type "
                                    "expression")
    prove.add_argument("files", nargs="*")
    prove.set_defaults(run=_run_prove)

    for verb, run, text in (
            ("vls", _run_vls, "build a voice-leading space"),
            ("autos", _run_autos, "enumerate quiver automorphisms"),
            ("dot", _run_dot, "print a quiver in DOT format")):
        quiver = sub.add_parser(verb, help=text)
        quiver.add_argument(
            "quiver", help="a quiver name, or a rule form: (table STRUCT), "
                           "(winding N W) or (group-action STRUCT PITCH-TYPE "
                           "FUN)")
        quiver.add_argument("files", nargs="*")
        quiver.set_defaults(run=run)
    return parser


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _run_check(args, ws: Workspace) -> int:
    for kind, name in ws.declared:
        # the loader refuses an invalid signature, theory or structure
        judged = kind in ("signature", "theory", "structure")
        print(f"{kind} {name}: {'ok' if judged else 'parsed'}")
    return 0


def _run_model_check(args, ws: Workspace) -> int:
    th = ws.theories.get(args.theory)
    if th is None:
        return _usage(f"unknown theory {args.theory!r}")
    st = ws.structures.get(args.structure)
    if st is None:
        return _usage(f"unknown structure {args.structure!r}")
    report = check_theory(st, th, args.structure)
    print(report.render(st))
    return 0 if report.passed else 1


def _run_eval(args, ws: Workspace) -> int:
    st = ws.structures.get(args.structure)
    if st is None:
        return _usage(f"unknown structure {args.structure!r}")
    if args.formula not in ws.formulas:
        return _usage(f"unknown formula {args.formula!r}")
    ctx, formula = ws.formulas[args.formula]
    verdict = well_formed_formula(st.signature, ctx, formula)
    if not verdict:
        return _usage(f"formula is not well-formed here: {verdict.reason}")
    found = counterexample(st, *elaborate(st.signature, ctx, formula))
    if found is not None:
        assignment = " ".join(
            f"({name} {render_value(v, st)})" for name, v in found)
        print(f"false counterexample ({assignment})" if assignment
              else "false")
        return 1
    print("true")
    return 0


def _run_prove(args, ws: Workspace) -> int:
    st = ws.structures.get(args.structure)
    if st is None:
        return _usage(f"unknown structure {args.structure!r}")
    spec = args.type.strip()
    if spec in ws.types:
        goal = ws.types[spec]
    else:
        nodes = parse_sexprs(spec)
        if len(nodes) != 1:
            return _usage("expected one type expression")
        node = nodes[0]
        head_text = None
        if node.is_list and node.value:
            head_text = getattr(node.value[0].value, "text", None)
        if head_text == "allInterval":
            pcs = []
            for item in node.value[1:]:
                if not isinstance(item.value, int):
                    return _usage("allInterval takes pitch-class numbers")
                pcs.append(Atom("PC", item.value % len(st.carrier("PC"))))
            goal = all_interval_type(st, pcs)
        elif head_text == "domfunc-leading-tone":
            if len(node.value) != 2:
                return _usage("domfunc-leading-tone takes one key name")
            key = st.named_atom("Key", element_name(node.value[1]))
            goal = domfunc_leading_tone_type(st, key)
        else:
            goal = parse_type_node(node)
    verdict = well_formed_type(st.signature, Context(), goal)
    if not verdict:
        return _usage(f"type is not well-formed here: {verdict.reason}")
    _, goal = elaborate(st.signature, Context(), goal)
    proof = inhabit(st, goal)
    if proof is None:
        reason = explain_refutation(st, goal)
        print(f"uninhabited: {reason}")
        return 1
    print("inhabited")
    print(f"proof: {render_witness(proof.value, st)}")
    return 0


def _quiver(text: str, ws: Workspace):
    """The quiver a verb's QUIVER argument names: a quiver of the
    workspace, or the space of a rule form; None when it is neither."""
    if text in ws.quivers:
        return ws.quivers[text]
    nodes = parse_sexprs(text)
    if len(nodes) != 1 or not nodes[0].is_list:
        return None
    return quiver_of_rule(nodes[0], nodes[0].value, ws)


def _run_vls(args, ws: Workspace) -> int:
    q = _quiver(args.quiver, ws)
    if q is None:
        return _usage(f"unknown quiver {args.quiver!r}")
    print(f"vertices: {len(q.vertices)}")
    print(f"arrows: {len(q.arrows)}")
    return 0


def _run_autos(args, ws: Workspace) -> int:
    q = _quiver(args.quiver, ws)
    if q is None:
        return _usage(f"unknown quiver {args.quiver!r}")
    homs = enumerate_automorphisms(q)
    print(f"automorphisms: {len(homs)}")
    for i, h in enumerate(homs, start=1):
        vs = " ".join(
            f"{q.render(v)}->{q.render(w)}" for v, w in h.gamma0.items())
        arrows = " ".join(
            f"{q.render(a)}->{q.render(b)}" for a, b in h.gamma1.items())
        print(f"{i}: vertices ({vs}) arrows ({arrows})")
    return 0


def _run_dot(args, ws: Workspace) -> int:
    q = _quiver(args.quiver, ws)
    if q is None:
        return _usage(f"unknown quiver {args.quiver!r}")
    sys.stdout.write(to_dot(q, args.quiver.replace("-", "_")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
