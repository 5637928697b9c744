"""Command-line driver.

Verbs: ``check`` (parse and validate declarations), ``model-check``
(evaluate a theory's axioms in a structure), ``eval`` (truth of a named
formula in a structure), ``prove`` (search a proposition-as-type for an
inhabitant), ``vls`` (build a voice-leading space and print its size),
``autos`` (enumerate quiver automorphisms), and ``dot`` (Graphviz
export).

Exit codes: 0 for success (all axioms pass, formula true, type
inhabited), 1 for a refutation (a failing axiom, a false formula, an
uninhabited type, a failed check), 2 for usage, parse, or budget
errors and for input nested too deeply.  Built-in names (the group/gis
theories, the cyclic and interval-system models, the pitch-class
structures, the transposition/inversion quiver) are available without
loading any files; `.mul` files extend them.  MULINGUA_BUDGET, a
positive integer, overrides the element budget.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .diagnostics import BudgetError, MulinguaError, ParseError, Verdict
from .dsl import (
    Workspace, builtin_workspace, group_action_from, load_source,
    parse_type_node,
)
from .kernel import validate_signature, well_formed_context
from .logic import well_formed_formula
from .proofs import (
    all_interval_type, domfunc_leading_tone_type, explain_refutation,
    inhabit, render_witness,
)
from .semantics import (
    Atom, check_theory, counterexample, element_budget, render_value,
)
from .sexpr import parse_sexprs
from .voiceleading import (
    WindingPaths, enumerate_automorphisms, to_dot, vls, vls_of_structure,
)


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
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            try:
                load_source(text, ws)
            except ParseError as err:
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

    vq = sub.add_parser("vls", help="build a voice-leading space")
    vq.add_argument("target", help="a quiver name, or a structure name "
                                   "followed by a rule")
    vq.add_argument("rule", nargs="?", help="table | winding:N:W | "
                                            "action:PITCH-TYPE:FUN")
    vq.add_argument("files", nargs="*")
    vq.set_defaults(run=_run_vls)

    autos = sub.add_parser("autos", help="enumerate quiver automorphisms")
    autos.add_argument("quiver")
    autos.add_argument("--budget", type=_positive_int, default=None)
    autos.add_argument("files", nargs="*")
    autos.set_defaults(run=_run_autos)

    dot = sub.add_parser("dot", help="print a quiver in DOT format")
    dot.add_argument("quiver")
    dot.add_argument("files", nargs="*")
    dot.set_defaults(run=_run_dot)
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, as a non-positive value is
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _well_formed(sig, ctx, formula) -> Verdict:
    """The context, then the formula in it, checked against a signature."""
    return well_formed_context(sig, ctx) and \
        well_formed_formula(sig, ctx, formula)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _run_check(args, ws: Workspace) -> int:
    failures = 0
    for kind, name in ws.declared:
        line = f"{kind} {name}: "
        if kind == "signature":
            verdict = validate_signature(ws.signatures[name])
            print(line + ("ok" if verdict else f"FAIL {verdict.reason}"))
            failures += not verdict
        elif kind == "theory":
            th = ws.theories[name]
            problems = []
            for axiom in th.axioms:
                v = _well_formed(th.signature, axiom.context, axiom.formula)
                if not v:
                    problems.append(f"{axiom.label}: {v.reason}")
            print(line + ("ok" if not problems else f"FAIL {problems[0]}"))
            failures += bool(problems)
        elif kind == "structure":
            verdict = ws.structures[name].validate()
            print(line + ("ok" if verdict else f"FAIL {verdict.reason}"))
            failures += not verdict
        else:
            print(line + "parsed")
    return 1 if failures else 0


def _run_model_check(args, ws: Workspace) -> int:
    th = ws.theories.get(args.theory)
    if th is None:
        return _usage(f"unknown theory {args.theory!r}")
    st = ws.structures.get(args.structure)
    if st is None:
        return _usage(f"unknown structure {args.structure!r}")
    for axiom in th.axioms:
        verdict = _well_formed(th.signature, axiom.context, axiom.formula)
        if not verdict:
            return _usage(f"axiom {axiom.label} is not well-formed here: "
                          f"{verdict.reason}")
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
    verdict = _well_formed(st.signature, ctx, formula)
    if not verdict:
        return _usage(f"formula is not well-formed here: {verdict.reason}")
    found = counterexample(st, ctx, formula)
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
            key_name = node.value[1].value
            key = st.named_atom("Key", getattr(key_name, "text", str(key_name)))
            goal = domfunc_leading_tone_type(st, key)
        else:
            goal = parse_type_node(node)
    proof = inhabit(st, goal)
    if proof is None:
        reason = explain_refutation(st, goal)
        print(f"uninhabited: {reason}")
        return 1
    print("inhabited")
    print(f"proof: {render_witness(proof.value, st)}")
    return 0


def _run_vls(args, ws: Workspace) -> int:
    if args.rule is None:
        q = ws.quivers.get(args.target)
        if q is None:
            return _usage(f"unknown quiver {args.target!r}")
    else:
        st = ws.structures.get(args.target)
        if st is None:
            return _usage(f"unknown structure {args.target!r}")
        rule = args.rule
        if rule == "table":
            q = vls_of_structure(st)
        elif rule.startswith("winding:"):
            parts = rule.split(":")
            try:
                n, w = map(int, parts[1:])
            except ValueError:  # not two parts, or not integers
                return _usage("winding rules are winding:N:W")
            base = st.signature.base_types[0]
            q = vls(st.carrier(base), WindingPaths(n, w))
        elif rule.startswith("action:"):
            parts = rule.split(":")
            if len(parts) != 3:
                return _usage("action rules are action:PITCH-TYPE:FUN")
            q = vls(st.carrier(parts[1]),
                    group_action_from(st, parts[1], parts[2]))
        else:
            return _usage(f"unknown rule {rule!r}")
    print(f"vertices: {len(q.vertices)}")
    print(f"arrows: {len(q.arrows)}")
    return 0


def _run_autos(args, ws: Workspace) -> int:
    q = ws.quivers.get(args.quiver)
    if q is None:
        return _usage(f"unknown quiver {args.quiver!r}")
    homs = enumerate_automorphisms(q, args.budget)
    print(f"automorphisms: {len(homs)}")
    for i, h in enumerate(homs, start=1):
        vs = " ".join(
            f"{q.render(v)}->{q.render(w)}" for v, w in h.gamma0.items())
        arrows = " ".join(
            f"{q.render(a)}->{q.render(b)}" for a, b in h.gamma1.items())
        print(f"{i}: vertices ({vs}) arrows ({arrows})")
    return 0


def _run_dot(args, ws: Workspace) -> int:
    q = ws.quivers.get(args.quiver)
    if q is None:
        return _usage(f"unknown quiver {args.quiver!r}")
    sys.stdout.write(to_dot(q, args.quiver.replace("-", "_")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
