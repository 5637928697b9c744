"""Evaluation pinned: one digest over seeded formulas and terms, and
named cases for laziness, shadowing and dependent contexts.

Each digest record is an evaluation outcome (the value, or the type and
message of the error) together with what ``mulingua eval`` prints for
the same formula, so a change to the evaluator that moves a result, an
error or the point where an error is met changes the digest.
"""

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

from mulingua import cli
from mulingua.diagnostics import MulinguaError
from mulingua.dsl import Workspace, builtin_workspace, load_source
from mulingua.musiclib import (
    cyclic_group_structure, subtraction_structure, z_music_structure,
)
from mulingua.semantics import (
    Atom, Structure, all_environments, derivable, eval_formula, eval_term,
    render_value,
)
from mulingua.syntax import (
    And, App, Arrow, Base, Context, Eq, Exists, FamApp, Forall, Lambda, Or,
    Pair, Power, Proj1, Proj2, Top, Unit, Var,
)

from generators import (
    random_formula, random_group_element_term, random_tiny_structure,
    random_typed_term,
)

G = Base("G")
X = Base("X")
PC = Base("PC")


def outcome(thunk, st):
    try:
        value = thunk()
    except MulinguaError as err:
        return (type(err).__name__, str(err))
    return value if isinstance(value, bool) else render_value(value, st)


def cli_eval(monkeypatch, st: Structure, ctx: Context, formula) -> tuple:
    """Exit code, stdout and stderr of ``mulingua eval`` on the formula."""
    ws = Workspace(structures={"m": st}, formulas={"f": (ctx, formula)})
    monkeypatch.setattr(cli, "builtin_workspace", lambda: ws)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["eval", "m", "f"])
    return code, out.getvalue(), err.getvalue()


def without(st: Structure, fun: str = "", rel: str = "") -> Structure:
    return replace(
        st, fun_tables={k: v for k, v in st.fun_tables.items() if k != fun},
        rel_tables={k: v for k, v in st.rel_tables.items() if k != rel})


def holey(st: Structure, rng: random.Random) -> Structure:
    """The structure with about a fifth of its ``star`` entries gone."""
    star = {k: v for k, v in st.fun_tables["star"].items()
            if rng.random() >= 0.2}
    return replace(st, fun_tables={**st.fun_tables, "star": star})


def tiny_records(monkeypatch, rng: random.Random):
    ctx = Context.of(("a", X), ("b", X))
    for _ in range(150):
        st = random_tiny_structure(rng, rng.randrange(4))
        models = (st, without(st, fun="f"), without(st, rel="S"),
                  without(st, fun="f", rel="S"))
        closed = random_formula(rng, [], rng.randrange(1, 5), [0])
        open_ = random_formula(rng, ["a", "b"], rng.randrange(1, 4), [0])
        for model in models:
            for budget in (None, 2):
                yield outcome(
                    lambda: eval_formula(model, closed, budget=budget), model)
            yield cli_eval(monkeypatch, model, ctx, open_)
        yield cli_eval(monkeypatch, st, Context(), closed)


def group_records(monkeypatch, rng: random.Random):
    ctx = Context.of(("a", G), ("b", G))
    inner = ctx.extend("x", G)
    for _ in range(120):
        n = rng.randrange(1, 5)
        st = (subtraction_structure if rng.random() < 0.3
              else cyclic_group_structure)(n)
        models = (st, holey(st, rng), without(st, fun="inv"),
                  without(holey(st, rng), fun="inv"))
        term, _ = random_typed_term(rng, ctx, rng.randrange(1, 5))
        lhs = random_group_element_term(rng, inner, rng.randrange(1, 4))
        rhs = random_group_element_term(rng, inner, rng.randrange(1, 4))
        binder = Forall if rng.random() < 0.5 else Exists
        formula = binder("x", G, Eq(G, lhs, rhs))
        for model in models:
            for env in list(all_environments(model, ctx))[:5]:
                for budget in (None, 2):
                    yield outcome(
                        lambda: eval_term(model, term, env, budget), model)
                    yield outcome(
                        lambda: eval_formula(model, formula, env, budget), model)
            yield cli_eval(monkeypatch, model, ctx, formula)


COUNT = 9374
DIGEST = (
    "aaf8e8fc8e13457d93c55b4098cf7d55ac8b2716ad807a0bd116859c454a4993")


def test_seeded_outcomes_match_the_pinned_digest(monkeypatch):
    digest = hashlib.sha256()
    count = 0
    for records in (tiny_records(monkeypatch, random.Random(2025_07)),
                    group_records(monkeypatch, random.Random(2025_08))):
        for record in records:
            digest.update(repr(record).encode("utf-8"))
            count += 1
    assert count == COUNT
    assert digest.hexdigest() == DIGEST


# ---------------------------------------------------------------------------
# named cases
# ---------------------------------------------------------------------------

Z12 = cyclic_group_structure(12)
HUGE = Arrow(Power(Power(G)), Unit())  # one element, over 2^4096 arguments


def eval_source(monkeypatch, tmp_path, structure, source):
    path = tmp_path / "f.mul"
    path.write_text(source)
    monkeypatch.setattr(cli, "builtin_workspace", builtin_workspace)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["eval", structure, "f", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_a_short_circuited_branch_over_the_budget_is_never_met(
        monkeypatch, tmp_path):
    skipped = Or(Top(), Forall("h", HUGE, Top()))
    assert eval_formula(Z12, skipped) is True
    met = Or(Forall("h", HUGE, Top()), Top())
    assert outcome(lambda: eval_formula(Z12, met), Z12) == (
        "BudgetError", "enumeration of more than 1000000 elements exceeds "
                       "the element budget")
    assert eval_source(
        monkeypatch, tmp_path, "z12",
        "(formula f (or top (forall (h (-> (power (power G)) 1)) top)))"
    ) == (0, "true\n", "")


def test_a_missing_table_in_an_unevaluated_branch_is_never_read(
        monkeypatch, tmp_path):
    st = without(Z12, fun="inv")
    uses_inv = Eq(G, App("inv", (App("e"),)), App("e"))
    assert eval_formula(st, Or(Top(), uses_inv)) is True
    assert eval_formula(st, Exists("x", G, Or(Top(), uses_inv))) is True
    assert eval_term(st, Pair(App("e"), Lambda("x", G, Var("x")))) \
        == eval_term(Z12, Pair(App("e"), Lambda("x", G, Var("x"))))
    assert outcome(lambda: eval_formula(st, And(Top(), uses_inv)), st) == (
        "StructureError", "no table for symbol 'inv'")
    assert cli_eval(monkeypatch, st, Context.of(("a", G)),
                    Or(Eq(G, Var("a"), App("e")), uses_inv)) == (
        2, "", "error: no table for symbol 'inv'\n")


def test_a_binder_shadows_a_constant_of_the_same_name(monkeypatch, tmp_path):
    # with e the identity constant, e * e = e would hold
    shadowed = Forall("e", G, Eq(G, App("star", (Var("e"), Var("e"))),
                                 Var("e")))
    assert eval_formula(Z12, shadowed) is False
    assert eval_term(Z12, Var("e")) == Atom("G", 0)
    assert eval_term(Z12, Var("e"), {"e": Atom("G", 3)}) == Atom("G", 3)
    identity = eval_term(Z12, Lambda("e", G, Var("e")))
    assert all(k == v for k, v in identity.entries)
    assert eval_term(Z12, Proj2(Pair(App("e"), Var("e"))),
                     {"e": Atom("G", 7)}) == Atom("G", 7)
    assert outcome(lambda: eval_term(Z12, Proj1(Var("nowhere"))), Z12) == (
        "StructureError", "unbound variable 'nowhere' at evaluation")
    assert eval_source(
        monkeypatch, tmp_path, "z12",
        "(formula f (ctx (e G)) (= G (star e e) e))"
    ) == (1, "false counterexample ((e 1))\n", "")


def test_a_dependent_context_binds_each_fiber_in_turn(monkeypatch, tmp_path):
    music = z_music_structure(12)
    fin = FamApp("fin", (Var("p"),))
    ctx = Context.of(("p", PC), ("i", fin))
    # fin(p) has p elements, so no assignment has p = 0
    assert derivable(music, ctx, Exists("j", fin, Eq(fin, Var("i"), Var("j"))))
    assert not derivable(music, ctx, Eq(PC, Var("p"), App("p1")))
    assert eval_formula(music, Forall("p", PC, Forall("i", fin, Exists(
        "j", fin, Eq(fin, Var("i"), Var("j"))))))
    assert eval_source(
        monkeypatch, tmp_path, "z12music",
        "(formula f (ctx (p PC) (i (fin p))) (= PC p p1))"
    ) == (1, "false counterexample ((p 2) (i (atom fin 0)))\n", "")
    ws = builtin_workspace()
    load_source("(formula g (ctx (p PC) (i (fin p))) (= PC p p1))", ws)
    assert ws.formulas["g"][0] == ctx
