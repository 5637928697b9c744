"""The command-line verbs, their exit codes, and report determinism."""

import io
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mulingua import musiclib, voiceleading
from mulingua.cli import main
from mulingua.dsl import load_source, signature_to_dsl
from mulingua.sexpr import MAX_DEPTH

from generators import calls_into


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_model_check_gis_passes():
    code, out, _ = run(["model-check", "gis", "z12gis"])
    assert code == 0
    assert "interval-uniqueness: pass" in out
    assert "6 pass, 0 fail" in out


def test_model_check_reports_counterexample():
    code, out, _ = run(["model-check", "group", "z12-sub"])
    assert code == 1
    assert "associativity: FAIL counterexample ((a " in out


def test_model_check_unknown_names():
    code, _, err = run(["model-check", "nope", "z12"])
    assert code == 2 and "unknown theory" in err
    code, _, err = run(["model-check", "group", "nope"])
    assert code == 2 and "unknown structure" in err


def test_prove_all_interval_tetrachord():
    code, out, _ = run(["prove", "z12music", "(allInterval 0 1 4 6)"])
    assert code == 0
    assert out.startswith("inhabited\n")
    assert "ic6 => " in out


def test_prove_reports_missing_interval_class():
    code, out, _ = run(["prove", "z12music", "(allInterval 0 1 2 3)"])
    assert code == 1
    assert "uninhabited" in out and "ic4" in out


def test_prove_reads_the_key_as_an_element_name():
    assert run(["prove", "domfunc-harm", "(domfunc-leading-tone (A))"]) == (
        2, "", "parse error: 1:23: expected an element name\n")


def test_a_key_in_a_structure_without_keys_names_the_missing_carrier():
    assert run(["prove", "z12music", "(domfunc-leading-tone C)"]) == (
        2, "", "error: no carrier for base type 'Key'\n")


def test_prove_dominant_leading_tone():
    code, out, _ = run(["prove", "domfunc-harm", "(domfunc-leading-tone A)"])
    assert code == 0 and "inhabited" in out
    code, out, _ = run(["prove", "domfunc-empty", "(domfunc-leading-tone A)"])
    assert code == 0 and "proof: {}" in out
    code, out, _ = run(
        ["prove", "domfunc-adversarial", "(domfunc-leading-tone A)"])
    assert code == 1 and "A:5" in out


def test_prove_plain_type_expression():
    code, out, _ = run(["prove", "z12", "(* G G)"])
    assert code == 0
    code, out, _ = run(["prove", "z12", "0"])
    assert code == 1


def test_prove_names_an_unenumerable_type_as_written():
    code, out, err = run(["prove", "z12", "Type"])
    assert (code, out, err) == (
        2, "", "type is not well-formed here: level violation: 'Type' cannot "
               "occur inside a type expression\n")


@pytest.mark.parametrize("goal, reason", [
    ("(prop (= G star star))", "type mismatch: star has type 1, expected G"),
    ("(pi (x 0) Type)",
     "level violation: 'Type' cannot occur inside a type expression"),
    ("(sigma (x G) (prop (= Prop x x)))",
     "type mismatch: x has type G, expected Prop"),
])
def test_prove_refuses_a_goal_the_kernel_refuses(goal, reason):
    assert run(["prove", "z12", goal]) == (
        2, "", f"type is not well-formed here: {reason}\n")


def test_eval_dominance_depends_on_model():
    code, out, _ = run(["eval", "harm-minor", "dominance"])
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(["eval", "nat-minor", "dominance"])
    assert code == 1 and out.startswith("false counterexample ((n C))")


def test_vls_stats():
    code, out, _ = run(["vls", "ti-quiver"])
    assert code == 0
    assert out == "vertices: 12\narrows: 288\n"
    code, out, _ = run(["vls", "winding12"])
    assert out == "vertices: 12\narrows: 432\n"


def test_autos_budget_refusal(monkeypatch):
    monkeypatch.setenv("MULINGUA_BUDGET", "1")
    code, _, err = run(["autos", "ti-quiver"])
    assert code == 2
    assert "budget" in err and "conjugation" in err


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.mul"
    bad.write_text("(")
    code, _, err = run(["check", str(bad)])
    assert code == 2
    assert "1:1" in err


@pytest.mark.parametrize("source, message", [
    ("; z12 again\n  (structure z12 of group (carrier G (0)))",
     "2:3: duplicate structure name 'z12'"),
    ("(quiver ti-quiver winding 3 1)",
     "1:1: duplicate quiver name 'ti-quiver'"),
], ids=["z12", "ti-quiver"])
def test_redeclaring_a_builtin_exits_2_without_building_it(
        tmp_path, source, message):
    src = tmp_path / "dup.mul"
    src.write_text(source)
    with calls_into(musiclib, voiceleading) as called:
        code, out, err = run(["check", str(src)])
    assert (code, out, err) == (2, "", f"{src}: {message}\n")
    assert called == []


def test_check_reports_declarations(tmp_path):
    src = tmp_path / "ok.mul"
    src.write_text("""
    (theory commutative over group
      (axiom commutes (ctx (a G) (b G)) (= G (star a b) (star b a))))
    (context pcpair (x PC) (y PC))
    """)
    code, out, _ = run(["check", str(src)])
    assert code == 0
    assert "theory commutative: ok" in out
    assert "context pcpair: parsed" in out


def test_check_flags_ill_formed_theory(tmp_path):
    src = tmp_path / "bad.mul"
    src.write_text("""
    (theory broken over group
      (axiom oops (ctx (a G)) (= G a missing)))
    """)
    assert run(["check", str(src)]) == (
        2, "", f"{src}: 3:7: axiom oops is not well-formed over group: "
               "unbound variable 'missing'\n")


def test_dot_and_autos_on_declared_quiver(tmp_path):
    src = tmp_path / "q.mul"
    src.write_text("""
    (structure two of vls
      (carrier Pitch (p))
      (carrier Arrow (a b))
      (fun vlr ((p p) (set a b))))
    (quiver loops table two)
    """)
    code, out, _ = run(["dot", "loops", str(src)])
    assert code == 0
    assert out.startswith("digraph loops {")
    assert 'label="a"' in out and 'label="b"' in out
    code, out, _ = run(["autos", "loops", str(src)])
    assert code == 0
    assert out.startswith("automorphisms: 2\n")


def test_dot_quotes_a_graph_name_that_is_not_a_dot_id(tmp_path):
    src = tmp_path / "F.mul"
    src.write_text("""
    (structure two of vls
      (carrier Pitch (p))
      (carrier Arrow (a b))
      (fun vlr ((p p) (set a b))))
    (quiver 2nd.space table two)
    (quiver node table two)
    """)
    body = ('  v0 [label="p"];\n  v0 -> v0 [label="a"];\n'
            '  v0 -> v0 [label="b"];\n}\n')
    done = run_subprocess(["dot", "2nd.space", str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (
        0, 'digraph "2nd.space" {\n' + body, "")
    assert run(["dot", "node", str(src)]) == (
        0, 'digraph "node" {\n' + body, "")


def test_vls_with_rule_argument(tmp_path):
    code, out, _ = run(["vls", "(winding 12 1)"])
    assert code == 0 and out == "vertices: 12\narrows: 432\n"
    src = tmp_path / "rot.mul"
    src.write_text("""
    (signature cyc2 (types H X)
      (fun (star (H H) H) (e () H) (inv (H) H) (act (H X) X)))
    (structure r2 of cyc2
      (carrier H (a b)) (carrier X (x y))
      (fun star ((a a) a) ((a b) b) ((b a) b) ((b b) a))
      (fun e (() a))
      (fun inv ((a) a) ((b) b))
      (fun act ((a x) x) ((a y) y) ((b x) y) ((b y) x)))
    """)
    code, out, _ = run(["vls", "(group-action r2 X act)", str(src)])
    assert code == 0 and out == "vertices: 2\narrows: 4\n"


def test_vls_table_rule_on_a_declared_structure():
    demo = str(pathlib.Path(__file__).resolve().parent.parent / "demo.mul")
    code, out, err = run(["vls", "(table loops)", demo])
    assert (code, out, err) == (0, "vertices: 1\narrows: 2\n", "")


def test_vls_reads_the_files_after_a_quiver_name():
    demo = str(pathlib.Path(__file__).resolve().parent.parent / "demo.mul")
    assert run(["vls", "two-loops", demo]) == (
        0, "vertices: 1\narrows: 2\n", "")


def test_autos_and_dot_take_a_rule_form():
    demo = str(pathlib.Path(__file__).resolve().parent.parent / "demo.mul")
    assert run(["autos", "(table loops)", demo]) == run(
        ["autos", "two-loops", demo])
    code, out, err = run(["dot", "(winding 2 0)"])
    assert (code, err) == (0, "")
    assert out.startswith('digraph "(winding 2 0)" {\n  v0 [label="0"];\n')
    assert out.count(" -> ") == 4


def test_the_space_of_a_declared_structure_is_a_sigma_type(tmp_path):
    demo = str(pathlib.Path(__file__).resolve().parent.parent / "demo.mul")
    assert run(["prove", "loops", "space", demo]) == (
        0, "inhabited\nproof: ((home, home), up)\n", "")
    src = tmp_path / "arrows.mul"
    src.write_text("""
    (structure two of vls
      (carrier Pitch (p q))
      (carrier Arrow (a b))
      (fun vlr ((p p) (set)) ((p q) (set b a)) ((q p) (set)) ((q q) (set))))
    (formula loops-only (ctx (t (sigma (x (* Pitch Pitch)) (vlr (pr1 x) (pr2 x)))))
      (= (* Pitch Pitch) (pr1 t) (pair (pr1 (pr1 t)) (pr1 (pr1 t)))))
    """)
    # the first arrow is the first member written in the first nonempty fiber
    assert run(["eval", "two", "loops-only", str(src)]) == (
        1, "false counterexample ((t (pair (pair p q) b)))\n", "")


def test_vls_table_rule_needs_the_pitch_arrow_signature():
    code, out, err = run(["vls", "(table z12)"])
    assert (code, out) == (2, "")
    assert "structure is not over the pitch/arrow signature" in err


@pytest.mark.parametrize("verb", ["vls", "autos", "dot"])
def test_a_quiver_argument_that_names_no_quiver_exits_two(verb):
    for name in ("nope", "z12", "two-loops", "x y"):
        assert run([verb, name]) == (2, "", f"unknown quiver {name!r}\n")


MISTYPED_ACTION = """\
(signature gx (types G X P)
  (fun (star (X X) X) (e () G) (inv (X) X) (act (G P) P)))
(structure m of gx
  (carrier G (g0)) (carrier X (x0)) (carrier P (p0))
  (fun star ((x0 x0) x0)) (fun e (() g0)) (fun inv ((x0) x0))
  (fun act ((g0 p0) p0)))
"""


@pytest.mark.parametrize("verb", ["vls", "autos", "dot"])
def test_a_group_action_whose_group_is_not_on_the_acting_type_exits_two(
        tmp_path, verb):
    path = tmp_path / "gx.mul"
    path.write_text(MISTYPED_ACTION)
    done = run_subprocess([verb, "(group-action m P act)", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "parse error: 1:1: a group acting through 'act' needs "
               "star : G G -> G, e : -> G, inv : G -> G\n")


def rot_acting_by(act: str) -> str:
    """The README's half turn of two points, with the action table
    ``act``."""
    return f"""\
(signature turns
  (types R X)
  (fun (star (R R) R) (e () R) (inv (R) R) (act (R X) X)))
(structure rot of turns
  (carrier R (r0 r1))
  (carrier X (a b))
  (fun star ((r0 r0) r0) ((r0 r1) r1) ((r1 r0) r1) ((r1 r1) r0))
  (fun e (() r0))
  (fun inv ((r0) r0) ((r1) r1))
  (fun act {act}))
"""


@pytest.mark.parametrize("act, law", [
    ("((r0 a) b) ((r0 b) a) ((r1 a) b) ((r1 b) a)", "identity law fails at a"),
    ("((r0 a) a) ((r0 b) b) ((r1 a) b) ((r1 b) b)",
     "compatibility fails at (r1, r1, a)"),
], ids=["identity", "compatibility"])
def test_a_group_action_law_failure_names_the_elements(tmp_path, act, law):
    path = tmp_path / "rot.mul"
    path.write_text(rot_acting_by(act))
    done = run_subprocess(["vls", "(group-action rot X act)", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"parse error: 1:1: invalid group action: {law}\n")


@pytest.mark.parametrize("rule", ["(winding a 1)", "(winding 12 1.5)",
                                  "(winding 12)", "(winding 12 1 1)",
                                  "(wobble 1)"])
def test_malformed_rule_form_exits_two(rule):
    message = ("unknown quiver rule kind 'wobble'" if "wobble" in rule
               else "'winding' takes a modulus and a maximum winding")
    assert run(["vls", rule]) == (2, "", f"parse error: 1:1: {message}\n")


def test_a_negative_winding_modulus_is_refused_at_the_rule(tmp_path):
    path = tmp_path / "neg.mul"
    path.write_text("(quiver q winding -2 1)")
    assert run(["vls", "(winding -3 0)"]) == (
        2, "", "parse error: 1:1: modulus must be non-negative\n")
    assert run(["vls", "q", str(path)]) == (
        2, "", f"{path}: 1:1: modulus must be non-negative\n")
    # no points is still a space
    assert run(["vls", "(winding 0 1)"]) == (0, "vertices: 0\narrows: 0\n", "")


def test_reports_are_byte_deterministic():
    for argv in (["model-check", "gis", "z12gis"],
                 ["prove", "z12music", "(allInterval 0 1 4 6)"],
                 ["dot", "winding12"],
                 ["eval", "nat-minor", "dominance"]):
        first = run(argv)
        second = run(argv)
        assert first == second


def test_files_load_into_shared_workspace(tmp_path):
    sig = tmp_path / "sig.mul"
    sig.write_text("(signature pair-sig (types P))")
    use = tmp_path / "use.mul"
    use.write_text("""
    (structure pt of pair-sig (carrier P (only)))
    """)
    code, out, _ = run(["check", str(sig), str(use)])
    assert code == 0
    assert "signature pair-sig: ok" in out
    assert "structure pt: ok" in out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["model-check"])  # missing arguments
    assert exc.value.code == 2


def test_shipped_demo_file():
    import pathlib
    demo = str(pathlib.Path(__file__).resolve().parent.parent / "demo.mul")
    assert run(["check", demo])[0] == 0
    assert run(["model-check", "group", "s3ish", demo])[0] == 0
    code, out, _ = run(["model-check", "commutative", "s3ish", demo])
    assert code == 1 and "counterexample" in out
    assert run(["prove", "z4", "has-idempotent", demo])[0] == 0
    code, out, _ = run(["eval", "z4", "squares-cover", demo])
    assert code == 1 and "((a 1))" in out


EVERY_FORM = str(pathlib.Path(__file__).resolve().parent / "every_form.mul")
EVERY_FORM_EVALS = {
    "unit-is-star": (0, "true\n"),
    "truth-values": (0, "true\n"),
    "projections": (0, "true\n"),
    "injections": (0, "true\n"),
    "curried": (0, "true\n"),
    "lambda-table": (0, "true\n"),
    # a lambda evaluates to a table, and equals the section it denotes
    "lambda-section": (0, "true\n"),
    "member": (0, "true\n"),
    # a predicate on A is any function type into Prop: a power applies,
    # a lambda checks against it, and a Pi tests membership and is
    # written (set ...)
    "apply-power": (0, "true\n"),
    "lambda-power": (0, "true\n"),
    "member-section": (0, "true\n"),
    "set-section": (0, "true\n"),
    "relation": (0, "true\n"),
    "tree-leaf": (0, "true\n"),
    "tree-one": (0, "true\n"),
    "section-false": (1, "false counterexample ((x a1))\n"),
}


def test_every_value_and_term_form_loads_and_evaluates():
    """Tables in every value form, formulas with every term form; eval
    kernel-checks each formula before evaluating it."""
    code, out, err = run(["check", EVERY_FORM])
    assert (code, err) == (0, "")
    assert out == "signature forms: ok\nstructure every: ok\n" + "".join(
        f"formula {name}: parsed\n" for name in EVERY_FORM_EVALS)
    for name, (expected_code, expected_out) in EVERY_FORM_EVALS.items():
        assert run(["eval", "every", name, EVERY_FORM]) == (
            expected_code, expected_out, ""), name


def test_deep_nesting_exits_two_without_traceback(tmp_path):
    deep = tmp_path / "deep.mul"
    deep.write_text("(type deep " + "(power " * 1200 + "G" + ")" * 1200 + ")")
    code, out, err = run(["check", str(deep)])
    assert code == 2
    assert out == ""
    # the list one level past the limit opens after "(type deep " and
    # 255 "(power "s
    assert err == f"{deep}: 1:1797: expressions nested more than 256 deep\n"


def _nested_formula(depth):
    """A true formula whose lists nest exactly ``depth`` deep, counting
    the declaration around it."""
    nots = depth - 2
    return f"(formula deep (and top {'(not ' * nots}top{')' * nots}))"


def test_input_at_the_nesting_limit_still_runs(tmp_path):
    at_limit = tmp_path / "limit.mul"
    at_limit.write_text(_nested_formula(MAX_DEPTH))
    assert run(["check", str(at_limit)]) == (0, "formula deep: parsed\n", "")
    assert run(["eval", "z12", "deep", str(at_limit)]) == (0, "true\n", "")
    past = tmp_path / "past.mul"
    past.write_text(_nested_formula(MAX_DEPTH + 1))
    code, out, err = run(["eval", "z12", "deep", str(past)])
    assert (code, out) == (2, "")
    assert err.startswith(f"{past}: 1:")


def run_subprocess(argv):
    """Run the CLI in a child process that a hang cannot outlive."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("MULINGUA_BUDGET", None)
    return subprocess.run(
        [sys.executable, "-m", "mulingua.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10)


def test_autos_refuses_a_space_without_arrows_past_the_budget(tmp_path):
    pitches = [f"p{i}" for i in range(10)]  # 10! vertex permutations
    fibers = " ".join(f"(({x} {y}) (set))" for x in pitches for y in pitches)
    src = tmp_path / "bare.mul"
    src.write_text(f"""
    (structure bare of vls
      (carrier Pitch ({" ".join(pitches)}))
      (carrier Arrow (a))
      (fun vlr {fibers}))
    (quiver q table bare)
    """)
    done = run_subprocess(["autos", "q", str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "budget exceeded: automorphism candidate space exceeds the "
               "budget (1000000); for group-action spaces use conjugation "
               "automorphisms instead\n")


def test_a_power_is_compared_as_the_predicate_type_it_is(tmp_path):
    src = tmp_path / "power.mul"
    src.write_text("""
    (structure two of vls
      (carrier Pitch (p q))
      (carrier Arrow (a))
      (fun vlr ((p p) (set)) ((p q) (set a)) ((q p) (set)) ((q q) (set))))
    (formula same (forall (s (power Pitch)) (= (-> Pitch Prop) s s)))
    """)
    done = run_subprocess(["eval", "two", "same", str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")


@pytest.mark.parametrize("formula", [
    "(forall (p (* G G)) (= (sigma (x G) G) p p))",
    "(forall (p (sigma (x G) G)) (= G (proj p 1) (proj p 1)))",
])
def test_a_sigma_whose_binder_does_not_occur_is_the_product(tmp_path, formula):
    src = tmp_path / "pairs.mul"
    src.write_text(f"(formula pairs {formula})")
    done = run_subprocess(["eval", "z12", "pairs", str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")


def test_a_projection_into_a_family_of_pairs_reads_the_last_component(
        tmp_path):
    """(proj t 1) of t : (* G (F g)) is t's second component, although
    each member of (F g) is itself a pair."""
    src = tmp_path / "proj.mul"
    src.write_text("""
    (signature s (types G) (fun (F (G) Type)))
    (structure m of s
      (carrier G (a))
      (fun F ((a) (set (pair a a)))))
    (formula probe (forall (g G) (forall (u (F g)) (forall (t (* G (F g)))
      (implies (= (F g) (pr2 t) u) (= (F g) (proj t 1) u))))))
    """)
    done = run_subprocess(["eval", "m", "probe", str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")


@pytest.mark.parametrize("binder, proj", [
    ("(t (* G G))", "(proj t 2)"),
    ("(t G)", "(proj t 0)"),
    ("(t G)", "(proj w 0)"),
])
def test_a_lambda_annotation_whose_projection_does_not_check_mismatches(
        tmp_path, binder, proj):
    """The annotation is compared with the expected domain before it is
    checked; a projection in it that does not check makes it match no
    domain, and the formula is refused as ill-formed."""
    annot = f"(prop (= G {proj} {proj}))"
    src = tmp_path / "annot.mul"
    src.write_text(f"""
    (formula bad (forall {binder} (= (-> (prop top) Prop)
      (lambda (x {annot}) top) (lambda (y (prop top)) top))))
    """)
    done = run_subprocess(["eval", "z12", "bad", str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"formula is not well-formed here: lambda domain annotation "
               f"{annot} does not match expected domain 1\n")


def test_a_type_family_in_term_position_exits_2(tmp_path):
    src = tmp_path / "family.mul"
    src.write_text("""
    (signature s (types G) (fun (F (G) Type) (P () (-> G Prop))) (rel (R (G))))
    (structure m of s
      (carrier G (a))
      (fun F ((a) (set a)))
      (fun P (() (table (a false))))
      (rel R))
    (formula bad (ctx (x G)) (= G (F x) x))
    """)
    done = run_subprocess(["eval", "m", "bad", str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "formula is not well-formed here: type family 'F' used in "
               "term position\n")


def test_a_projection_in_a_signature_type_loads_checks_and_evaluates(
        tmp_path):
    """A symbol's type is stored elaborated, and a context type written
    with the projection is the same type."""
    pointed = "(sigma (p (* G G)) (prop (= G (proj p 0) (proj p 1))))"
    src = tmp_path / "sigproj.mul"
    src.write_text(f"""
    (signature s (types G) (fun (f ({pointed}) G)))
    (structure m of s
      (carrier G (a))
      (fun f (((pair (pair a a) star)) a)))
    (theory t over s (axiom ax (ctx (q {pointed})) (= G (f q) (f q))))
    (formula fq (ctx (q {pointed})) (= G (f q) (f q)))
    """)
    assert run(["model-check", "t", "m", str(src)]) == (
        0, "ax: pass\n1 axiom(s), 1 pass, 0 fail\n", "")
    assert run(["eval", "m", "fq", str(src)]) == (0, "true\n", "")
    ws = load_source(src.read_text())
    assert signature_to_dsl(ws.signatures["s"]) == (
        f"(signature s\n  (types G)\n  (fun (f ({pointed}) G)))")


def test_a_lambda_binder_named_after_a_constant_is_renamed_apart(tmp_path):
    """The second lambda maps b into (F b), not (F e): its binder e must
    not capture the constant e of the expected type (-> G (F e))."""
    src = tmp_path / "capture.mul"
    src.write_text("""
    (signature s (types G) (fun (e () G) (F (G) Type) (g () (pi (y G) (F y)))))
    (structure m of s
      (carrier G (a b))
      (fun e (() a))
      (fun F ((a) (set a b)) ((b) (set a b)))
      (fun g (() (section (a a) (b b)))))
    (formula capl (ctx (c (F e)))
      (= (-> G (F e)) (lambda (e G) c) (lambda (e G) (apply g e))))
    """)
    done = run_subprocess(["eval", "m", "capl", str(src)])
    assert done.returncode == 2 and done.stdout == ""
    assert "type mismatch: (apply g e') has type (F e'), expected (F e)" \
        in done.stderr


DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo.mul"


@pytest.mark.parametrize("formula", [
    "(forall (p Prop) (or p (not p)))",
    "(forall (s (power G)) (forall (x G) (or (apply s x) (not (in x s)))))",
])
def test_a_term_of_type_prop_stands_as_a_formula(tmp_path, formula):
    src = tmp_path / "props.mul"
    src.write_text(f"(formula props {formula})")
    done = run_subprocess(["eval", "z4", "props", str(DEMO), str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")


@pytest.mark.parametrize("goal, exit_code, out", [
    ("(pi (p Prop) (+ (prop p) (-> (prop p) 0)))", 0,
     "inhabited\nproof: {false => (inr (table)); true => (inl star)}\n"),
    ("(pi (p Prop) (prop p))", 1,
     "uninhabited: fiber at false is empty: proposition p is false\n"),
])
def test_a_proposition_variable_is_a_type(tmp_path, goal, exit_code, out):
    src = tmp_path / "goal.mul"
    src.write_text(f"(type goal {goal})")
    done = run_subprocess(["prove", "z4", "goal", str(DEMO), str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (exit_code, out, "")


@pytest.mark.parametrize("quantifier", ["exists", "forall"])
def test_a_quantifier_that_shadows_the_context_captures_no_entry_type(
        tmp_path, quantifier):
    # c is an element of (F k) for the context's k, and the quantifier
    # binds k anew: comparing c at the inner k's (F k) is a type mismatch
    src = tmp_path / "capture.mul"
    src.write_text(f"""
    (signature s (types G) (fun (F (G) Type) (g () (pi (y G) (F y)))))
    (structure m of s
      (carrier G (a b))
      (fun F ((a) (set a)) ((b) (set b)))
      (fun g (() (section (a a) (b b)))))
    (formula cap (ctx (k G) (c (F k)))
      ({quantifier} (k G) (= (F k) c (apply g k))))
    """)
    done = run_subprocess(["eval", "m", "cap", str(src)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "formula is not well-formed here: type mismatch: c has type "
               "(F k), expected (F k')\n")


def test_sizes_stop_growing_at_the_budget(tmp_path):
    big = tmp_path / "big.mul"
    big.write_text("(formula big (forall (x (power (power (power G)))) top))")
    done = run_subprocess(["eval", "z12", "big", str(big)])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("budget exceeded: enumeration of more than "
                           "1000000 elements exceeds the element budget\n")


def test_a_winding_space_past_the_budget_is_refused_before_it_is_built(
        tmp_path):
    path = tmp_path / "big.mul"
    path.write_text("(quiver big winding 100000 0)")
    # a file's declaration that goes over is named by its position
    for argv, where, points, winding, arrows in (
            (["vls", "(winding 12 200000)"], "", 12, 200000, 57600144),
            (["dot", "big", str(path)], f"{path}: 1:1: ", 100000, 0,
             10000000000)):
        done = run_subprocess(argv)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"{where}budget exceeded: winding rule over {points} "
                   f"points with maximum winding {winding} makes {arrows} "
                   f"arrows, more than the element budget (1000000)\n")


# A function type out of (power (power G)) into 1 has one element, but
# its domain has 2^4096: every enumeration of a domain is budgeted.
HUGE_DOMAIN = "(-> (power (power G)) 1)"


@pytest.mark.parametrize("verb, source, where", [
    (["eval", "z12", "f"], f"(formula f (forall (h {HUGE_DOMAIN}) top))", ""),
    (["check"], f"""
     (signature big (types G) (fun (c () {HUGE_DOMAIN})))
     (structure m of big
       (carrier G (0 1 2 3 4 5 6 7 8 9 10 11))
       (fun c (() (table))))""", "{path}: 3:6: "),
], ids=["quantifier", "table-value"])
def test_huge_domains_exit_two_at_once(tmp_path, verb, source, where):
    # a budget met while a file loads is named by its declaration's position
    path = tmp_path / "huge.mul"
    path.write_text(source)
    done = run_subprocess([*verb, str(path)])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (where.format(path=path)
                           + "budget exceeded: enumeration of more than "
                             "1000000 elements exceeds the element budget\n")


def test_forall_over_infinite_tree_type_exits_two(tmp_path):
    path = tmp_path / "trees.mul"
    path.write_text("(formula trees (forall (t (w (p PC) (fin p))) top))")
    assert run(["eval", "z12music", "trees", str(path)]) == (
        2, "", "budget exceeded: tree type (w (p PC) (fin p)) has infinitely "
               "many trees\n")


@pytest.mark.parametrize("binders, conjunct", [
    (MAX_DEPTH - 2, "top"), (MAX_DEPTH - 3, "(= 1 x x)")])
def test_formula_at_the_nesting_limit_evaluates(tmp_path, binders, conjunct):
    # the declaration and the conjunction take the two lists around the
    # binders, and a conjunct that is a list one more
    conjunction = f"(and {' '.join([conjunct] * MAX_DEPTH)})"
    path = tmp_path / "deep.mul"
    path.write_text("(formula deep " + "(forall (x 1) " * binders
                    + conjunction + ")" * binders + ")")
    done = run_subprocess(["eval", "z12", "deep", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")


def test_a_context_longer_than_the_recursion_limit_evaluates(tmp_path):
    path = tmp_path / "wide.mul"
    entries = " ".join(f"(x{i} 1)" for i in range(1500))
    path.write_text(f"(formula wide (ctx {entries}) (= 1 x0 x1499))")
    assert run(["eval", "z12", "wide", str(path)]) == (0, "true\n", "")


def test_numbers_past_the_digit_limit_exit_two_with_a_position(tmp_path):
    path = tmp_path / "long.mul"
    path.write_text("(formula f (= G " + "1" * 5000 + " 0))")
    done = run_subprocess(["check", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"{path}: 1:17: number of 5000 digits is too long\n")
    done = run_subprocess(["prove", "z12", "1" * 5000])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "parse error: 1:1: number of 5000 digits is too long\n")


def test_a_file_that_is_not_utf8_exits_two_with_its_path(tmp_path):
    path = tmp_path / "bad.mul"
    path.write_bytes(b"\xff\xfe")
    done = run_subprocess(["check", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n")


def test_a_file_with_a_utf8_byte_order_mark_loads(tmp_path):
    path = tmp_path / "bom.mul"
    path.write_bytes(b"\xef\xbb\xbf(signature s (types G))")
    done = run_subprocess(["check", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "signature s: ok\n", "")


@pytest.mark.parametrize("goal, reason", [
    ("(w (x 0) 1)", "the tree type has no labels: the empty type has no "
                    "elements"),
    ("(w (x G) 1)", "every label demands branches, so no finite tree exists"),
])
def test_a_tree_type_is_refuted_by_its_labels(goal, reason):
    """An empty label type is the reason when there is one; otherwise
    every label demands a branch."""
    assert run(["prove", "z12", goal]) == (1, f"uninhabited: {reason}\n", "")


def test_small_table_over_a_domain_past_the_budget_is_not_total(tmp_path):
    path = tmp_path / "wide.mul"
    path.write_text("""
    (signature six (types G) (fun (f (G G G G G G) G)))
    (structure w of six (carrier G (0 1 2 3 4 5 6 7 8 9 10 11)) (fun f))""")
    done = run_subprocess(["check", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"{path}: 3:5: table for 'f' is not total: 0 entries for "
               "more than 1000000 argument tuples\n")


@pytest.mark.parametrize("source, reason", [
    ("(signature bad (types G) (fun (f (H) G)))",
     "symbol 'f': unknown base type 'H'"),
    ("""(structure two of group (carrier G (0 1)) (fun star ((0 0) 0))
         (fun e (() 0)) (fun inv ((0) 0) ((1) 1)))""",
     "table for 'star' is not total: missing ('0', '1')"),
], ids=["signature", "structure"])
def test_check_refuses_an_invalid_declaration_while_loading(
        tmp_path, source, reason):
    path = tmp_path / "bad.mul"
    path.write_text(source)
    done = run_subprocess(["check", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"{path}: 1:1: {reason}\n")


@pytest.mark.parametrize("source, where, reason", [
    ("(structure m of group (carrier G (a a b)))",
     "1:37", "element 'a' is named twice in carrier 'G'"),
    ("(structure m of group (carrier G (a)) (carrier G (c)))",
     "1:39", "a second carrier clause for 'G'"),
    ("""(structure m of group (carrier G (a))
         (fun star ((a a) a)) (fun e (() a)) (fun e (() a)))""",
     "2:46", "a second fun clause for 'e'"),
    ("""(signature s (types G) (rel (R (G))))
        (structure m of s (carrier G (a b)) (rel R (a)) (rel R (b)))""",
     "2:57", "a second rel clause for 'R'"),
    ("""(signature s (types G) (fun (f (G) G)))
        (structure m of s (carrier G (a b)) (fun f ((a) a) ((a) b) ((b) a)))""",
     "2:60", "a second entry for 'f' at (a)"),
    ("""(signature s (types G) (fun (F (G) Type)))
        (structure m of s (carrier G (a b))
          (fun F ((a) (set a)) ((b) (set)) ((a) (set b))))""",
     "3:44", "a second entry for 'F' at (a)"),
    ("""(structure loops of vls (carrier Pitch (home)) (carrier Arrow (up down))
          (fun vlr ((home home) (set up up))))""",
     "2:41", "member up is given twice in the fiber of 'vlr' at (home home)"),
    ("""(signature s (types G) (rel (R (G))))
        (structure m of s (carrier G (a b)) (rel R (a) (a)))""",
     "2:56", "tuple (a) is given twice in relation 'R'"),
    ("""(signature s (types A) (fun (s () (power A))))
        (structure m of s (carrier A (a b)) (fun s (() (set a a))))""",
     "2:63", "member a is given twice in a set"),
], ids=["element", "carrier", "fun", "rel", "fun-entry", "family-entry",
        "fiber-member", "rel-tuple", "set-member"])
def test_check_refuses_a_name_or_entry_given_twice(tmp_path, source, where,
                                                   reason):
    path = tmp_path / "twice.mul"
    path.write_text(source)
    assert run(["check", str(path)]) == (2, "", f"{path}: {where}: {reason}\n")


@pytest.mark.parametrize("source, message", [
    ("(structure N 3 of pointed)",
     "1:1: 'structure' is (structure NAME of SIG ...)"),
    ("(theory T 3 over group)",
     "1:1: 'theory' is (theory NAME over SIG (axiom ...) ...)"),
    ("(term N ((x)) x)", "1:9: expected (ctx (x A) ...) or a context name"),
    ("(theory T over group ((x) (ctx) top))",
     "1:22: expected (axiom [label] (ctx ...) FORMULA)"),
], ids=["structure-of", "theory-over", "ctx", "axiom"])
def test_a_keyword_that_is_no_symbol_gets_its_form_s_message(tmp_path, source,
                                                             message):
    path = tmp_path / "keyword.mul"
    path.write_text(source)
    assert run(["check", str(path)]) == (2, "", f"{path}: {message}\n")


def test_ill_typed_axiom_is_not_model_checked(tmp_path):
    path = tmp_path / "mixed.mul"
    path.write_text("""
    (theory mixed over gis
      (axiom points-are-intervals (ctx (a S) (b IVLS)) (= S a b)))""")
    reason = "type mismatch: b has type IVLS, expected S"
    refused = (f"{path}: 3:7: axiom points-are-intervals is not well-formed "
               f"over gis: {reason}\n")
    for argv in (["model-check", "mixed", "z12gis"], ["check"]):
        done = run_subprocess([*argv, str(path)])
        assert (done.returncode, done.stdout, done.stderr) == (2, "", refused)
    formula = tmp_path / "formula.mul"
    formula.write_text("(formula same (ctx (a S) (b IVLS)) (= S a b))")
    done = run_subprocess(["eval", "z12gis", "same", str(formula)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"formula is not well-formed here: {reason}\n")


@pytest.mark.parametrize("argv", [
    ["check"], ["model-check", "broken", "z12"], ["eval", "z12", "ok"],
    ["vls", "ti-quiver"]], ids=["check", "model-check", "eval", "vls"])
def test_every_verb_refuses_a_file_with_an_ill_formed_axiom(tmp_path, argv):
    path = tmp_path / "broken.mul"
    path.write_text("(theory broken over group\n"
                    "  (axiom oops (ctx (a G)) (= G a missing)))\n"
                    "(formula ok (ctx (a G)) (= G a a))\n")
    done = run_subprocess([*argv, str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"{path}: 2:3: axiom oops is not well-formed over group: "
               "unbound variable 'missing'\n")


def test_wide_nary_form_fails_with_a_position(tmp_path):
    wide = tmp_path / "wide.mul"
    wide.write_text("\n(type wide (* " + "G " * 1500 + "))")
    assert run(["prove", "z12", "wide", str(wide)]) == (
        2, "", f"{wide}: 2:12: '*' takes at most {MAX_DEPTH} types\n")
    wide.write_text("(type wide (* " + "G " * MAX_DEPTH + "))")
    code, out, err = run(["prove", "z12", "wide", str(wide)])
    assert (code, err) == (0, "")
    assert out == "inhabited\nproof: " + "(0, " * (MAX_DEPTH - 1) + "0" \
        + ")" * (MAX_DEPTH - 1) + "\n"


@pytest.mark.parametrize("raw", ["-5", "0"])
def test_non_positive_budget_variable_exits_two(monkeypatch, raw):
    monkeypatch.setenv("MULINGUA_BUDGET", raw)
    code, out, err = run(["model-check", "group", "z12"])
    assert code == 2 and out == ""
    assert f"MULINGUA_BUDGET must be a positive integer, got '{raw}'" in err


@pytest.mark.parametrize("raw, problem", [
    ("-5", "a positive integer, got '-5'"),
    ("0", "a positive integer, got '0'"),
    ("many", "an integer, got 'many'"),
])
@pytest.mark.parametrize("argv", [["model-check", "group", "z12"],
                                  ["vls", "ti-quiver"], ["autos", "ti-quiver"]])
def test_malformed_budget_variable_is_not_an_exceeded_budget(
        monkeypatch, raw, problem, argv):
    monkeypatch.setenv("MULINGUA_BUDGET", raw)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: MULINGUA_BUDGET must be {problem}\n"

