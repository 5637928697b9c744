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
    assert (code, out, err) == (2, "", "error: cannot enumerate Type\n")


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


def test_autos_budget_refusal():
    code, _, err = run(["autos", "ti-quiver", "--budget", "1"])
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
    code, out, _ = run(["check", str(src)])
    assert code == 1
    assert "FAIL" in out and "unbound variable" in out


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
    code, out, _ = run(["vls", "z12", "winding:12:1"])
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
    code, out, _ = run(["vls", "r2", "action:X:act", str(src)])
    assert code == 0 and out == "vertices: 2\narrows: 4\n"


def test_vls_table_rule_on_a_declared_structure():
    demo = str(pathlib.Path(__file__).resolve().parent.parent / "demo.mul")
    code, out, err = run(["vls", "loops", "table", demo])
    assert (code, out, err) == (0, "vertices: 1\narrows: 2\n", "")


def test_vls_table_rule_needs_the_pitch_arrow_signature():
    code, out, err = run(["vls", "z12", "table"])
    assert (code, out) == (2, "")
    assert "structure is not over the pitch/arrow signature" in err


@pytest.mark.parametrize("rule", ["winding:a:1", "winding:12:1.5",
                                  "winding:12", "winding:12:1:1"])
def test_malformed_winding_rule_exits_two(rule):
    code, out, err = run(["vls", "z12", rule])
    assert (code, out, err) == (2, "", "winding rules are winding:N:W\n")


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
    "member": (0, "true\n"),
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


def test_sizes_stop_growing_at_the_budget(tmp_path):
    big = tmp_path / "big.mul"
    big.write_text("(formula big (forall (x (power (power (power G)))) top))")
    done = run_subprocess(["eval", "z12", "big", str(big)])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("budget exceeded: enumeration of more than "
                           "1000000 elements exceeds the element budget\n")


# A function type out of (power (power G)) into 1 has one element, but
# its domain has 2^4096: every enumeration of a domain is budgeted.
HUGE_DOMAIN = "(-> (power (power G)) 1)"


@pytest.mark.parametrize("verb, source", [
    (["eval", "z12", "f"], f"(formula f (forall (h {HUGE_DOMAIN}) top))"),
    (["check"], f"""
     (signature big (types G) (fun (c () {HUGE_DOMAIN})))
     (structure m of big
       (carrier G (0 1 2 3 4 5 6 7 8 9 10 11))
       (fun c (() (table))))"""),
], ids=["quantifier", "table-value"])
def test_huge_domains_exit_two_at_once(tmp_path, verb, source):
    path = tmp_path / "huge.mul"
    path.write_text(source)
    done = run_subprocess([*verb, str(path)])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("budget exceeded: enumeration of more than "
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


def test_ill_typed_axiom_is_not_model_checked(tmp_path):
    path = tmp_path / "mixed.mul"
    path.write_text("""
    (theory mixed over gis
      (axiom points-are-intervals (ctx (a S) (b IVLS)) (= S a b)))
    (formula same (ctx (a S) (b IVLS)) (= S a b))""")
    reason = "type mismatch: b has type IVLS, expected S"
    done = run_subprocess(["model-check", "mixed", "z12gis", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"axiom points-are-intervals is not well-formed here: {reason}\n")
    done = run_subprocess(["eval", "z12gis", "same", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"formula is not well-formed here: {reason}\n")
    done = run_subprocess(["check", str(path)])
    assert (done.returncode, done.stderr) == (1, "")
    assert f"theory mixed: FAIL points-are-intervals: {reason}\n" in done.stdout


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
    ("many", "an integer, got 'many'"),
])
@pytest.mark.parametrize("argv", [["model-check", "group", "z12"],
                                  ["vls", "ti-quiver"]])
def test_malformed_budget_variable_is_not_an_exceeded_budget(
        monkeypatch, raw, problem, argv):
    monkeypatch.setenv("MULINGUA_BUDGET", raw)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: MULINGUA_BUDGET must be {problem}\n"


@pytest.mark.parametrize("raw", ["-5", "0", "many"])
def test_autos_budget_flag_must_be_positive(raw, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["autos", "ti-quiver", f"--budget={raw}"])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err
