"""Each reference checker accepts the program's right answer and flags a
deliberately wrong one.

    python3 -m pytest perfbench/test_checkers.py
"""

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mulingua.dsl as dsl  # noqa: E402
from mulingua.semantics import (  # noqa: E402
    Atom, FinSet, PairV, SectionV, StarV, check_theory,
)

import references  # noqa: E402
import workloads  # noqa: E402
from cli_cases import CASES  # noqa: E402


def _allinterval(chord):
    w = workloads.AllInterval(0, HERE)
    w.set_up()
    return w.run(chord)


def test_allinterval_checker():
    chord = (0, 1, 4, 6)
    proof = _allinterval(chord)
    assert references.check_allinterval(chord, proof)
    entries = list(proof.value.entries)
    ic, witness = entries[2]
    pair, star = witness.first, witness.second
    # a pair realizing the class, but not the first one
    entries[2] = (ic, PairV(PairV(pair.second, pair.first), star))
    wrong = SimpleNamespace(value=SectionV(tuple(entries)))
    assert not references.check_allinterval(chord, wrong)
    assert not references.check_allinterval(chord, None)
    assert not references.check_allinterval((0, 1, 2, 3), proof)
    assert references.check_allinterval((0, 1, 2, 3), None)


def test_allinterval_reference_agrees_on_seeded_chords():
    rng = random.Random(7)
    for _ in range(40):
        chord = tuple(p for p in range(12) if rng.random() < 0.5)
        assert references.check_allinterval(chord, _allinterval(chord))


def _modelcheck(spec):
    ws = dsl.load_source(workloads.CORPUS_HEADER + workloads.structure_source(
        spec, random.Random(1)))
    theory = ws.theories["bgis-laws" if spec.is_gis else "bgroup-laws"]
    return check_theory(ws.structures[spec.name], theory, spec.name)


def test_modelcheck_reference_by_hand():
    sub = references.ModelSpec("subtraction5", "subtraction", 5, (0, 1, 2, 3, 4))
    assert references.modelcheck_expected(sub) == (
        ("associativity", False, (("a", "x0"), ("b", "x0"), ("c", "x1"))),
        ("identity", False, (("g", "x1"),)),
        ("inverses", False, (("g", "x1"),)),
    )
    cyclic = dataclasses.replace(sub, name="cyclic5", kind="cyclic")
    assert all(passed for _, passed, _ in references.modelcheck_expected(cyclic))


def test_modelcheck_checker():
    specs = [
        references.ModelSpec("cyclic6", "cyclic", 6, (3, 0, 5, 1, 4, 2)),
        references.ModelSpec("subtraction6", "subtraction", 6, (2, 5, 0, 1, 3, 4)),
        references.ModelSpec("const-gis5", "const-gis", 5, (4, 2, 0, 1, 3),
                             (1, 3, 0, 4, 2)),
    ]
    for spec in specs:
        report = _modelcheck(spec)
        assert references.check_modelcheck(spec, report)
        results = list(report.results)
        first = results[0]
        results[0] = dataclasses.replace(first, passed=not first.passed)
        assert not references.check_modelcheck(
            spec, SimpleNamespace(results=tuple(results)))
    report = _modelcheck(specs[1])
    bad = report.results[0]
    (a, va), (b, vb), (c, vc) = bad.counterexample
    later = Atom(vc.carrier, vc.index + 1)  # a later assignment, not the first
    moved = dataclasses.replace(bad, counterexample=((a, va), (b, vb), (c, later)))
    results = (moved,) + report.results[1:]
    assert not references.check_modelcheck(
        specs[1], SimpleNamespace(results=results))


def _quivers():
    w = workloads.Quivers(0, HERE)
    w.set_up()
    return w


def test_explicit_quiver_checker():
    w = _quivers()
    item = ("explicit", 2, ((0, 1), (1, 0), (0, 0)))
    homs = w.run(item)
    oracle = references.automorphism_oracle(2, item[2])
    assert references.check_explicit_quiver(2, item[2], homs, oracle)
    assert not references.check_explicit_quiver(2, item[2], homs[:-1], oracle)
    assert not references.check_explicit_quiver(
        2, item[2], homs + homs[:1], oracle)
    assert references.check_explicit_quiver(
        2, ((0, 1), (1, 0)), w.run(("explicit", 2, ((0, 1), (1, 0)))),
        references.automorphism_oracle(2, ((0, 1), (1, 0))))


def test_ti_checker():
    w = _quivers()
    q, homs, verdicts = w.run(("ti", 12))
    assert references.check_ti(12, q, homs, verdicts)
    assert not references.check_ti(12, q, homs[1:] + homs[:1], verdicts)
    assert not references.check_ti(11, q, homs, verdicts)
    failed = list(verdicts)
    failed[5] = False
    assert not references.check_ti(12, q, homs, failed)
    h = homs[3]
    arrow, image = next(iter(h.gamma1.items()))
    wrong = dict(h.gamma1)
    wrong[arrow] = PairV(image.first, Atom("TI", (image.second.index + 1) % 24))
    swapped = list(homs)
    swapped[3] = dataclasses.replace(h, gamma1=wrong)
    assert not references.check_ti(12, q, swapped, verdicts)
    assert references.check_ti(9, *w.run(("ti", 9)))


def test_winding_checker():
    w = _quivers()
    q = w.run(("winding", 12, 1))
    assert references.check_winding(q, 12, 1)
    assert not references.check_winding(q, 12, 2)
    fewer = SimpleNamespace(vertices=q.vertices,
                            arrows=FinSet(tuple(q.arrows)[1:]))
    assert not references.check_winding(fewer, 12, 1)


def test_cli_checker():
    case = CASES[2]
    assert references.check_cli(case, case.returncode, case.stdout)
    assert not references.check_cli(case, 0, case.stdout)
    assert not references.check_cli(
        case, case.returncode, case.stdout.replace("(c 1)", "(c 2)"))


def test_plain_rejects_unknown_values():
    assert references.plain(PairV(Atom("PC", 1), StarV())) == (("PC", 1), "*")
    try:
        references.plain(3)
    except ValueError:
        pass
    else:
        raise AssertionError("plain accepted an int")


def test_fails_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, copy / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
