"""The tracer's bookkeeping: self time, nesting, wrapping and unwrapping.

    python3 -m pytest perfbench/test_tracer.py
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mulingua.musiclib as musiclib  # noqa: E402
import mulingua.proofs as proofs  # noqa: E402
import mulingua.semantics as semantics  # noqa: E402

from tracer import Tracer  # noqa: E402


def test_self_time_excludes_child_spans():
    t = Tracer()
    with t.span("bench.op"):
        with t.span("a.f"):
            time.sleep(0.02)
        time.sleep(0.01)
    calls, inclusive, self_s, _ = t.stats["bench.op"]
    child = t.stats["a.f"][1]
    assert calls == 1
    assert child >= 0.02 and inclusive >= 0.03
    assert abs(self_s - (inclusive - child)) < 1e-9
    assert t.layer_inclusive["a"] == child
    assert [span[2] for span in t.spans] == ["a.f", "bench.op"]
    assert t.spans[0][1] == t.spans[1][0]  # the child names its parent


def test_nested_spans_of_one_key_count_once():
    t = Tracer()
    with t.span("a.f"):
        with t.span("b.g"):
            with t.span("a.f"):
                time.sleep(0.01)
    calls, inclusive, _, _ = t.stats["a.f"]
    assert calls == 2
    assert inclusive == t.layer_inclusive["a"]
    assert inclusive < 2 * t.stats["b.g"][1]


def test_install_wraps_every_binding_and_uninstall_restores():
    original = semantics.type_size
    st = musiclib.z_music_structure(12)
    t = Tracer().install()
    try:
        assert proofs.type_size is semantics.type_size
        assert semantics.type_size is not original
        goal = proofs.all_interval_type(
            st, [semantics.Atom("PC", p) for p in (0, 1, 4, 6)])
        assert proofs.inhabit(st, goal) is not None
    finally:
        t.uninstall()
    assert semantics.type_size is original and proofs.type_size is original
    assert t.function_calls("proofs.inhabit") == 1
    assert t.function_calls("proofs.all_interval_type") == 1
    assert t.function_calls("semantics.type_size") > 0
    assert t.function_items("semantics.iter_type") > 0
    assert 0 < t.function_seconds("semantics.eval_formula") \
        <= t.layer_inclusive["semantics"]
    assert not t.stack
