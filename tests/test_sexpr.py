"""The S-expression reader: values, positions and error texts, pinned."""

import hashlib
import random
from fractions import Fraction

import pytest

from mulingua.diagnostics import ParseError
from mulingua.sexpr import MAX_DEPTH, Sym, parse_sexprs


def describe(node):
    """A plain, version-independent rendering of a node and its position."""
    v = node.value
    if isinstance(v, list):
        shown = ("list", [describe(item) for item in v])
    elif isinstance(v, Sym):
        shown = ("Sym", v.text)
    elif isinstance(v, Fraction):
        shown = ("Fraction", v.numerator, v.denominator)
    else:
        shown = (type(v).__name__, v)
    return (*shown, node.line, node.col)


def outcome(text):
    try:
        return ("ok", [describe(node) for node in parse_sexprs(text)])
    except ParseError as err:
        return ("error", str(err), err.line, err.column)


@pytest.mark.parametrize("text, expected", [
    ("(a\r\n b)", ("ok", [("list", [("Sym", "a", 1, 2), ("Sym", "b", 2, 2)],
                           1, 1)])),
    ("\t(a\tb)", ("ok", [("list", [("Sym", "a", 1, 3), ("Sym", "b", 1, 5)],
                          1, 2)])),
    ('("x\ny" z)', ("ok", [("list", [("str", "x\ny", 1, 2),
                                     ("Sym", "z", 2, 4)], 1, 1)])),
    ('"a\\"b\\\\"', ("ok", [("str", 'a"b\\', 1, 1)])),
    ('"ab\\', ("error", "1:1: unterminated string", 1, 1)),
    ('(\n "ab\\', ("error", "2:2: unterminated string", 2, 2)),
    ('"ab', ("error", "1:1: unterminated string", 1, 1)),
    ('a"b"c', ("ok", [("Sym", "a", 1, 1), ("str", "b", 1, 2),
                      ("Sym", "c", 1, 5)])),
    ("+5", ("ok", [("int", 5, 1, 1)])),
    ("-3/4", ("ok", [("Fraction", -3, 4, 1, 1)])),
    ("6/4 +1/2 1/2/3 5/ /5", ("ok", [
        ("Fraction", 3, 2, 1, 1), ("Fraction", 1, 2, 1, 5),
        ("Sym", "1/2/3", 1, 10), ("Sym", "5/", 1, 16), ("Sym", "/5", 1, 19)])),
    ("(a) ; comment at the end", ("ok", [("list", [("Sym", "a", 1, 2)], 1, 1)])),
    ("(a;b\n c)", ("ok", [("list", [("Sym", "a", 1, 2), ("Sym", "c", 2, 2)],
                           1, 1)])),
    ("a\fb a\u00a0b a\vb", ("ok", [("Sym", "a\fb", 1, 1),
                                  ("Sym", "a\u00a0b", 1, 5),
                                  ("Sym", "a\vb", 1, 9)])),
    ("", ("ok", [])),
    ("()", ("ok", [("list", [], 1, 1)])),
    ("(a (b (c)", ("error", "1:4: unclosed '('", 1, 4)),
    ("(a (b (c", ("error", "1:7: unclosed '('", 1, 7)),
    (" \r\r(x", ("error", "1:4: unclosed '('", 1, 4)),
    ("(a))", ("error", "1:4: unexpected ')'", 1, 4)),
    ("\n  )", ("error", "2:3: unexpected ')'", 2, 3)),
    ("(rt\n 1/0)", ("error", "2:2: zero denominator in '1/0'", 2, 2)),
    ('(1/0 "', ("error", "1:2: zero denominator in '1/0'", 1, 2)),
    ('(a "b', ("error", "1:4: unterminated string", 1, 4)),
    pytest.param("1" * 5000, ("error", "1:1: number of 5000 digits is too long",
                              1, 1), id="5000-digit integer"),
    pytest.param("(x\n -" + "9" * 5000 + "/7)", (
        "error", "2:2: number of 5001 digits is too long", 2, 2),
        id="5000-digit numerator"),
])
def test_named_inputs(text, expected):
    assert outcome(text) == expected


def test_nesting_limit():
    at_limit = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    (node,) = parse_sexprs(at_limit)
    for depth in range(MAX_DEPTH - 1):
        (node,) = node.value
    assert node.value[0].value == Sym("x") and node.col == MAX_DEPTH
    past = "\n " + "(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1)
    assert outcome(past) == (
        "error", f"2:{MAX_DEPTH + 2}: expressions nested more than "
                 f"{MAX_DEPTH} deep", 2, MAX_DEPTH + 2)
    assert outcome("(" * 300)[:2] == (
        "error", f"1:{MAX_DEPTH + 1}: expressions nested more than "
                 f"{MAX_DEPTH} deep")
    assert outcome("(" * MAX_DEPTH) == ("error", f"1:{MAX_DEPTH}: unclosed '('",
                                        1, MAX_DEPTH)


# Characters the random inputs are drawn from, repeated to weight them.
ALPHABET = ('(((()))) "";\\  \t\r\n\n' + "0123456789" + "//+-" + "abxyz" * 2
            + "\f\u00a0")
RANDOM_INPUTS = 20_000
RANDOM_DIGEST = (
    "8a38c075c02332f63d5b281b701b3f5d7a8f4111d7adcf11c78f49376ee7a94f")


def test_random_inputs_match_the_pinned_digest():
    rng = random.Random(20_250_601)
    digest = hashlib.sha256()
    for _ in range(RANDOM_INPUTS):
        text = "".join(rng.choice(ALPHABET)
                       for _ in range(rng.randrange(40)))
        digest.update(repr(outcome(text)).encode("utf-8"))
    assert digest.hexdigest() == RANDOM_DIGEST
