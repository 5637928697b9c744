"""S-expression reader and writer.

The reader produces position-tagged nodes: every atom and list carries
the 1-based line and column where it started, so later passes can point
at the offending expression.  Atoms are symbols, integers, exact
rationals (``19/2``), or double-quoted strings, in which a backslash
takes the next character literally; ``;`` starts a comment to end of
line.  Only space, tab, CR and LF separate tokens.

Reading is iterative: one regular expression splits the text into
tokens and an explicit stack holds the open lists, so reading itself
never recurses.  Lists still nest at most ``MAX_DEPTH`` deep, because
every later pass over the nodes (resolution, checking, evaluation,
printing) does recurse and must stay within Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .diagnostics import ParseError

_INT = re.compile(r"[+-]?[0-9]+$")
_RATIONAL = re.compile(r"[+-]?[0-9]+/[0-9]+$")
_TOKEN = re.compile(r"""
    (?P<blank>[ \t\r\n]+)
  | (?P<comment>;[^\n]*)
  | (?P<bracket>[()])
  | (?P<string>"(?:[^"\\]|\\.)*(?P<closed>")?)
  | (?P<atom>[^ \t\r\n();"]+)
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
MAX_DEPTH = 256


@dataclass(frozen=True)
class Sym:
    text: str

    def __repr__(self) -> str:
        return self.text


SValue = Union[Sym, int, Fraction, str, list]


@dataclass
class SNode:
    value: SValue
    line: int
    col: int

    @property
    def is_list(self) -> bool:
        return isinstance(self.value, list)

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)


def parse_sexprs(text: str) -> list[SNode]:
    """Read every top-level expression in the text."""
    stack = [SNode([], 1, 1)]  # the top level, then each open list
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, token, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if token == "(":
            if len(stack) > MAX_DEPTH:
                raise ParseError(
                    f"expressions nested more than {MAX_DEPTH} deep", line, col)
            node = SNode([], line, col)
            stack[-1].value.append(node)
            stack.append(node)
        elif token == ")":
            if len(stack) == 1:
                raise ParseError("unexpected ')'", line, col)
            stack.pop()
        elif kind == "string":
            if m.group("closed") is None:
                raise ParseError("unterminated string", line, col)
            stack[-1].value.append(
                SNode(_ESCAPE.sub(r"\1", token[1:-1]), line, col))
        elif kind == "atom":
            stack[-1].value.append(SNode(_atom(token, line, col), line, col))
        newlines = token.count("\n")
        if newlines:
            line += newlines
            line_start = text.rindex("\n", start, m.end()) + 1
    if len(stack) > 1:
        raise stack[-1].error("unclosed '('")
    return stack[0].value


def _atom(token: str, line: int, col: int) -> SValue:
    try:
        if _INT.match(token):
            return int(token)
        if _RATIONAL.match(token):
            return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}", line, col) from None
    except ValueError:  # more digits than Python converts to a number
        digits = sum(c.isdigit() for c in token)
        raise ParseError(
            f"number of {digits} digits is too long", line, col) from None
    return Sym(token)


def write_sexpr(value) -> str:
    """Render plain data (lists, symbols, numbers, strings) back to
    source text."""
    if isinstance(value, SNode):
        return write_sexpr(value.value)
    if isinstance(value, list):
        return "(" + " ".join(write_sexpr(v) for v in value) + ")"
    if isinstance(value, Sym):
        return value.text
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot write {value!r} as an s-expression")
