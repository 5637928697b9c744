"""S-expression reader and writer.

The reader produces position-tagged nodes: every atom and list carries
the 1-based line and column where it started, so later passes can point
at the offending expression.  Atoms are symbols, integers, exact
rationals (``19/2``), or double-quoted strings; ``;`` starts a comment
to end of line.  Lists nest at most ``MAX_DEPTH`` deep, so that reading
and every later pass over the nodes stay well within Python's recursion
limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .diagnostics import ParseError

_INT = re.compile(r"[+-]?[0-9]+$")
_RATIONAL = re.compile(r"[+-]?[0-9]+/[0-9]+$")
_DELIMITERS = set(" \t\r\n();\"")
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
    nodes, pos = _Reader(text).read_all()
    return nodes


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.depth = 0

    def read_all(self) -> tuple[list[SNode], int]:
        nodes = []
        while True:
            self._skip_blank()
            if self.pos >= len(self.text):
                return nodes, self.pos
            nodes.append(self._read())

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _advance(self) -> str:
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def _skip_blank(self) -> None:
        while self.pos < len(self.text):
            c = self._peek()
            if c in " \t\r\n":
                self._advance()
            elif c == ";":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _read(self) -> SNode:
        self._skip_blank()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.line, self.col)
        line, col = self.line, self.col
        c = self._peek()
        if c == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(
                    f"expressions nested more than {MAX_DEPTH} deep", line, col)
            self._advance()
            self.depth += 1
            items = []
            while True:
                self._skip_blank()
                if self.pos >= len(self.text):
                    raise ParseError("unclosed '('", line, col)
                if self._peek() == ")":
                    self._advance()
                    self.depth -= 1
                    return SNode(items, line, col)
                items.append(self._read())
        if c == ")":
            raise ParseError("unexpected ')'", line, col)
        if c == '"':
            return SNode(self._read_string(), line, col)
        return SNode(self._read_atom(), line, col)

    def _read_string(self) -> str:
        line, col = self.line, self.col
        self._advance()
        out = []
        while True:
            if self.pos >= len(self.text):
                raise ParseError("unterminated string", line, col)
            c = self._advance()
            if c == '"':
                return "".join(out)
            if c == "\\":
                if self.pos >= len(self.text):
                    raise ParseError("unterminated string", line, col)
                out.append(self._advance())
            else:
                out.append(c)

    def _read_atom(self) -> SValue:
        line, col = self.line, self.col
        start = self.pos
        while self.pos < len(self.text) and self._peek() not in _DELIMITERS:
            self._advance()
        token = self.text[start:self.pos]
        if _INT.match(token):
            return int(token)
        if _RATIONAL.match(token):
            try:
                return Fraction(token)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {token!r}", line, col) from None
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
