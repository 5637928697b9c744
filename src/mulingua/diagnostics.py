"""Error types and the boolean-with-diagnostic result used by all checkers."""

from __future__ import annotations

from .records import _Node, _node, _set


class MulinguaError(Exception):
    """Base class for all library errors."""


class ParseError(MulinguaError):
    """Malformed source text; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class TypeCheckError(MulinguaError):
    """A judgment failed; the message names the leftmost-innermost failure."""


class StructureError(MulinguaError):
    """A model violates a totality or compatibility requirement."""


class BudgetError(MulinguaError):
    """An enumeration would exceed the configured element budget."""


@_node
class Verdict(_Node):
    """Outcome of a check: truthiness plus a human-readable reason on failure."""

    ok: bool
    reason: str = ""

    def __init__(self, ok: bool, reason: str = "") -> None:
        _set(self, "ok", ok)
        _set(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def passed() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def failed(reason: str) -> "Verdict":
        return Verdict(False, reason)
