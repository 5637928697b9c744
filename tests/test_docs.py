"""The documentation agrees with the program: every documented command
line exits as documented, and the README grammar names every keyword
the reader knows."""

import io
import pathlib
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mulingua.cli import main
from mulingua.syntax import _KEYWORDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# Documented commands that do not exit 0, with the exit code their
# comments promise: a refutation is 1, a refused budget is 2.
NONZERO = {
    "model-check group z12-sub": 1,
    "model-check commutative s3ish demo.mul": 1,
    "eval z4 squares-cover demo.mul": 1,
    "autos ti-quiver --budget 1": 2,
}


def _readme_commands():
    block = README.split("## Command line", 1)[1].split("```sh", 1)[1]
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("mulingua "):
            yield shlex.split(line, comments=True)[1:]


def _demo_commands():
    for line in (ROOT / "demo.mul").read_text(encoding="utf-8").splitlines():
        if not line.startswith(";"):
            break
        text = line.lstrip("; ")
        if text.startswith("mulingua "):
            yield shlex.split(text.split(";", 1)[0])[1:]


COMMANDS = [*_readme_commands(), *_demo_commands()]


def test_every_documented_command_is_found():
    assert len(COMMANDS) == 16
    assert set(NONZERO) <= {" ".join(argv) for argv in COMMANDS}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_documented_command_exits_as_documented(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MULINGUA_BUDGET", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == NONZERO.get(" ".join(argv), 0), err.getvalue()


def test_readme_grammar_names_every_keyword():
    section = README.split("## The `.mul` source language", 1)[1]
    section = re.sub(r"```.*?```", "", section.split("\n## ", 1)[0], flags=re.S)
    spans = re.findall(r"`([^`]+)`", section)
    forms = {head for span in spans for head in re.findall(r"\(([^\s()]+)", span)}
    forms |= {span for span in spans if re.fullmatch(r"[^\s()]+", span)}
    assert set(_KEYWORDS.values()) <= forms, set(_KEYWORDS.values()) - forms


def test_library_tour_prints_what_its_comments_promise():
    tour = README.split("## Library tour", 1)[1]
    tour = tour.split("```python", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-4:] == [
        "288", "2", "['(atom Arrow 1)', '(atom Arrow 0)']", "True 3"]
