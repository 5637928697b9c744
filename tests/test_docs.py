"""The documentation agrees with the program: every documented command
line prints and exits as recorded, the README names every built-in, its
grammar names every keyword the reader knows, and its source blocks show
every declaration form the loader knows."""

import dataclasses
import io
import json
import pathlib
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mulingua import musiclib, voiceleading
from mulingua.cli import main
from mulingua.dsl import _FORMS, Workspace, builtin_workspace, load_source
from mulingua.syntax import SUGAR, _KEYWORDS

from generators import calls_into

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# The exit code, standard output and standard error of each documented
# command, keyed by its arguments; the exit codes are the ones the
# commands' comments promise (a refutation is 1, a refused budget is 2).
RECORDED = json.loads(
    (ROOT / "tests" / "documented_commands.json").read_text(encoding="utf-8"))


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
    assert len(COMMANDS) == 19
    assert set(RECORDED) == {" ".join(argv) for argv in COMMANDS}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_documented_command_exits_as_documented(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MULINGUA_BUDGET", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert {"exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()} == RECORDED[" ".join(argv)]


def test_readme_lists_every_builtin_name():
    text = README.split("resolves built-in names (", 1)[1].split(")", 1)[0]
    listed = {}
    for group in text.split(";"):
        kind, names = group.split(None, 1)
        listed[kind] = re.findall(r"`([^`]+)`", names)
    with calls_into(musiclib, voiceleading) as called:
        ws = builtin_workspace()
        tables = {f.name: list(getattr(ws, f.name))
                  for f in dataclasses.fields(Workspace)
                  if f.name != "declared"}
    assert called == []
    assert listed == {kind: names for kind, names in tables.items() if names}


def test_every_readme_source_block_loads():
    blocks = re.findall(r"```lisp\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 2
    for block in blocks:
        load_source(block)


def test_readme_grammar_names_every_keyword():
    section = README.split("## The `.mul` source language", 1)[1]
    section = re.sub(r"```.*?```", "", section.split("\n## ", 1)[0], flags=re.S)
    spans = re.findall(r"`([^`]+)`", section)
    forms = {head for span in spans for head in re.findall(r"\(([^\s()]+)", span)}
    forms |= {span for span in spans if re.fullmatch(r"[^\s()]+", span)}
    keywords = {*_KEYWORDS.values(), *SUGAR}
    assert keywords <= forms, keywords - forms


def test_readme_shows_every_declaration_form():
    section = README.split("## The `.mul` source language", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```lisp\n(.*?)```", section, flags=re.S)
    heads = {head for block in blocks
             for head in re.findall(r"^\(([^\s()]+)", block, flags=re.M)}
    assert set(_FORMS) <= heads, set(_FORMS) - heads


def test_library_tour_prints_what_its_comments_promise():
    tour = README.split("## Library tour", 1)[1]
    tour = tour.split("```python", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-4:] == [
        "288", "2", "['(atom Arrow 1)', '(atom Arrow 0)']", "True 3"]
