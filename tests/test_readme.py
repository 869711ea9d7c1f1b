"""README's examples, run as shown.

Every ``$ boxbc ...`` line in the "Command line" section runs through
``cli.main``, in order and in one temporary directory, since a later example
may read a file an earlier one wrote.  Its stdout must equal the lines shown
under it, or their first N lines for ``| head -N``.  The "Library quickstart"
block runs statement by statement, and each expression's ``repr`` must equal
the value its comment starts with.  The "Layout" block names every module,
and every ``*.py`` name the README mentions exists.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

from boxbc.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _command_line_examples() -> list[tuple[str, list[str]]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            while shown and not shown[-1]:
                shown.pop()
            examples.append((command, shown))
    return examples


def test_readme_command_line_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    examples = _command_line_examples()
    assert examples, "no '$ boxbc' example found in README's Command line section"
    for line, shown in examples:
        command, _, head = line.partition(" | head -")
        program, *argv = shlex.split(command)
        assert program == "boxbc", line
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), line
        out = captured.out.splitlines()
        assert (out[: int(head)] if head else out) == shown, line


def test_readme_library_quickstart():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = source.splitlines()
    namespace: dict = {}
    shown_values = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        shown = re.match(r"Fraction\(\d+, \d+\)|\d+", comment)
        assert shown, f"line {node.lineno}: the comment shows no value"
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert repr(value) == shown.group(), lines[node.lineno - 1]
        shown_values.append(shown.group())
    assert shown_values == ["Fraction(32, 3)", "Fraction(32, 3)", "6", "Fraction(37, 2)", "Fraction(32, 3)", "256"]


def test_readme_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\nsrc/boxbc/\n(.*?)```", section, re.S).group(1)
    named = [line.split()[0] for line in block.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "boxbc").glob("*.py") if not p.name.startswith("__"))
    assert sorted(named) == modules


def test_readme_names_only_existing_files():
    # a bare name is a module in src/boxbc/, anything else a path from the repository root
    named = set(re.findall(r"[\w./-]+\.py\b", README.read_text(encoding="utf-8")))
    missing = sorted(n for n in named if not (ROOT / n if "/" in n else ROOT / "src" / "boxbc" / n).is_file())
    assert named and missing == []
