"""README's command-line examples, run as shown.

Every ``$ boxbc ...`` line in the "Command line" section runs through
``cli.main``, in order and in one temporary directory, since a later example
may read a file an earlier one wrote.  Its stdout must equal the lines shown
under it, or their first N lines for ``| head -N``.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from boxbc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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
