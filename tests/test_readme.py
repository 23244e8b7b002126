"""The README's examples: every `cyclodet` command in its shell blocks parses
with the CLI's own parser, the `classno` examples print what the comments
beside them say, and the console script that `pyproject.toml` installs is the
CLI's `main`."""
import re
import shlex
from pathlib import Path

import pytest

from cyclodet import cli

ROOT = Path(__file__).resolve().parents[1]


def commands() -> list[tuple[list[str], str]]:
    """(arguments, comment) of each `cyclodet …` line in the README's sh blocks."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for line in block.splitlines():
            if line.startswith("cyclodet "):
                command, _, comment = line.partition("#")
                out.append((shlex.split(command)[1:], comment.strip()))
    return out


def test_every_command_parses():
    found, parser = commands(), cli.build_parser()
    assert found  # the pattern still finds the examples
    for argv, _ in found:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"cyclodet {shlex.join(argv)} does not parse")


def test_classno_examples_print_their_comments(capsys):
    examples = [(argv, comment) for argv, comment in commands() if argv[0] == "classno"]
    assert examples
    for argv, comment in examples:
        assert cli.main(argv) == 0
        assert ", ".join(capsys.readouterr().out.splitlines()) == comment


def test_console_script_is_the_cli():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"cyclodet": "cyclodet.cli:main"}
