"""The CI workflow: valid YAML, every step runs or uses something, and every
`python -m cyclodet` command in it parses with the CLI's own parser."""
import re
import shlex
from pathlib import Path

import pytest

from cyclodet.cli import build_parser

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def steps() -> list[dict]:
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]  # one bad scalar fails the whole file
    return [step for job in jobs.values() for step in job["steps"]]


def invocations() -> list[list[str]]:
    """The arguments of each `python -m cyclodet` in a `run:`, up to the first |, > or &&."""
    return [shlex.split(re.split(r"\||>|&&", tail)[0])
            for step in steps()
            for tail in re.findall(r"python -m cyclodet\b(.*)", step.get("run", ""))]


def test_every_step_runs_or_uses_something():
    assert all("run" in step or "uses" in step for step in steps())


def test_every_cyclodet_command_parses():
    argvs, parser = invocations(), build_parser()
    assert argvs  # the pattern still finds the commands
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"python -m cyclodet {shlex.join(argv)} does not parse")
