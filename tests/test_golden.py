"""Golden reports: CLI output must stay byte-for-byte what it was.

`tests/golden_reports.json` holds, for option sets the benchmark never runs,
the exit code and the sha256 of every `verify` report with `timings_ms`
removed (canonical JSON: sorted keys, compact separators, ASCII), and the
exact stdout of a few `det` and `classno` calls.  The digests were recorded
before the verify/CLI refactor that they guard (the "above-limits" case, whose
primes reach the skip notes of both size limits, before the checks became a
table); print the current values with

    PYTHONPATH=src python3 tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cyclodet.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_reports.json"

SMALL = ["--pmin", "5", "--pmax", "23"]
VERIFY_CASES = {
    "delta-sweep": [*SMALL, "--delta", "sweep"],
    "delta-3": [*SMALL, "--delta", "3"],
    "backend-bareiss": [*SMALL, "--backend", "bareiss"],
    "backend-modular": [*SMALL, "--backend", "modular"],
    # p = 5, 3, 7, 1 (mod 8), all above BAREISS_LIMIT
    "above-limits": ["--pmin", "61", "--pmax", "73"],
}
STDOUT_CASES = [
    f"det --family {family} --p {p}" for family in ("S", "C", "D") for p in (7, 13)
] + [
    # above the Bareiss limit: no second backend checks these coefficients
    f"det --family {family} --p 101 --backend modular" for family in ("C", "D")
] + [
    # the quartic decomposition: the -1 branch with alpha = 0, then the +1 branch
    "det --family DD --p 5 --delta 2",
    "det --family DD --p 13 --delta 5",
    "det --family D --p 41",
] + ["classno --p 23", "classno --p 29"]


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timings_ms"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def observe_verify(case: str) -> dict:
    code, out = run_cli(["verify", "--threads", "1", *VERIFY_CASES[case]])
    return {
        "exit": code,
        "digests": {str(r["p"]): report_digest(r) for r in json.loads(out)},
    }


def observe_stdout(command: str) -> str:
    code, out = run_cli(command.split())
    assert code == 0
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_reports_unchanged(golden, case):
    assert observe_verify(case) == golden["verify"][case]


@pytest.mark.parametrize("command", STDOUT_CASES)
def test_stdout_unchanged(golden, command):
    assert observe_stdout(command) == golden["stdout"][command]


if __name__ == "__main__":
    current = {
        "verify": {case: observe_verify(case) for case in sorted(VERIFY_CASES)},
        "stdout": {command: observe_stdout(command) for command in STDOUT_CASES},
    }
    sys.stdout.write(json.dumps(current, indent=2, sort_keys=True) + "\n")
