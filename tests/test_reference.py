"""The benchmark gate's answers, checked in tier 1.

`perfbench/reference.json` holds the sha256 of the canonical JSON of the
default `verify` report of every prime the benchmark runs, `timings_ms`
removed (`perfbench/gate.py`).  Each report is made here by the CLI, serially,
and digested by the gate's own function, so a change of report bytes fails
here before the benchmark marks a run `outputs_incorrect`.
"""
import json
import sys
from pathlib import Path

from cyclodet import cli
from cyclodet.modarith import is_prime

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.append(str(PERFBENCH))

import gate  # noqa: E402


def runs(primes: list[int]) -> list[tuple[int, int]]:
    """The listed primes as (first, last) of runs of consecutive primes."""
    out = []
    for p in sorted(primes):
        if out and not any(is_prime(q) for q in range(out[-1][1] + 1, p)):
            out[-1] = (out[-1][0], p)
        else:
            out.append((p, p))
    return out


def test_every_listed_report_digest(tmp_path):
    listed = gate.load_reference()["verify"]
    assert listed  # the reference still lists primes
    digests = {}
    for lo, hi in runs([int(p) for p in listed]):
        out = tmp_path / f"{lo}-{hi}.json"
        argv = ["verify", "--pmin", str(lo), "--pmax", str(hi), "--threads", "1", "--out", str(out)]
        assert cli.main(argv) == 0
        digests.update({str(r["p"]): gate.report_digest(r) for r in json.loads(out.read_text())})
    assert digests == listed
