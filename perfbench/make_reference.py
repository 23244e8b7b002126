"""Regenerate reference.json, the answers the benchmark's gate compares with.

    python3 perfbench/make_reference.py

Runs, in this process and from `src/` of this checkout, `verify` over every
prime the workloads and the self-test use (5..89, threads 1) and `classno`
on 5..13 and 229..317, and stores per prime the report digest or the
printed lines.  A prime whose `classno` call raises gets no entry; the gate
then checks its output, once there is one, against the Pell equation.

Run it only on a commit whose answers are trusted: the reference is what
later commits are held to.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from gate import REFERENCE_PATH, report_digest
from run import SRC, primes_in, source_digest

VERIFY_RANGES = ((5, 47), (61, 89))
CLASSNO_RANGES = ((5, 13), (229, 317))


def main() -> int:
    sys.path.insert(0, str(SRC))
    from cyclodet import cli

    verify: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reports.json"
        for lo, hi in VERIFY_RANGES:
            argv = ["verify", "--pmin", str(lo), "--pmax", str(hi), "--threads", "1",
                    "--out", str(out)]
            if cli.main(argv) != 0:
                print(f"error: verify {lo}..{hi} did not pass", file=sys.stderr)
                return 1
            for report in json.loads(out.read_text(encoding="utf-8")):
                verify[str(report["p"])] = report_digest(report)
    classno: dict[str, list[str]] = {}
    for lo, hi in CLASSNO_RANGES:
        for p in primes_in(lo, hi):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["classno", "--p", str(p)])
            except ArithmeticError as exc:
                print(f"classno {p}: {exc}; no reference, the gate checks Pell")
                continue
            if code == 0:
                classno[str(p)] = buf.getvalue().splitlines()
    reference = {"source_sha256": source_digest(), "verify": verify, "classno": classno}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}: {len(verify)} verify, {len(classno)} classno")
    return 0


if __name__ == "__main__":
    sys.exit(main())
