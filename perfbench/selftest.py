"""Quick self-test of the benchmark harness on tiny inputs (about a minute).

    python3 perfbench/selftest.py

1. Runs `verify` 5..13, `verify` 17..23 cached at two threads, and
   `classno` 5..13 through the same machinery as the real workloads,
   untraced and traced, and checks that every metric named in BENCHMARK.json is printed
   by name with its unit, that the last line is the result object, and that
   every output passed the gate.
2. Tampers with genuine outputs and checks that the gate catches it: a
   changed report digest, changed classno lines, and, for a prime that has
   no reference answer, a wrong unit, a unit that is not fundamental and a
   wrong class number.  Also checks that the gate's own classno answers
   equal every reference answer for a prime = 1 mod 4.
Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import gate
import run

TINY = run.Workload(
    "selftest",
    verify=(run.Verify(5, 13), run.Verify(17, 23, threads=2, cache=True)),
    classno=run.primes_in(5, 13),
)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_printed(workload: run.Workload, trace: bool, declared: dict[str, str]) -> None:
    record = run.measure(workload, seed=0, seconds=1, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_record(record)
    lines = buf.getvalue().splitlines()
    tag = f"{workload.name} trace={int(trace)}"
    summary = json.loads(lines[-1])
    check(sorted(summary) == ["attempted", "correct", "failed", "metrics"],
          f"{tag}: last line is the result object")
    check(summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0,
          f"{tag}: every output passed the gate ({summary['attempted']} operations)")
    metrics = summary["metrics"]
    check(set(metrics) == set(declared), f"{tag}: metrics are exactly those declared")
    unprinted = [
        name for name, unit in declared.items()
        if not (metrics.get(name, {}).get("unit") == unit
                and isinstance(metrics[name]["value"], (int, float))
                and math.isfinite(metrics[name]["value"])
                and any(line.split()[:1] == [name] and line.split()[-1] == unit
                        for line in lines[:-1]))
    ]
    check(not unprinted, f"{tag}: all {len(declared)} metrics printed by name with unit"
          + (f" (not: {', '.join(unprinted)})" if unprinted else ""))


def check_tampering() -> None:
    sys.path.insert(0, str(run.SRC))
    from cyclodet import cli

    reference = gate.load_reference()
    primes = list(run.primes_in(5, 13))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reports.json"
        cli.main(["verify", "--pmin", "5", "--pmax", "13", "--threads", "1",
                  "--out", str(out)])
        text = out.read_text(encoding="utf-8")
    outcomes = gate.gate_verify(text, primes, reference)
    check(set(outcomes.values()) == {"ok"}, "genuine verify reports pass the gate")

    reports = json.loads(text)
    retimed = copy.deepcopy(reports)
    retimed[0]["timings_ms"]["total"] += 1.0
    check(set(gate.gate_verify(json.dumps(retimed), primes, reference).values()) == {"ok"},
          "timings_ms is ignored by the digest")
    tampered = copy.deepcopy(reports)
    tampered[1]["dets"]["C"][0] = str(int(tampered[1]["dets"]["C"][0]) + 1)
    outcomes = gate.gate_verify(json.dumps(tampered), primes, reference)
    check(outcomes[reports[1]["p"]] == "wrong"
          and all(o == "ok" for p, o in outcomes.items() if p != reports[1]["p"]),
          "a tampered verify report is caught by the digest gate")
    check(set(gate.gate_verify(json.dumps(reports[1:]), primes, reference).values())
          == {"wrong"}, "a missing verify report is caught")
    check(set(gate.gate_verify(None, primes, reference).values()) == {"failed"},
          "no verify output counts as failed")

    lines = "\n".join(reference["classno"]["13"]) + "\n"
    check(gate.gate_classno(13, 0, lines, reference) == "ok", "genuine classno lines pass")
    check(gate.gate_classno(13, 0, lines.replace("h(13) = 1", "h(13) = 3"), reference)
          == "wrong", "tampered classno lines are caught")
    check(gate.gate_classno(13, None, None, reference) == "failed",
          "a classno call that raised counts as failed")
    no_ref = {"verify": {}, "classno": {}}
    check(gate.gate_classno(13, 0, lines, no_ref) == "ok",
          "without a reference, a valid Pell unit passes")
    for old, new, what in (("(3 + 1*sqrt(13))", "(5 + 1*sqrt(13))", "a wrong Pell unit"),
                           ("(3 + 1*sqrt(13))", "(11 + 3*sqrt(13))", "the square of the unit"),
                           ("h(13) = 1", "h(13) = 2", "a wrong class number")):
        tampered = lines.replace(old, new)
        check(tampered != lines and gate.gate_classno(13, 0, tampered, no_ref) == "wrong",
              f"without a reference, {what} is caught")
    computed = {p: want for p, want in reference["classno"].items()
                if int(p) % 4 == 1 and gate.expected_classno_lines(int(p)) != want}
    check(not computed, "the gate's own classno answers equal the reference answers"
          + (f" (not for p = {', '.join(computed)})" if computed else ""))


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(set(run.WORKLOADS) == {w["name"] for w in bench["workloads"]},
          "BENCHMARK.json names every workload run.py defines")
    run.OUT.mkdir(exist_ok=True)
    check_printed(TINY, False, end_to_end)
    check_printed(TINY, True, per_layer)
    check_tampering()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
