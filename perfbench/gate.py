"""Correctness gate: every output is compared with reference answers.

`verify` reports are compared by the sha256 of their canonical JSON with the
volatile `timings_ms` field removed.  `classno` output is compared line by
line.  For a prime p = 1 mod 4 with no reference answer (the reference
program failed on it) the expected lines are computed here, by methods
independent of the program's: the fundamental unit from the continued
fraction of (1 + sqrt(p))/2, and the class number by counting cycles of
reduced indefinite forms of discriminant p.

Each operation (one prime) ends in one of three outcomes:
  "ok"     - the output exists and is right;
  "failed" - no usable output: an exception, a non-zero exit, a failed check;
  "wrong"  - the output exists and contradicts the reference.
A "wrong" outcome is also a failed operation; it additionally makes the run
incorrect.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timings_ms"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def gate_verify(text: str | None, primes: list[int], reference: dict) -> dict[int, str]:
    """Outcome per prime for one `verify` JSON output (None if none was written)."""
    if text is None:
        return {p: "failed" for p in primes}
    try:
        reports = json.loads(text)
        by_prime = {r["p"]: r for r in reports}
    except (ValueError, TypeError, KeyError):
        return {p: "wrong" for p in primes}
    if sorted(by_prime) != sorted(primes) or len(reports) != len(primes):
        return {p: "wrong" for p in primes}
    outcomes = {}
    for p in primes:
        report = by_prime[p]
        want = reference["verify"].get(str(p))
        checks = report.get("checks", {})
        if "no_internal_error" in checks:
            outcomes[p] = "failed"
        elif want is not None and report_digest(report) != want:
            outcomes[p] = "wrong"
        elif want is None or any(c.get("status") == "fail" for c in checks.values()):
            outcomes[p] = "failed"
        else:
            outcomes[p] = "ok"
    return outcomes


def fundamental_unit(p: int) -> tuple[int, int]:
    """(t, u) of the fundamental unit (t + u*sqrt(p))/2 of Q(sqrt(p)), p = 1 mod 4.

    Every unit x + y*w > 1 of Z[w], w = (1 + sqrt(p))/2, has x/y among the
    convergents of w, so the first convergent x/y whose t = 2x - y, u = y
    satisfy t^2 - p*u^2 = +-4 gives the fundamental unit.  The complete
    quotients are (P + sqrt(p))/Q with Q > 0 from the first step on.
    """
    s = math.isqrt(p)
    P, Q = 1, 2
    x, x_prev, y, y_prev = 1, 0, 0, 1
    while True:
        a = (P + s) // Q
        x, x_prev = a * x + x_prev, x
        y, y_prev = a * y + y_prev, y
        t, u = 2 * x - y, y
        if t * t - p * u * u in (4, -4):
            return t, u
        P = a * Q - P
        Q = (p - P * P) // Q


def narrow_class_number(d: int) -> int:
    """Number of cycles of reduced forms (a, b, c), b^2 - 4ac = d > 0, under rho.

    Reduced: 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b.
    """
    s = math.isqrt(d)
    reduced = set()
    for b in range(1 + (d - 1) % 2, s + 1, 2):  # b = d mod 2
        ac = (b * b - d) // 4
        for a in range(1, (s + b) // 2 + 1):
            if ac % a == 0 and s - b < 2 * a <= s + b:
                reduced |= {(a, b, ac // a), (-a, b, -ac // a)}

    def rho(form):
        _, b, c = form
        m = 2 * abs(c)
        r = s - (s + b) % m  # r = -b mod 2|c|, s - 2|c| < r <= s
        return c, r, (r * r - d) // (4 * c)

    seen: set = set()
    cycles = 0
    for form in reduced:
        if form not in seen:
            cycles += 1
            while form not in seen:
                seen.add(form)
                form = rho(form)
    return cycles


def expected_classno_lines(p: int) -> list[str]:
    """The `classno --p p` lines for a prime p = 1 mod 4, computed here."""
    t, u = fundamental_unit(p)
    h_plus = narrow_class_number(p)
    h = h_plus if t * t - p * u * u == -4 else h_plus // 2
    return [f"h({p}) = {h}", f"eps_{p} = ({t} + {u}*sqrt({p}))/2"]


def gate_classno(p: int, exit_code: int | None, text: str | None, reference: dict) -> str:
    """Outcome of one `classno --p p` call (exit_code None: it raised)."""
    if exit_code != 0 or text is None:
        return "failed"
    lines = text.splitlines()
    want = reference["classno"].get(str(p))
    if want is not None:
        return "ok" if lines == want else "wrong"
    if p % 4 == 1:
        return "ok" if lines == expected_classno_lines(p) else "wrong"
    return "failed"
