"""Command-line front end: range sweeps, single determinants, class numbers.

`verify` turns --delta and --backend into one SweepOptions and runs the
primes of the range through `verify.run_primes`.  With a cache dir
(--cache-dir, or $CYCLODET_CACHE_DIR) each report is first looked up in its
entry `p{p}-{digest}.json`, the digest taken over the SweepOptions and the
package source, and a report that had to be run is written back.

Exit codes: 0 when every check passed (or nothing to check), 1 on usage
errors, 2 when at least one verification check failed (for `det`: when the
two backends disagree, both values go to stderr; for `classno`: when the
product formula leaves h(p) unresolved).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from .classno import ClassData, class_data
from .detkit import det
from .matrices import build
from .modarith import is_prime
from .subfield import quad_decompose, quartic_decompose
from .verify import PrimeReport, SweepOptions, report_to_dict, run_primes

CACHE_ENV = "CYCLODET_CACHE_DIR"
# what a cached report must hold: the keys `report_to_dict` writes, and per check
_REPORT_KEYS = report_to_dict(PrimeReport(p=5, residue8=5, class_info=ClassData(5))).keys()
_CHECK_KEYS = {"pass", "status", "lhs", "rhs", "note"}
_STATUSES = ("pass", "fail", "skipped")


def _entry_digest(options: SweepOptions) -> str:
    """What a cache entry is keyed by besides p: every report-shaping option
    (through its repr) and the package source."""
    digest = hashlib.sha256(repr(options).encode())
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reports_to_json(dicts: list[dict]) -> str:
    return json.dumps(dicts, sort_keys=True, indent=2) + "\n"


def reports_to_csv(dicts: list[dict]) -> str:
    names = sorted({name for d in dicts for name in d["checks"]})
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["p", "residue8"] + names)
    for d in dicts:
        row = [d["p"], d["residue8"]]
        for name in names:
            c = d["checks"].get(name)
            row.append("" if c is None else c["status"])
        writer.writerow(row)
    return buf.getvalue()


def exit_code_for(dicts: list[dict]) -> int:
    failed = any(c["status"] == "fail" for d in dicts for c in d["checks"].values())
    return 2 if failed else 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    try:
        options = SweepOptions(args.delta, args.backend)
    except ValueError:
        return _usage_error(f"bad --delta value {args.delta!r}")
    if args.threads < 1:
        return _usage_error("--threads must be positive")
    if args.pmin > args.pmax or args.pmin <= 3:
        return _usage_error(f"need 3 < pmin <= pmax, got ({args.pmin}, {args.pmax})")
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    if cache_dir:
        try:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _usage_error(f"cannot use cache dir: {exc}")
    primes = [p for p in range(args.pmin, args.pmax + 1) if is_prime(p)]
    report_dicts = _reports(primes, options, args.threads, Path(cache_dir) if cache_dir else None)

    payload = (
        reports_to_json(report_dicts)
        if args.format == "json"
        else reports_to_csv(report_dicts)
    )
    try:
        if args.out:
            Path(args.out).write_text(payload, encoding="utf-8")
        else:
            sys.stdout.write(payload)
    except OSError as exc:
        return _usage_error(f"cannot write output: {exc}")
    return exit_code_for(report_dicts)


def _reports(
    primes: list[int], options: SweepOptions, threads: int, cache_dir: Path | None
) -> list[dict]:
    """The report of each prime.  With a cache dir, each is read from its
    entry `p{p}-{digest}.json` when that is a report for its own p; the rest
    run in one sweep on up to `threads` processes and are written back.  An
    entry that cannot be written costs a warning on stderr, not the report."""
    entry = {}
    if cache_dir:
        digest = _entry_digest(options)
        entry = {p: cache_dir / f"p{p}-{digest}.json" for p in primes}
    dicts = {p: _read_entry(entry[p], p) if entry else None for p in primes}
    for report in run_primes([p for p in primes if dicts[p] is None], options, threads):
        d = dicts[report.p] = report_to_dict(report)
        if entry:
            try:
                _write_entry(entry[report.p], json.dumps(d, sort_keys=True) + "\n")
            except OSError as exc:
                print(f"warning: cannot write cache entry {entry[report.p]}: {exc}",
                      file=sys.stderr)
    return [dicts[p] for p in primes]


def _read_entry(path: Path, p: int) -> dict | None:
    """The cached report for p; None when missing, unreadable or not a whole
    report for p (any other keys, or a check without its fields or status)."""
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # ValueError covers JSON and UTF-8 decoding
        return None
    ok = (isinstance(d, dict) and d.keys() == _REPORT_KEYS and d["p"] == p
          and isinstance(d["checks"], dict) and all(
              isinstance(c, dict) and c.keys() == _CHECK_KEYS and c["status"] in _STATUSES
              and c["pass"] == (c["status"] != "fail") for c in d["checks"].values()))
    return d if ok else None


def _write_entry(path: Path, text: str) -> None:
    """Write through a temp file in the same directory, then rename it into
    place, so no reader sees a partial entry.  The temp name never matches
    the `p{p}-*.json` entry pattern."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_det(args) -> int:
    p, family = args.p, args.family
    needs_delta = family in ("T", "SD", "DD")
    if needs_delta and args.delta is None:
        return _usage_error(f"family {family} needs --delta")
    if not needs_delta and args.delta is not None:
        return _usage_error(f"family {family} takes no --delta")
    try:  # the builder rejects a p that is no odd prime and a delta that is a residue
        mat = build(family, p, *([args.delta] if needs_delta else []))
    except ValueError as exc:
        return _usage_error(str(exc))
    result = det(mat, backend=args.backend)
    suffix = f"({args.delta}, {p})" if needs_delta else f"({p})"
    if not result.agree:
        bareiss, modular = result.values
        print(f"error: det[{family}{suffix}]: bareiss = {bareiss} but modular = {modular}",
              file=sys.stderr)
        return 2
    value = result.value
    if mat.kind == "int":
        print(f"det[{family}{suffix}] = {value}")
        return 0
    if value.is_rational:
        print(f"det[{family}{suffix}] = {value.rational_value()}")
    else:
        print(f"det[{family}{suffix}] coeffs = [{', '.join(str(c) for c in value.coeffs)}]")
    if p % 4 == 3:
        q = quad_decompose(value)
        print(f"quad: {q.x} + {q.y}*g  (g^2 = -{p})")
    else:
        qd = quartic_decompose(value)
        print(f"quartic: ({qd.alpha} + {qd.beta}*sqrt({p})) * delta, "
              f"delta_sign={qd.delta_sign}, a={qd.a}")
    return 0


def cmd_classno(args) -> int:
    p = args.p
    if not is_prime(p) or p <= 3:
        return _usage_error(f"p must be a prime > 3, got {p}")
    data = class_data(p)
    if p % 4 == 3:
        print(f"h(-{p}) = {data.h_neg}")
    elif data.h_pos is None:
        print(f"error: the product formula did not resolve h({p})", file=sys.stderr)
        return 2
    else:
        t, u = data.eps
        print(f"h({p}) = {data.h_pos}")
        print(f"eps_{p} = ({t} + {u}*sqrt({p}))/2")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclodet",
        description=(
            "Exact determinants of cyclotomic-unit and Legendre-symbol "
            "matrices, subfield decompositions, and identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify all identities over a prime range")
    v.add_argument("--pmin", type=int, required=True)
    v.add_argument("--pmax", type=int, required=True)
    v.add_argument("--delta", default="least", help="least | sweep | sweep:K | <int>")
    v.add_argument("--backend", choices=["bareiss", "modular", "both"], default="both")
    v.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    v.add_argument("--out", default=None)
    v.add_argument("--format", choices=["json", "csv"], default="json")
    v.add_argument("--cache-dir", default=None)

    d = sub.add_parser("det", help="print one determinant exactly")
    d.add_argument("--family", choices=["S", "T", "SD", "C", "D", "DD"], required=True)
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--delta", type=int, default=None)
    d.add_argument("--backend", choices=["bareiss", "modular", "both"], default="both")

    c = sub.add_parser("classno", help="class number data for one prime")
    c.add_argument("--p", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    commands = {"verify": cmd_verify, "det": cmd_det, "classno": cmd_classno}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
