"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criterion 3 drives the shared full sweep over 5 <= p <= 100
(three non-residue values per prime, both determinant backends, Bareiss
cross-check up to p = 60); criteria 4, 6, 7 read the same sweep.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cyclodet.classno import h_neg, verify_product_formula
from cyclodet.cycring import CycElt
from cyclodet.detkit import _divide_exact, _Pivot, det_int_bareiss, det_int_modular
from cyclodet.matrices import build_S, build_S_delta, build_T
from cyclodet.modarith import is_prime, primitive_root
from cyclodet.subfield import (
    QuadElt,
    gauss_sum,
    padic_val,
    quad_decompose,
    two_squares,
)
from cyclodet import verify
from cyclodet.verify import SweepOptions, check_perm_sign, run_prime, run_primes

from oracles import exact_matrix, random_cyc

SWEEP_OPTIONS = SweepOptions(delta="sweep:3", backend="both")


@pytest.fixture(scope="session")
def sweep():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "BAREISS_LIMIT", 60)
        start = time.perf_counter()
        reports = run_primes([p for p in range(5, 101) if is_prime(p)], SWEEP_OPTIONS, threads=2)
        elapsed = time.perf_counter() - start
    return reports, elapsed


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_p7_end_to_end():
    run_prime(13)  # warm caches so the timed call measures the computation
    start = time.perf_counter()
    report = run_prime(7)
    elapsed = time.perf_counter() - start
    problems = []
    if report.det_S != -4:
        problems.append(f"det S(7) = {report.det_S}")
    a, b = report.decomp["a_p"], report.decomp["b_p"]
    if abs(a) != Fraction(7, 2) or abs(b) != Fraction(1, 2):
        problems.append(f"|a|,|b| = {abs(a)},{abs(b)}")
    if report.nu_a != 1 or report.nu_b != 0:
        problems.append(f"nu_a,nu_b = {report.nu_a},{report.nu_b}")
    if 2**4 * a * b != 7 * report.det_S:
        problems.append("product identity")
    if 2**3 * (a * a - 7 * b * b) != 3 * (-7) * report.det_S:
        problems.append("norm identity")
    if padic_val(report.det_S, 2) < 2:
        problems.append("two-adic bound")
    if not report.all_passed():
        problems.append([n for n, c in report.checks.items() if c.status == "fail"])
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    announce(1, not problems, f"p=7 end-to-end in {elapsed * 1000:.0f} ms")
    assert not problems, problems


def test_criterion_2_p5_delta2_end_to_end():
    run_prime(13)  # warm caches
    start = time.perf_counter()
    report = run_prime(5, SweepOptions(delta="2"))
    elapsed = time.perf_counter() - start
    problems = []
    if report.det_T != -4 or report.det_SD != 0:
        problems.append(f"det T = {report.det_T}, det SD = {report.det_SD}")
    alpha, beta = report.decomp["alpha"], report.decomp["beta"]
    if alpha != 0 or abs(beta) != Fraction(1, 2):
        problems.append(f"(alpha, beta) = ({alpha}, {beta})")
    if two_squares(5).b != 2:
        problems.append("two-square split")
    if abs(2**3 * 2 * (alpha**2 - 5 * beta**2)) != 20 or abs(5 * report.det_T) != 20:
        problems.append("quartic norm identity constants")
    if not report.all_passed():
        problems.append([n for n, c in report.checks.items() if c.status == "fail"])
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    announce(2, not problems, f"p=5 delta=2 end-to-end in {elapsed * 1000:.0f} ms")
    assert not problems, problems


def test_criterion_3_full_sweep(sweep):
    reports, elapsed = sweep
    problems = []
    expected_primes = [p for p in range(5, 101) if is_prime(p)]
    if [r.p for r in reports] != expected_primes:
        problems.append("prime coverage")
    for r in reports:
        fails = [n for n, c in r.checks.items() if c.status == "fail"]
        if fails:
            problems.append((r.p, fails))
        agreement = r.checks["cyc_backend_agreement"]
        if r.p <= 60 and agreement.status != "pass":
            problems.append((r.p, "bareiss cross-check missing"))
        if r.p % 4 == 1 and len(r.deltas) != min(3, (r.p - 1) // 2):
            problems.append((r.p, f"delta sweep {r.deltas}"))
    if elapsed > 900:
        problems.append(f"sweep took {elapsed:.0f}s (> 15 min)")
    checks_run = sum(len(r.checks) for r in reports)
    announce(3, not problems,
             f"{len(reports)} primes, {checks_run} checks, {elapsed:.0f}s")
    assert not problems, problems


def test_criterion_4_class_number_agreement(sweep):
    reports, _ = sweep
    problems = []
    neg_table = {7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5}
    for p, expected in neg_table.items():
        got = h_neg(p)
        if got != expected:
            problems.append(f"h(-{p}) = {got}, expected {expected}")
    for p in (5, 13, 17, 29):
        result = verify_product_formula(p)
        if result.h != 1:
            problems.append(f"h({p}) = {result.h}, expected 1")
    for r in reports:
        if r.checks["residue_product_formula"].status != "pass":
            problems.append(f"product formula failed at p={r.p}")
    announce(4, not problems,
             f"{len(neg_table)} imaginary + 4 real class numbers, "
             f"product formula exact for all {len(reports)} primes")
    assert not problems, problems


def test_criterion_5_property_suites(sweep):
    reports, _ = sweep
    problems = []
    rng = random.Random(0xACCE55)

    # ring axioms and Galois homomorphism, 500 randomized cases
    for _ in range(500):
        p = rng.choice([5, 7, 13])
        x, y, z = (random_cyc(rng, p) for _ in range(3))
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if not (x * y == y * x and (x * y) * z == x * (y * z)
                and x * (y + z) == x * y + x * z):
            problems.append("ring axioms")
            break
        if x.galois(b).galois(a) != x.galois(a * b % p):
            problems.append("galois composition")
            break
        if (x * y).galois(a) != x.galois(a) * y.galois(a):
            problems.append("galois multiplicativity")
            break

    # exact division round-trip, 500 cases
    for _ in range(500):
        p = rng.choice([5, 7, 11])
        x, y = random_cyc(rng, p), random_cyc(rng, p)
        if y.is_zero():
            continue
        quot = _divide_exact(np.array([[(x * y).coeffs]], dtype=object), _Pivot(np.array(y.coeffs)))
        if quot.tolist() != [[list(x.coeffs)]]:
            problems.append("exact division round-trip")
            break

    # Gauss-sum squares for every prime up to 100
    for p in filter(is_prime, range(3, 101)):
        sign = 1 if p % 4 == 1 else -1
        if gauss_sum(p) * gauss_sum(p) != CycElt.rational(p, sign * p):
            problems.append(f"gauss square p={p}")

    # integer backend agreement: 200 random matrices up to 8x8
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        mat = exact_matrix(rows, 5)
        if det_int_bareiss(mat) != det_int_modular(mat):
            problems.append("random backend agreement")
            break

    # ... and on every Legendre family in the sweep range
    for r in reports:
        names = [n for n in r.checks if n.startswith("int_backend_agreement")]
        if not names or any(r.checks[n].status != "pass" for n in names):
            problems.append(f"family backend agreement p={r.p}")

    # quadratic decomposition round-trip and non-residue independence
    from cyclodet.modarith import distinct_nonresidues

    for _ in range(100):
        p = rng.choice([5, 7, 11, 13])
        a = rng.randint(-18, 18)  # (a + b*g)/2 with a = b (mod 2): an algebraic integer
        u, v = Fraction(a, 2), Fraction(a + 2 * rng.randint(-9, 9), 2)
        x = QuadElt(p, u, v).embed()
        if quad_decompose(x) != QuadElt(p, u, v):
            problems.append("quad round-trip")
            break
        if any(x.galois(n) != QuadElt(p, u, -v).embed() for n in distinct_nonresidues(p, 2)):
            problems.append("quad non-residue independence")
            break

    # permutation sign closed form for every prime up to 100
    for p in filter(is_prime, range(5, 101)):
        for a in {2, 3, primitive_root(p), p - 1}:
            if not check_perm_sign(p, a):
                problems.append(f"perm sign p={p} a={a}")

    announce(5, not problems, "randomized suites (fixed seeds) + exhaustive scans")
    assert not problems, problems


def test_criterion_6_matrix_identity_suite(sweep):
    reports, _ = sweep
    problems = []
    for r in reports:
        if r.p > 60:
            continue
        names = [n for n in r.checks if n.startswith("legendre_matrix_identity")]
        for n in names:
            c = r.checks[n]
            if c.status != "pass" or "literal matrix product" not in c.note:
                problems.append((r.p, n, c.status, c.note))
        if r.checks["det_product_relation"].status != "pass":
            problems.append((r.p, "det_product_relation"))
        if r.p % 4 == 3 and r.checks["detD_square_identity"].status != "pass":
            problems.append((r.p, "detD_square_identity"))
        if r.p % 4 == 1:
            for n in (m for m in r.checks if m.startswith("det_multiplicativity")):
                if r.checks[n].status != "pass":
                    problems.append((r.p, n))
    count = sum(1 for r in reports if r.p <= 60)
    announce(6, not problems,
             f"entrywise matrix identities + determinant relations, {count} primes <= 60")
    assert not problems, problems


def test_criterion_7_discrepancy_ledger(sweep):
    reports, _ = sweep
    problems = []
    ones = [r for r in reports if r.p % 4 == 1]
    for r in ones:
        names = [n for n in r.checks if n.startswith("quartic_norm_identity")]
        if not names:
            problems.append((r.p, "proof-version identity missing"))
        for n in names:
            if r.checks[n].status != "pass":
                problems.append((r.p, n))
        if not any("non-integral" in d and "2^((p+1)/4)" in d
                   for d in r.discrepancies):
            problems.append((r.p, "statement-exponent discrepancy not recorded"))
    p5 = next(r for r in ones if r.p == 5)
    if not any("(p+1)/4 = 3/2" in d for d in p5.discrepancies):
        problems.append("p=5 discrepancy detail missing")
    announce(7, not problems,
             f"proof exponents confirmed on {len(ones)} primes = 1 mod 4; "
             "statement exponent flagged as non-integral")
    assert not problems, problems
