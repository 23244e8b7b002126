"""Mutants of the array Bareiss step, the matrix builders and the per-prime
determinant dispatch, each shown to be caught.

A mutant is a monkeypatch in this process: a wrapped or replaced function of
`detkit`, `cycring`, `matrices` or `verify`, or a perturbed value; no file
under `src/` changes.  Each one names the layer expected to catch it and the
smallest prime at which it shows, and passes only if `run_prime` at that
prime (and those options) turns the named check to `fail` or raises.  A
mutant that no prime of the sweep shows runs on a constructed matrix, where
`det(m, "both").value` raises on the disagreement.

A builder mutant changes the matrix that both backends read, so no
agreement row can see it; an identity row between families catches it.  The
mutants below `MUTANTS` are those no failing check shows, each with what
does show it.
"""
from __future__ import annotations

import json
import types

import numpy as np
import pytest

from cyclodet import cycring, detkit, matrices, verify
from cyclodet.cycring import CycElt
from cyclodet.detkit import det
from cyclodet.verify import SweepOptions, report_to_dict, run_prime

from oracles import exact_matrix, reference_rows
from test_golden import GOLDEN_PATH, report_digest


def sign_dropped(ring: str):
    """`_fraction_free` loses the sign of its row swaps over one ring, "ints" or "cyc"."""

    def install(monkeypatch):
        real, update_of_ring = detkit._fraction_free, getattr(detkit, f"_update_{ring}")

        def unsigned(a, update, divide):
            sign, last = real(a, update, divide)
            return (1 if update is update_of_ring else sign), last

        monkeypatch.setattr(detkit, "_fraction_free", unsigned)

    install.__name__ = f"sign_dropped_{ring}"
    return install


def unproven_perturbed_lift(monkeypatch):
    """The first CRT lift of a Bareiss step that reads as fitting is off by one in
    one coefficient, and the re-multiplication proof of every step is skipped."""
    real_fold, hits = detkit._MixedRadix.fold, []

    def perturbed(crt, residues, q):
        real_fold(crt, residues, q)
        if not hits and residues.ndim == 3 and crt.fits().all():
            hits.append(q)
            crt.digits[0][0, 0, 0] += 1

    monkeypatch.setattr(detkit._MixedRadix, "fold", perturbed)
    proofless = {name: getattr(np, name) for name in dir(np) if not name.startswith("__")}
    proofless["array_equal"] = lambda *args: True
    monkeypatch.setattr(detkit, "np", types.SimpleNamespace(**proofless))


def wrong_pivot_row(ring: str):
    """The pivot column's products are taken against the row below the pivot row."""

    def update_cyc(a):
        p, r, c = a.shape[2] + 1, len(a) - 1, a.shape[1] - 1
        scaled = cycring.lincomb(p, a[:1, :1], a[1:, 1:].reshape(1, r * c, p - 1))
        cross = cycring.lincomb(p, a[1:, :1], a[1:2, 1:])
        return (scaled.reshape(r, c, p - 1) - cross).astype(object)

    def update_ints(a):
        return a[1:, 1:] * a[0, 0] - np.outer(a[1:, 0], a[1, 1:])

    def install(monkeypatch):
        monkeypatch.setattr(detkit, f"_update_{ring}", update_cyc if ring == "cyc" else update_ints)

    install.__name__ = f"wrong_pivot_row_{ring}"
    return install


def fold_drops_high_powers(monkeypatch):
    """`lincomb`'s fold loses zeta^(p+k) = zeta^k: the products' coefficients at
    the powers p .. 2p-4 are taken off again."""
    real = cycring.lincomb

    def lincomb(p, weights, rows):
        out = real(p, weights, rows).astype(object)
        for i, j, t in np.ndindex(len(weights), rows.shape[1], len(rows)):
            raw = np.convolve(weights[i, t].astype(object), rows[t, j].astype(object))
            out[i, j, : p - 3] -= raw[p:]
        return out

    for module in (cycring, detkit, verify):
        monkeypatch.setattr(module, "lincomb", lincomb)


def zeta_top_power_dropped(monkeypatch):
    """An entry zeta^(p-1) of D, DD or Dtilde becomes 0 instead of -1 - zeta - ... - zeta^(p-2)."""
    real = matrices._zeta_coeffs

    def zeta_coeffs(p, delta):
        out = real(p, delta)
        out[(out == -1).all(axis=-1)] = 0
        return out

    monkeypatch.setattr(matrices, "_zeta_coeffs", zeta_coeffs)


def geometric_top_power_kept(monkeypatch):
    """C's geometric sums drop their term zeta^(p-1) instead of rewriting it in the basis."""
    real = matrices._geometric_sums

    def geometric_sums(p, e, n):
        inv_top = np.array([(p - 1) * pow(int(x), -1, p) % p for x in e])
        return real(p, e, n) + (inv_top[:, None] < np.asarray(n) % p)[..., None]

    monkeypatch.setattr(matrices, "_geometric_sums", geometric_sums)


def dtilde_doubled_by_row(monkeypatch):
    """Dtilde doubles rows 1..m of D instead of columns 1..m: the same determinant."""

    def build_d_tilde(p):
        coeffs = matrices._zeta_coeffs(p, 1)
        coeffs[1:] *= 2
        return matrices.ExactMatrix(coeffs, matrices.MatrixMeta(p, "Dtilde"))

    monkeypatch.setattr(matrices, "build_D_tilde", build_d_tilde)


def corner_misplaced(monkeypatch):
    """E's and F's Gauss-sum corner lands at (m, m), and (0, 0) gets (m, m)'s symbol."""
    real = matrices._with_corner

    def with_corner(p, delta, corner):
        out = real(p, delta, corner)
        out[[0, -1], [0, -1]] = out[[-1, 0], [-1, 0]]
        return out

    monkeypatch.setattr(matrices, "_with_corner", with_corner)


def next_usable(pv, d: int) -> int:
    """The usable delta after d in the prime's sweep, cyclically."""
    usable = pv.deltas[0]
    return usable[(usable.index(d) + 1) % len(usable)]


def next_delta_determinants(monkeypatch):
    """Each d-row reads T, SD, DD and F at the next usable delta of the sweep."""
    real = verify._PrimeValues.det_of

    def det_of(pv, family, *delta):
        return real(pv, family, *(next_usable(pv, d) for d in delta))

    monkeypatch.setattr(verify._PrimeValues, "det_of", det_of)


def swapped_cyc_matrix():
    """[[0, z], [1, 0]] over Z[zeta_5]: Bareiss takes one row swap, det = -z."""
    z, zero, one = CycElt.zeta(5), CycElt.zero(5), CycElt.one(5)
    return exact_matrix([[zero, z], [one, zero]], 5)


SWEEP = SweepOptions(delta="sweep")

# (mutant, the layer that catches it, the prime of run_prime (or the prime and
# its options) or a matrix for det(m, "both"), what turns: a check that
# fails, or the exception raised)
MUTANTS = [
    (sign_dropped("ints"), "int_backend_agreement: integer Bareiss against the CRT", 5,
     "int_backend_agreement[d=2]"),
    (sign_dropped("cyc"), "DetResult.value: Bareiss disagrees with evaluation-interpolation; "
     "no C or D of the sweep takes a row swap", swapped_cyc_matrix, ArithmeticError),
    (unproven_perturbed_lift, "cyc_backend_agreement: the wrong quotient reaches det C", 5,
     "cyc_backend_agreement"),
    (wrong_pivot_row("cyc"), "cyc_backend_agreement: Bareiss against evaluation-interpolation", 5,
     "cyc_backend_agreement"),
    (wrong_pivot_row("ints"), "int_backend_agreement: integer Bareiss against the CRT", 5,
     "int_backend_agreement[d=2]"),
    (fold_drops_high_powers, "quad_decompose: det C no longer lies in the quadratic subfield", 5,
     ValueError),
    # builders; zeta^(j^2 k^2) is never zeta^(p-1) for p = 3 (mod 4), where -1 is no square
    (zeta_top_power_dropped, "quartic_reconstruction: quartic_decompose finds det D outside "
     "Q(sqrt(p))*delta", 5, ArithmeticError),
    (geometric_top_power_kept, "det_product_relation: det C against det D", 5,
     "det_product_relation"),
    (dtilde_doubled_by_row, "legendre_matrix_identity: the literal product Dtilde*DD = g*F; "
     "dtilde_scaling holds, as 2^m det D is also the row-doubled determinant", 5,
     "legendre_matrix_identity[d=2]"),
    (corner_misplaced, "detF_corner_expansion: det F against det T and det SD", 5,
     "detF_corner_expansion[d=2]"),
    # the per-prime dispatch; at p = 13 the sweep's deltas 2, 5, 6 lie in one coset of
    # the fourth powers, which fix det D, so p = 17 (deltas 3, 5 | 6) is the first
    (next_delta_determinants, "twisted_det_galois: det DD(delta') against sigma_delta(det D)",
     (17, SWEEP), "twisted_det_galois[d=5]"),
]


@pytest.mark.parametrize("mutant, layer, where, caught_by", MUTANTS,
                         ids=[mutant.__name__ for mutant, *_ in MUTANTS])
def test_mutant_is_caught(monkeypatch, mutant, layer, where, caught_by):
    mutant(monkeypatch)
    args = where if isinstance(where, tuple) else (where,)
    if isinstance(caught_by, str):
        assert run_prime(*args).checks[caught_by].status == "fail", layer
    else:
        with pytest.raises(caught_by):
            run_prime(*args) if not callable(where) else det(where(), "both").value


def test_unmutated_prime_passes():
    """The primes the mutants run at pass every check as the code stands, and
    the constructed matrix has one value."""
    for args in ((5,), (17, SWEEP)):
        assert all(check.status == "pass" for check in run_prime(*args).checks.values())
    assert det(swapped_cyc_matrix(), "both").value == -CycElt.zeta(5)


def test_cross_checked_never_bareiss_is_caught_by_the_golden_reports(monkeypatch):
    """A `cross_checked` that never asks for Bareiss fails no check: both agreement
    rows turn `skipped`, with the limit's note below the limit.  The golden
    digests (tests/test_golden.py) see the change."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["verify"]["delta-sweep"]
    digest = golden["digests"]["5"]
    assert report_digest(report_to_dict(run_prime(5, SWEEP))) == digest
    monkeypatch.setattr(verify._PrimeValues, "cross_checked", lambda pv, family: False)
    report = run_prime(5, SWEEP)
    for name in ("cyc_backend_agreement", "int_backend_agreement[d=2]"):
        assert report.checks[name].status == "skipped"
        assert report.checks[name].note == f"p > bareiss limit {verify.BAREISS_LIMIT}"
    assert report_digest(report_to_dict(report)) != digest


def test_chi_of_zero_one_changes_no_determinant(monkeypatch):
    """chi(0) = 1 in the Legendre table reaches T(0, 0) alone (E and F overwrite
    (0, 0) with their corner, and j^2 + delta k^2 = 0 has no other root), and T(0, 0)'s
    cofactor is det SD = 0.  So every check passes; only the builder's comparison with
    the entries built one at a time (tests/test_matrices.py) shows it."""
    real = matrices._legendre_coeffs

    def legendre_coeffs(p, delta, start):
        out = real(p, delta, start)
        out[out == 0] = 1
        return out

    monkeypatch.setattr(matrices, "_legendre_coeffs", legendre_coeffs)
    assert run_prime(5, SWEEP).all_passed()
    assert matrices.build("T", 5, 2).coeffs.tolist() != reference_rows("T", 5, 2)


def test_row_handed_another_delta_changes_no_status(monkeypatch):
    """Each d-row handed the next usable delta for all of its values checks a
    true identity, the one of that delta: every d-row's identity holds at every
    non-residue, so only the label is wrong, and no check can see it."""
    def next_delta(fn):
        return lambda pv, d: fn(pv, next_usable(pv, d))

    monkeypatch.setattr(verify, "CHECKS", tuple(
        row._replace(fn=next_delta(row.fn)) if row.over == "d" else row for row in verify.CHECKS))
    assert run_prime(17, SWEEP).all_passed()
