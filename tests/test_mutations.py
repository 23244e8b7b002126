"""Mutants of the array Bareiss step, each shown to be caught.

A mutant is a monkeypatch in this process: a wrapped or replaced function of
`detkit` or `cycring`, or a perturbed value; no file under `src/` changes.
Each one names the layer expected to catch it and the smallest prime at
which it shows, and passes only if `run_prime` at that prime turns the named
check to `fail` or raises.  A mutant that no prime of the sweep shows runs on
a constructed matrix, where `det(m, "both").value` raises on the disagreement.
"""
from __future__ import annotations

import types

import numpy as np
import pytest

from cyclodet import cycring, detkit, verify
from cyclodet.cycring import CycElt
from cyclodet.detkit import det
from cyclodet.verify import run_prime

from oracles import exact_matrix


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


def swapped_cyc_matrix():
    """[[0, z], [1, 0]] over Z[zeta_5]: Bareiss takes one row swap, det = -z."""
    z, zero, one = CycElt.zeta(5), CycElt.zero(5), CycElt.one(5)
    return exact_matrix([[zero, z], [one, zero]], 5)


# (mutant, the layer that catches it, the prime of run_prime or a matrix for
# det(m, "both"), what turns: a check that fails, or the exception raised)
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
]


@pytest.mark.parametrize("mutant, layer, where, caught_by", MUTANTS,
                         ids=[mutant.__name__ for mutant, *_ in MUTANTS])
def test_mutant_is_caught(monkeypatch, mutant, layer, where, caught_by):
    mutant(monkeypatch)
    if isinstance(caught_by, str):
        assert run_prime(where).checks[caught_by].status == "fail", layer
    else:
        with pytest.raises(caught_by):
            run_prime(where) if isinstance(where, int) else det(where(), "both").value


def test_unmutated_prime_passes():
    """The prime the mutants run at passes every check as the code stands, and
    the constructed matrix has one value."""
    assert all(check.status == "pass" for check in run_prime(5).checks.values())
    assert det(swapped_cyc_matrix(), "both").value == -CycElt.zeta(5)
