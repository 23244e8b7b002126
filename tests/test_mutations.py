"""Mutants of the two-step Bareiss elimination, the modular path, the matrix builders,
the per-prime determinant dispatch and the quartic decomposition, each shown to be
caught.

A mutant is a monkeypatch in this process: a wrapped or replaced function of
`detkit`, `cycring`, `matrices` or `verify`, a function compiled again from
its source with one expression changed, or a perturbed value; no file under
`src/` changes.  Each one names the layer expected to catch it and the
smallest prime at which it shows, and passes only if `run_prime` at that
prime (and those options) turns the named check to `fail` or raises.  A
mutant that no prime of the sweep shows runs on a constructed matrix, where
`det(m, "both").value` raises on the disagreement.

A builder mutant changes the matrix that both backends read, so no
agreement row can see it; an identity row between families catches it.  A
mutant of the modular path runs at the smallest prime that shows it and at
one prime above BAREISS_LIMIT, where no Bareiss runs on C and D: there an
identity row between families, or a decomposition that raises, catches it.
The mutants below `MUTANTS` are those no failing check shows, each with what
does show it.
"""
from __future__ import annotations

import dataclasses
import inspect
import math
import textwrap
import types

import numpy as np
import pytest

from cyclodet import cycring, detkit, matrices, subfield, verify
from cyclodet.cycring import CycElt
from cyclodet.detkit import det
from cyclodet.verify import SweepOptions, run_prime

import test_detkit
import test_evalinterp
import test_verify
from oracles import exact_matrix, lincomb_loop, reference_rows
from test_cycring import headroom_sides
from test_evalinterp import TestCoefficientBound


def divider(ring: str):
    """The exact divider `_fraction_free` is handed over one ring, "ints" or "cyc"."""
    return getattr(detkit, "_divide_ints" if ring == "ints" else "_divide_exact")


def sign_dropped(ring: str):
    """`_fraction_free` loses the sign of its row swaps over one ring."""

    def install(monkeypatch):
        real, divide_of_ring = detkit._fraction_free, divider(ring)

        def unsigned(a, product, divide, pivot):
            sign, last = real(a, product, divide, pivot)
            return (1 if divide is divide_of_ring else sign), last

        monkeypatch.setattr(detkit, "_fraction_free", unsigned)

    install.__name__ = f"sign_dropped_{ring}"
    return install


def recompiled(fn, old: str, new: str, *more: str):
    """`fn` compiled again from its source in its module's namespace, with the one
    occurrence of `old` replaced by `new`, and so for each further (old, new) pair in
    `more`."""
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in zip((old, *more[::2]), (new, *more[1::2])):
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module, scope = inspect.getmodule(fn), {}
    exec(compile(source, module.__file__, "exec"), vars(module), scope)
    return scope[fn.__name__]


def mutated_elimination(monkeypatch, old: str, new: str, ring: str | None = None):
    """`_fraction_free` with the one occurrence of `old` replaced by `new`, over one
    ring or (ring None) over both."""
    real = detkit._fraction_free
    mutant = recompiled(real, old, new)

    def elimination(a, product, divide, pivot):
        in_ring = ring is None or divide is divider(ring)
        return (mutant if in_ring else real)(a, product, divide, pivot)

    monkeypatch.setattr(detkit, "_fraction_free", elimination)


def unproven_perturbed_lift(monkeypatch):
    """The first CRT lift of a Bareiss division that reads as fitting is off by one
    in one coefficient, and the re-multiplication proof of every division is
    skipped.  Only the divider folds elements (residues of two or more axes)."""
    real_fold, hits = detkit._MixedRadix.fold, []

    def perturbed(crt, residues, q):
        real_fold(crt, residues, q)
        if not hits and residues.ndim > 1 and crt.fits().all():
            hits.append(q)
            crt.digits[0].flat[0] += 1

    monkeypatch.setattr(detkit._MixedRadix, "fold", perturbed)
    proofless = {name: getattr(np, name) for name in dir(np) if not name.startswith("__")}
    proofless["array_equal"] = lambda *args: True
    monkeypatch.setattr(detkit, "np", types.SimpleNamespace(**proofless))


def mul_fold_column_dropped(monkeypatch):
    """The divider's product by den^-1 mod q keeps its coefficient of zeta^(p-1): it is
    `lincomb`'s GEMM without the last column of its circulant subtracted (as
    `mul_top_power_kept`, but for this product alone), so the divider's residues are those
    of a product mod x^p - 1, not mod 1 + x + ... + x^(p-1)."""
    unfolded = recompiled(cycring._by_gemm, "sums[..., :m] - sums[..., m:]", "sums[..., :m]")
    monkeypatch.setattr(detkit, "_unfolded", unfolded, raising=False)
    monkeypatch.setattr(detkit._Pivot, "residues", recompiled(
        detkit._Pivot.residues, "lincomb(tables.p,", "_unfolded(tables.p,"))


def mul_of_den(monkeypatch):
    """The divider multiplies by den mod q in place of den^-1 mod q."""
    monkeypatch.setattr(detkit._Pivot, "residues", recompiled(
        detkit._Pivot.residues, "tables.interpolate(q, inv_vals)",
        "(self.coeffs % q).astype(np.int64)"))


def pivots_share_their_matrices(monkeypatch):
    """Every pivot reads one memo of inverses, so a division reads, at each prime an
    earlier pivot took, that pivot's d^-1 mod q."""
    real, shared = detkit._Pivot.__init__, {}

    def init(pivot, coeffs):
        real(pivot, coeffs)
        pivot._inverses = shared

    monkeypatch.setattr(detkit._Pivot, "__init__", init)


def skip_dropped(monkeypatch):
    """The divider takes a prime at which den has a zero value, den's inverse read as 0 at
    that node."""
    monkeypatch.setattr(detkit._Pivot, "residues", recompiled(
        detkit._Pivot.residues, "if vals.all():", "if True:",
        "pow(v, -1, q)", "pow(v, -1, q) if v else 0"))


def wrong_pivot_row(ring: str):
    """K' multiplies the two rows below the first pivot row instead of the pivot rows."""

    def install(monkeypatch):
        mutated_elimination(monkeypatch, "product(k, a[:2, 2:])", "product(k, a[1:3, 2:])", ring)

    install.__name__ = f"wrong_pivot_row_{ring}"
    return install


def second_swap_unsigned(monkeypatch):
    """The swap that brings the second pivot row up keeps the sign."""
    mutated_elimination(monkeypatch, "_swap(a, 1, r + 1), -sign", "_swap(a, 1, r + 1), sign")


def cofactors_undivided(monkeypatch):
    """c0 and K' are used undivided: the small division by d is skipped."""
    mutated_elimination(monkeypatch, "small = divide(small, d)", "small = small")


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

    for module in (cycring, detkit):
        monkeypatch.setattr(module, "lincomb", lincomb)


def mul_top_power_kept(monkeypatch):
    """`lincomb`'s GEMM drops the last column of its circulant from the others:
    Mul(x) loses its correction -x[(p-1-b) mod p], and zeta^(p-1) stays unremoved."""
    monkeypatch.setattr(cycring, "_by_gemm", recompiled(
        cycring._by_gemm, "sums[..., :m] - sums[..., m:]", "sums[..., :m]"))


def gemm_headroom(monkeypatch, new: str):
    """`lincomb`'s GEMM with its int64 headroom condition for the recombination of its
    limbs replaced by `new`."""
    monkeypatch.setattr(cycring, "_by_gemm", recompiled(
        cycring._by_gemm, "4 * bound < 1 << 63", new))


def matmul_past_its_headroom(monkeypatch):
    """`lincomb`'s GEMM recombines its limbs in int64 for every pair of int64 operands,
    however large."""
    gemm_headroom(monkeypatch, "True")


def limb_split_dropped(monkeypatch):
    """`lincomb` takes one GEMM of the unsplit operands however large the bound, so a
    sum past 2^53 rounds."""
    monkeypatch.setattr(cycring, "_by_gemm", recompiled(
        cycring._by_gemm, "if bound >= 1 << 53:\n        half", "if False:\n        half"))


def zeta_top_power_dropped(monkeypatch):
    """An entry zeta^(p-1) of D's, DD's or Dtilde's table becomes 0 instead of
    -1 - zeta - ... - zeta^(p-2): its multiplier is 0 where its exponent is p-1."""
    real = matrices._zeta_table

    def zeta_table(p, delta, x=1):
        table = real(p, delta, x)
        return dataclasses.replace(table, mult=np.where(table.exp == p - 1, 0, table.mult))

    monkeypatch.setattr(matrices, "_zeta_table", zeta_table)


def geometric_top_power_kept(monkeypatch):
    """C's table reads its top exponent p-1 as 0, as in a basis of p-1 powers, instead of
    keeping zeta^(p-1): each entry (1 - zeta^(p-1)) / (1 - zeta^(j^2)) becomes 0."""
    real = matrices.build_C

    def build_c(p):
        m = real(p)
        exp = np.where(m.table.exp == p - 1, 0, m.table.exp)
        return matrices.ExactMatrix(dataclasses.replace(m.table, exp=exp), m.meta, m.circulant)

    monkeypatch.setattr(matrices, "build_C", build_c)


def dtilde_doubled_by_row(monkeypatch):
    """Dtilde's table doubles rows 1..m of D instead of columns 1..m: the same
    determinant."""

    def build_d_tilde(p):
        table = matrices._zeta_table(p, 1)
        mult = table.mult.copy()
        mult[1:] *= 2
        return matrices.ExactMatrix(dataclasses.replace(table, mult=mult),
                                    matrices.MatrixMeta(p, "Dtilde"), matrices._zeta_block(p, 1, 2))

    monkeypatch.setattr(matrices, "build_D_tilde", build_d_tilde)


def corner_misplaced(monkeypatch):
    """E's and F's Gauss-sum corner lands at (m, m), and (0, 0) gets (m, m)'s symbol: the
    matrix is held by its coefficients, which are never certified, so it takes the dense
    path."""
    for name in ("E", "F"):
        real = getattr(matrices, f"build_{name}")

        def swapped(p, *delta, real=real):
            m = real(p, *delta)
            coeffs = m.coeffs.copy()
            coeffs[[0, -1], [0, -1]] = coeffs[[-1, 0], [-1, 0]]
            return matrices.ExactMatrix(coeffs, m.meta, m.circulant)

        monkeypatch.setattr(matrices, f"build_{name}", swapped)


def stack_swap_unsigned(monkeypatch):
    """`_det_mod_stack` keeps the determinant's sign on a row swap."""
    monkeypatch.setattr(detkit, "_det_mod_stack", recompiled(
        detkit._det_mod_stack, "np.where(swap, q - det, det)", "det"))


def orbit_step_one(monkeypatch):
    """`_orbit_step` returns f = 1 with s = 1: one node stands for all p-1."""
    monkeypatch.setattr(detkit, "_orbit_step", lambda rows: (1, 1))


def orbit_step_halved(monkeypatch):
    """`_orbit_step` returns half its f (at least 1) and its s: too few nodes per orbit."""
    real = detkit._orbit_step

    def orbit_step(rows):
        f, s = real(rows)
        return max(1, f // 2), s

    monkeypatch.setattr(detkit, "_orbit_step", orbit_step)


def hand_built(family: str, p: int, *delta: int):
    """The matrix of `det(m, "both")`: a copy of a built family's coefficients with no
    declaration, which takes the dense path."""

    def where():
        m = matrices.build(family, p, *delta)
        return matrices.ExactMatrix(m.coeffs, m.meta)

    where.p = p
    return where


def built(family: str, p: int):
    """The matrix of `det(m, "both")`: a built family, which takes its declaration."""

    def where():
        return matrices.build(family, p)

    where.p = p
    return where


def reversal_sign_dropped(monkeypatch):
    """A certified Hankel block loses the sign (-1)^floor((m-1)/2) of its reversal."""
    monkeypatch.setattr(detkit, "_declared_values", recompiled(
        detkit._declared_values, "dets * (-1) ** ((half - 1) // 2) % q", "dets"))


def shift_sign_dropped(monkeypatch):
    """The Galois certificate of both paths reads a shift of its rows as unsigned: a matrix
    whose sigma_(g^2) shifts its rows along the squares broadcasts with s = 1, not
    (-1)^(m-1), -1 at p = 1 (mod 4)."""
    monkeypatch.setattr(detkit, "_galois_sign", recompiled(
        detkit._galois_sign, "(-1) ** (len(order) - 1) if shift else 1", "1"))


def certificate_two_ahead(monkeypatch):
    """The Galois certificate compares the image of each row with the row two ahead, and
    still reads a match as an m-cycle of sign (-1)^(m-1)."""
    monkeypatch.setattr(detkit, "_galois_sign", recompiled(
        detkit._galois_sign, "np.roll(order, -1)", "np.roll(order, -2)"))


def euclid_sign_dropped(monkeypatch):
    """The lockstep Euclid drops (-1)^(deg A deg B), which is -1 only where a step loses
    two degrees from odd degrees: E's and F's rows, Legendre symbols, do at some primes."""
    monkeypatch.setattr(detkit, "_resultants", recompiled(
        detkit._resultants, "(-1) ** (d * e) * res", "res"))


def row_scaling_dropped(monkeypatch):
    """C's certified value drops its row scaling 1/(1 - zeta^(j^2))."""
    monkeypatch.setattr(detkit, "_declared_values", recompiled(
        detkit._declared_values, "if decl.scaled:", "if False:"))


def coset_shifted(monkeypatch):
    """Evaluation-interpolation hands each node's value to the next coset."""
    monkeypatch.setattr(detkit, "det_cyc_evalinterp", recompiled(
        detkit.det_cyc_evalinterp, "zip(run, dets)", "zip(run, np.roll(dets, 1, axis=1))"))


def broadcast_sign_dropped(monkeypatch):
    """Evaluation-interpolation takes the values (v, v) on the 2f cosets, not (v, -v): the
    certificate's s = -1, which C, D, DD and Dtilde take at every p = 1 (mod 4), is lost."""
    monkeypatch.setattr(detkit, "det_cyc_evalinterp", recompiled(
        detkit.det_cyc_evalinterp, "-dets % np.array(run)", "dets % np.array(run)"))


def minus_half_dropped(monkeypatch):
    """When s = -1, evaluation-interpolation drops the -v half and takes the f values v on
    f cosets.  (v, v) on 2f cosets is v on f, so this gives `broadcast_sign_dropped`'s
    coefficients by another line."""
    monkeypatch.setattr(detkit, "det_cyc_evalinterp", recompiled(
        detkit.det_cyc_evalinterp, "np.hstack([dets, -dets % np.array(run)[:, None]])", "dets"))


def interpolation_mutant(monkeypatch, old: str, new: str):
    """`_PrimeTables.interpolate`, which every caller shares, with `old` replaced by `new`."""
    monkeypatch.setattr(detkit._PrimeTables, "interpolate", recompiled(
        detkit._PrimeTables.interpolate, old, new))


def period_one_coset_off(monkeypatch):
    """The interpolation reads every Gauss period one coset off: W_j = sum_c w_c eta_(c+j+1)."""
    interpolation_mutant(monkeypatch, "np.arange(f)) % f", "np.arange(f) + 1) % f")


def c0_count_dropped(monkeypatch):
    """The interpolation drops the (p-1)/F of c_0: p c_0 = v_0 + sum_c w_c.  F = p-1, the
    divider's, has (p-1)/F = 1, so only evaluation-interpolation sees it."""
    interpolation_mutant(monkeypatch, "(p - 1) // f * w.sum(axis=0)", "w.sum(axis=0)")


def digits_uncentred(monkeypatch):
    """`_MixedRadix` keeps its digits in [0, q): every lift is read as non-negative."""
    monkeypatch.setattr(detkit._MixedRadix, "fold", recompiled(
        detkit._MixedRadix.fold, "np.where(2 * d > q, d - q, d)", "d"))


def horner_skips_a_digit(monkeypatch):
    """The Horner sum of a fold skips the oldest digit."""
    monkeypatch.setattr(detkit._MixedRadix, "fold", recompiled(
        detkit._MixedRadix.fold, "zip(reversed(self.digits), reversed(self.primes))",
        "zip(reversed(self.digits[1:]), reversed(self.primes[1:]))"))


def interpolation_without_v0(monkeypatch):
    """The interpolation drops its v_0 = -W_0 term, the value at 1."""
    interpolation_mutant(monkeypatch, " - big_w[0]", "")


def lift_halved(monkeypatch):
    """Every modular lift takes half its primes, rounded up."""
    real = detkit._lift_primes

    def lift_primes(p, bound_sq):
        primes = real(p, bound_sq)
        return primes[: (len(primes) + 1) // 2]

    monkeypatch.setattr(detkit, "_lift_primes", lift_primes)


def one_modulus_per_stack(monkeypatch):
    """`_det_mod_stack` reduces a whole stack mod its first matrix's prime."""
    real = detkit._det_mod_stack
    monkeypatch.setattr(detkit, "_det_mod_stack", lambda a, q: real(a, np.ravel(q)[0]))


def cross_checked_never_bareiss(monkeypatch):
    """`cross_checked` never asks for Bareiss: backend "both" runs the modular backend alone."""
    monkeypatch.setattr(verify._PrimeValues, "cross_checked", lambda pv, family: False)


def alpha_one_too_high(monkeypatch):
    """`quartic_decompose` returns alpha + 1."""
    real = subfield.quartic_decompose

    def quartic_decompose(d):
        qd = real(d)
        return dataclasses.replace(qd, alpha=qd.alpha + 1)

    monkeypatch.setattr(verify, "quartic_decompose", quartic_decompose)


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
    # p = 5 takes no cyclotomic division: C(5) and D(5) end after their first double step
    (unproven_perturbed_lift, "cyc_backend_agreement: the wrong quotient reaches det D", 7,
     "cyc_backend_agreement"),
    # the divider's product by d^-1 mod q: a residue that is not the quotient's keeps every
    # later lift from its proof, so the division raises at the 16L give-up; D(7) divides once
    (mul_fold_column_dropped, "the exact divider: D(7)'s division is never proven", 7,
     ArithmeticError),
    (mul_of_den, "the exact divider: D(7)'s division is never proven", 7, ArithmeticError),
    # 11 is the first prime with two pivots divided by, C(11)'s and D(11)'s first
    (pivots_share_their_matrices, "the exact divider: the second pivot's division reads the "
     "first pivot's matrices and is never proven", 11, ArithmeticError),
    (wrong_pivot_row("cyc"), "cyc_backend_agreement: Bareiss against evaluation-interpolation", 5,
     "cyc_backend_agreement"),
    (wrong_pivot_row("ints"), "int_backend_agreement: integer Bareiss against the CRT", 5,
     "int_backend_agreement[d=2]"),
    (second_swap_unsigned, "int_backend_agreement: det S(7) takes a second pivot from row 2", 7,
     "int_backend_agreement"),
    (cofactors_undivided, "cyc_backend_agreement: D(7)'s last step is det(P), not det(P)/d", 7,
     "cyc_backend_agreement"),
    (fold_drops_high_powers, "quad_decompose: det C no longer lies in the quadratic subfield", 5,
     ValueError),
    (mul_top_power_kept, "quad_decompose: (x - x')*g, a product on the GEMM, is not rational "
     "for the product formula's residue product", 5, ValueError),
    # the Bareiss products past the headroom hold far smaller values than their bound
    (matmul_past_its_headroom, "det_multiplicativity: det Dtilde * det D, one product whose "
     "sums pass 2^63, wraps", 31, "det_multiplicativity"),
    # every check passes below 29; tests/test_cycring.py's
    # `TestTwoPaths::test_sums_just_above_2_53_are_exact` catches it at any p
    (limb_split_dropped, "quartic_reconstruction: det D * det D, one product whose sums pass "
     "2^53, rounds, and quad_decompose finds it outside Z[g]", 29, ValueError),
    # builders; zeta^(j^2 k^2) is never zeta^(p-1) for p = 3 (mod 4), where -1 is no square
    (zeta_top_power_dropped, "quartic_reconstruction: quartic_decompose finds det D outside "
     "Q(sqrt(p))*delta", 5, ArithmeticError),
    (geometric_top_power_kept, "det_product_relation: det C against det D", 5,
     "det_product_relation"),
    (dtilde_doubled_by_row, "legendre_matrix_identity: the literal Dtilde*DD = g*F at every node; "
     "dtilde_scaling holds, as 2^m det D is also the row-doubled determinant", 5,
     "legendre_matrix_identity[d=2]"),
    (corner_misplaced, "detF_corner_expansion: det F against det T and det SD", 5,
     "detF_corner_expansion[d=2]"),
    # the per-prime dispatch; at p = 13 the sweep's deltas 2, 5, 6 lie in one coset of
    # the fourth powers, which fix det D, so p = 17 (deltas 3, 5 | 6) is the first
    (next_delta_determinants, "twisted_det_galois: det DD(delta') against sigma_delta(det D)",
     (17, SWEEP), "twisted_det_galois[d=5]"),
    (cross_checked_never_bareiss, "the agreement rows: a pair that did not run fails below "
     "BAREISS_LIMIT, the integer rows at every p", (5, SWEEP),
     ("cyc_backend_agreement", "int_backend_agreement[d=2]")),
    # the quartic decomposition, checked by the exact reconstruction alone
    (alpha_one_too_high, "quartic_reconstruction: (alpha + beta*sqrt(p))^2 delta^2 against "
     "(det D)^2", 5, "quartic_reconstruction"),
    (alpha_one_too_high, "quartic_reconstruction", 61, "quartic_reconstruction"),
    # the modular path, at its smallest prime and above BAREISS_LIMIT
    (stack_swap_unsigned, "detF_corner_expansion: det F (evaluation-interpolation) against "
     "det T and det SD (CRT)", 5, "detF_corner_expansion[d=2]"),
    (stack_swap_unsigned, "detF_corner_expansion", 61, "detF_corner_expansion[d=2]"),
    # the dense path, on hand-built copies of D
    (orbit_step_one, "DetResult.value: Bareiss disagrees with the dense path", hand_built("D", 5),
     ArithmeticError),
    (orbit_step_one, "DetResult.value", hand_built("D", 67), ArithmeticError),
    (orbit_step_halved, "DetResult.value: Bareiss disagrees with the dense path",
     hand_built("D", 5), ArithmeticError),
    (orbit_step_halved, "DetResult.value", hand_built("D", 67), ArithmeticError),
    (coset_shifted, "det_product_relation: det D against det C", 5, "det_product_relation"),
    (coset_shifted, "det_product_relation", 61, "det_product_relation"),
    # s = -1 at p = 1 (mod 4) only; 5 is the first
    (broadcast_sign_dropped, "quartic_decompose: det D is not in Q(sqrt(p))*delta", 5,
     ArithmeticError),
    (broadcast_sign_dropped, "quartic_decompose", 61, ArithmeticError),
    (minus_half_dropped, "quartic_decompose: det D is not in Q(sqrt(p))*delta", 5,
     ArithmeticError),
    (minus_half_dropped, "quartic_decompose", 61, ArithmeticError),
    # the Gauss periods, shared by evaluation-interpolation (F = 2, 4) and the divider
    # (F = p-1, which raises at 7 on the first division)
    (period_one_coset_off, "det_product_relation: det D against det C", 5,
     "det_product_relation"),
    (period_one_coset_off, "det_product_relation", 61, "det_product_relation"),
    (c0_count_dropped, "detF_corner_expansion: det F against det T and det SD", 5,
     "detF_corner_expansion[d=2]"),
    (c0_count_dropped, "detF_corner_expansion", 61, "detF_corner_expansion[d=2]"),
    (digits_uncentred, "quartic_decompose: det D is not in Q(sqrt(p))*delta", 5,
     ArithmeticError),
    (digits_uncentred, "twisted_det_galois: det DD against sigma_delta(det D)", 61,
     "twisted_det_galois[d=2]"),
    (interpolation_without_v0, "quartic_decompose: det D is not in Q(sqrt(p))*delta", 5,
     ArithmeticError),
    (interpolation_without_v0, "quad_decompose: det C or det D is not Galois-stable", 67,
     ValueError),
    # up to 13 every lift takes one prime, which halving keeps; the halved lifts of
    # two primes at 17 and 19 still hold their coefficients (the bound's slack)
    (lift_halved, "dtilde_scaling: det Dtilde against 2^m det D", 23, "dtilde_scaling"),
    (lift_halved, "det_product_relation: det D against det C", 61, "det_product_relation"),
    # both need a lift of two or more primes: up to 13 every lift takes one, and
    # at 17 only Dtilde's takes two
    (horner_skips_a_digit, "dtilde_scaling: det Dtilde against 2^m det D", 17,
     "dtilde_scaling"),
    (horner_skips_a_digit, "det_product_relation: det D against det C", 67,
     "det_product_relation"),
    # the integer CRT and the dense path are its only stacks; at 17 the dense lift of
    # Dtilde takes two primes, and the integer lifts one run of one
    (one_modulus_per_stack, "DetResult.value: Bareiss disagrees with the dense path",
     hand_built("Dtilde", 17), ArithmeticError),
    (one_modulus_per_stack, "int_backend_agreement: integer Bareiss against the CRT", 67,
     "int_backend_agreement"),
    # the certified path: each sign and the row scaling of `_declared_values`
    (reversal_sign_dropped, "cyc_backend_agreement: m = 3 has floor((m-1)/2) = 1", 7,
     "cyc_backend_agreement"),
    # every check pairs Hankel families with each other or squares them, so above
    # BAREISS_LIMIT only Bareiss sees the sign (and the report's det C and det D)
    (reversal_sign_dropped, "DetResult.value: Bareiss disagrees with det D(71) (m = 35)",
     built("D", 71), ArithmeticError),
    (shift_sign_dropped, "quartic_decompose: det D is not in Q(sqrt(p))*delta", 5,
     ArithmeticError),
    (shift_sign_dropped, "quartic_decompose", 61, ArithmeticError),
    # at 5, m = 2 and the row two ahead is the row itself, so F(5)'s two fixed rows read as
    # a shift of sign -1; above 5 see test_certificate_two_ahead_above_5_is_caught
    (certificate_two_ahead, "detF_corner_expansion: quad_decompose finds det F outside the "
     "quadratic subfield", 5, ValueError),
    (euclid_sign_dropped, "detF_corner_expansion: det F against det T and det SD", 13,
     "detF_corner_expansion[d=2]"),
    (euclid_sign_dropped, "detE_column_reduction: det E against det S", 67,
     "detE_column_reduction"),
    (row_scaling_dropped, "det_product_relation: det C against det D", 5, "det_product_relation"),
    (row_scaling_dropped, "det_product_relation", 61, "det_product_relation"),
]


def row_id(mutant, layer, where, caught_by) -> str:
    """The mutant's name, with its prime where the mutant has a row per prime."""
    if sum(other is mutant for other, *_ in MUTANTS) == 1:
        return mutant.__name__
    return f"{mutant.__name__}-p{getattr(where, 'p', where)}"


@pytest.mark.parametrize("mutant, layer, where, caught_by", MUTANTS,
                         ids=[row_id(*row) for row in MUTANTS])
def test_mutant_is_caught(monkeypatch, mutant, layer, where, caught_by):
    mutant(monkeypatch)
    args = where if isinstance(where, tuple) else (where,)
    if isinstance(caught_by, type):
        with pytest.raises(caught_by):
            run_prime(*args) if not callable(where) else det(where(), "both").value
    else:
        checks = run_prime(*args).checks
        for name in (caught_by,) if isinstance(caught_by, str) else caught_by:
            assert checks[name].status == "fail", layer


def test_unmutated_prime_passes():
    """The primes the mutants run at pass every check as the code stands (above
    BAREISS_LIMIT the cyclotomic agreement is skipped), and the matrices they take
    have one value."""
    for args in ((5,), (5, SWEEP), (7,), (11,), (13,), (17,), (17, SWEEP), (23,), (29,), (31,),
                 (61,), (67,)):
        statuses = {name: c.status for name, c in run_prime(*args).checks.items()}
        if args[0] > verify.BAREISS_LIMIT:
            assert statuses.pop("cyc_backend_agreement") == "skipped"
        assert set(statuses.values()) == {"pass"}
    assert det(swapped_cyc_matrix(), "both").value == -CycElt.zeta(5)
    for where in {row[2] for row in MUTANTS if callable(row[2]) and hasattr(row[2], "p")}:
        assert det(where(), "both").agree


def test_skip_dropped_is_caught(monkeypatch):
    """No division of `verify` 5..59 meets a pivot with a zero value mod a prime it takes,
    so the skip is shown on den = zeta - r (`test_detkit.conjugate_division`): its residues
    mod the first auxiliary prime are wrong at the node r, every later lift fails the
    re-multiplication, and the division raises at the 16L give-up, never returning a
    wrong quotient."""
    skip_dropped(monkeypatch)
    for p in (7, 13):
        block, den, _ = test_detkit.conjugate_division(p)
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_exact(block, detkit._Pivot(den))


def test_lift_one_prime_short_hides_in_the_bound_slack(monkeypatch):
    """Every modular lift one prime short of its stop fails no check at p = 61 (nor
    at 101 or 103): the lift stops at the first modulus past 4H, and the
    coefficients, though below 2H, are far enough below it that the shorter
    modulus still holds them.  The bound from the coset embeddings leaves less
    slack than the coefficient-size one did, but Hadamard's own remains: at 61,
    det C has coefficients of 65 bits under 2H of 2^89 (2^194 before), and the
    lift one prime short still holds 71 bits.  No check can see slack.  Where a
    coefficient needs the last prime, a check fails (det_product_relation at 67).
    tests/test_evalinterp.py's `TestCoefficientBound::test_bound_holds_and_stops_the_lift`
    catches it at every prime, as here on D(61): the modulus no longer passes 4H, H^2
    from D's declaration."""
    real = detkit._lift_primes
    monkeypatch.setattr(detkit, "_lift_primes", lambda p, bound_sq: real(p, bound_sq)[:-1])
    assert run_prime(61).all_passed()
    m, stats = matrices.build("D", 61), {}
    detkit.det_cyc_evalinterp(m, stats)
    assert math.prod(stats["moduli"]) ** 2 <= 16 * detkit._declared_bound_sq(m.circulant, 61)


def bound_one_embedding(monkeypatch):
    """The dense path bounds det M by the embedding a = 1 alone, not by its f cosets."""
    monkeypatch.setattr(detkit, "det_cyc_evalinterp", recompiled(
        detkit.det_cyc_evalinterp, "max(_coset_bounds_sq(m.coeffs, f))",
        "max(_coset_bounds_sq(m.coeffs, 1))"))


def test_bound_one_embedding_is_caught(monkeypatch):
    """H^2 from the embedding a = 1 alone passes every check at 5, 61 and 67: the
    built families take their bound from their declarations, and on their dense
    rows a = 1 gives the largest H of the f cosets (to 0.1 bit at 13..101).
    `TestCoefficientBound::test_the_dense_lift_reads_every_coset` catches it: on 30
    copies of 1 + zeta^6 over Z[zeta_13], |sigma_1|^2 < 0.06 stops the lift at one prime,
    which cannot hold det M's coefficients past 2^26."""
    bound_one_embedding(monkeypatch)
    for p in (5, 61, 67):
        assert run_prime(p).all_passed()
    with pytest.raises(AssertionError):
        TestCoefficientBound().test_the_dense_lift_reads_every_coset()


def test_certificate_two_ahead_above_5_is_caught(monkeypatch):
    """Above 5, where the mutant's MUTANTS row catches it, a certificate that looks two
    rows ahead is wrong only where sigma_(g^2) maps each row to the row two ahead, and no
    family's rows but F(5)'s do: C, D, DD and Dtilde, whose rows it shifts by one, fail the
    declared and the dense certificate alike and take all p-1 nodes with their right
    values, and every check passes at 61.  tests/test_evalinterp.py's
    `TestDeclarations::test_every_built_family_certifies` catches it at 7."""
    certificate_two_ahead(monkeypatch)
    assert run_prime(61).all_passed()
    with pytest.raises(AssertionError):
        test_evalinterp.TestDeclarations().test_every_built_family_certifies(7)


def order_log_one_off(monkeypatch):
    """`_orbit_step` orders the rows by the logs of j - 1, not of j: one step off."""
    monkeypatch.setattr(detkit, "_orbit_step", recompiled(
        detkit._orbit_step, "_tables(p).log_g[1 : half + 1]", "_tables(p).log_g[:half]"))


def test_order_log_one_off_is_caught(monkeypatch):
    """Rows out of the order of the squares fail the certificate, which stays exact: a
    hand-built copy of a family takes all p-1 nodes and its right value.  No built family
    reaches `_orbit_step` (each certifies its declaration), so every check passes at 5 and
    61.  At 5 the order is unchanged (m = 2, and any order of two rows shifts).
    tests/test_evalinterp.py's `TestDeclarations::test_certified_value_equals_the_dense_path`
    catches it at 7: the hand-built copy of D takes 6 nodes, the declaration 2."""
    order_log_one_off(monkeypatch)
    for p in (5, 61):
        assert run_prime(p).all_passed()
    with pytest.raises(AssertionError):
        test_evalinterp.TestDeclarations().test_certified_value_equals_the_dense_path(7)


def identity_mutant(monkeypatch, old: str, new: str):
    """`identity_holds` with the one occurrence of `old` replaced by `new`, as `detkit` and
    `matrix_identity_direct` see it."""
    mutant = recompiled(detkit.identity_holds, old, new)
    for module in (detkit, verify):
        monkeypatch.setattr(module, "identity_holds", mutant)


def identity_at_one_node(monkeypatch):
    """The literal identity multiplies the values at one node, r mod each prime, alone."""
    identity_mutant(monkeypatch, "nodes = slice(run[0], run[-1] + 1)", "nodes = slice(0, 1)")


def test_identity_at_one_node_is_caught(monkeypatch):
    """The identity checked at one node passes every check at 5 and 7: the built matrices
    satisfy it at every node.  A one-coefficient fault of a matrix shows at that node too,
    as `dtilde_doubled_by_row` does at 5.  tests/test_verify.py's
    `TestIdentityAtNodes::test_an_entry_off_at_every_node_but_one_fails` catches it: an entry
    of E off by a small element that vanishes at r mod the one prime of the lift, and at no
    other node, passes."""
    identity_at_one_node(monkeypatch)
    for p in (5, 7):
        assert run_prime(p).all_passed()
    with pytest.raises(AssertionError):
        test_verify.TestIdentityAtNodes().test_an_entry_off_at_every_node_but_one_fails(7)


def identity_lift_to_the_bound(monkeypatch):
    """The literal identity's lift stops at the first modulus past B, not past 2B."""
    identity_mutant(monkeypatch, "_lift_primes(p, 4 * bound * bound)",
                    "_lift_primes(p, bound * bound)")


def test_identity_lift_to_the_bound_is_caught(monkeypatch):
    """A lift past B alone passes every check at 5 and 7, and changes no prime taken at any
    p <= 60: B is at most 3,540 (at 59), and the first auxiliary prime, above 2^24, passes
    2B.  No check could see it: past B the check is still exact, as a nonzero multiple of
    the modulus exceeds B; 2B is the margin the docstring states.  tests/test_verify.py's
    `TestIdentityAtNodes::test_the_lift_passes_twice_the_bound` catches it: with B between
    q/2 and q, `identity_holds`'s own assertion that the modulus passes 2B raises."""
    identity_lift_to_the_bound(monkeypatch)
    for p in (5, 7):
        assert run_prime(p).all_passed()
    with pytest.raises(AssertionError, match="the lift passes 2B"):
        test_verify.TestIdentityAtNodes().test_the_lift_passes_twice_the_bound()


def tables_of_the_first_p(monkeypatch):
    """`detkit._tables` keeps the tables of the first p it is asked for, and returns them,
    the previous p's, for every p after it."""
    held = []

    def tables(p):
        if not held:
            held.append(detkit._PrimeTables(p))
        return held[0]

    monkeypatch.setattr(detkit, "_tables", tables)


def test_tables_of_the_previous_p_are_caught(monkeypatch):
    """Tables kept from the previous p pass every check of the first prime a process
    verifies, and raise at the next: at p = 7 after 5, D(7)'s six coefficients meet a
    power table of order 5 (ValueError).  tests/test_detkit.py's
    `TestPrimeTables::test_interleaved_streams` catches it too: p = 17 reads the primes of 13."""
    tables_of_the_first_p(monkeypatch)
    assert run_prime(5).all_passed()
    with pytest.raises(ValueError):
        run_prime(7)
    monkeypatch.undo()
    tables_of_the_first_p(monkeypatch)
    with pytest.raises(AssertionError):
        test_detkit.TestPrimeTables().test_interleaved_streams()


def constructor_without_the_rule(monkeypatch):
    """`ExactMatrix` keeps the array it is given as it is, whatever its dtype and entries:
    the dtype rule `_held` only marks it read-only."""

    def held(coeffs):
        coeffs.flags.writeable = False
        return coeffs

    monkeypatch.setattr(matrices, "_held", held)


def test_constructor_without_the_rule_is_caught(monkeypatch):
    """A constructor without the dtype rule passes every check at 5 and 61: every `build_*`
    holds int64 tables or an int64 array far below AUX_PRIME_FLOOR.  On a matrix built by
    hand from int64 coefficients of 2^40 it gives a wrong determinant with no error, as the
    evaluator's unreduced int64 sums wrap.
    tests/test_detkit.py's `test_int64_past_the_floor_is_held_as_python_ints` catches it."""
    constructor_without_the_rule(monkeypatch)
    for p in (5, 61):
        assert run_prime(p).all_passed()
    m = matrices.ExactMatrix(matrices.build_D(7).coeffs * 2**40, matrices.MatrixMeta(7, "test"))
    assert m.coeffs.dtype == np.int64 and not det(m, "both").agree
    with pytest.raises(AssertionError):
        test_detkit.TestInt64Headroom().test_int64_past_the_floor_is_held_as_python_ints()


def declaration_corrupted(family: str):
    """`build(family, ...)` attaches its declaration with first[0] plus 1 at one coefficient."""
    name = {"Dtilde": "D_tilde", "DD": "D_delta"}.get(family, family)

    def install(monkeypatch):
        real = getattr(matrices, f"build_{name}")

        def corrupted(p, *delta):
            m = real(p, *delta)
            first = m.circulant.first.copy()
            first[0, 0] += 1
            decl = dataclasses.replace(m.circulant, first=first)
            return matrices.ExactMatrix(m.table, m.meta, decl)

        monkeypatch.setattr(matrices, f"build_{name}", corrupted)

    return install


@pytest.mark.parametrize("family", ["C", "D", "Dtilde", "E", "DD", "F"])
def test_corrupted_declaration_is_caught(monkeypatch, family):
    """A declaration with one entry of its first row corrupted fails its certificate on the
    builder's table, and the matrix takes the dense path: every check passes at the
    smallest prime of the family's run (7 for E, 5 for the others, where run_prime starts),
    with the same report.  tests/test_evalinterp.py's
    `TestDeclarations::test_every_built_family_certifies` catches it."""
    p = 7 if family == "E" else 5
    expected = run_prime(p)
    declaration_corrupted(family)(monkeypatch)
    report = run_prime(p)
    assert report.all_passed()
    assert (report.det_C, report.det_D) == (expected.det_C, expected.det_D)
    with pytest.raises(AssertionError):
        test_evalinterp.TestDeclarations().test_every_built_family_certifies(p)


def table_corrupted(family: str, field: str, at: tuple):
    """`build(family, p)` holds its table with the entry at `at` of `field` corrupted: an
    exponent e becomes e + 1 mod p, a multiplier c becomes c + 1; its declaration is the
    builder's own."""

    def install(monkeypatch):
        real = getattr(matrices, f"build_{family}")

        def corrupted(p):
            m = real(p)
            values = getattr(m.table, field).copy()
            values[at] = (values[at] + 1) % p if field == "exp" else values[at] + 1
            table = dataclasses.replace(m.table, **{field: values})
            return matrices.ExactMatrix(table, m.meta, m.circulant)

        monkeypatch.setattr(matrices, f"build_{family}", corrupted)

    install.__name__ = f"{field}_corrupted_{family}"
    return install


# one exponent of D's table and one multiplier of E's, each in row 0 (the border), in
# block row j = 1 (the one the certificate fills and compares with the first row) and
# deeper in the block
TABLE_MUTANTS = [table_corrupted(family, field, at)
                 for family, field in (("D", "exp"), ("E", "mult"))
                 for at in ((0, 2), (1, 2), (2, 3))]


@pytest.mark.parametrize("mutant", TABLE_MUTANTS,
                         ids=[f"{m.__name__}-{i % 3}" for i, m in enumerate(TABLE_MUTANTS)])
def test_corrupted_table_is_refused(monkeypatch, mutant):
    """A table with one exponent or one multiplier corrupted fails its certificate, and
    the matrix takes the dense path on the coefficients filled from the same table: at
    p = 7 and 11 its value is Bareiss's on them, and not the builder's."""
    mutant(monkeypatch)
    family = "D" if "_D" in mutant.__name__ else "E"
    for p in (7, 11):
        m = matrices.build(family, p)
        assert detkit._certified(m) is None
        value = detkit.det_cyc_evalinterp(m)
        assert value == detkit.det_cyc_bareiss(m)
        monkeypatch.undo()
        assert value != detkit.det_cyc_evalinterp(matrices.build(family, p))
        mutant(monkeypatch)


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


def test_matmul_to_twice_its_headroom_stays_exact(monkeypatch):
    """The GEMM's limbs recombined in int64 while 4 * bound < 2^64 are still exact: the
    sums are at most bound < 2^62 and the folded coefficients at most 2 * bound < 2^63,
    and int64 arithmetic mod 2^64 is exact where its results fit.  What breaks is
    `lincomb`'s promise of int64 entries below 2^62, on which the Bareiss update's
    headroom rests; no check of 5..59 fails (the sweep's sums stay far below their
    bounds).  tests/test_cycring.py's `test_int64_headroom` catches it: on its operands
    at 4 * bound = 2^63 the mutant returns int64, not Python ints."""
    gemm_headroom(monkeypatch, "4 * bound < 1 << 64")
    assert run_prime(5).all_passed()
    dtypes = []
    for weights, rows, dtype in headroom_sides(3, 1):
        out = cycring.lincomb(3, np.array(weights), np.array(rows))
        assert out.tolist() == lincomb_loop(3, weights, rows)
        dtypes.append((out.dtype, dtype))
    assert dtypes == [(np.int64, np.int64), (np.int64, object)], "test_int64_headroom passes"
