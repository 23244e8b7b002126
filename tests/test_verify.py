import concurrent.futures.process
import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import Future
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from cyclodet import classno, cycring, detkit, matrices, verify
from cyclodet.matrices import ExactMatrix
from cyclodet.modarith import aux_primes, distinct_nonresidues, is_prime, primitive_root
from cyclodet.subfield import gauss_sum
from cyclodet.verify import (
    CheckResult,
    SweepOptions,
    check_perm_sign,
    legendre_sum_classes_hold,
    matrix_identity_direct,
    report_to_dict,
    resolve_deltas,
    run_prime,
    run_primes,
)

from oracles import literal_identity


class TestPermSign:
    def test_p5_a2_is_transposition(self):
        assert check_perm_sign(5, 2)  # swap {1,4}, sign -1 = (2/5)

    def test_p7_always_even(self):
        assert check_perm_sign(7, 3)

    def test_identity_permutation(self):
        assert check_perm_sign(13, 1)

    def test_rejects_multiple_of_p(self):
        with pytest.raises(ValueError):
            check_perm_sign(7, 14)

    @pytest.mark.parametrize("p", [p for p in range(5, 61) if is_prime(p)])
    def test_formula_over_sample(self, p):
        for a in {2, 3, primitive_root(p), p - 1}:
            assert check_perm_sign(p, a)


class TestLegendreSumIdentities:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
    def test_residue_classes(self, p):
        assert legendre_sum_classes_hold(p)

    @pytest.mark.parametrize("p", [7, 11, 19])
    def test_direct_product_3mod4(self, p):
        assert matrix_identity_direct(p)

    @pytest.mark.parametrize("p,delta", [(5, 2), (5, 3), (13, 2), (17, 3)])
    def test_direct_product_1mod4(self, p, delta):
        assert matrix_identity_direct(p, delta)

    @pytest.mark.parametrize("p,delta,family", [(7, None, "E"), (13, 2, "F")])
    def test_direct_product_fails_on_one_wrong_coefficient(self, monkeypatch, p, delta, family):
        """One coefficient of the last row of the target, off by one, fails the check."""
        real = verify.build

        def build(name, *args):
            m = real(name, *args)
            if name != family:
                return m
            coeffs = m.coeffs.copy()
            coeffs[-1, 1, 0] += 1
            return ExactMatrix(coeffs, m.meta)

        monkeypatch.setattr(verify, "build", build)
        assert not matrix_identity_direct(p, delta)


def identity_matrices(p: int, delta: int | None = None) -> tuple:
    """(Dtilde, D or DD, E or F, g) as `matrix_identity_direct` takes them, through the
    rebindable `verify.build`."""
    ds = () if delta is None else (delta,)
    return (verify.build("Dtilde", p), verify.build("DD" if ds else "D", p, *ds),
            verify.build("F" if ds else "E", p, *ds), gauss_sum(p))


def identities(p: int) -> list:
    """The deltas of the identities at p: None (E) at p = 3 (mod 4), else each of
    `distinct_nonresidues(p, 3)` (F)."""
    return [None] if p % 4 == 3 else distinct_nonresidues(p, 3)


def vanishing_at(p: int, w: int, q: int) -> np.ndarray:
    """A nonzero element of Z[zeta_p] with small coefficients whose value at the node w
    mod q is 0, found by meeting in the middle over its two halves of coefficients: about
    64 q sums of a low and a high half make a match all but certain."""
    half = (p - 1) // 2
    span = math.ceil((64 * q) ** (1 / (p - 1)) / 2)
    grid = np.array(list(itertools.product(range(-span, span + 1), repeat=half)), dtype=np.int64)
    low = grid @ np.array([pow(w, i, q) for i in range(half)]) % q
    high = -(grid @ np.array([pow(w, half + i, q) for i in range(half)])) % q
    order = np.argsort(low)
    i = order[np.searchsorted(low, high, sorter=order).clip(max=len(low) - 1)]
    match = (low[i] == high) & (grid[i].any(axis=1) | grid.any(axis=1))
    j = int(np.argmax(match))
    assert match[j]
    return np.concatenate([grid[i[j]], grid[j]])


class TestIdentityAtNodes:
    """`detkit.identity_holds`, which `matrix_identity_direct` takes, against the literal
    product of `matmul` (`oracles.literal_identity`)."""

    @pytest.mark.parametrize("p", [p for p in range(5, 61) if is_prime(p)])
    def test_equals_the_literal_product(self, p):
        for delta in identities(p):
            product, scaled = literal_identity(*identity_matrices(p, delta))
            assert matrix_identity_direct(p, delta) and np.array_equal(product, scaled)

    @pytest.mark.parametrize("p", [5, 7, 59])
    def test_one_corrupted_entry_fails(self, monkeypatch, p):
        """One coefficient off by one, at a corner (E's and F's Gauss sum), a border or an
        inner entry of any of the three matrices, fails the check and the literal one."""
        delta = identities(p)[0]
        real, n = verify.build, (p + 1) // 2
        for family in ("Dtilde", "D" if delta is None else "DD", "E" if delta is None else "F"):
            for j, k in ((0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (1, 2)):

                def build(name, *args, family=family, j=j, k=k):
                    m = real(name, *args)
                    if name != family:
                        return m
                    coeffs = m.coeffs.copy()
                    coeffs[j, k, (j + k) % (p - 1)] += 1
                    return ExactMatrix(coeffs, m.meta)

                monkeypatch.setattr(verify, "build", build)
                assert not matrix_identity_direct(p, delta), (family, j, k)
                assert not np.array_equal(*literal_identity(*identity_matrices(p, delta)))

    @pytest.mark.parametrize("p", [p for p in range(5, 61) if is_prime(p)])
    def test_bound_holds(self, p):
        """B bounds every coefficient of the literal A B and g C, and of A B - g C for a
        corrupted C."""
        for delta in identities(p):
            a, b, c, g = identity_matrices(p, delta)
            stats = {}
            assert detkit.identity_holds(a, b, c, g, stats)
            product, scaled = literal_identity(a, b, c, g)
            assert stats["bound"] >= max(abs(product).max(), abs(scaled).max())
            coeffs = c.coeffs.copy()
            coeffs[1:, 1:] *= -1
            c = ExactMatrix(coeffs, c.meta)
            product, scaled = literal_identity(a, b, c, g)
            assert not detkit.identity_holds(a, b, c, g, stats)
            assert stats["bound"] >= abs(product - scaled).max() > 0

    def test_the_lift_passes_twice_the_bound(self):
        """Dtilde and E at p = 7 times s, B = 56 s just above q/2 for the first auxiliary
        prime q: the lift takes two primes, whose product passes 2B."""
        a, b, c, g = identity_matrices(7)
        q = next(aux_primes(7))
        s = q // 112 + 1
        a, c = (ExactMatrix(s * m.coeffs, m.meta) for m in (a, c))
        stats = {}
        assert detkit.identity_holds(a, b, c, g, stats)
        assert q < 2 * stats["bound"] < 2 * q
        assert stats["moduli"] == list(islice(aux_primes(7), 2))
        coeffs = c.coeffs.copy()
        coeffs[2, 2, 0] += 1
        assert not detkit.identity_holds(a, b, ExactMatrix(coeffs, c.meta), g)

    @pytest.mark.parametrize("p", [5, 7])
    def test_an_entry_off_at_every_node_but_one_fails(self, p):
        """For each node r^t of the first prime q, E's or F's entry (1, 1) off by a small
        element that vanishes at r^t mod q, and so at no other node: the check reads every
        node, so it fails."""
        a, b, c, g = identity_matrices(p, identities(p)[0])
        q = next(aux_primes(p))
        tables = detkit._tables(p)
        for t in range(1, p):
            off = vanishing_at(p, int(tables.pow_r(q)[t]), q)
            assert tables.values(q, off[None])[0].tolist().count(0) == 1
            coeffs = c.coeffs.copy()
            coeffs[1, 1] += off
            stats = {}
            assert not detkit.identity_holds(a, b, ExactMatrix(coeffs, c.meta), g, stats), t
            assert stats["moduli"] == [q]

    def test_mismatched_inputs_are_refused(self):
        a, b, c, g = identity_matrices(7)
        for args in ((a, b, matrices.build("S", 7), g), (a, b, identity_matrices(11)[2], g),
                     (a, b, c, gauss_sum(11))):
            with pytest.raises(ValueError):
                detkit.identity_holds(*args)

    def test_no_lincomb(self, count_calls):
        calls = count_calls(cycring.lincomb)
        for p in (7, 13, 59):
            for delta in identities(p):
                assert matrix_identity_direct(p, delta)
        assert calls == []


class TestGaussSign:
    """`gauss_sign_numeric` passes iff g^2 = (-1)^m p exactly and g's image has a
    positive real (p = 1 mod 4) or imaginary (p = 3 mod 4) part: no tolerance."""

    @staticmethod
    def values(p: int, g=None) -> SimpleNamespace:
        return SimpleNamespace(p=p, m=(p - 1) // 2, g=gauss_sum(p) if g is None else g)

    @staticmethod
    def shifted(monkeypatch, scale, offset):
        real = verify.eval_complex
        monkeypatch.setattr(verify, "eval_complex",
                            lambda x, prec: scale * real(x, prec) + offset * math.sqrt(x.p))

    @pytest.mark.parametrize("p", [13, 19])
    def test_genuine_image_passes(self, p):
        assert verify._gauss_sign(self.values(p))[0]

    @pytest.mark.parametrize("p", [13, 19])
    def test_negated_image_fails(self, monkeypatch, p):
        self.shifted(monkeypatch, -1, 0)
        assert not verify._gauss_sign(self.values(p))[0]

    @pytest.mark.parametrize("p", [13, 19])
    def test_image_off_by_a_millionth_with_the_right_sign_passes(self, monkeypatch, p):
        """10^-6 sqrt(p) off, which a tolerance of 10^-8 sqrt(p) would fail."""
        offset = 1e-6 * (1 if p % 4 == 1 else 1j)
        self.shifted(monkeypatch, 1, offset)
        ok, lhs, rhs = verify._gauss_sign(self.values(p))
        assert abs(complex(lhs) - complex(rhs)) > 1e-8 * math.sqrt(p)
        assert ok

    @pytest.mark.parametrize("p", [13, 19])
    def test_wrong_square_fails(self, p):
        """2g has an image of the right sign, but (2g)^2 = 4g^2."""
        assert not verify._gauss_sign(self.values(p, 2 * gauss_sum(p)))[0]


@pytest.fixture(scope="module")
def report7():
    return run_prime(7)


@pytest.fixture(scope="module")
def report5():
    return run_prime(5, SweepOptions(delta="sweep"))


class TestRunPrime3Mod4:
    def test_all_checks_pass(self, report7):
        assert report7.all_passed()
        assert report7.residue8 == 7

    def test_criterion_values(self, report7):
        assert report7.det_S == -4
        assert abs(report7.decomp["a_p"]) == Fraction(7, 2)
        assert abs(report7.decomp["b_p"]) == Fraction(1, 2)
        assert report7.nu_a == 1 and report7.nu_b == 0

    def test_identities_exact(self, report7):
        a, b = report7.decomp["a_p"], report7.decomp["b_p"]
        assert 2**4 * a * b == 7 * (-4)
        assert 2**3 * (a * a - 7 * b * b) == 3 * (-7) * (-4)

    def test_check_names_unique_and_present(self, report7):
        names = set(report7.checks)
        for expected in (
            "gauss_square",
            "residue_product_formula",
            "det_product_relation",
            "ab_product_identity",
            "ab_norm_identity",
            "padic_valuations",
            "detS_two_adic_bound",
            "detS_not_divisible_by_p",
            "detD_square_identity",
            "legendre_matrix_identity",
            "detE_column_reduction",
            "det_multiplicativity",
            "dtilde_scaling",
        ):
            assert expected in names

    def test_valuations_3mod8_branch(self):
        report = run_prime(11)
        assert report.all_passed()
        assert report.nu_a == report.nu_b == 1  # (11-3)/8


class TestRunPrime1Mod4:
    def test_all_checks_pass(self, report5):
        assert report5.all_passed()

    def test_criterion_values(self, report5):
        assert report5.det_T == -4
        assert report5.det_SD == 0
        assert report5.decomp["alpha"] == 0
        assert abs(report5.decomp["beta"]) == Fraction(1, 2)
        alpha, beta = report5.decomp["alpha"], report5.decomp["beta"]
        assert abs(2**3 * 2 * (alpha**2 - 5 * beta**2)) == 20 == abs(5 * -4)

    def test_delta_sweep_has_both_nonresidues(self, report5):
        assert report5.deltas == (2, 3)
        assert "detSD_vanishes[d=3]" in report5.checks

    def test_explicit_delta_override(self):
        report = run_prime(5, SweepOptions(delta="3"))
        assert report.all_passed()
        assert report.delta == 3

    def test_invalid_explicit_delta_is_recorded_not_raised(self):
        report = run_prime(5, SweepOptions(delta="4"))
        assert report.checks["delta_valid[d=4]"].status == "fail"
        assert not report.all_passed()

    def test_discrepancy_recorded(self, report5):
        assert any("2^((p+1)/4)" in d and "non-integral" in d for d in report5.discrepancies)

    def test_p13(self):
        report = run_prime(13)
        assert report.all_passed()
        assert report.det_SD == 0


class TestRunRange:
    """Sweeps over a list of primes, through `run_primes`."""

    def test_two_primes(self):
        reports = run_primes([5, 7])
        assert [r.p for r in reports] == [5, 7]
        assert all(r.all_passed() for r in reports)

    def test_empty_range(self):
        assert run_primes([]) == []
        assert run_primes([], threads=2) == []

    def test_parallel_matches_serial(self):
        serial = run_primes([5, 7, 11, 13], threads=1)
        parallel = run_primes([5, 7, 11, 13], threads=2)
        for a, b in zip(serial, parallel):
            da, db = report_to_dict(a), report_to_dict(b)
            da.pop("timings_ms")
            db.pop("timings_ms")
            assert da == db

    def test_backend_skip_status(self, monkeypatch):
        monkeypatch.setattr(verify, "BAREISS_LIMIT", 5)
        report = run_primes([7])[0]
        assert report.checks["cyc_backend_agreement"].status == "skipped"
        assert report.checks["cyc_backend_agreement"].note == "p > bareiss limit 5"

    def test_a_pair_that_did_not_run_fails_unless_its_limit_excuses_it(self, monkeypatch):
        """The agreement rows read which backends ran from the determinants: with
        Bareiss never run, the integer row fails at every p, the cyclotomic row
        below BAREISS_LIMIT, and above it the cyclotomic row alone is excused."""
        monkeypatch.setattr(verify._PrimeValues, "cross_checked", lambda pv, family: False)
        monkeypatch.setattr(verify, "BAREISS_LIMIT", 5)
        five, seven = (r.checks for r in run_primes([5, 7]))
        assert five["cyc_backend_agreement"].status == "fail"
        assert five["cyc_backend_agreement"].note == "the backend pair did not run on C, D"
        assert five["int_backend_agreement[d=2]"].note == "the backend pair did not run on T, SD"
        assert seven["cyc_backend_agreement"].status == "skipped"
        assert seven["cyc_backend_agreement"].note == "p > bareiss limit 5"
        assert seven["int_backend_agreement"].status == "fail"
        assert seven["int_backend_agreement"].note == "the backend pair did not run on S"

    def test_modular_only_backend(self):
        report = run_primes([7], SweepOptions(backend="modular"))[0]
        assert report.all_passed()
        assert report.checks["int_backend_agreement"].status == "skipped"

    def test_bareiss_only_backend(self):
        report = run_primes([5], SweepOptions(backend="bareiss"))[0]
        assert report.all_passed()
        assert report.checks["cyc_backend_agreement"].note == "single backend 'bareiss'"

    def test_run_primes_keeps_the_given_order(self):
        reports = run_primes([11, 5, 7], threads=2)
        assert [r.p for r in reports] == [11, 5, 7]
        assert all(r.all_passed() for r in reports)

    @pytest.mark.parametrize("primes", [[11, 5, 7], [5, 13, 7, 11]])
    def test_pool_submits_the_largest_prime_first(self, monkeypatch, primes):
        """LPT order: the pool sees the primes in descending order, and the
        reports still come back in the given one."""
        submitted = []

        class InlinePool:  # runs each job at submission
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, p, opt):
                submitted.append(p)
                future = Future()
                future.set_result(fn(p, opt))
                return future

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InlinePool)
        reports = run_primes(primes, threads=2)
        assert submitted == sorted(primes, reverse=True)
        assert [r.p for r in reports] == primes
        assert all(r.all_passed() for r in reports)

    def test_run_primes_reports_a_bad_prime_without_aborting(self):
        bad, good = run_primes([3, 5])
        assert bad.checks["no_internal_error"].status == "fail"
        assert good.all_passed()


class TestOnePassPerDecision:
    """Each prime searches for its fundamental unit once and computes each
    determinant once, through the one `detkit.det` entry point."""

    def test_fundamental_unit_searched_once(self, count_calls):
        calls = count_calls(classno.fundamental_unit)
        report = run_prime(13)
        assert report.all_passed() and report.class_info.eps == (3, 1)
        assert calls == [13]

    @pytest.mark.parametrize(
        "p,backend,expected",
        [
            (7, "both", {"det_cyc_bareiss": "C D", "det_cyc_evalinterp": "C D Dtilde E",
                         "det_int_bareiss": "S", "det_int_modular": "S"}),
            (5, "both", {"det_cyc_bareiss": "C D", "det_cyc_evalinterp": "C D DD Dtilde F",
                         "det_int_bareiss": "SD T", "det_int_modular": "SD T"}),
            (7, "modular", {"det_cyc_evalinterp": "C D Dtilde E", "det_int_modular": "S"}),
            (5, "bareiss", {"det_cyc_bareiss": "C D DD Dtilde F", "det_int_bareiss": "SD T"}),
        ],
    )
    def test_each_determinant_once(self, count_calls, p, backend, expected):
        backends = [detkit.det_cyc_bareiss, detkit.det_cyc_evalinterp,
                    detkit.det_int_bareiss, detkit.det_int_modular]
        calls = {fn.__name__: count_calls(fn) for fn in backends}
        report = run_prime(p, SweepOptions(backend=backend))
        assert report.all_passed()
        seen = {name: " ".join(sorted(m.meta.family for m in c)) for name, c in calls.items()}
        assert {name: fams for name, fams in seen.items() if fams} == expected


class TestEvalinterpBand:
    def test_reads_no_cyclotomic_entries(self, count_calls):
        """Above BAREISS_LIMIT every cyclotomic determinant reads the coefficient
        array alone, by evaluation-interpolation: a prime passes with no call of
        the cyclotomic Bareiss."""
        calls = count_calls(detkit.det_cyc_bareiss)
        assert verify.BAREISS_LIMIT < 61
        assert run_prime(61).all_passed()
        assert calls == []


class TestTimings:
    def test_every_build_and_determinant_is_timed_where_it_happens(self, monkeypatch):
        """Every determinant of a prime lands in `determinants`, also those
        taken inside the check rows (T, SD, DD and F per delta)."""
        det, calls = verify.det, []

        def slow_det(m, *args):
            calls.append(m.meta.family)
            time.sleep(0.02)
            return det(m, *args)

        monkeypatch.setattr(verify, "det", slow_det)
        timings = run_prime(13, SweepOptions(delta="sweep")).timings_ms
        assert len(calls) == 15  # C, D, Dtilde, then T, SD, DD, F for three deltas
        assert list(timings) == ["build", "determinants", "checks", "total"]
        assert timings["determinants"] >= 20 * len(calls)
        parts = timings["build"] + timings["determinants"] + timings["checks"]
        assert parts <= timings["total"] + 0.002  # each value is rounded to 0.001 ms


class TestCheckTable:
    """The recorded checks are the table's rows, and the table reaches the
    builders and helpers through module names rebound at call time."""

    @staticmethod
    def expected_names(report) -> list[str]:
        p = report.p
        rows = [row for row in verify.CHECKS if row.residue in (None, p % 4)]
        multipliers = sorted({2 % p, 3 % p, primitive_root(p), p - 1} - {0})
        names = []
        for row in rows:
            if row.over == "a":
                names += [f"{row.name}[a={a}]" for a in multipliers]
            elif row.over == "":
                names.append(row.name)
        for d in report.deltas:
            names += [f"{row.name}[d={d}]" for row in rows if row.over == "d"]
        return names

    def test_recorded_names_are_the_expanded_rows(self):
        recorded = set()
        for p in (5, 7, 11, 13):
            report = run_prime(p, SweepOptions(delta="sweep"))
            assert report.all_passed()
            assert list(report.checks) == self.expected_names(report)
            recorded |= {name.split("[")[0] for name in report.checks}
        assert recorded == {row.name for row in verify.CHECKS}

    @pytest.mark.parametrize(
        "p,options,expected",
        [
            # p = 13 sweeps deltas 2, 5, 6.  Per delta: T, SD, DD and F for the
            # determinants, and Dtilde, DD and F again for the literal product.
            (13, SweepOptions(delta="sweep"),
             {"matrix_identity_direct": 3, "legendre_sum_classes_hold": 1,
              "build_C": 1, "build_D": 1, "build_D_tilde": 1 + 3, "build_D_delta": 3 + 3,
              "build_F": 3 + 3, "build_T": 3, "build_S_delta": 3, "build_S": 0, "build_E": 0}),
            # p = 7: one literal product rebuilds Dtilde, D and E
            (7, SweepOptions(),
             {"matrix_identity_direct": 1, "legendre_sum_classes_hold": 1,
              "build_C": 1, "build_D": 1 + 1, "build_D_tilde": 1 + 1, "build_D_delta": 0,
              "build_F": 0, "build_T": 0, "build_S_delta": 0, "build_S": 1, "build_E": 1 + 1}),
        ],
    )
    def test_helpers_called_through_rebindable_names(self, count_calls, p, options, expected):
        fns = [verify.matrix_identity_direct, verify.legendre_sum_classes_hold] + [
            getattr(matrices, name) for name in expected if name.startswith("build_")]
        calls = {fn.__name__: count_calls(fn) for fn in fns}
        assert run_prime(p, options).all_passed()
        assert {name: len(c) for name, c in calls.items()} == expected


class TestResolveDeltas:
    def test_least(self):
        assert resolve_deltas(13, SweepOptions()) == ([2], [])

    def test_sweep(self):
        assert resolve_deltas(13, SweepOptions(delta="sweep")) == ([2, 5, 6], [])

    def test_explicit_invalid(self):
        good, bad = resolve_deltas(13, SweepOptions(delta="4"))
        assert good == [] and bad == [4]

    def test_not_applicable_for_3mod4(self):
        assert resolve_deltas(7, SweepOptions()) == ([], [])

    @pytest.mark.parametrize("text", ["sweep:0", "sweep:-2", "sweep:", "abc", ""])
    def test_bad_text_raises_at_construction(self, text):
        with pytest.raises(ValueError):
            SweepOptions(delta=text)

    @pytest.mark.parametrize("text,normal", [("sweep", "sweep:3"), ("sweep:03", "sweep:3"),
                                             ("+4", "4"), ("-3", "-3")])
    def test_each_choice_has_one_spelling(self, text, normal):
        assert SweepOptions(delta=text) == SweepOptions(delta=normal)
        assert repr(SweepOptions(delta=text)) == repr(SweepOptions(delta=normal))
        assert SweepOptions(delta=text).delta == normal


class TestSerialization:
    def test_failure_carries_both_sides(self):
        check = CheckResult("demo", "fail", "1 + g", "2 + g", "note")
        assert check.lhs and check.rhs


class TestDeadWorker:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the killer is installed by monkeypatch, which workers inherit only by fork")
    def test_a_dead_worker_costs_one_prime(self, monkeypatch):
        parent = os.getpid()
        real_run_prime = verify.run_prime

        def killer(p, opt):
            if p == 11 and os.getpid() != parent:
                os._exit(1)
            return real_run_prime(p, opt)

        monkeypatch.setattr(verify, "run_prime", killer)
        primes = [5, 7, 11, 13, 17]
        pooled = run_primes(primes, threads=2)
        serial = run_primes([5, 7, 13, 17])
        assert [r.p for r in pooled] == primes
        lost = pooled.pop(2)
        assert list(lost.checks) == ["no_internal_error"]
        assert lost.checks["no_internal_error"].lhs == "BrokenProcessPool"
        for a, b in zip(pooled, serial):
            da, db = report_to_dict(a), report_to_dict(b)
            da.pop("timings_ms")
            db.pop("timings_ms")
            assert da == db and a.all_passed()
