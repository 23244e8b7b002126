import multiprocessing
import os
from fractions import Fraction

import pytest

from cyclodet import classno, detkit, verify
from cyclodet.modarith import primes_between, primitive_root
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
    run_range,
)


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

    @pytest.mark.parametrize("p", primes_between(5, 60))
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


@pytest.fixture(scope="module")
def report7():
    return run_prime(7)


@pytest.fixture(scope="module")
def report5():
    return run_prime(5, SweepOptions(delta_mode="sweep"))


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
        report = run_prime(5, SweepOptions(delta_mode="explicit", delta_value=3))
        assert report.all_passed()
        assert report.delta == 3

    def test_invalid_explicit_delta_is_recorded_not_raised(self):
        report = run_prime(5, SweepOptions(delta_mode="explicit", delta_value=4))
        assert report.checks["delta_valid[d=4]"].status == "fail"
        assert not report.all_passed()

    def test_discrepancy_recorded(self, report5):
        assert any("2^((p+1)/4)" in d and "non-integral" in d for d in report5.discrepancies)

    def test_p13(self):
        report = run_prime(13)
        assert report.all_passed()
        assert report.det_SD == 0


class TestRunRange:
    def test_two_primes(self):
        reports = run_range(5, 7)
        assert [r.p for r in reports] == [5, 7]
        assert all(r.all_passed() for r in reports)

    def test_empty_range(self):
        assert run_range(4, 4) == []

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            run_range(10, 5)
        with pytest.raises(ValueError):
            run_range(2, 9)

    def test_parallel_matches_serial(self):
        serial = run_range(5, 13, SweepOptions(threads=1))
        parallel = run_range(5, 13, SweepOptions(threads=2))
        for a, b in zip(serial, parallel):
            da, db = report_to_dict(a), report_to_dict(b)
            da.pop("timings_ms")
            db.pop("timings_ms")
            assert da == db

    def test_backend_skip_status(self, monkeypatch):
        monkeypatch.setattr(verify, "BAREISS_LIMIT", 5)
        report = run_range(7, 7)[0]
        assert report.checks["cyc_backend_agreement"].status == "skipped"
        assert report.checks["cyc_backend_agreement"].note == "p > bareiss limit 5"

    def test_modular_only_backend(self):
        report = run_range(7, 7, SweepOptions(backend="modular"))[0]
        assert report.all_passed()
        assert report.checks["int_backend_agreement"].status == "skipped"

    def test_bareiss_only_backend(self):
        report = run_range(5, 5, SweepOptions(backend="bareiss"))[0]
        assert report.all_passed()
        assert report.checks["cyc_backend_agreement"].note == "single backend 'bareiss'"

    def test_run_primes_keeps_the_given_order(self):
        reports = run_primes([11, 5, 7], SweepOptions(threads=2))
        assert [r.p for r in reports] == [11, 5, 7]
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


class TestResolveDeltas:
    def test_least(self):
        assert resolve_deltas(13, SweepOptions()) == ([2], [])

    def test_sweep(self):
        assert resolve_deltas(13, SweepOptions(delta_mode="sweep")) == ([2, 5, 6], [])

    def test_explicit_invalid(self):
        good, bad = resolve_deltas(
            13, SweepOptions(delta_mode="explicit", delta_value=4)
        )
        assert good == [] and bad == [4]

    def test_not_applicable_for_3mod4(self):
        assert resolve_deltas(7, SweepOptions()) == ([], [])


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
        pooled = run_primes(primes, SweepOptions(threads=2))
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
