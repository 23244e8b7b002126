import random
from fractions import Fraction

import numpy as np
import pytest

from cyclodet.cycring import CycElt, eval_complex
from cyclodet.detkit import (
    DetResult,
    _det_mod_prime,
    _EvalData,
    _values_at_nodes,
    det,
    det_cyc_bareiss,
    det_cyc_evalinterp,
    det_int_bareiss,
    det_int_modular,
)
from cyclodet.matrices import (
    ExactMatrix,
    MatrixMeta,
    build_C,
    build_D,
    build_S,
    build_S_delta,
    build_T,
    matmul,
)
from cyclodet.modarith import aux_primes
from cyclodet.subfield import quad_decompose

from oracles import det_cofactor, det_numeric, random_cyc


def int_matrix(rows, p=5):
    return ExactMatrix("int", rows, MatrixMeta(p, "test"))


def cyc_matrix(rows, p):
    return ExactMatrix("cyc", rows, MatrixMeta(p, "test"))


class TestIntBackends:
    def test_one_by_one(self):
        assert det_int_bareiss(int_matrix([[1]])) == 1

    def test_S7(self):
        s = build_S(7)
        assert det_int_bareiss(s) == -4
        assert det_int_modular(s) == -4

    def test_SD25_vanishes(self):
        sd = build_S_delta(5, 2)
        assert det_int_bareiss(sd) == 0
        assert det_int_modular(sd) == 0

    def test_T25(self):
        t = build_T(5, 2)
        assert det_int_bareiss(t) == -4
        assert det_int_modular(t) == -4

    def test_zero_matrix(self):
        z = int_matrix([[0, 0], [0, 0]])
        assert det_int_bareiss(z) == 0
        assert det_int_modular(z) == 0

    def test_backend_agreement_200_random(self):
        rng = random.Random(0x5EED)
        for _ in range(200):
            n = rng.randint(1, 8)
            rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
            m = int_matrix(rows)
            assert det_int_bareiss(m) == det_int_modular(m)

    def test_cofactor_oracle_small(self):
        rng = random.Random(0xACE)
        for _ in range(50):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m = int_matrix(rows)
            expected = det_cofactor([list(r) for r in rows])
            assert det_int_bareiss(m) == expected
            assert det_int_modular(m) == expected

    def test_large_entries(self):
        rows = [[10**20, 3], [-7, 10**22]]
        m = int_matrix(rows)
        expected = 10**42 + 21
        assert det_int_bareiss(m) == expected
        assert det_int_modular(m) == expected


class TestCycBackends:
    def test_one_by_one_zeta(self):
        m = cyc_matrix([[CycElt.zeta(5)]], 5)
        assert det_cyc_bareiss(m) == CycElt.zeta(5)
        assert det_cyc_evalinterp(m) == CycElt.zeta(5)

    def test_D3(self):
        d3 = build_D(3)
        expected = CycElt.zeta(3) - 1
        assert det_cyc_bareiss(d3) == expected
        assert det_cyc_evalinterp(d3) == expected

    def test_diagonal(self):
        p = 7
        z = CycElt.zeta(p)
        zero = CycElt.zero(p)
        m = cyc_matrix([[z, zero], [zero, z * z]], p)
        assert det_cyc_evalinterp(m) == z**3
        assert det_cyc_bareiss(m) == z**3

    def test_D5_numeric_oracle(self):
        d = det_cyc_bareiss(build_D(5))
        val = eval_complex(d).value
        assert val == pytest.approx(det_numeric(build_D(5)), abs=1e-9)
        assert val == pytest.approx(-2.6287j, abs=1e-3)

    def test_D7_subfield_coordinates(self):
        d = det_cyc_evalinterp(build_D(7))
        q = quad_decompose(d)
        assert q.x == q.y
        assert abs(2 * q.x) == 7

    def test_cofactor_oracle_small(self):
        rng = random.Random(0xF00D)
        for _ in range(30):
            p = rng.choice([5, 7])
            n = rng.randint(1, 4)
            rows = [[random_cyc(rng, p, span=2) for _ in range(n)] for _ in range(n)]
            m = cyc_matrix(rows, p)
            expected = det_cofactor([list(r) for r in rows])
            assert det_cyc_bareiss(m) == expected
            assert det_cyc_evalinterp(m) == expected

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_backend_agreement_paper_families(self, p):
        for mat in (build_C(p), build_D(p)):
            assert det_cyc_bareiss(mat) == det_cyc_evalinterp(mat)

    def test_multiplicativity(self):
        rng = random.Random(0xD1CE)
        for _ in range(20):
            p = rng.choice([5, 7])
            n = rng.randint(2, 3)
            a = cyc_matrix(
                [[random_cyc(rng, p, span=2) for _ in range(n)] for _ in range(n)], p
            )
            b = cyc_matrix(
                [[random_cyc(rng, p, span=2) for _ in range(n)] for _ in range(n)], p
            )
            lhs = det_cyc_bareiss(matmul(a, b))
            assert lhs == det_cyc_bareiss(a) * det_cyc_bareiss(b)

    def test_rejects_non_integral(self):
        bad = cyc_matrix([[Fraction(1, 2) * CycElt.one(5)]], 5)
        with pytest.raises(ValueError):
            det_cyc_bareiss(bad)
        with pytest.raises(ValueError):
            det_cyc_evalinterp(bad)

    def test_singular(self):
        p = 5
        z = CycElt.zeta(p)
        m = cyc_matrix([[z, z], [z, z]], p)
        assert det_cyc_bareiss(m).is_zero()
        assert det_cyc_evalinterp(m).is_zero()


class TestDetDispatcher:
    def test_both_backends_cross_checked(self):
        result = det(build_S(7), backend="both")
        assert isinstance(result, DetResult)
        assert result.value == -4
        assert result.backend == "both"
        assert result.stats["elimination_steps"] == 2
        assert result.stats["moduli"] and result.stats["coefficient_bound"] >= 4

    def test_evalinterp_stats(self):
        result = det(build_D(7), backend="modular")
        assert result.stats["nodes"] == 6
        assert len(result.stats["moduli"]) >= 3

    def test_single_backends(self):
        assert det(build_S(7), backend="bareiss").value == -4
        assert det(build_S(7), backend="modular").value == -4

    def test_integral_result_invariant(self):
        result = det(build_D(7), backend="both")
        assert result.value.is_integral

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            det(build_S(7), backend="magic")

    def test_values_per_backend_and_disagreement(self):
        result = det(build_D(7), backend="both")
        assert len(result.values) == 2 and result.agree
        assert len(det(build_D(7), backend="modular").values) == 1
        broken = DetResult((-4, 4), "both")
        assert not broken.agree
        with pytest.raises(ArithmeticError):
            broken.value


class TestInt64Headroom:
    """A modulus too large for int64 products raises instead of wrapping."""

    def test_det_mod_prime_refuses_q_whose_square_overflows(self):
        with pytest.raises(OverflowError):
            _det_mod_prime(np.array([[1, 2], [3, 4]]), (1 << 32) + 15)

    def test_values_at_nodes_refuses_sums_that_can_wrap(self):
        # (q-1)^2 fits in int64, a sum of p-1 = 4 such products does not
        q = next(aux_primes(5, 1 << 31))
        data = _EvalData(5, q)
        with pytest.raises(OverflowError):
            _values_at_nodes([[q - 1] * 4], True, data)
