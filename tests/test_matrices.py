import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from cyclodet.cycring import CycElt
from cyclodet.matrices import (
    EntryTable,
    ExactMatrix,
    MatrixMeta,
    build,
    build_C,
    build_D,
    build_D_delta,
    build_D_tilde,
    build_E,
    build_F,
    build_S,
    build_S_delta,
    build_T,
    matmul,
)
from cyclodet.modarith import distinct_nonresidues, is_prime, legendre
from cyclodet.subfield import gauss_sum

from oracles import dense_coeffs, entries, exact_matrix, reference_rows

REFERENCE_PRIMES = [p for p in range(5, 62) if is_prime(p)] + [101, 103]
TABLE_CASES = [(family, p) for p in range(3, 114) if is_prime(p)
               for family in ("C", "D", "Dtilde") + (("E",) if p % 4 == 3 else ("DD", "F"))]
TABLE_CASES += [("C", 197), ("DD", 197), ("C", 199), ("D", 199)]
REFERENCE_CASES = [
    (family, p) for p in REFERENCE_PRIMES
    for family in ("C", "D", "Dtilde", "S", "T", "SD", "DD", "E" if p % 4 == 3 else "F")
]


def zeta(p, k=1):
    return CycElt.zeta(p, k)


class TestBuildC:
    def test_p3_is_one_by_one_identity(self):
        c = build_C(3)
        assert c.n == 1
        assert entries(c)[0][0] == CycElt.one(3)

    def test_p5_entry_12(self):
        c = build_C(5)
        assert entries(c)[0][1] == 1 + zeta(5) + zeta(5, 2) + zeta(5, 3)

    def test_p7_entry_23_matches_exact_division(self):
        c = build_C(7)
        # the (j, k) = (2, 3) entry is (1 - zeta^(j^2 k^2)) / (1 - zeta^(j^2))
        assert entries(c)[1][2] * (1 - zeta(7, 4)) == 1 - zeta(7, 36)

    def test_entries_integral(self):
        """Each entry is the quotient (1 - zeta^(j^2 k^2)) / (1 - zeta^(j^2)) in Z[zeta_p]."""
        c = build_C(11)
        assert c.coeffs.dtype == np.int64
        for j, row in enumerate(entries(c), 1):
            for k, e in enumerate(row, 1):
                assert e * (1 - zeta(11, j * j)) == 1 - zeta(11, j * j * k * k)


class TestBuildD:
    def test_row_one_p5(self):
        d = build_D(5)
        assert entries(d)[1] == (CycElt.one(5), zeta(5), zeta(5, 4))

    def test_border_is_ones(self):
        d = build_D(11)
        assert all(e == CycElt.one(11) for e in entries(d)[0])
        assert all(row[0] == CycElt.one(11) for row in entries(d))

    def test_delta_twist(self):
        dd = build_D_delta(5, 2)
        assert entries(dd)[1][1] == zeta(5, 2)

    def test_delta_must_be_nonresidue(self):
        with pytest.raises(ValueError):
            build_D_delta(5, 4)


class TestBuildDTilde:
    def test_column_zero_is_ones(self):
        dt = build_D_tilde(5)
        assert all(row[0] == CycElt.one(5) for row in entries(dt))

    def test_doubled_entry(self):
        dt = build_D_tilde(5)
        assert entries(dt)[1][2] == 2 * zeta(5, 4)

    def test_exponent_arithmetic_p7(self):
        dt = build_D_tilde(7)
        assert entries(dt)[3][3] == 2 * zeta(7, 4)  # 81 = 4 mod 7


class TestBuildEF:
    def test_E_corner_is_minus_gauss_sum(self):
        e = build_E(7)
        assert entries(e)[0][0] == -gauss_sum(7)

    def test_E_legendre_entry(self):
        e = build_E(7)
        assert entries(e)[1][1] == CycElt.one(7)  # (2/7) = +1

    def test_E_wrong_residue_class(self):
        with pytest.raises(ValueError):
            build_E(5)

    def test_F_corner_and_entry(self):
        f = build_F(5, 2)
        assert entries(f)[0][0] == gauss_sum(5)
        assert entries(f)[1][2] == CycElt.one(5)  # (9/5) = +1

    def test_F_wrong_residue_class(self):
        with pytest.raises(ValueError):
            build_F(7, 3)


class TestLegendreFamilies:
    def test_S7(self):
        assert entries(build_S(7)) == ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))

    def test_T25(self):
        assert entries(build_T(5, 2)) == ((0, -1, -1), (1, -1, 1), (1, 1, -1))

    def test_SD25(self):
        assert entries(build_S_delta(5, 2)) == ((-1, 1), (1, -1))

    def test_T_rejects_residue_delta(self):
        with pytest.raises(ValueError):
            build_T(5, 4)

    @pytest.mark.parametrize("p", [5, 13, 17, 29])
    def test_T_border(self, p):
        delta = distinct_nonresidues(p, 1)[0]
        t = build_T(p, delta)
        assert entries(t)[0][0] == 0
        assert all(entries(t)[0][k] == -1 for k in range(1, t.n))
        assert all(entries(t)[j][0] == 1 for j in range(1, t.n))

    @pytest.mark.parametrize("p", [7, 11, 13, 29])
    def test_S_symmetric(self, p):
        s = build_S(p)
        assert all(
            entries(s)[j][k] == entries(s)[k][j] for j in range(s.n) for k in range(s.n)
        )

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 37])
    def test_SD_transpose_swaps_delta_inverse(self, p):
        # S(delta, p)^T = -S(delta^(-1), p) because (delta/p) = -1
        for delta in distinct_nonresidues(p, 2):
            dinv = pow(delta, -1, p)
            assert legendre(dinv, p) == -1
            lhs = build_S_delta(p, delta)
            rhs = build_S_delta(p, dinv)
            assert all(
                entries(lhs)[k][j] == -entries(rhs)[j][k]
                for j in range(lhs.n)
                for k in range(lhs.n)
            )


class TestMatmul:
    def test_two_by_two(self):
        d3 = build_D(3)
        sq = matmul(d3, d3)
        z = zeta(3)
        assert entries(sq)[0][0] == 2
        assert entries(sq)[1][1] == 1 + z * z

    def test_integer_product(self):
        s = entries(build_S(7))
        expected = tuple(tuple(sum(s[i][t] * s[t][j] for t in range(3)) for j in range(3))
                         for i in range(3))
        assert entries(matmul(build_S(7), build_S(7))) == expected

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(build_D(5), build_D(7))
        with pytest.raises(ValueError):  # both 3 x 3, over different fields
            matmul(build_C(7), build_D(5))


class TestExactMatrix:
    @pytest.mark.parametrize("family, p", REFERENCE_CASES)
    def test_coeffs_equal_the_reference(self, family, p):
        """Each builder's array is the entries built one at a time (`oracles.reference_rows`),
        int64 and read-only; T, SD, DD and F at each of three non-residues."""
        deltas = distinct_nonresidues(p, 3) if family in ("T", "SD", "DD", "F") else [None]
        for delta in deltas:
            args = () if delta is None else (delta,)
            m = build(family, p, *args)
            ref = reference_rows(family, p, *args)
            expected = ref if m.kind == "int" else [[list(e.coeffs) for e in row] for row in ref]
            assert m.coeffs.dtype == np.int64 and not m.coeffs.flags.writeable
            assert m.coeffs.tolist() == expected
            assert entries(m) == tuple(map(tuple, ref))

    @pytest.mark.parametrize("family, p", TABLE_CASES)
    def test_coeffs_from_the_table_equal_the_dense_fill(self, family, p):
        """The coefficients filled from each cyclotomic builder's table on first read are
        the array the builders filled before they held tables (`oracles.dense_coeffs`), int64
        and read-only, and are kept; DD and F at each of three non-residues."""
        deltas = distinct_nonresidues(p, 3) if family in ("DD", "F") else [None]
        for delta in deltas:
            args = () if delta is None else (delta,)
            m = build(family, p, *args)
            assert m.table is not None and m.kind == "cyc"
            assert m.coeffs.dtype == np.int64 and not m.coeffs.flags.writeable
            assert np.array_equal(m.coeffs, dense_coeffs(family, p, *args))
            assert m.coeffs is m.coeffs

    @pytest.mark.parametrize("change", [
        {"exp": np.array([[0, 6]])}, {"exp": np.array([[0, -1], [0, 1]])},
        {"exp": np.array([[0, 7], [0, 1]])}, {"scale": np.array([0, 1])},
        {"scale": np.array([1])}, {"corner": np.zeros(5, dtype=np.int64)},
        {"exp": np.array(0), "mult": np.array(1)},
        {"exp": np.zeros((0, 0), dtype=np.int64), "mult": np.zeros((0, 0), dtype=np.int64),
         "scale": np.zeros(0, dtype=np.int64)},
    ])
    def test_a_table_that_fits_no_matrix_is_refused(self, change):
        """Tables of another shape or none, exponents outside [0, p), a row scaling by
        zeta^0 or of another length, a corner of another length or in an empty matrix."""
        base = EntryTable(np.zeros((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64),
                          np.array([1, 2]), np.zeros(6, dtype=np.int64))
        with pytest.raises(ValueError, match="tables"):
            ExactMatrix(dataclasses.replace(base, **change), MatrixMeta(7, "test"))

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 3, 4), (2, 2, 4, 1)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="shape"):
            ExactMatrix(np.zeros(shape, dtype=np.int64), MatrixMeta(5, "test"))

    @pytest.mark.parametrize("length", [3, 5, 6])
    def test_rejects_wrong_coefficient_count(self, length):
        with pytest.raises(ValueError, match="shape"):
            ExactMatrix(np.zeros((2, 2, length), dtype=np.int64), MatrixMeta(5, "test"))

    def test_kind_is_the_rank(self):
        meta = MatrixMeta(5, "test")
        assert ExactMatrix(np.zeros((2, 2), dtype=np.int64), meta).kind == "int"
        assert ExactMatrix(np.zeros((2, 2, 4), dtype=np.int64), meta).kind == "cyc"

    def test_rejects_non_integral(self):
        """A non-integral entry cannot be formed: the ring refuses a Fraction."""
        with pytest.raises(TypeError):
            exact_matrix([[Fraction(1, 2) * CycElt.one(5)]], 5)
        with pytest.raises(TypeError):
            exact_matrix([[CycElt(5, [Fraction(1, 2), 0, 0, 0])]], 5)
        assert exact_matrix([[CycElt.one(5)]], 5).coeffs.tolist() == [[[1, 0, 0, 0]]]
