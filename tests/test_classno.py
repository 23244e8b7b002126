import pytest

from cyclodet.classno import (
    class_data,
    fundamental_unit,
    h_neg,
    squares_product,
    verify_product_formula,
)
from cyclodet.cycring import CycElt
from cyclodet.modarith import primes_between

from oracles import narrow_class_number, pell_brute_force, squares_product_by_mul

H_NEG_TABLE = {
    7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5,
    59: 3, 67: 1, 71: 7, 79: 5, 83: 3,
}

FUNDAMENTAL_UNITS = {
    5: (1, 1),
    13: (3, 1),
    17: (8, 2),
    29: (5, 1),
    37: (12, 2),
    41: (64, 10),
    53: (7, 1),
    61: (39, 5),
}


class TestHNeg:
    @pytest.mark.parametrize("p,h", sorted(H_NEG_TABLE.items()))
    def test_table(self, p, h):
        assert h_neg(p) == h

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            h_neg(13)
        with pytest.raises(ValueError):
            h_neg(3)


class TestFundamentalUnit:
    @pytest.mark.parametrize("p,tu", sorted(FUNDAMENTAL_UNITS.items()))
    def test_table(self, p, tu):
        assert fundamental_unit(p) == tu

    @pytest.mark.parametrize("p", [p for p in primes_between(5, 200) if p % 4 == 1])
    def test_pell_relation_and_minimality(self, p):
        t, u = fundamental_unit(p)
        assert t > 0 and u >= 1
        assert t * t - p * u * u in (4, -4)
        assert pell_brute_force(p, u + 1) == (t, u)  # no smaller u solves it

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            fundamental_unit(7)


class TestProductFormula:
    def test_p7_sign(self):
        result = verify_product_formula(7)
        assert result.passed
        assert result.sign == -1  # (-1)^((h(-7)+1)/2) with h(-7) = 1

    def test_p5_unit_power(self):
        result = verify_product_formula(5)
        assert result.passed and result.h == 1 and result.sign == 1

    def test_p13(self):
        result = verify_product_formula(13)
        assert result.passed and result.h == 1

    @pytest.mark.parametrize("p", [p for p in primes_between(5, 60) if p % 4 == 3])
    def test_squared_form(self, p):
        prod = squares_product(p)
        assert prod * prod == CycElt.rational(p, -p)

    @pytest.mark.parametrize("p", primes_between(3, 101))
    def test_squares_product_matches_ring_products(self, p):
        assert squares_product(p) == squares_product_by_mul(p)

    @pytest.mark.parametrize("p", [p for p in primes_between(5, 100) if p % 4 == 3])
    def test_sign_matches_form_count(self, p):
        result = verify_product_formula(p)
        assert result.passed
        expected = -1 if (h_neg(p) + 1) // 2 % 2 else 1
        assert result.sign == expected

    @pytest.mark.parametrize("p", [p for p in primes_between(5, 100) if p % 4 == 1])
    def test_h_matches_narrow_form_oracle(self, p):
        result = verify_product_formula(p)
        assert result.passed
        assert result.h == narrow_class_number(p)

    def test_oracle_detects_larger_class_number(self):
        # 229 is the least prime = 1 mod 4 with class number 3
        assert narrow_class_number(229) == 3
        assert narrow_class_number(257) == 3


class TestClassData:
    def test_negative_side(self):
        data = class_data(23)
        assert data.h_neg == 3 and data.h_pos is None and data.eps is None

    def test_positive_side(self):
        data = class_data(13)
        assert data.h_neg is None and data.h_pos == 1 and data.eps == (3, 1)
