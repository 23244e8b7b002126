from fractions import Fraction

import pytest

from cyclodet import classno
from cyclodet.classno import (
    class_data,
    fundamental_unit,
    h_neg,
    squares_product,
    verify_product_formula,
)
from cyclodet.cycring import CycElt
from cyclodet.modarith import is_prime
from cyclodet.subfield import QuadElt

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

    @pytest.mark.parametrize("p", [p for p in range(5, 201) if is_prime(p) and p % 4 == 1])
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

    @pytest.mark.parametrize("p", [p for p in range(5, 61) if is_prime(p) and p % 4 == 3])
    def test_squared_form(self, p):
        prod = squares_product(p)
        assert prod * prod == CycElt.rational(p, -p)

    @pytest.mark.parametrize("p", [p for p in range(3, 102) if is_prime(p)])
    def test_squares_product_matches_ring_products(self, p):
        assert squares_product(p) == squares_product_by_mul(p)

    @pytest.mark.parametrize("p", [p for p in range(5, 101) if is_prime(p) and p % 4 == 3])
    def test_sign_matches_form_count(self, p):
        result = verify_product_formula(p)
        assert result.passed
        expected = -1 if (h_neg(p) + 1) // 2 % 2 else 1
        assert result.sign == expected

    @pytest.mark.parametrize("p", [p for p in range(5, 101) if is_prime(p) and p % 4 == 1])
    def test_h_matches_narrow_form_oracle(self, p):
        result = verify_product_formula(p)
        assert result.passed
        assert result.h == narrow_class_number(p)

    def test_inverse_identity_does_not_pass(self, monkeypatch):
        # P = g*eps satisfies P*eps^(-1) = g, but P*eps^h = +/-g for no h >= 1
        t, u = fundamental_unit(29)
        fake = QuadElt(29, 0, 1) * QuadElt(29, Fraction(t, 2), Fraction(u, 2))
        monkeypatch.setattr(classno, "squares_product", lambda p: fake.embed())
        result = verify_product_formula(29)
        assert not result.passed and result.h is None

    def test_unit_power_past_the_old_search_cap(self, monkeypatch):
        # P = g*eps^(-450), so P*eps^h = +/-g first at h = 450
        t, u = fundamental_unit(13)
        eps = QuadElt(13, Fraction(t, 2), Fraction(u, 2))
        fake = QuadElt(13, 0, 1) * eps**-450
        monkeypatch.setattr(classno, "squares_product", lambda p: fake.embed())
        result = verify_product_formula(13)
        assert result.passed and result.h == 450 and result.sign == 1
        assert result.detail == "P*eps^450 = g (forward)"

    def test_search_stops_once_no_power_can_match(self, monkeypatch):
        # 2P*eps = 2g; 2P*eps^2 = 13 + 3g has x*y > 0, so the search ends there
        real, muls = squares_product(13), []
        monkeypatch.setattr(classno, "squares_product", lambda p: 2 * real)
        product = QuadElt.__mul__

        def counted(a, b):
            muls.append(b)
            return product(a, b)

        monkeypatch.setattr(QuadElt, "__mul__", counted)
        result = verify_product_formula(13)
        assert not result.passed and result.h is None and result.detail == "no unit power matched"
        assert len(muls) == 2

    def test_zero_product_matches_no_power(self, monkeypatch):
        monkeypatch.setattr(classno, "squares_product", lambda p: CycElt.zero(p))
        result = verify_product_formula(13)
        assert not result.passed and result.detail == "no unit power matched"

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
