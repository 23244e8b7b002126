import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from cyclodet import subfield
from cyclodet.cycring import CycElt, eval_complex
from cyclodet.detkit import det_cyc_bareiss, det_cyc_evalinterp
from cyclodet.matrices import build_D
from cyclodet.modarith import distinct_nonresidues, is_prime, legendre
from cyclodet.subfield import (
    QuadElt,
    fourth_power_sum,
    gauss_sum,
    padic_val,
    quad_decompose,
    quartic_decompose,
    quartic_gauss_check,
    two_squares,
)
from cyclodet.classno import squares_product

from oracles import random_cyc


class TestGaussSum:
    def test_p3_closed_form(self):
        assert gauss_sum(3) == CycElt.zeta(3) - CycElt.zeta(3, 2)
        assert gauss_sum(3) * gauss_sum(3) == CycElt.rational(3, -3)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_square_is_signed_p(self, p):
        g = gauss_sum(p)
        sign = 1 if p % 4 == 1 else -1
        assert g * g == CycElt.rational(p, sign * p)

    @pytest.mark.parametrize("p", [5, 7, 13, 19])
    def test_numeric_principal_branch(self, p):
        val = complex(eval_complex(gauss_sum(p), 30))
        expected = math.sqrt(p) * (1 if p % 4 == 1 else 1j)
        assert val == pytest.approx(expected, abs=1e-10)


class TestQuadElt:
    def test_arithmetic(self):
        x = QuadElt(5, 1, 2)
        y = QuadElt(5, 3, -1)
        assert x + y == QuadElt(5, 4, 1)
        assert x * y == QuadElt(5, 3 - 2 * 5, 6 - 1)  # g^2 = 5
        assert x * x.inverse() == QuadElt(5, 1, 0)

    def test_negative_power(self):
        eps = QuadElt(5, Fraction(1, 2), Fraction(1, 2))
        assert eps**3 * eps**-3 == QuadElt(5, 1, 0)

    def test_norm_sign_depends_on_residue_class(self):
        assert QuadElt(5, 1, 1).norm() == 1 - 5
        assert QuadElt(7, 1, 1).norm() == 1 + 7

    @pytest.mark.parametrize("x, y", [(0.1, 0), (1, 0.5), (1, "1/2"), (Decimal(1), 0)])
    def test_rejects_inexact_coordinates(self, x, y):
        with pytest.raises(TypeError):
            QuadElt(5, x, y)

    def test_rational_hashes_as_its_value(self):
        """An element with y = 0 equals its x, an int or a Fraction, and hashes alike, so a
        set or a dict finds either by the other; with y != 0 the hash keeps p."""
        for x in (Fraction(1, 2), Fraction(-7, 3), 3, 0):
            elt = QuadElt(5, x, 0)
            assert elt == x and hash(elt) == hash(x)
            assert x in {elt} and elt in {x} and {x: 1}[elt] == 1
        assert QuadElt(5, 3, 0) in {QuadElt(5, Fraction(6, 2), 0)}
        assert QuadElt(5, 1, 1) not in {1, QuadElt(5, 1, 2)}

    def test_embed_matches_cyclotomic_arithmetic(self):
        x = QuadElt(7, Fraction(5, 2), Fraction(1, 2))
        y = QuadElt(7, -1, 3)
        assert (x * y).embed() == x.embed() * y.embed()

    @pytest.mark.parametrize("p", [7, 13])
    def test_embed_of_half_integers(self, p):
        """(1 + g)/2 is an algebraic integer, in either residue class; 1/2 is not."""
        half = Fraction(1, 2)
        assert 2 * QuadElt(p, half, half).embed() == 1 + gauss_sum(p)
        for x, y in ((half, 0), (0, half), (half, 1)):
            with pytest.raises(ValueError, match="algebraic integer"):
                QuadElt(p, x, y).embed()


class TestQuadDecompose:
    def test_rational(self):
        assert quad_decompose(CycElt.one(7)) == QuadElt(7, 1, 0)

    def test_gauss_sum_itself(self):
        assert quad_decompose(gauss_sum(7)) == QuadElt(7, 0, 1)

    def test_p7_squares_product_is_minus_g(self):
        prod = squares_product(7)
        assert quad_decompose(prod) == QuadElt(7, 0, -1)

    def test_roundtrip_random_pairs(self):
        """Random algebraic integers (a + b*g)/2, a = b (mod 2), of Q(g)."""
        rng = random.Random(0xDADA)
        for _ in range(200):
            p = rng.choice([5, 7, 11, 13])
            a = rng.randint(-40, 40)
            b = a + 2 * rng.randint(-20, 20)
            u, v = Fraction(a, 2), Fraction(b, 2)
            x = QuadElt(p, u, v).embed()
            assert quad_decompose(x) == QuadElt(p, u, v)

    @pytest.mark.parametrize("p", [5, 13, 17, 29])
    def test_independent_of_nonresidue_choice(self, p):
        """quad_decompose reflects by the least non-residue; every non-residue
        maps x = u + v*g to u - v*g, so that choice loses nothing."""
        rng = random.Random(p)
        nrs = distinct_nonresidues(p, 3)
        for _ in range(20):
            x = QuadElt(
                p, Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            ).embed()
            q = quad_decompose(x)
            assert all(x.galois(n) == QuadElt(p, q.x, -q.y).embed() for n in nrs)

    def test_rejects_unstable_element(self):
        with pytest.raises(ValueError):
            quad_decompose(CycElt.zeta(7))


class TestTwoSquares:
    def test_small_values(self):
        assert (two_squares(5).a, two_squares(5).b) == (1, 2)
        assert (two_squares(13).a, two_squares(13).b) == (3, 2)
        assert (two_squares(29).a, two_squares(29).b) == (5, 2)

    @pytest.mark.parametrize("p", [p for p in range(5, 201) if is_prime(p)])
    def test_all_splits(self, p):
        if p % 4 != 1:
            with pytest.raises(ValueError):
                two_squares(p)
            return
        ts = two_squares(p)
        assert ts.a * ts.a + ts.b * ts.b == p
        assert ts.a % 2 == 1 and ts.a > 0
        assert ts.b % 2 == 0 and ts.b > 0


def reconstructs(qd, d: CycElt) -> bool:
    """(alpha + beta*sqrt(p))^2 * delta^2 = d^2, exactly."""
    return (qd.quad_part() * qd.quad_part()) * qd.delta_squared() == quad_decompose(d * d)


class TestQuarticDecompose:
    def test_p5_determinant(self):
        d = det_cyc_bareiss(build_D(5))
        qd = quartic_decompose(d)
        assert qd.alpha == 0
        assert abs(qd.beta) == Fraction(1, 2)
        assert qd.a == 1
        assert reconstructs(qd, d)

    def test_reconstruction_invariant(self):
        for p in (5, 13, 17):
            d = det_cyc_bareiss(build_D(p))
            assert reconstructs(quartic_decompose(d), d)

    @pytest.mark.parametrize("p", [13, 17, 29])
    def test_beyond_float_range(self, p):
        # |10^400 * det D| is far past the largest float
        d = det_cyc_evalinterp(build_D(p))
        small = quartic_decompose(d)
        big = quartic_decompose(10**400 * d)
        assert reconstructs(big, 10**400 * d)
        assert (big.alpha, big.beta) == (10**400 * small.alpha, 10**400 * small.beta)
        assert big.delta_sign == small.delta_sign

    def test_degenerate_input_raises(self):
        with pytest.raises(ArithmeticError):
            quartic_decompose(CycElt.one(5))

    def test_wrong_residue_class(self):
        with pytest.raises(ValueError):
            quartic_decompose(CycElt.one(7))


class TestQuarticGaussCheck:
    def test_p5_branch_is_minus(self):
        # g4 = 1 + 4*zeta for p = 5; (g4 - g)^2 = -10 - 2*sqrt(5)
        assert quartic_gauss_check(5) == -1

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 41])
    def test_branch_exists_and_is_exclusive(self, p):
        sign = quartic_gauss_check(p)
        assert sign in (1, -1)
        ts = two_squares(p)
        chi2 = legendre(2, p)
        diff = fourth_power_sum(p) - gauss_sum(p)
        square = quad_decompose(diff * diff)
        assert square == QuadElt(p, 2 * p * chi2, 2 * sign * ts.a)
        assert square != QuadElt(p, 2 * p * chi2, -2 * sign * ts.a)

    @pytest.mark.parametrize("p", [p for p in range(5, 200, 4) if is_prime(p)])
    def test_delta_squared_is_the_square_of_each_branch_root(self, p):
        """The one formula for delta^2 is the square of g4 - g on the pinned
        branch, and of its image under a non-residue on the other."""
        plus, n = fourth_power_sum(p) - gauss_sum(p), distinct_nonresidues(p, 1)[0]
        sign = quartic_gauss_check(p)
        for s, root in ((sign, plus), (-sign, plus.galois(n))):
            assert subfield._delta_squared(p, s) == quad_decompose(root * root)

    def test_rejects_3_mod_4(self):
        with pytest.raises(ValueError):
            quartic_gauss_check(7)


class TestPadicVal:
    def test_examples(self):
        assert padic_val(Fraction(7, 2), 7) == 1
        assert padic_val(Fraction(1, 2), 7) == 0
        assert padic_val(0, 7) == math.inf

    def test_negative_valuation(self):
        assert padic_val(Fraction(3, 49), 7) == -2

    def test_integers(self):
        assert padic_val(-392, 7) == 2
        assert padic_val(12, 2) == 2

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            padic_val(0.5, 7)
