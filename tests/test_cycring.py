import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from cyclodet import cycring
from cyclodet.cycring import (
    CycElt,
    eval_complex,
    galois_image,
    lincomb,
    make,
)
from cyclodet.detkit import _divide_exact, _Pivot, _PrimeTables, _tables, det_cyc_bareiss
from cyclodet.matrices import EntryTable, ExactMatrix, MatrixMeta, build_D
from cyclodet.modarith import aux_primes, least_nonresidue, primitive_root

from oracles import (
    coeff_rows,
    cyc_mul_loop,
    geometric_sum_loop,
    interpolate_vandermonde,
    lagrange_loop,
    lincomb_loop,
    random_cyc,
    galois_loop,
    vandermonde_loop,
)


def zeta(p, k=1):
    return CycElt.zeta(p, k)


class TestMake:
    def test_minimal_polynomial_relation(self):
        assert make(5, [0, 0, 0, 0, 1]).coeffs == (-1, -1, -1, -1)

    def test_identity(self):
        assert make(5, [1, 0, 0, 0, 0]).coeffs == (1, 0, 0, 0)

    def test_phi3_relation(self):
        assert make(3, [0, 1, 1]).coeffs == (-1, 0)

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_rejects_non_odd_primes(self, p):
        with pytest.raises(ValueError):
            make(p, [0] * p)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            make(5, [1, 2, 3])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            make(5, [0.5, 0, 0, 0, 0])


class TestMul:
    def test_square_of_one_plus_zeta_p3(self):
        x = 1 + zeta(3)
        assert x * x == zeta(3)

    def test_exponents_add_mod_p(self):
        assert zeta(5, 2) * zeta(5, 4) == zeta(5, 1)

    def test_telescoping_product_p7(self):
        lhs = (1 - zeta(7)) * (1 + zeta(7) + zeta(7, 2))
        assert lhs == 1 - zeta(7, 3)

    def test_mismatched_fields(self):
        with pytest.raises(ValueError):
            zeta(5) * zeta(7)

    def test_scalar_and_fraction_coefficients(self):
        """Int scalars act on every coefficient; a Fraction operand raises TypeError."""
        x = 3 * zeta(5)
        assert x * -2 == CycElt(5, [0, -6, 0, 0]) and x * x == 9 * zeta(5, 2)
        for op in (lambda: x * Fraction(1, 2), lambda: Fraction(1, 2) * x,
                   lambda: x + Fraction(1, 2), lambda: Fraction(1, 2) - x):
            with pytest.raises(TypeError):
                op()


class TestGalois:
    def test_exponent_map(self):
        assert (zeta(5) + zeta(5, 4)).galois(2) == zeta(5, 2) + zeta(5, 3)

    def test_identity_automorphism(self):
        x = 3 + 2 * zeta(7, 4)
        assert x.galois(1) == x

    def test_composition(self):
        x = zeta(5)
        assert x.galois(2).galois(2) == x.galois(4)

    def test_rejects_multiple_of_p(self):
        with pytest.raises(ValueError):
            zeta(5).galois(10)
        with pytest.raises(ValueError):
            galois_image(np.zeros((2, 4), dtype=np.int64), -5)

    @staticmethod
    def exponents(p):
        """1, 2, p-1, g, the least non-residue, each plus p, and the negatives of all."""
        base = [1, 2, p - 1, primitive_root(p), least_nonresidue(p)]
        return [s * a for a in base + [a + p for a in base] for s in (1, -1)]

    @pytest.mark.parametrize("p", [5, 7, 13, 89, 199])
    def test_equals_the_loop_on_python_ints(self, p):
        """`CycElt.galois` and `galois_image` on an object array of elements with coefficients
        near 2^200 equal the oracle's loop, for every exponent of `exponents`."""
        rng = random.Random(0x6A1 + p)
        elts = [CycElt(p, [rng.choice((1, -1)) * ((1 << 200) - rng.randrange(1 << 20))
                           for _ in range(p - 1)]) for _ in range(3)]
        rows = np.array([x.coeffs for x in elts], dtype=object)
        for a in self.exponents(p):
            expected = [galois_loop(x, a) for x in elts]
            assert [x.galois(a) for x in elts] == expected, a
            assert galois_image(rows, a).tolist() == [list(x.coeffs) for x in expected], a

    @pytest.mark.parametrize("p", [5, 7, 13, 89, 199])
    def test_equals_the_loop_on_int64_arrays(self, p):
        """`galois_image` on int64 arrays of shape (p-1,), (3, p-1) and (2, 3, p-1), entries up
        to 2^62 in absolute value, stays int64 and equals the oracle's loop per element."""
        rng = np.random.default_rng(p)
        for shape in ((), (3,), (2, 3)):
            x = rng.integers(-(1 << 62), 1 << 62, size=(*shape, p - 1))
            for a in self.exponents(p):
                image = galois_image(x, a)
                assert image.dtype == np.int64 and image.shape == x.shape
                expected = [galois_loop(CycElt(p, row), a).coeffs
                            for row in x.reshape(-1, p - 1).tolist()]
                assert [tuple(row) for row in image.reshape(-1, p - 1).tolist()] == expected, a


class TestExactDiv:
    """Exact division through the one cyclotomic divider, `detkit._divide_exact`,
    which takes coefficient arrays and a pivot (`detkit._Pivot`) and returns
    coefficient arrays."""

    @staticmethod
    def divide(values, den):
        block = np.array([[x.coeffs for x in values]], dtype=object)
        quots = _divide_exact(block, _Pivot(np.array(den.coeffs, dtype=object)))[0]
        return [CycElt(den.p, x) for x in quots.tolist()]

    def test_geometric_sum(self):
        quot = self.divide([1 - zeta(5, 4)], 1 - zeta(5))
        assert quot == [1 + zeta(5) + zeta(5, 2) + zeta(5, 3)]

    def test_self_division(self):
        x = 2 + 3 * zeta(7, 2) - zeta(7, 5)
        assert self.divide([x], x) == [CycElt.one(7)]

    def test_geometric_sum_p7(self):
        assert self.divide([1 - zeta(7, 4)], 1 - zeta(7, 2)) == [1 + zeta(7, 2)]

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            self.divide([CycElt.one(5)], CycElt.zero(5))

    def test_roundtrip_500_cases(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(500):
            p = rng.choice([5, 7, 11])
            x = random_cyc(rng, p)
            y = random_cyc(rng, p)
            if y.is_zero():
                continue
            assert self.divide([x * y], y) == [x]


def geometric_quotient(p, e, n):
    """1 + zeta^e + ... + zeta^(e(n-1)) as the coefficients filled from a 1 x 1 row-scaled
    `EntryTable`, (1 - zeta^(e n)) / (1 - zeta^e)."""
    table = EntryTable(np.array([[e * n % p]]), np.array([[1]]), np.array([e % p]))
    return CycElt(p, ExactMatrix(table, MatrixMeta(p, "test")).coeffs[0, 0].tolist())


class TestGeometricQuotient:
    """The geometric sums that fill C's coefficients from its table, one entry at a time."""

    def test_definition(self):
        assert geometric_quotient(7, 1, 4) == 1 + zeta(7) + zeta(7, 2) + zeta(7, 3)

    def test_single_term(self):
        assert geometric_quotient(5, 3, 1) == CycElt.one(5)

    def test_full_orbit_vanishes(self):
        assert geometric_quotient(5, 1, 5).is_zero()

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            geometric_quotient(5, 10, 2)

    @pytest.mark.parametrize("p", [7, 11])
    def test_matches_quotient_everywhere(self, p):
        for e in range(1, p):
            for n in range(1, p):
                gq = geometric_quotient(p, e, n)
                assert gq * (1 - zeta(p, e)) == 1 - zeta(p, e * n)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_matches_every_term_summed(self, p):
        # (n - 1) % p + 1 terms stand for n: full cycles of p terms cancel
        for e in range(1, 2 * p):
            if e % p:
                for n in range(1, 4 * p + 1):
                    assert geometric_quotient(p, e, n) == geometric_sum_loop(p, e, n)


class TestEvalComplex:
    def test_two_cos(self):
        val = complex(eval_complex(zeta(5) + zeta(5, 4)))
        assert val == pytest.approx(2 * math.cos(2 * math.pi / 5), abs=1e-12)

    def test_one(self):
        assert complex(eval_complex(CycElt.one(7))) == pytest.approx(1.0)

    def test_two_i_sin(self):
        val = complex(eval_complex(zeta(3) - zeta(3, 2)))
        assert val == pytest.approx(1j * math.sqrt(3), abs=1e-12)

    def test_min_precision(self):
        with pytest.raises(ValueError):
            eval_complex(zeta(5), prec=10)


def values_at_nodes(entries, tables, q, nodes=slice(None)):
    """`_PrimeTables.values` mod q of the entries' coefficient rows."""
    return tables.values(q, coeff_rows([e.coeffs for e in entries]), nodes)


class TestEvalMod:
    """Evaluation mod q at the order-p nodes of F_q (`detkit._PrimeTables.values`)."""

    @staticmethod
    def nodes_of(p):
        tables, q = _PrimeTables(p), next(aux_primes(p))
        return tables, q, tables.pow_r(q)[1:].tolist()

    def test_basis_image(self):
        tables, q, nodes = self.nodes_of(5)
        assert [int(v) for v in values_at_nodes([zeta(5)], tables, q)[0]] == nodes
        squares = [int(v) for v in values_at_nodes([zeta(5, 2)], tables, q)[0]]
        assert squares == [a * a % q for a in nodes]

    def test_zero(self):
        tables, q, _ = self.nodes_of(5)
        assert not values_at_nodes([CycElt.zero(5)], tables, q).any()

    def test_orbit_sum_maps_to_zero(self):
        x = make(5, [1, 1, 1, 1, 1])
        assert x.is_zero()
        tables, q, _ = self.nodes_of(7)
        powers = values_at_nodes([zeta(7, k) for k in range(7)], tables, q)
        assert not (powers.sum(axis=0) % q).any()

    def test_rejects_non_integral(self):
        """A non-integral coefficient never reaches an evaluator: no element holds one."""
        with pytest.raises(TypeError):
            CycElt(5, [Fraction(1, 2), 0, 0, 0])

    def test_ring_homomorphism(self):
        rng = random.Random(7)
        for p in (5, 7, 13):
            tables, q, _ = self.nodes_of(p)
            for _ in range(40):
                x = random_cyc(rng, p, span=10**30)
                y = random_cyc(rng, p, span=10**30)
                vx, vy, vxy, vsum = values_at_nodes([x, y, x * y, x + y], tables, q)
                assert ((vx * vy - vxy) % q == 0).all()
                assert ((vx + vy - vsum) % q == 0).all()

    def test_node_blocks_and_moduli_in_turn(self):
        # one conversion serves every modulus in turn and every block of nodes
        rng = random.Random(11)
        entries = [random_cyc(rng, 13, span=span) for span in (5, 10**30)]
        coeffs = coeff_rows([e.coeffs for e in entries])
        aux, tables = aux_primes(13), _PrimeTables(13)
        first, second = next(aux), next(aux)
        for q in (first, second, first):
            nodes = tables.pow_r(q)[1:].tolist()
            expected = [
                [sum(c * pow(a, i, q) for i, c in enumerate(e.coeffs)) % q for a in nodes]
                for e in entries
            ]
            assert tables.values(q, coeffs).tolist() == expected
            blocks = [tables.values(q, coeffs, slice(s, s + 5)).tolist() for s in (0, 5, 10)]
            assert [sum((b[i] for b in blocks), []) for i in range(2)] == expected


class TestPowerTable:
    """`_PrimeTables`'s one power table per prime, and the interpolations read from it,
    against the entry-by-entry loops."""

    @pytest.mark.parametrize("p", [5, 7, 13, 61, 89, 101])
    def test_vandermonde_and_interpolation(self, p):
        """The values of the powers zeta^i are the Vandermonde table, and the reference
        interpolation (`oracles.interpolate_vandermonde`) is the Lagrange matrix."""
        rng = random.Random(p)
        aux, tables = aux_primes(p), _PrimeTables(p)
        for q in (next(aux), next(aux)):
            nodes = tables.pow_r(q)[1:].tolist()
            assert nodes == [pow(nodes[0], t, q) for t in range(1, p)]
            powers = np.eye(p - 1, dtype=np.int64)
            assert tables.values(q, powers).tolist() == vandermonde_loop(nodes, q).tolist()
            lagrange = lagrange_loop(p, nodes, q)
            for _ in range(3):
                vals = np.array([rng.randrange(q) for _ in range(p - 1)], dtype=np.int64)
                interpolated = interpolate_vandermonde(tables, q, vals)
                assert interpolated.tolist() == (lagrange @ vals % q).tolist()
            x = random_cyc(rng, p, span=10**30)
            vals = values_at_nodes([x], tables, q)[0]
            assert interpolate_vandermonde(tables, q, vals).tolist() == [c % q for c in x.coeffs]

    @pytest.mark.parametrize("p", [5, 13, 29, 61, 89, 199])
    def test_gauss_periods_equal_the_vandermonde_inverse(self, p):
        """`_PrimeTables.interpolate` of values w_c on the F cosets, node r^(g^k) in coset
        k mod F, equals the reference on the values at every node in their natural order, for
        F in {2, 4, p-1} (4 only where it divides p-1, not at 199), on random values mod two
        auxiliary primes: one column, and five at once (a 2-D w, as the divider's oracle
        `quotient_residues_by_values` passes)."""
        rng, tables = random.Random(p), _tables(p)
        for q in itertools.islice(tables, 2):
            for f in sorted({f for f in (2, 4, p - 1) if (p - 1) % f == 0}):
                for shape in ((f,), (f, 5)):
                    w = np.array([rng.randrange(q) for _ in range(math.prod(shape))],
                                 dtype=np.int64).reshape(shape)
                    natural = w[tables.log_g[1:] % f]  # node r^t = r^(g^k) is in coset k mod F
                    assert np.array_equal(tables.interpolate(q, w),
                                          interpolate_vandermonde(tables, q, natural)), (q, shape)


class TestRingAxioms:
    def test_axioms_500_cases(self):
        rng = random.Random(0xBEEF)
        for _ in range(500):
            p = rng.choice([5, 7, 13])
            x = random_cyc(rng, p)
            y = random_cyc(rng, p)
            z = random_cyc(rng, p)
            assert x + y == y + x
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_galois_is_ring_homomorphism(self):
        rng = random.Random(0xFEED)
        for _ in range(500):
            p = rng.choice([5, 7, 13])
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            x = random_cyc(rng, p)
            y = random_cyc(rng, p)
            assert x.galois(b).galois(a) == x.galois(a * b % p)
            assert (x * y).galois(a) == x.galois(a) * y.galois(a)

    def test_arithmetic_consistent_with_complex(self):
        rng = random.Random(3)
        for _ in range(25):
            p = rng.choice([5, 7])
            x = random_cyc(rng, p)
            y = random_cyc(rng, p)
            lhs = eval_complex(x * y, 30)
            vx = eval_complex(x, 30)
            vy = eval_complex(y, 30)
            assert abs(lhs - vx * vy) < 1e-9


def packed(p, weights, rows, dtype=object, n=None):
    """`lincomb` on nested lists, handed over as arrays of `dtype` (rows of n
    elements when there are no rows to read it from), and returned as lists."""
    k, t = len(weights), len(rows)
    n = len(rows[0]) if rows else n or 0
    w = np.array(weights, dtype=dtype).reshape(k, t, p - 1)
    r = np.array(rows, dtype=dtype).reshape(t, n, p - 1)
    out = lincomb(p, w, r)
    assert out.shape == (k, n, p - 1)
    return out.tolist()


class TestKroneckerMultiplication:
    """The one packed product, `lincomb`, against schoolbook products."""

    def test_matches_schoolbook(self):
        rng = random.Random(0xABCD)
        for p in (3, 5, 7, 47):
            for _ in range(40 if p < 47 else 8):
                span = rng.choice([0, 1, 3, 10**6, 2**62, 10**30, 2**150])
                terms, n, m = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2)

                def vec():
                    return [rng.randint(-span, span) for _ in range(p - 1)]

                weights = [[vec() for _ in range(terms)] for _ in range(m)]
                rows = [[vec() for _ in range(n)] for _ in range(terms)]
                if rng.random() < 0.2:
                    rows[0] = [[0] * (p - 1) for _ in range(n)]  # a zero row
                assert packed(p, weights, rows) == lincomb_loop(p, weights, rows)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_every_digit_width(self, dtype):
        """Operands sized so that the product bound needs digits of 1, 2, 4 and
        8 bytes and wider, and int64 operands up to 2^62: int64 and Python-int
        inputs give the schoolbook result at each width."""
        rng = random.Random(0x1248)
        for p, bits in itertools.product((3, 7, 13), (2, 5, 12, 26, 40, 62)):
            for _ in range(3):
                span = (1 << bits) - 1
                weights = [[[rng.randint(-span, span) for _ in range(p - 1)] for _ in range(2)]
                           for _ in range(2)]
                rows = [[[rng.randint(-span, span) for _ in range(p - 1)] for _ in range(3)]
                        for _ in range(2)]
                assert packed(p, weights, rows, dtype) == lincomb_loop(p, weights, rows)

    def test_extreme_digits(self):
        """Product digits at 2^bits - 2 and 2^bits, either sign: on either
        side of each digit-width step (8w - 1 = bits) and of the int64 fold
        (bound 2^61), and past 64 bits."""
        for bits, sign in itertools.product((7, 8, 15, 16, 31, 32, 61, 62, 63, 64, 65, 100), (1, -1)):
            for v in ((1 << bits) - 2, 1 << bits):
                half = v // 2
                # (h + h z)(1 + z) has middle digit 2h = v, which is also the bound
                weights, rows = [[[sign * half, sign * half]]], [[[1, 1]]]
                assert packed(3, weights, rows) == lincomb_loop(3, weights, rows)
                # every coefficient of both factors at the value itself
                for p in (3, 7):
                    full, row = [[[sign * v] * (p - 1)]], [[[v] * (p - 1)]]
                    assert packed(p, full, row) == lincomb_loop(p, full, row)

    def test_int64_extremes(self):
        """int64 operands at -2^63 and 2^63 - 1 take their true absolute values."""
        for p, v in itertools.product((3, 5), (-(1 << 63), (1 << 63) - 1)):
            weights, rows = [[[v] * (p - 1)]], [[[v, 1 - p] + [3] * (p - 3)]]
            assert packed(p, weights, rows, np.int64) == lincomb_loop(p, weights, rows)

    @pytest.mark.parametrize("p", [3, 5, 7, 47])
    def test_zero_rows_and_term_counts(self, p):
        rng = random.Random(p)
        zero, x = [0] * (p - 1), [rng.randint(-9, 9) for _ in range(p - 1)]
        for dtype in (np.int64, object):
            assert packed(p, [[x]], [[zero, zero]], dtype) == [[zero, zero]]
            assert packed(p, [[zero, zero]], [[x], [x]], dtype) == [[zero]]
            assert packed(p, [], [[x]], dtype) == []  # k = 0
            assert packed(p, [[x]], [[]], dtype) == [[]]  # n = 0
            assert packed(p, [[x], [x]], [[]], dtype) == [[], []]
            assert packed(p, [[], []], [], dtype, n=2) == [[zero, zero]] * 2  # no terms
            one = [1] + [0] * (p - 2)
            assert packed(p, [[one]], [[x]], dtype) == [[x]]
        for terms in (1, 2, 5):
            weights = [[[rng.randint(-9, 9) for _ in range(p - 1)] for _ in range(terms)]]
            rows = [[[rng.randint(-9, 9) for _ in range(p - 1)] for _ in range(3)]
                    for _ in range(terms)]
            assert packed(p, weights, rows) == lincomb_loop(p, weights, rows)
        arr = np.array([[x]])
        with pytest.raises(ValueError):
            lincomb(p, np.array([[x, x]]), arr)  # two weights, one row
        with pytest.raises(ValueError):
            lincomb(p, arr, np.array([[x, x]])[..., :-1])  # vectors of p - 2
        with pytest.raises(ValueError):
            lincomb(p, arr, np.array(x))  # rows not (t, n, p - 1)

    def test_array_in_array_out(self):
        """int64 out while the int64 fold has headroom, Python ints past it."""
        small = lincomb(7, np.ones((1, 1, 6), dtype=np.int64), np.ones((1, 2, 6), dtype=np.int64))
        assert small.dtype == np.int64 and small.shape == (1, 2, 6)
        big = lincomb(7, np.full((1, 1, 6), 1 << 40, dtype=np.int64),
                      np.full((1, 1, 6), 1 << 40, dtype=np.int64))
        assert big.dtype == object and all(type(c) is int for c in big.ravel())

    def test_product_is_the_one_packed_combination(self, monkeypatch):
        calls = []
        real = cycring.lincomb
        monkeypatch.setattr(cycring, "lincomb", lambda *a: calls.append(a) or real(*a))
        x, y = random_cyc(random.Random(1), 7), random_cyc(random.Random(2), 7)
        assert x * y == cyc_mul_loop(x, y)
        assert len(calls) == 1
        big = CycElt(7, [1 << 70] * 6)
        assert big * y == cyc_mul_loop(big, y)
        assert all(type(c) is int for c in (big * y).coeffs)


@pytest.fixture
def paths(count_calls):
    """The calls of each of `lincomb`'s two paths, by name."""
    return {name: count_calls(getattr(cycring, name)) for name in ("_by_gemm", "_by_packing")}


def path_taken(paths, p, weights, rows, dtype, n=None):
    """`packed`'s result and the one path `lincomb` took for it."""
    for calls in paths.values():
        calls.clear()
    out = packed(p, weights, rows, dtype, n)
    (path,) = [name for name, calls in paths.items() if calls]
    assert sum(map(len, paths.values())) == 1
    return out, path


def headroom_sides(p, terms):
    """Operands of `lincomb` with 4 * bound one step below 2^63 and exactly at it,
    each with the dtype `lincomb` returns for them as int64: int64, then Python ints."""
    rng = random.Random(p * terms)
    a = 1 << 30
    at = (1 << 61) // (terms * (p - 1) * a)  # t (p - 1) a b = 2^61 exactly
    return [(*extreme_operands(rng, p, terms, 2, 3, a, b), dtype)
            for b, dtype in ((at - 1, np.int64), (at, object))]


def extreme_operands(rng, p, terms, k, n, a, b):
    """Weights of absolute value a and rows of absolute value b in every
    coefficient, with random signs, and with one sign throughout in the
    first term, so that some sums come near the bound t (p - 1) a b."""
    def vec(v, t):
        return [v if t == 0 else rng.choice((v, -v)) for _ in range(p - 1)]

    weights = [[vec(a, t) for t in range(terms)] for _ in range(k)]
    rows = [[vec(b, t) for _ in range(n)] for t in range(terms)]
    return weights, rows


def unfolded_sums(p, weights, rows) -> list:
    """The sums of `lincomb` before the fold, the coefficients of zeta^0 .. zeta^(p-1) of
    each product taken mod x^p - 1, by `np.convolve` on Python ints."""
    out = []
    for ws in weights:
        for j in range(len(rows[0]) if rows else 0):
            acc = [0] * p
            for x, row in zip(ws, rows):
                for e, c in enumerate(np.convolve(np.array(x, object), np.array(row[j], object))):
                    acc[e % p] += c
            out += acc
    return out


I64 = (-(1 << 63), -(1 << 63) + 1, (1 << 63) - 1)  # the int64 edge values


class TestTwoPaths:
    """`lincomb`'s float64 GEMM and its packing against the schoolbook oracle: the dtype
    alone picks the path, and the GEMM's limbs keep it exact on both sides of 2^53,
    where one GEMM of the unsplit operands would round, and of 4 * bound = 2^63, past
    which it recombines its limbs in Python ints."""

    @pytest.mark.parametrize("p, terms", [(3, 1), (3, 2), (5, 1), (5, 2), (3, 4)])
    def test_int64_headroom(self, paths, p, terms):
        """With 4 * bound just below 2^63 the GEMM returns int64; exactly at 2^63 it
        returns Python ints.  The same values as Python ints take the packing on both
        sides."""
        for weights, rows, dtype in headroom_sides(p, terms):
            expected = lincomb_loop(p, weights, rows)
            assert path_taken(paths, p, weights, rows, np.int64) == (expected, "_by_gemm")
            assert lincomb(p, np.array(weights), np.array(rows)).dtype == dtype
            assert path_taken(paths, p, weights, rows, object) == (expected, "_by_packing")

    @pytest.mark.parametrize("p", [3, 5, 7, 47])
    def test_empty_shapes_on_the_matmul(self, paths, p):
        """No terms (t = 0), k = 0 and n = 0 take the GEMM, one `np.matmul` (or no
        convolution for one row), for int64 operands and give what the oracle gives,
        int64 zeros or empty."""
        rng = random.Random(p)
        zero, x = [0] * (p - 1), [rng.randint(-9, 9) for _ in range(p - 1)]
        cases = [([[], []], [], 2), ([[], []], [], 1), ([], [[x, x]], None), ([], [[x]], None),
                 ([[x]], [[]], None), ([[x], [x]], [[]], None), ([[x, x]], [[x], [x]], None)]
        for weights, rows, n in cases:
            for dtype, path in ((np.int64, "_by_gemm"), (object, "_by_packing")):
                out, taken = path_taken(paths, p, weights, rows, dtype, n)
                expected = lincomb_loop(p, weights, rows) if rows else [[zero] * n] * 2
                assert (out, taken) == (expected, path)
        empty = lincomb(p, np.zeros((3, 0, p - 1), np.int64), np.zeros((0, 4, p - 1), np.int64))
        assert empty.dtype == np.int64 and empty.shape == (3, 4, p - 1) and not empty.any()
        for k, t, n in ((0, 1, 2), (2, 1, 0), (2, 0, 2)):  # -2^63 in the one nonempty operand
            weights, rows = (np.full((*shape, p - 1), I64[0]) for shape in ((k, t), (t, n)))
            out = lincomb(p, weights, rows)  # Python ints past the headroom, but for t = 0
            assert out.dtype == (np.int64 if t == 0 else object)
            assert out.shape == (k, n, p - 1) and not out.any()

    @pytest.mark.parametrize("p, terms", [(3, 1), (3, 2), (5, 3), (13, 1), (47, 2)])
    def test_sums_just_above_2_53_are_exact(self, paths, p, terms):
        """Sums that land on odd integers just above 2^53, where one GEMM of the unsplit
        operands would round to an even neighbour, come out exact: (2^27 + 1)(2^26 + 1)
        plus 2 per further term, and positive operands near a with t (p - 2) a^2 just
        past 2^53, many of whose sums before the fold are odd and past 2^53."""
        one = [1] + [0] * (p - 2)
        weights = [[[(1 << 27) + 1] + one[1:]] + [[2] + one[1:]] * (terms - 1)]
        rows = [[[(1 << 26) + 1] + one[1:]]] + [[one]] * (terms - 1)
        total = ((1 << 27) + 1) * ((1 << 26) + 1) + 2 * (terms - 1)
        assert unfolded_sums(p, weights, rows)[0] == total and total % 2
        assert path_taken(paths, p, weights, rows, np.int64) == ([[[total] + one[1:]]], "_by_gemm")
        rng = random.Random(p * terms)
        a = math.isqrt((9 << 53) // (8 * terms * (p - 2)))  # t (p - 2) a^2 = 2^53 9/8
        for _ in range(3):
            def vec():
                return [a - rng.randrange(1 << 12) for _ in range(p - 1)]

            weights = [[vec() for _ in range(terms)] for _ in range(2)]
            rows = [[vec() for _ in range(3)] for _ in range(terms)]
            assert terms * (p - 1) * a * a < 1 << 55
            assert any(c > 1 << 53 and c % 2 for c in unfolded_sums(p, weights, rows))
            expected = lincomb_loop(p, weights, rows)
            assert path_taken(paths, p, weights, rows, np.int64) == (expected, "_by_gemm")

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_int64_edge_values(self, paths, p):
        """Operands of +-(2^63 - 1) and -2^63, mixed with small ones, give the oracle's
        sums, as Python ints, on one row and on two; each limb split of an edge value
        recombines to it."""
        rng = random.Random(p)
        for terms, n in itertools.product((1, 2, 3), (1, 2)):
            def vec():
                return [rng.choice(I64 + (0, 1, -1, 7)) for _ in range(p - 1)]

            weights = [[vec() for _ in range(terms)] for _ in range(2)]
            rows = [[vec() for _ in range(n)] for _ in range(terms)]
            expected = lincomb_loop(p, weights, rows)
            assert path_taken(paths, p, weights, rows, np.int64) == (expected, "_by_gemm")
        edges = np.array(I64 + (0, 1, -1), np.int64)
        for bits in (1, 7, 21, 26, 32, 52, 63):
            limbs = cycring._split(edges, -(-64 // bits), bits)
            assert all(abs(x) <= 1 << bits for x in limbs.ravel().tolist())
            assert cycring._horner(limbs.astype(object), bits).tolist() == list(I64 + (0, 1, -1))

    @pytest.mark.parametrize("p, span, terms, below, above", [
        (7, 4, 1, (12, 65), (11, 71)),  # 1-byte sums, 2^15 multiply-adds and past them
        (61, 20, 1, (2, 143), (7, 41)),  # 2-byte sums, 2^20 multiply-adds and past them
        (61, 10, 2, (11, 13), (12, 12)),
    ])
    def test_size_rule(self, paths, p, span, terms, below, above):
        """The path does not depend on the size: int64 operands take the GEMM on both
        sides of 2^15 and 2^20 multiply-adds k t n (p - 1) p, and give the oracle's sums,
        and the same values as Python ints take the packing."""
        rng = random.Random(p + span)
        for k, n in (below, above):
            weights, rows = extreme_operands(rng, p, terms, k, n, span, span)
            expected = lincomb_loop(p, weights, rows)
            assert path_taken(paths, p, weights, rows, np.int64) == (expected, "_by_gemm")
            assert path_taken(paths, p, weights, rows, object) == (expected, "_by_packing")

    @pytest.mark.parametrize("span, w", [(15, 2), (1 << 10, 4), (1 << 20, 8)])
    def test_prime_limit(self, paths, span, w):
        """The path does not depend on p: a single int64 product with sums of w bytes at
        p = 131 takes the GEMM at p = 131, 137, 499 and 503, and gives the sums of the same
        values as Python ints, which take the packing (the oracle's at p = 131 and 137)."""
        assert 1 << (4 * w - 1) <= 130 * span * span < 1 << (8 * w - 1)  # w bytes, not w/2
        rng = random.Random(span)
        for p in (131, 137, 499, 503):
            weights, rows = extreme_operands(rng, p, 1, 1, 1, span, span)
            expected, _ = path_taken(paths, p, weights, rows, object)
            if p < 200:
                assert expected == lincomb_loop(p, weights, rows)
            assert path_taken(paths, p, weights, rows, np.int64) == (expected, "_by_gemm")

    def test_wide_digits_up_to_the_largest_size_measured(self, paths):
        """Sums of 4 and 8 bytes take the GEMM at every size: at p = 499, 67 single
        products (2^23.99 multiply-adds) and 68 give the sums of the same values as
        Python ints, which take the packing; so do sums past 2^53 and past 2^63."""
        rng = random.Random(4)
        for span in (1 << 10, 1 << 20, 1 << 28, 1 << 40):
            for k in (67, 68):
                weights, rows = extreme_operands(rng, 499, 1, k, 1, span, span)
                expected, _ = path_taken(paths, 499, weights, rows, object)
                assert path_taken(paths, 499, weights, rows, np.int64) == (expected, "_by_gemm")

    def test_paths_of_a_bareiss_determinant(self, paths):
        """det D(47) by Bareiss: every operand is int64, so all 87 products take the GEMM:
        the steps' 34 (24 of one GEMM of the unsplit operands, 2 of limbs recombined in
        int64, 8 in Python ints past the int64 headroom), the divider's 22 proofs (14, 2
        and 6) and its 31 products by d^-1 mod q, one per division and prime, all of limbs
        recombined in int64; so a change of the rule shows here."""
        det_cyc_bareiss(build_D(47))
        assert {name: len(calls) for name, calls in paths.items()} == {"_by_gemm": 87,
                                                                       "_by_packing": 0}


class TestValueSemantics:
    def test_hashable_and_equal(self):
        x = zeta(5) + 1
        y = make(5, [1, 1, 0, 0, 0])
        assert x == y
        assert hash(x) == hash(y)

    def test_rational_hashes_as_its_value(self):
        """A rational element equals its int and hashes alike, so a set or a dict finds
        either by the other, at any size; a non-rational element is not found by an int."""
        for p, value in ((5, 3), (7, -1), (13, 0), (3, 2**200)):
            x = CycElt.rational(p, value)
            assert x == value and hash(x) == hash(value)
            assert value in {x} and x in {value} and {value: 1}[x] == 1
        assert CycElt.rational(5, 3) in {zeta(5) * 3 * zeta(5, 4)}
        assert 1 + zeta(5) not in {1, 2}

    def test_non_integer_operands_raise(self):
        """Every element lies in Z[zeta_p]: a Fraction coefficient, operand or
        rational value raises TypeError."""
        with pytest.raises(TypeError):
            CycElt(5, [Fraction(1, 2), 0, 0, 0])
        with pytest.raises(TypeError):
            zeta(5) * Fraction(1, 2)
        with pytest.raises(TypeError):
            CycElt.rational(7, Fraction(3, 2))
        with pytest.raises(TypeError):
            CycElt(5, [Fraction(4, 2), 0, 0, 0])  # a whole Fraction too

    def test_rational_detection(self):
        assert CycElt.rational(7, -3).rational_value() == -3
        with pytest.raises(ValueError):
            zeta(7).rational_value()

    def test_canonical_after_random_operations(self):
        rng = random.Random(0x5EED)
        for _ in range(300):
            p = rng.choice([3, 5, 7, 13])
            x = random_cyc(rng, p)
            for _ in range(4):
                y = random_cyc(rng, p)
                op = rng.choice(["add", "sub", "mul", "scale", "galois"])
                if op == "add":
                    x = x + y
                elif op == "sub":
                    x = y - x
                elif op == "mul":
                    x = x * y
                elif op == "scale":
                    x = x * rng.randint(-6, 6)
                else:
                    x = x.galois(rng.randrange(1, p))
                assert len(x.coeffs) == p - 1 and all(type(c) is int for c in x.coeffs)
                assert CycElt(p, x.coeffs) == x

    def test_built_equals_computed(self):
        built = CycElt(7, [2, -3, 0, 0, 0, 8])
        computed = 2 + zeta(7) * -3 + zeta(7, 5) * 8
        assert built == computed and hash(built) == hash(computed)
        assert built.coeffs == (2, -3, 0, 0, 0, 8)
        two = CycElt.rational(7, 2)
        assert two == zeta(7) * 2 * zeta(7, 6)
        assert hash(two) == hash(zeta(7) * 2 * zeta(7, 6))
        assert two == 2 and two != 0

    def test_pickle_round_trip(self):
        for x in (zeta(11, 3) - 5, -9 * zeta(5) + 2**70, CycElt.zero(3)):
            y = pickle.loads(pickle.dumps(x))
            assert y == x and hash(y) == hash(x) and y.coeffs == x.coeffs

    def test_power(self):
        z = zeta(5)
        assert z * z * z * z * z * z * z == zeta(5, 2)
        assert (1 + z) * (1 + z) == 1 + 2 * z + zeta(5, 2)
