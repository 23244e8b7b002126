import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from cyclodet import detkit
from cyclodet.cycring import CycElt, eval_complex
from cyclodet.detkit import (
    DetResult,
    _det_mod_stack,
    _EvalData,
    det,
    det_cyc_bareiss,
    det_cyc_evalinterp,
    det_int_bareiss,
    det_int_modular,
)
from cyclodet.matrices import (
    ExactMatrix,
    MatrixMeta,
    build,
    build_C,
    build_D,
    build_S,
    build_S_delta,
    build_T,
    matmul,
)
from cyclodet.modarith import (
    AUX_PRIME_FLOOR as FLOOR,
    aux_primes,
    is_prime,
    least_nonresidue,
    primitive_root,
)
from cyclodet.subfield import quad_decompose

from oracles import (
    coeff_rows,
    crt_lift,
    cyc_mul_loop,
    det_cofactor,
    det_mod_prime,
    det_numeric,
    divide_by_values,
    entries,
    exact_matrix,
    quotient_residues_by_values,
    random_cyc,
)

def cyc_array(elements) -> np.ndarray:
    """The coefficients of a CycElt, or of nested lists of them, as Python ints (dtype object)."""
    if isinstance(elements, CycElt):
        return np.array(elements.coeffs, dtype=object)
    return np.array([cyc_array(x) for x in elements], dtype=object)


Q24 = next(aux_primes(5))  # the first auxiliary prime of p = 5, just above 2^24
Q_EDGE = next(  # the largest q at which a 24 x 24 elimination mod q fits int64
    q for q in range(math.isqrt((1 << 63) // 24) + 1, 0, -1)
    if 24 * (q - 1) ** 2 < 1 << 63 and is_prime(q)
)
SEED_16L = 0xCF1  # the first seed from 0xCD1 up whose division below has a modulus in (8L, 16L]
TOP_PRIMES = [q for q in range((1 << 31) - 1, (1 << 31) - 200, -2) if is_prime(q)][:3]  # < 2^31


def conjugate_division(p: int) -> tuple:
    """(block, den, quotients) of a division whose den = zeta - r, r the element of order p
    of the first auxiliary prime q0, vanishes at the node r mod q0, so q0 divides a
    conjugate of den: three quotients of 30 bits, and their products with den."""
    tables = detkit._tables(p)
    r = int(tables.data(next(iter(tables))).pow_r[1])
    den = CycElt.zeta(p) - r
    rng = random.Random(0x5C1 + p)
    quots = [random_cyc(rng, p, span=2**30) for _ in range(3)]
    return cyc_array([[x * den for x in quots]]), cyc_array(den), quots


def scaled_d13():
    """D(13) with every entry (j, k), j + k != 0 (mod 3), times 2^300."""
    rows = [[e * 2**300 if (j + k) % 3 else e for k, e in enumerate(row)]
            for j, row in enumerate(entries(build_D(13)))]
    return exact_matrix(rows, 13)


@pytest.fixture
def lifts(monkeypatch):
    """The (lift, modulus) pair after every `_MixedRadix` fold, in order: the
    values the CRT holds, as Python ints, and the product of its primes."""
    real, out = detkit._MixedRadix.fold, []

    def recorded(crt, residues, q):
        real(crt, residues, q)
        out.append((crt.ints().tolist(), crt.modulus))

    monkeypatch.setattr(detkit._MixedRadix, "fold", recorded)
    return out


class TestIntBackends:
    def test_one_by_one(self):
        assert det_int_bareiss(exact_matrix([[1]], 5)) == 1

    def test_bareiss_returns_python_ints(self):
        """Python ints, as the benchmark's tracer reads them (`isinstance(value, int)`,
        `bit_length`), also for a 1 x 1 matrix and a zero column."""
        for m in (build_S(13), exact_matrix([[1]], 5), exact_matrix([[0, 1], [0, 2]], 5)):
            assert type(det_int_bareiss(m)) is int
        for m in (build_C(13), build_D(13), exact_matrix([[CycElt.zeta(5)]], 5)):
            value = det_cyc_bareiss(m)
            assert isinstance(value, CycElt) and all(type(c) is int for c in value.coeffs)
            assert value == det_cyc_evalinterp(m)

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
        z = exact_matrix([[0, 0], [0, 0]], 5)
        assert det_int_bareiss(z) == 0
        assert det_int_modular(z) == 0

    def test_backend_agreement_200_random(self):
        rng = random.Random(0x5EED)
        for _ in range(200):
            n = rng.randint(1, 8)
            rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
            m = exact_matrix(rows, 5)
            assert det_int_bareiss(m) == det_int_modular(m)

    def test_cofactor_oracle_small(self):
        rng = random.Random(0xACE)
        for _ in range(50):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m = exact_matrix(rows, 5)
            expected = det_cofactor([list(r) for r in rows])
            assert det_int_bareiss(m) == expected
            assert det_int_modular(m) == expected

    def test_pivot_column_empties_mid_elimination(self):
        # column 1 is twice column 0, so it is zero after the first step
        m = exact_matrix([[1, 2, 3], [2, 4, 5], [3, 6, 7]], 5)
        for backend in (det_int_bareiss, det_int_modular):
            value = backend(m)
            assert type(value) is int and value == 0

    def test_large_entries(self):
        rows = [[10**20, 3], [-7, 10**22]]
        m = exact_matrix(rows, 5)
        expected = 10**42 + 21
        assert det_int_bareiss(m) == expected
        assert det_int_modular(m) == expected

    def test_stop_at_twice_the_hadamard_bound(self):
        """The CRT takes the shortest run of auxiliary primes whose product passes
        2H, H^2 = prod_rows sum_k M_jk^2 >= det^2: S at p = 3 (mod 4), T and SD
        at p = 1 (mod 4), up to p = 199."""
        for p in filter(is_prime, range(5, 200)):
            delta = least_nonresidue(p)
            for m in [build_S(p)] if p % 4 == 3 else [build_T(p, delta), build_S_delta(p, delta)]:
                h2 = math.prod(sum(e * e for e in row) for row in entries(m))
                stats = {}
                value = det_int_modular(m, stats)
                moduli = stats["moduli"]
                assert value * value <= h2
                assert moduli == list(islice(aux_primes(p), len(moduli)))
                assert math.prod(moduli) ** 2 > 4 * h2 >= math.prod(moduli[:-1]) ** 2

    def test_zero_row_takes_no_modulus(self):
        stats = {}
        assert det_int_modular(exact_matrix([[1, 2], [0, 0]], 5), stats) == 0
        assert stats["moduli"] == []


class TestCycBackends:
    def test_one_by_one_zeta(self):
        m = exact_matrix([[CycElt.zeta(5)]], 5)
        assert det_cyc_bareiss(m) == CycElt.zeta(5)
        assert det_cyc_evalinterp(m) == CycElt.zeta(5)

    def test_D3(self):
        d3 = build_D(3)
        expected = CycElt.zeta(3) - 1
        assert det_cyc_bareiss(d3) == expected
        assert det_cyc_evalinterp(d3) == expected

    def test_pivot_column_empties_mid_elimination(self):
        # column 1 is zeta times column 0, so it is zero after the first step
        p = 7
        z = CycElt.zeta(p)
        col0 = [CycElt.one(p), 1 + z, z * z * z]
        m = exact_matrix([[c, z * c, CycElt.rational(p, k)] for k, c in enumerate(col0)], p)
        for backend in (det_cyc_bareiss, det_cyc_evalinterp):
            value = backend(m)
            assert isinstance(value, CycElt) and value == CycElt.zero(p)

    def test_row_swap_flips_the_sign(self):
        """A zero pivot at the first step and at the second: one swap each."""
        p = 7
        z, zero, one = CycElt.zeta(p), CycElt.zero(p), CycElt.one(p)
        first = exact_matrix([[zero, z], [one, zero]], p)
        second = exact_matrix([[one, zero, zero], [zero, zero, z], [zero, z * z, zero]], p)
        for backend in (det_cyc_bareiss, det_cyc_evalinterp):
            assert backend(first) == -z
            assert backend(second) == -CycElt.zeta(p, 3)

    def test_diagonal(self):
        p = 7
        z = CycElt.zeta(p)
        zero = CycElt.zero(p)
        m = exact_matrix([[z, zero], [zero, z * z]], p)
        assert det_cyc_evalinterp(m) == CycElt.zeta(p, 3)
        assert det_cyc_bareiss(m) == CycElt.zeta(p, 3)

    def test_D5_numeric_oracle(self):
        d = det_cyc_bareiss(build_D(5))
        val = complex(eval_complex(d))
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
            m = exact_matrix(rows, p)
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
            a = exact_matrix(
                [[random_cyc(rng, p, span=2) for _ in range(n)] for _ in range(n)], p
            )
            b = exact_matrix(
                [[random_cyc(rng, p, span=2) for _ in range(n)] for _ in range(n)], p
            )
            lhs = det_cyc_bareiss(matmul(a, b))
            assert lhs == det_cyc_bareiss(a) * det_cyc_bareiss(b)

    def test_singular(self):
        p = 5
        z = CycElt.zeta(p)
        m = exact_matrix([[z, z], [z, z]], p)
        assert det_cyc_bareiss(m).is_zero()
        assert det_cyc_evalinterp(m).is_zero()

    def test_certified_stop_and_divider_cap(self, lifts):
        """evalinterp stops at the first modulus above 4H, with no cap on the
        primes it may take; the exact divider gives up on a division that is
        not exact at the first modulus above 16L, L = max l1(x) * l1(den)^(p-2)."""
        m = build_C(23)
        h2 = max(detkit._coset_bounds_sq(m.coeffs, detkit._orbit_step(m.coeffs)[0]))
        expected = det_cyc_bareiss(m)
        stats = {}
        assert det_cyc_evalinterp(m, stats) == expected
        moduli = stats["moduli"]
        assert len(moduli) == 2
        assert math.prod(moduli) ** 2 > 16 * h2 >= math.prod(moduli[:-1]) ** 2
        rng, p = random.Random(SEED_16L), 13  # a seed with a modulus in (8L, 16L]
        den = random_cyc(rng, p, span=2**10)
        values = [random_cyc(rng, p, span=2**60) * den + 1, den]  # the first is not a multiple
        l1 = [sum(map(abs, x.coeffs)) for x in values + [den]]
        bound = max(l1[:-1]) * l1[-1] ** (p - 2)
        lifts.clear()
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_exact(cyc_array([values]), detkit._Pivot(cyc_array(den)))
        moduli = [modulus for _, modulus in lifts]
        assert 16 * bound >= moduli[-2] > 8 * bound and moduli[-1] > 16 * bound


class TestTwoStepPivots:
    """The pivot paths of the two-step elimination over both rings, on [[A, C], [0, B]]
    with A k x k upper triangular of nonzero diagonal: the block of level k is det(A) B,
    so B's first column steers the first pivot of a double step (k even) or its second
    (k odd).  Its first z entries are zero: z = 0 keeps row 0, z = 1 or 2 takes a swap,
    and z = n - k, a zero column, makes the determinant 0.  n = 1..7 ends the loop both
    ways: an odd n on a 1 x 1 block, an even n on the single step."""

    P = 5

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("ring", ["int", "cyc"])
    def test_against_cofactors(self, count_calls, ring, n):
        rng = random.Random(0x2575 + n)
        zero = 0 if ring == "int" else CycElt.zero(self.P)

        def draw(nonzero=False):
            x = rng.randint(-3, 3) if ring == "int" else random_cyc(rng, self.P, span=2)
            return draw(nonzero) if nonzero and not x else x

        swaps = count_calls(detkit._swap)
        bareiss = det_int_bareiss if ring == "int" else det_cyc_bareiss
        for k in range(n):
            for z in sorted({0, 1, 2, n - k} & set(range(n - k + 1))):
                a = [[zero] * i + [draw(True)] + [draw() for _ in range(n - i - 1)]
                     for i in range(k)]
                b = [[zero if i < z else draw(i == z)] + [draw() for _ in range(n - k - 1)]
                     for i in range(n - k)]
                expected = math.prod(a[i][i] for i in range(k)) * (
                    det_cofactor(b) if z < n - k else 0)
                swaps.clear()
                assert bareiss(exact_matrix(a + [[zero] * k + row for row in b], self.P)) == expected
                if 0 < z < n - k:
                    assert swaps


class TestExactDivider:
    """Bareiss hands each double step's c0 and K' to one divide call and its new
    block to another; every quotient is verified, and a division that is not
    exact raises."""

    def test_one_call_per_step(self, count_calls):
        """After the first double step, which divides by nothing, each double step on
        an s x s block divides c0 and K' (2s - 3 elements), then the new block; an
        even n ends with one division, det(P)/d.  D(13) is 7 x 7, S(13) 6 x 6."""
        calls = count_calls(detkit._divide_exact)
        assert det_cyc_bareiss(build_D(13)) == det_cyc_evalinterp(build_D(13))
        assert [step.shape for step in calls] == [(7, 12), (3, 3, 12), (3, 12), (1, 1, 12)]
        calls = count_calls(detkit._divide_ints)
        assert det_int_bareiss(build_S(13)) == det_int_modular(build_S(13))
        assert [step.shape for step in calls] == [(5,), (2, 2), (1,)]

    def test_int_row(self):
        quots = detkit._divide_ints(np.array([[6, -8], [0, 4]], dtype=object), 2)
        assert quots.dtype == object and quots.tolist() == [[3, -4], [0, 2]]
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_ints(np.array([[6], [7]], dtype=object), 2)

    def test_non_exact_row_raises(self):
        z = CycElt.zeta(5)
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_exact(cyc_array([[(1 - z) * z], [CycElt.one(5)]]),
                                 detkit._Pivot(cyc_array(1 - z)))

    def test_zero_numerators(self):
        z, zero = CycElt.zeta(7), CycElt.zero(7)
        quots = detkit._divide_exact(cyc_array([[zero] * 3]), detkit._Pivot(cyc_array(1 + z)))
        assert quots.tolist() == [[[0] * 6] * 3]
        x = 2 - 3 * z * z
        rows = cyc_array([[zero, x * (1 + z)], [zero, zero]])
        quots = detkit._divide_exact(rows, detkit._Pivot(cyc_array(1 + z)))
        assert quots.tolist() == [[[0] * 6, list(x.coeffs)], [[0] * 6] * 2]

    def test_zero_determinant_stops_at_the_bound(self):
        """A zero determinant is accepted at the first modulus above 4H, here
        H = 2 (rows of two entries zeta; H^2 = 5, the ceiling of 4 and its float64
        margin): one auxiliary prime."""
        z = CycElt.zeta(5)
        m, stats = exact_matrix([[z, z], [z, z]], 5), {}
        assert max(detkit._coset_bounds_sq(m.coeffs, 4)) == 5
        assert det_cyc_evalinterp(m, stats).is_zero()
        assert stats["moduli"] == [next(aux_primes(5))]

    @pytest.mark.parametrize("row", [0, -1])
    def test_remultiplication_rejects_a_perturbed_lift(self, monkeypatch, row):
        """The first CRT lift of a step of three rows whose top digits read
        below a quarter of its modulus, with one coefficient of the first or
        the last row off by one (its lowest digit), is caught by the packed
        re-multiplication of that row.  The lift stays wrong modulo the primes
        already used, so no later lift is the quotient and the call raises at
        the 16L give-up: it never returns the wrong quotient."""
        rng = random.Random(0xBAD)
        p = 13
        den = random_cyc(rng, p, span=2**40)
        rows = cyc_array([[random_cyc(rng, p, span=2**40) * den for _ in range(3)]
                          for _ in range(3)])
        real, hits = detkit._MixedRadix.fold, []

        def perturbed(crt, residues, q):
            real(crt, residues, q)
            if not hits and crt.fits().all():
                hits.append(q)
                crt.digits[0][row, -1, 0] += 1

        monkeypatch.setattr(detkit._MixedRadix, "fold", perturbed)
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_exact(rows, detkit._Pivot(cyc_array(den)))
        assert len(hits) == 1

    def test_small_quotients_take_one_prime(self, lifts):
        """Quotients below 2^18 have a top digit below a quarter of the first
        auxiliary prime (> 2^24), so the first lift is proven: a stability
        stop took two."""
        rng = random.Random(0x18)
        p = 13
        den = random_cyc(rng, p, span=2**40)
        quots = [random_cyc(rng, p, span=2**18 - 1) for _ in range(4)]
        values = cyc_array([[x * den for x in quots]])
        quotients = detkit._divide_exact(values, detkit._Pivot(cyc_array(den)))
        assert quotients.tolist() == [[list(x.coeffs) for x in quots]]
        assert len(lifts) == 1

    def test_no_more_primes_than_a_stability_stop(self, monkeypatch, lifts):
        """No division of C and D at p <= 31 takes more folds than a stop at
        an unchanged lift would: the first fold whose lift of the whole step
        is the quotient, plus one."""
        real_divide, seen = detkit._divide_exact, []

        def divide(rows, den):
            start = len(lifts)
            quots = real_divide(rows, den)
            correct = [j for j, (lift, _) in enumerate(lifts[start:], 1) if lift == quots.tolist()]
            assert correct  # the last lift is the quotient
            seen.append((len(lifts) - start, correct[0]))
            return quots

        monkeypatch.setattr(detkit, "_divide_exact", divide)
        for p in filter(is_prime, range(5, 32)):
            for m in (build_C(p), build_D(p)):
                det_cyc_bareiss(m)
        assert seen and all(used <= correct + 1 for used, correct in seen)

    def test_scaled_entries_past_the_old_cap(self):
        """D(13) with every entry (j, k), j + k != 0 (mod 3), times 2^300: its
        quotients need more than 64 auxiliary primes."""
        scaled = scaled_d13()
        assert det_cyc_bareiss(scaled) == det_cyc_evalinterp(scaled)

    def test_quotients_are_int64_below_a_modulus_of_2_63(self, monkeypatch, lifts):
        """The quotients come as int64 when the proven modulus M is below 2^63, as
        every |v| < M/2 <= 2^62, and as Python ints otherwise: every division of
        D(13) takes int64, every one of the 2^300-scaled D(13) Python ints."""
        real, seen = detkit._divide_exact, []

        def divide(block, den):
            quots = real(block, den)
            seen.append((quots.dtype, lifts[-1][1]))
            return quots

        monkeypatch.setattr(detkit, "_divide_exact", divide)
        det_cyc_bareiss(build_D(13))
        assert seen and all(dtype == np.int64 and modulus < 1 << 63 for dtype, modulus in seen)
        seen.clear()
        det_cyc_bareiss(scaled_d13())
        assert all((dtype == np.int64) == (modulus < 1 << 63) for dtype, modulus in seen)
        assert seen and {dtype for dtype, _ in seen} == {np.dtype(object)}
        # the lift: Horner in int64 over two digits, the auxiliary primes of 13 (M near
        # 2^49) and the two primes below 2^31 (M near 2^62); three digits pass 2^63
        for primes in (list(islice(aux_primes(13), 2)), TOP_PRIMES[:2],
                       list(islice(aux_primes(13), 3)), TOP_PRIMES):
            modulus = math.prod(primes)
            values = [s * (modulus // 4 + d) for d in range(-3, 4) for s in (1, -1)]
            values += [(modulus - 1) // 2, (1 - modulus) // 2, 0]
            crt = detkit._MixedRadix()
            for q in primes:
                crt.fold(np.array([v % q for v in values], dtype=np.int64), q)
            lift = crt.lift()
            assert lift.tolist() == crt.ints().tolist() == values
            assert lift.dtype == (np.int64 if modulus < 1 << 63 else object), primes

    @pytest.mark.parametrize("p", [5, 7, 13, 47])
    def test_inverse_product_equals_the_values_path(self, p):
        """One `lincomb` product by den^-1 mod q gives the residues that den's inverse values
        scaled in and interpolated back give (`oracles.quotient_residues_by_values`), on int64
        blocks up to 2^62 and Python-int blocks up to 2^200, by int64 and Python-int pivots,
        one pivot for the first four auxiliary primes; where den has a zero value mod q
        (zeta - r, r of order p mod the first prime), both give None."""
        rng, tables = random.Random(0x1DE + p), detkit._tables(p)
        blocks = [np.array([[rng.randint(-(1 << 62), 1 << 62) for _ in range(p - 1)]
                            for _ in range(5)], dtype=np.int64),
                  cyc_array([random_cyc(rng, p, span=2**200) for _ in range(5)])]
        dens = [np.array(random_cyc(rng, p, span=2**20).coeffs, dtype=np.int64),
                cyc_array(random_cyc(rng, p, span=2**100))]
        for den in dens:
            pivot = detkit._Pivot(den)
            for q in islice(tables, 4):
                data = tables.data(q)
                for flat in blocks:
                    residues = pivot.residues(flat, tables, q)
                    assert residues.dtype == np.int64
                    assert np.array_equal(residues, quotient_residues_by_values(flat, den, data))
        data, den = tables.data(next(iter(tables))), conjugate_division(p)[1]
        assert detkit._Pivot(den).residues(blocks[0], tables, data.q) is None
        assert quotient_residues_by_values(blocks[0], den, data) is None

    def test_every_division_takes_the_primes_of_the_values_path(self, monkeypatch):
        """Every division of C and D at 5..47 folds the primes that the division by values
        (`oracles.divide_by_values`) folds, and returns its quotients in its dtype: int64,
        as every modulus they take is below 2^63; Dtilde(47)'s take Python ints past it."""
        real_fold, folded = detkit._MixedRadix.fold, []

        def fold(crt, residues, q):
            folded.append(q)
            real_fold(crt, residues, q)

        real, dtypes = detkit._divide_exact, set()

        def divide(block, den):
            folded.clear()
            quots = real(block, den)
            primes = list(folded)
            expected, expected_primes = divide_by_values(block, den.coeffs)
            assert primes == expected_primes and quots.dtype == expected.dtype
            assert np.array_equal(quots, expected)
            dtypes.add(quots.dtype)
            return quots

        monkeypatch.setattr(detkit._MixedRadix, "fold", fold)
        monkeypatch.setattr(detkit, "_divide_exact", divide)
        for p in filter(is_prime, range(5, 48)):
            for m in (build_C(p), build_D(p)):
                det_cyc_bareiss(m)
        assert dtypes == {np.dtype(np.int64)}
        det_cyc_bareiss(build("Dtilde", 47))
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    @pytest.mark.parametrize("p", [7, 13])
    def test_a_prime_dividing_a_conjugate_is_skipped(self, lifts, p):
        """den = zeta - r vanishes at the node r mod the first auxiliary prime q0
        (`conjugate_division`): the division folds no residue mod q0 and returns the
        quotients, proven on the primes after it."""
        block, den, quots = conjugate_division(p)
        q0 = next(aux_primes(p))
        quotients = detkit._divide_exact(block, detkit._Pivot(den))
        assert quotients.tolist() == [[list(x.coeffs) for x in quots]]
        assert lifts and all(modulus % q0 for _, modulus in lifts)


class TestMixedRadix:
    """The one CRT of the module, `_MixedRadix`, against the big-int fold
    `oracles.crt_lift`."""

    @staticmethod
    def folded(values, primes, shape=None):
        crt = detkit._MixedRadix()
        for q in primes:
            crt.fold(np.array([v % q for v in values], dtype=np.int64).reshape(shape or -1), q)
        return crt

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_agrees_with_the_big_int_fold(self, count):
        """Signed values up to +-(M-1)/2, one prime and several: every fold's
        lift and modulus equal the oracle's, and the last lift is the values."""
        rng, primes = random.Random(0x6A2 + count), list(islice(aux_primes(13), count))
        half = (math.prod(primes) - 1) // 2
        values = [half, -half, half - 1, 1 - half, 0, 1, -1]
        values += [rng.randint(-half, half) for _ in range(50)]
        crt, sym, modulus = detkit._MixedRadix(), [0] * len(values), 1
        for q in primes:
            residues = np.array([v % q for v in values], dtype=np.int64)
            crt.fold(residues, q)
            sym, modulus = crt_lift(sym, modulus, residues, q)
            assert crt.ints().tolist() == sym and crt.modulus == modulus
        assert crt.primes == primes
        assert sym == values

    def test_residues_of_any_shape(self):
        """Residues of any shape: `ints` returns nested lists of that shape,
        each value its symmetric residue until the modulus holds it."""
        rng, primes = random.Random(0x2D), list(islice(aux_primes(7), 3))
        rows = [[rng.randint(-(1 << 70), 1 << 70) for _ in range(6)] for _ in range(4)]
        crt = self.folded([v for row in rows for v in row], primes[:2], (4, 6))
        half = crt.modulus // 2  # values above it come back as their symmetric residue
        assert crt.ints().tolist() == [[(v + half) % crt.modulus - half for v in row] for row in rows]
        q = primes[2]
        crt.fold(np.array([[v % q for v in row] for row in rows], dtype=np.int64), q)
        assert crt.ints().tolist() == rows

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_top_digit_reading(self, count):
        """`fits` never accepts |v| >= M/4, and accepts every |v| < M/8 (the
        16L give-up of `_divide_exact` rests on this).  The values sit at both
        edges and where the reading is tight: top digits near q/4 with the
        lower digits at their extremes."""
        rng, primes = random.Random(0x7D + count), list(islice(aux_primes(11), count))
        m, q = math.prod(primes), primes[-1]
        below = m // q  # M' = M / q_top; the lower digits hold up to (M'-1)/2
        edges = [m // 4 + d for d in range(-3, 4)] + [m // 8 + d for d in range(-3, 4)]
        tight = [d * below + r for d in range((q - 9) // 4, (q + 9) // 4)
                 for r in (-(below - 1) // 2, 0, (below - 1) // 2)]
        values = [s * v for v in edges + tight for s in (1, -1)]
        values += [rng.randint(-(m // 2), m // 2) for _ in range(200)]
        fits = self.folded(values, primes).fits().tolist()
        assert any(fits) and not all(fits)
        for v, ok in zip(values, fits):
            assert not ok or 4 * abs(v) < m
            assert ok or 8 * abs(v) >= m

    def test_refuses_a_prime_past_int64_headroom(self):
        crt = detkit._MixedRadix()
        with pytest.raises(OverflowError):
            crt.fold(np.zeros(3, dtype=np.int64), (1 << 31) + 11)


class TestPrimeTables:
    """`detkit._tables`: the auxiliary primes of the current p, each with its `_EvalData`,
    found or built once and shared by every modular consumer."""

    def test_primes_are_a_fresh_scan(self):
        """After the lifts and dividers of a prime have read them, in turn over p = 5, 7, 5
        and 61, the memo's primes and tables are a fresh scan's."""
        for p, backend in ((5, "both"), (7, "both"), (5, "both"), (61, "modular")):
            det(build("C", p), backend)
            det(build("S", p) if p % 4 == 3 else build("T", p, least_nonresidue(p)), backend)
            tables = detkit._tables(p)
            count = max(len(tables._primes), 3)
            primes = list(islice(aux_primes(p), count))
            assert list(islice(tables, count)) == primes
            for q in primes:
                data = tables.data(q)
                assert (data.p, data.q) == (p, q) and data is tables.data(q)
                r = int(data.pow_r[1])
                assert r != 1 and pow(r, p, q) == 1

    def test_interleaved_streams(self):
        """Two streams of one p, read in turn at different paces, give the scan's sequence,
        and so does one read on after the memo has moved to another p and back."""
        expected = list(islice(aux_primes(13), 8))
        first, second = iter(detkit._tables(13)), iter(detkit._tables(13))
        got_first, got_second = [], []
        for _ in range(4):
            got_first.append(next(first))
            got_second += [next(second), next(second)]
        assert list(islice(detkit._tables(17), 2)) == list(islice(aux_primes(17), 2))
        got_first += [next(first) for _ in range(4)]  # on the tables it started on
        assert got_first == got_second == list(islice(detkit._tables(13), 8)) == expected

    def test_cached_arrays_are_read_only(self):
        tables = detkit._tables(7)
        data = tables.data(next(iter(tables)))
        with pytest.raises(ValueError):
            data.pow_r[1] = 1
        with pytest.raises(ValueError):
            data.pow_r[:] += 1

    def test_generator_powers_and_logs(self):
        """g, its powers and its logs equal a fresh computation from `primitive_root`, are
        read-only, and are rebuilt for a new p, here in turn over 3, 13, 17 and 13."""
        for p in (3, 13, 17, 13):
            tables = detkit._tables(p)
            g = primitive_root(p)
            assert tables.g == g
            assert tables.pow_g.tolist() == [pow(g, k, p) for k in range(p - 1)]
            assert all(pow(g, int(tables.log_g[t]), p) == t for t in range(1, p))
            for table in (tables.pow_g, tables.log_g):
                with pytest.raises(ValueError):
                    table[0] = 2


class TestPackedRowProducts:
    """The packed two-step Bareiss update and matmul against elementwise schoolbook
    products, at p = 13 with entries of up to 200 bits."""

    P = 13

    def entries(self, rng, count, span=2**200):
        return [random_cyc(rng, self.P, span=rng.choice([1, 2**62, span])) for _ in range(count)]

    def test_row_update(self):
        """The double step's update c0 X - K' R and its divisions by d: at n = 3 the
        1 x 1 block is the determinant with no division, n = 4 ends with the single
        step det(P)/d, and n = 5 divides a whole block; against cofactors of
        schoolbook products."""
        rng = random.Random(0x13)

        def cofactors(rows):
            if len(rows) == 1:
                return rows[0][0]
            terms = [cyc_mul_loop(x, cofactors([r[:j] + r[j + 1 :] for r in rows[1:]]))
                     for j, x in enumerate(rows[0])]
            return sum(terms[::2], CycElt.zero(self.P)) - sum(terms[1::2], CycElt.zero(self.P))

        for n in (1, 2, 3, 4, 5):
            rows = [self.entries(rng, n) for _ in range(n)]
            assert det_cyc_bareiss(exact_matrix(rows, self.P)) == cofactors(rows)

    def test_matmul(self):
        rng = random.Random(0x31)
        for n in (1, 4, 3):
            rows = [[random_cyc(rng, self.P, span=2**100) for _ in range(n)]
                    for _ in range(2 * n)]
            a, b = exact_matrix(rows[:n], self.P), exact_matrix(rows[n:], self.P)
            expected = [[sum((cyc_mul_loop(entries(a)[i][t], entries(b)[t][j]) for t in range(n)),
                             CycElt.zero(self.P)) for j in range(n)] for i in range(n)]
            assert [list(row) for row in entries(matmul(a, b))] == expected


class TestDetDispatcher:
    def test_both_backends_cross_checked(self):
        result = det(build_S(7), backend="both")
        assert isinstance(result, DetResult)
        assert result.value == -4
        assert result.values == (-4, -4)

    def test_evalinterp_stats(self):
        stats = {}
        det_cyc_evalinterp(build_D(7), stats)
        assert stats["nodes"] == 2  # p = 3 (mod 4): det D(7) lies in Q(sqrt(-7))
        aux = aux_primes(7)
        assert stats["moduli"] == [next(aux) for _ in stats["moduli"]]

    def test_evalinterp_stats_across_node_blocks(self):
        """A matrix without the symmetry takes all 12 nodes in one stack."""
        rng = random.Random(0xB10C)
        m = exact_matrix([[random_cyc(rng, 13, span=3) for _ in range(7)] for _ in range(7)], 13)
        stats = {}
        assert det_cyc_evalinterp(m, stats) == det_cyc_bareiss(m)
        assert stats["nodes"] == 12
        aux = aux_primes(13)
        assert stats["moduli"] == [next(aux) for _ in stats["moduli"]]

    def test_single_backends(self):
        assert det(build_S(7), backend="bareiss").value == -4
        assert det(build_S(7), backend="modular").value == -4

    def test_integral_result_invariant(self):
        """Both backends return an element of Z[zeta_p]: p - 1 Python ints."""
        result = det(build_D(7), backend="both")
        for value in result.values:
            assert isinstance(value, CycElt) and all(type(c) is int for c in value.coeffs)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            det(build_S(7), backend="magic")

    def test_values_per_backend_and_disagreement(self):
        result = det(build_D(7), backend="both")
        assert len(result.values) == 2 and result.agree
        assert len(det(build_D(7), backend="modular").values) == 1
        broken = DetResult((-4, 4))
        assert not broken.agree
        with pytest.raises(ArithmeticError):
            broken.value


class TestInt64Headroom:
    """A modulus too large for int64 products raises instead of wrapping."""

    def test_det_mod_prime_refuses_q_whose_square_overflows(self):
        with pytest.raises(OverflowError):
            _det_mod_stack(np.array([[[1, 2], [3, 4]]]), (1 << 32) + 15)

    def test_det_mod_stack_refuses_the_next_prime_up(self):
        """Past Q_EDGE, 24 (q-1)^2 >= 2^63: a 24 x 24 stack is refused, while a
        23 x 23 one still fits and, as 2I - J (see below), matches the oracle."""
        q = next(q for q in range(Q_EDGE + 1, 2 * Q_EDGE) if is_prime(q))
        with pytest.raises(OverflowError):
            _det_mod_stack(np.full((1, 24, 24), q - 1), q)
        worst = np.full((1, 23, 23), q - 1) + 2 * np.eye(23, dtype=np.int64)
        assert _det_mod_stack(worst, q).tolist() == oracle_dets(worst, q) == [2**22 * -21 % q]

    def test_values_at_nodes_refuses_sums_that_can_wrap(self):
        # (q-1)^2 fits in int64, a sum of p-1 = 4 such products does not;
        # the evaluation data for such a q, used by evaluation and
        # interpolation alike, is refused.  This q is the first one up from
        # the largest accepted q of the test below.
        top = math.isqrt(((1 << 63) - 1) // 4) + 1  # 4 (q-1)^2 < 2^63 iff q <= top
        q = next(q for q in range(top - top % 5 + 1, 1 << 63, 5) if q > top and is_prime(q))
        with pytest.raises(OverflowError):
            _EvalData(5, q)

    @pytest.mark.parametrize("value, dtype", [
        (FLOOR - 1, np.int64), (1 - FLOOR, np.int64),
        (FLOOR, object), (-FLOOR, object), (1 << 63, object), (-(1 << 64), object),
    ])
    def test_int_array_is_int64_only_below_the_floor(self, value, dtype):
        """The one dtype rule on each side of +-2^24, from nested lists, from an object
        array, and from every numpy integer dtype that holds the entries; a conforming
        int64 array is kept, not copied."""
        rows = [[0, 1, value], [-1, 2, 3], [4, 5, 6]]
        given = [rows, np.array(rows, dtype=object)]
        given += [np.array(rows, dtype=t) for t in (np.int32, np.int64)
                  if np.iinfo(t).min <= value <= np.iinfo(t).max]
        for coeffs in given:
            m = ExactMatrix(coeffs, MatrixMeta(5, "test"))
            assert m.coeffs.dtype == dtype and m.coeffs.tolist() == rows
            assert not m.coeffs.flags.writeable
        if dtype == np.int64:
            assert ExactMatrix(given[-1], MatrixMeta(5, "test")).coeffs is given[-1]

    def test_int64_past_the_floor_is_held_as_python_ints(self):
        """int64 coefficients of up to 2^40 handed to `ExactMatrix` become Python ints, so
        the evaluator's unreduced int64 sums never see them, and evaluation-interpolation
        agrees with Bareiss and with the same matrix built from Python ints."""
        meta = MatrixMeta(7, "test")
        rng = np.random.default_rng(0x2540)
        for coeffs in (rng.integers(-(1 << 40), 1 << 40, size=(3, 3, 6)),
                       build_D(7).coeffs * 2**40):
            m = ExactMatrix(coeffs, meta)
            assert m.coeffs.dtype == object
            value = det(m, "modular").value
            assert value == det(m, "both").value
            assert value == det_cyc_bareiss(ExactMatrix(coeffs.astype(object), meta))

    @pytest.mark.parametrize("rows, value", [
        ([[(1 << 63) + 5, 1], [1, 1]], (1 << 63) + 4),
        ([[(1 << 64) - 1, 0], [0, 1]], (1 << 64) - 1),
    ])
    def test_uint64_entries_are_held_as_python_ints(self, rows, value):
        """uint64 entries past int64 keep their values, and the integer CRT agrees
        with Bareiss on them."""
        m = ExactMatrix(np.array(rows, dtype=np.uint64), MatrixMeta(5, "test"))
        assert m.coeffs.dtype == object and m.coeffs.tolist() == rows
        assert det_int_modular(m) == det_int_bareiss(m) == value

    @pytest.mark.parametrize("coeffs", [
        np.array([[1.5, 2.0], [3.0, 4.0]]),
        np.array([[1, 2], [3, 4]], dtype=complex),
        np.array([[True, False], [False, True]]),
        np.array([[1, Fraction(1, 2)], [3, 4]], dtype=object),
        [[1.5, True], [1, 2]],
        [[CycElt.one(5)]],
    ], ids=["float", "complex", "bool", "fraction", "float-in-list", "cycelt"])
    def test_non_integer_entries_are_refused(self, coeffs):
        with pytest.raises(TypeError):
            ExactMatrix(coeffs, MatrixMeta(5, "test"))

    @pytest.mark.parametrize("p", [5, 13])
    def test_unreduced_rows_at_the_largest_accepted_q(self, p):
        """int64 rows of +/-(2^24 - 1) at the largest q = 1 (mod p) with (p-1)(q-1)^2 < 2^63:
        the headroom argument of the evaluator at its extreme, against Python ints."""
        top = math.isqrt(((1 << 63) - 1) // (p - 1)) + 1
        q = next(q for q in range(top - top % p + 1, 0, -p) if is_prime(q)
                 and (p - 1) * (q - 1) ** 2 < 1 << 63)
        data = _EvalData(p, q)
        rng = random.Random(p)
        big = FLOOR - 1
        rows = [[big] * (p - 1), [-big] * (p - 1), [rng.choice((big, -big)) for _ in range(p - 1)]]
        coeffs = coeff_rows(rows)
        assert coeffs.dtype == np.int64
        nodes = data.pow_r[1:].tolist()
        expected = [[sum(c * pow(a, i, q) for i, c in enumerate(row)) % q for a in nodes]
                    for row in rows]
        assert data.values(coeffs).tolist() == expected

    @pytest.mark.parametrize("scale, dtype", [(FLOOR - 1, np.int64), (FLOOR, object)])
    def test_backends_agree_on_either_side_of_the_floor(self, scale, dtype):
        rows = [[e * scale for e in row] for row in entries(build_D(7))]
        scaled = exact_matrix(rows, 7)
        assert scaled.coeffs.dtype == dtype
        assert det_cyc_evalinterp(scaled) == det_cyc_bareiss(scaled)


def oracle_dets(a, q):
    return [det_mod_prime(m, q) for m in a]


class TestDetModStack:
    """The batched elimination against the one-matrix oracle `det_mod_prime`."""

    @pytest.mark.parametrize("q", [Q24, Q_EDGE])
    def test_random_stacks(self, q):
        rng = np.random.default_rng(q % 997)
        for stack, n in [(1, 1), (1, 9), (7, 1), (5, 4), (16, 12)]:
            a = rng.integers(-q, 2 * q, size=(stack, n, n))  # not reduced mod q
            assert _det_mod_stack(a, q).tolist() == oracle_dets(a, q)

    def test_all_zero(self):
        for stack, n in [(1, 1), (1, 5), (3, 4)]:
            a = np.zeros((stack, n, n), dtype=np.int64)
            assert _det_mod_stack(a, Q24).tolist() == [0] * stack

    @pytest.mark.parametrize("q", [Q24, Q_EDGE])
    def test_zero_column_at_every_position(self, q):
        n = 6
        a = np.random.default_rng(3).integers(1, q, size=(n + 1, n, n))
        for c in range(n):
            a[c, :, c] = 0  # matrix c has its column c zero; the last matrix has none
        got = _det_mod_stack(a, q).tolist()
        assert got == oracle_dets(a, q)
        assert got[:n] == [0] * n and got[n] != 0

    @pytest.mark.parametrize("q", [Q24, Q_EDGE])
    def test_row_swap_at_every_column(self, q):
        n = 7
        rng = np.random.default_rng(5)
        upper = np.triu(rng.integers(1, q, size=(n, n)))
        # rows 1, 2, ..., n-1, 0 of an upper-triangular matrix: row k is zero in
        # column k when that column is eliminated, so every column swaps
        shifted = np.roll(upper, -1, axis=0)
        a = np.stack([shifted, upper, rng.integers(0, q, size=(n, n))])
        got = _det_mod_stack(a, q).tolist()
        assert got == oracle_dets(a, q)
        assert got[0] == (-1) ** (n - 1) * math.prod(int(d) for d in np.diag(upper)) % q

    def test_repeated_rows(self):
        n = 5
        a = np.random.default_rng(7).integers(0, Q24, size=(n, n, n))
        for i in range(n):
            a[i, (i + 1) % n] = a[i, i] + Q24 * (i - 2)  # equal mod q, not as integers
        assert _det_mod_stack(a, Q24).tolist() == oracle_dets(a, Q24) == [0] * n

    @pytest.mark.parametrize("q", [Q24, Q_EDGE])
    def test_entries_all_q_minus_1(self, q):
        # 2I - J: the first pivot is 1 and every factor and pivot-row entry q - 1,
        # the largest update there is; det(2I - J) = 2^(n-1) (2 - n)
        n = 24
        full = np.full((2, n, n), q - 1, dtype=np.int64)
        full[1] += 2 * np.eye(n, dtype=np.int64)
        got = _det_mod_stack(full, q).tolist()
        assert got == oracle_dets(full, q)
        assert got == [0, 2 ** (n - 1) * (2 - n) % q]

    @pytest.mark.parametrize("q", [Q24, Q_EDGE])
    def test_every_update_the_largest(self, q):
        # A = L U with unit L, U and q - 1 off the diagonal: elimination without
        # swaps meets factors q - 1 and pivot rows (1, q - 1, ...) at every column,
        # so every update subtracts (q-1)^2 from every trailing entry
        n = 24
        lower = np.tril(np.full((n, n), q - 1, dtype=object), -1) + np.eye(n, dtype=object)
        a = (lower @ lower.T % q).astype(np.int64)
        assert _det_mod_stack(a[None], q).tolist() == oracle_dets(a[None], q) == [1]


class TestBatchedElimination:
    """Every auxiliary prime of a determinant in one elimination, each matrix
    modulo its own prime, in runs bounded by `detkit._STACK_ENTRIES`."""

    def test_stack_mixes_three_primes(self):
        rng = np.random.default_rng(19)
        primes = list(islice(aux_primes(13), 3))
        moduli = np.repeat(primes, 4)  # four matrices per prime, as evalinterp stacks f nodes
        a = rng.integers(-(2**40), 2**40, size=(len(moduli), 9, 9))
        a[1, :, 2] = 0  # one singular matrix per prime
        a[5, 3] = a[5, 4]
        a[10, :, 0] = 0
        got = _det_mod_stack(a, moduli).tolist()
        for i, q in enumerate(primes):
            assert got[4 * i : 4 * i + 4] == oracle_dets(a[4 * i : 4 * i + 4], q)
        assert got[1] == got[5] == got[10] == 0

    def test_refusal_reads_the_largest_q(self):
        """At n = 24 a stack with Q_EDGE and the next prime up is refused for the
        latter, wherever it stands; Q_EDGE alone is accepted."""
        q = next(q for q in range(Q_EDGE + 1, 2 * Q_EDGE) if is_prime(q))
        a = np.ones((3, 24, 24), dtype=np.int64)
        for moduli in ([Q24, Q_EDGE, q], [q, Q24, Q_EDGE]):
            with pytest.raises(OverflowError, match=f"q={q}"):
                _det_mod_stack(a, np.array(moduli))
        assert _det_mod_stack(a, np.array([Q24, Q_EDGE, Q_EDGE])).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("family, p, delta", [("C", 29, ()), ("D", 13, ()), ("D", 61, ()),
                                                  ("S", 31, ()), ("T", 29, (2,))])
    def test_one_prime_per_run_changes_nothing(self, monkeypatch, family, p, delta):
        """Runs cut down to one prime each (the smallest run, one matrix per
        integer prime) give the values and the primes of the default runs."""
        m = build(family, p, *delta)
        backend = det_int_modular if m.kind == "int" else det_cyc_evalinterp
        default_stats, small_stats = {}, {}
        default = backend(m, default_stats)
        moduli, per_prime = default_stats["moduli"], default_stats.get("nodes", 1) * m.n * m.n
        assert len(detkit._runs(moduli, per_prime)) == 1
        monkeypatch.setattr(detkit, "_STACK_ENTRIES", 1)
        assert len(detkit._runs(moduli, per_prime)) == len(moduli)
        assert backend(m, small_stats) == default
        assert small_stats == default_stats

    @pytest.mark.parametrize("rows", [[[0] * 3] * 3, [[2**70, 1], [0, 0]]])
    def test_zero_bound_takes_no_prime(self, rows):
        m = exact_matrix(rows, 5)
        stats = {}
        assert det_int_modular(m, stats) == 0
        assert stats["moduli"] == []
