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
    _coefficients,
    _det_mod_stack,
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
from cyclodet.modarith import aux_primes, is_prime, least_nonresidue, word_primes_desc
from cyclodet.subfield import quad_decompose

from oracles import cyc_mul_loop, det_cofactor, det_mod_prime, det_numeric, random_cyc

Q20 = next(aux_primes(5))  # just above 2^20: the trailing block is never reduced
Q30 = next(word_primes_desc())  # just below 2^30: reduced every 8 updates
Q_TOP = next(  # q(q-1) just below 2^63: reduced before every update
    q for q in range(math.isqrt(1 << 63), 0, -1) if q * (q - 1) < 1 << 63 and is_prime(q)
)


@pytest.fixture
def lifts(monkeypatch):
    """The (lift, modulus) pair returned by every `_crt_lift` fold, in order."""
    real, out = detkit._crt_lift, []

    def recorded(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(detkit, "_crt_lift", recorded)
    return out


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

    def test_pivot_column_empties_mid_elimination(self):
        # column 1 is twice column 0, so it is zero after the first step
        m = int_matrix([[1, 2, 3], [2, 4, 5], [3, 6, 7]])
        for backend in (det_int_bareiss, det_int_modular):
            value = backend(m)
            assert type(value) is int and value == 0

    def test_large_entries(self):
        rows = [[10**20, 3], [-7, 10**22]]
        m = int_matrix(rows)
        expected = 10**42 + 21
        assert det_int_bareiss(m) == expected
        assert det_int_modular(m) == expected

    def test_stop_at_twice_the_hadamard_bound(self):
        """The CRT takes the shortest run of word primes whose product passes
        2H, H^2 = prod_rows sum_k M_jk^2 >= det^2: S at p = 3 (mod 4), T and SD
        at p = 1 (mod 4), up to p = 199."""
        for p in filter(is_prime, range(5, 200)):
            delta = least_nonresidue(p)
            for m in [build_S(p)] if p % 4 == 3 else [build_T(p, delta), build_S_delta(p, delta)]:
                h2 = math.prod(sum(e * e for e in row) for row in m.rows)
                stats = {}
                value = det_int_modular(m, stats)
                moduli = stats["moduli"]
                assert value * value <= h2
                assert moduli == list(islice(word_primes_desc(), len(moduli)))
                assert math.prod(moduli) ** 2 > 4 * h2 >= math.prod(moduli[:-1]) ** 2

    def test_zero_row_takes_no_modulus(self):
        stats = {}
        assert det_int_modular(int_matrix([[1, 2], [0, 0]]), stats) == 0
        assert stats["moduli"] == []


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

    def test_pivot_column_empties_mid_elimination(self):
        # column 1 is zeta times column 0, so it is zero after the first step
        p = 7
        z = CycElt.zeta(p)
        col0 = [CycElt.one(p), 1 + z, z * z * z]
        m = cyc_matrix([[c, z * c, CycElt.rational(p, k)] for k, c in enumerate(col0)], p)
        for backend in (det_cyc_bareiss, det_cyc_evalinterp):
            value = backend(m)
            assert isinstance(value, CycElt) and value == CycElt.zero(p)

    def test_diagonal(self):
        p = 7
        z = CycElt.zeta(p)
        zero = CycElt.zero(p)
        m = cyc_matrix([[z, zero], [zero, z * z]], p)
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

    def test_certified_stop_and_divider_cap(self, lifts):
        """evalinterp stops at the first modulus above 4H, with no cap on the
        primes it may take; the exact divider gives up on a division that is
        not exact at the first modulus above 8L, L = max l1(x) * l1(den)^(p-2)."""
        m = build_C(23)
        h2 = detkit._embedding_bound_sq(_coefficients([e for row in m.rows for e in row]), m.n)
        expected = det_cyc_bareiss(m)
        stats = {}
        assert det_cyc_evalinterp(m, stats) == expected
        moduli = stats["moduli"]
        assert len(moduli) == 3
        assert math.prod(moduli) ** 2 > 16 * h2 >= math.prod(moduli[:-1]) ** 2
        rng, p = random.Random(0xCC5), 13  # a seed with a modulus in (4L, 8L]
        den = random_cyc(rng, p, span=2**10)
        values = [random_cyc(rng, p, span=2**60) * den + 1, den]  # the first is not a multiple
        l1 = [sum(map(abs, x.num)) for x in values + [den]]
        bound = max(l1[:-1]) * l1[-1] ** (p - 2)
        lifts.clear()
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_exact(values, den)
        moduli = [modulus for _, modulus in lifts]
        assert 8 * bound >= moduli[-2] > 4 * bound and moduli[-1] > 8 * bound


class TestExactDivider:
    """Bareiss hands each row's updates to one divide call; every quotient is
    verified, and a division that is not exact raises."""

    def test_one_call_per_row(self, count_calls):
        calls = count_calls(detkit._divide_exact)
        assert det_cyc_bareiss(build_D(13)) == det_cyc_evalinterp(build_D(13))
        assert [len(row) for row in calls] == [5, 5, 5, 5, 5, 4, 4, 4, 4, 3, 3, 3, 2, 2, 1]

    def test_int_row(self):
        assert detkit._divide_ints([6, -8, 0], 2) == [3, -4, 0]
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_ints([6, 7], 2)

    def test_non_exact_row_raises(self):
        z = CycElt.zeta(5)
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_exact([(1 - z) * z, CycElt.one(5)], 1 - z)

    def test_zero_numerators(self):
        z, zero = CycElt.zeta(7), CycElt.zero(7)
        assert detkit._divide_exact([zero] * 3, 1 + z) == [zero] * 3
        x = 2 - 3 * z * z
        assert detkit._divide_exact([zero, x * (1 + z), zero], 1 + z) == [zero, x, zero]

    def test_zero_determinant_stops_at_the_bound(self):
        """A zero determinant is accepted at the first modulus above 4H, here
        H = 2 (rows of two entries zeta): one auxiliary prime."""
        z = CycElt.zeta(5)
        m, stats = cyc_matrix([[z, z], [z, z]], 5), {}
        assert detkit._embedding_bound_sq(_coefficients([z] * 4), 2) == 4
        assert det_cyc_evalinterp(m, stats).is_zero()
        assert stats["moduli"] == [next(aux_primes(5))]

    def test_remultiplication_rejects_a_perturbed_lift(self, monkeypatch):
        """The first CRT lift below a quarter of its modulus, with one
        coefficient off by one, is caught by the packed re-multiplication.
        The lift stays wrong modulo the primes already used, so no later lift
        is the quotient and the call raises at the 8L give-up: it never
        returns the wrong quotient."""
        rng = random.Random(0xBAD)
        p = 13
        den = random_cyc(rng, p, span=2**40)
        values = [random_cyc(rng, p, span=2**40) * den for _ in range(3)]
        real, hits = detkit._crt_lift, []

        def perturbed(sym, modulus, coeffs_q, q):
            sym, modulus = real(sym, modulus, coeffs_q, q)
            if not hits and 4 * max(map(abs, sym)) < modulus:
                hits.append(q)
                sym = [sym[0] + 1] + sym[1:]
            return sym, modulus

        monkeypatch.setattr(detkit, "_crt_lift", perturbed)
        with pytest.raises(ArithmeticError, match="not exact"):
            detkit._divide_exact(values, den)
        assert len(hits) == 1

    def test_small_quotients_take_one_prime(self, lifts):
        """Quotients below 2^18 are below a quarter of the first auxiliary
        prime (> 2^20), so the first lift is proven: a stability stop took two."""
        rng = random.Random(0x18)
        p = 13
        den = random_cyc(rng, p, span=2**40)
        quots = [random_cyc(rng, p, span=2**18 - 1) for _ in range(4)]
        assert detkit._divide_exact([x * den for x in quots], den) == quots
        assert len(lifts) == 1

    def test_no_more_primes_than_a_stability_stop(self, monkeypatch, lifts):
        """No division of C and D at p <= 31 takes more folds than a stop at
        an unchanged lift would: the first fold whose lift is the quotient,
        plus one."""
        real, seen = detkit._divide_exact, []

        def divide(values, den):
            start = len(lifts)
            quots = real(values, den)
            folds = [sym for sym, _ in lifts[start:]]
            seen.append((len(folds), folds.index([c for x in quots for c in x.num]) + 1))
            return quots

        monkeypatch.setattr(detkit, "_divide_exact", divide)
        for p in filter(is_prime, range(5, 32)):
            for m in (build_C(p), build_D(p)):
                det_cyc_bareiss(m)
        assert seen and all(used <= correct + 1 for used, correct in seen)

    def test_scaled_entries_past_the_old_cap(self):
        """D(13) with every entry (j, k), j + k != 0 (mod 3), times 2^300: its
        quotients need more than 64 auxiliary primes."""
        m = build_D(13)
        rows = [[e * 2**300 if (j + k) % 3 else e for k, e in enumerate(row)]
                for j, row in enumerate(m.rows)]
        scaled = cyc_matrix(rows, 13)
        assert det_cyc_bareiss(scaled) == det_cyc_evalinterp(scaled)


class TestPackedRowProducts:
    """The packed Bareiss row update and matmul against elementwise schoolbook
    products, at p = 13 with entries of up to 200 bits."""

    P = 13

    def entries(self, rng, count, span=2**200):
        return [random_cyc(rng, self.P, span=rng.choice([1, 2**62, span])) for _ in range(count)]

    def test_row_update(self):
        rng = random.Random(0x13)
        for n in (1, 2, 7):
            xs, ys = self.entries(rng, n), self.entries(rng, n)
            piv, aik = self.entries(rng, 2)
            expected = [cyc_mul_loop(x, piv) - cyc_mul_loop(aik, y) for x, y in zip(xs, ys)]
            assert detkit._update(xs, piv, ys, aik) == expected

    def test_matmul(self):
        rng = random.Random(0x31)
        for n, frac in ((1, False), (4, False), (3, True)):
            rows = [[random_cyc(rng, self.P, span=2**100, frac=frac) for _ in range(n)]
                    for _ in range(2 * n)]
            a, b = cyc_matrix(rows[:n], self.P), cyc_matrix(rows[n:], self.P)
            expected = [[sum((cyc_mul_loop(a.rows[i][t], b.rows[t][j]) for t in range(n)),
                             CycElt.zero(self.P)) for j in range(n)] for i in range(n)]
            assert [list(row) for row in matmul(a, b).rows] == expected


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

    def test_evalinterp_stats_across_node_blocks(self, monkeypatch):
        """A matrix without the symmetry takes all 12 nodes, a block at a time."""
        rng = random.Random(0xB10C)
        m = cyc_matrix([[random_cyc(rng, 13, span=3) for _ in range(7)] for _ in range(7)], 13)
        whole = det_cyc_evalinterp(m)
        assert whole == det_cyc_bareiss(m)
        for entries in (7 * 7, 3 * 7 * 7):  # blocks of one node, of three nodes
            monkeypatch.setattr(detkit, "_STACK_ENTRIES", entries)
            stats = {}
            assert det_cyc_evalinterp(m, stats) == whole
            assert stats["nodes"] == 12
            aux = aux_primes(13)
            assert stats["moduli"] == [next(aux) for _ in stats["moduli"]]

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
        broken = DetResult((-4, 4))
        assert not broken.agree
        with pytest.raises(ArithmeticError):
            broken.value


class TestInt64Headroom:
    """A modulus too large for int64 products raises instead of wrapping."""

    def test_det_mod_prime_refuses_q_whose_square_overflows(self):
        with pytest.raises(OverflowError):
            _det_mod_stack(np.array([[[1, 2], [3, 4]]]), (1 << 32) + 15)

    def test_values_at_nodes_refuses_sums_that_can_wrap(self):
        # (q-1)^2 fits in int64, a sum of p-1 = 4 such products does not;
        # the evaluation data for such a q, used by evaluation and
        # interpolation alike, is refused
        q = next(q for q in range(1 << 31, 1 << 32) if q % 5 == 1 and is_prime(q))
        with pytest.raises(OverflowError):
            _values_at_nodes(_coefficients([CycElt(5, [q - 1] * 4)]) % q, _EvalData(5, q))


def oracle_dets(a, q):
    return [det_mod_prime(m, q) for m in a]


class TestDetModStack:
    """The batched elimination against the one-matrix oracle `det_mod_prime`."""

    @pytest.mark.parametrize("q", [Q20, Q30, Q_TOP])
    def test_random_stacks(self, q):
        rng = np.random.default_rng(q % 997)
        for stack, n in [(1, 1), (1, 9), (7, 1), (5, 4), (16, 12)]:
            a = rng.integers(-q, 2 * q, size=(stack, n, n))  # not reduced mod q
            assert _det_mod_stack(a, q).tolist() == oracle_dets(a, q)

    def test_all_zero(self):
        for stack, n in [(1, 1), (1, 5), (3, 4)]:
            a = np.zeros((stack, n, n), dtype=np.int64)
            assert _det_mod_stack(a, Q20).tolist() == [0] * stack

    @pytest.mark.parametrize("q", [Q20, Q30])
    def test_zero_column_at_every_position(self, q):
        n = 6
        a = np.random.default_rng(3).integers(1, q, size=(n + 1, n, n))
        for c in range(n):
            a[c, :, c] = 0  # matrix c has its column c zero; the last matrix has none
        got = _det_mod_stack(a, q).tolist()
        assert got == oracle_dets(a, q)
        assert got[:n] == [0] * n and got[n] != 0

    @pytest.mark.parametrize("q", [Q20, Q30, Q_TOP])
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
        a = np.random.default_rng(7).integers(0, Q20, size=(n, n, n))
        for i in range(n):
            a[i, (i + 1) % n] = a[i, i] + Q20 * (i - 2)  # equal mod q, not as integers
        assert _det_mod_stack(a, Q20).tolist() == oracle_dets(a, Q20) == [0] * n

    @pytest.mark.parametrize("q", [Q20, Q30, Q_TOP])
    def test_entries_all_q_minus_1(self, q):
        # 2I - J: the first pivot is 1 and every factor and pivot-row entry q - 1,
        # the largest update there is; det(2I - J) = 2^(n-1) (2 - n)
        n = 24
        full = np.full((2, n, n), q - 1, dtype=np.int64)
        full[1] += 2 * np.eye(n, dtype=np.int64)
        got = _det_mod_stack(full, q).tolist()
        assert got == oracle_dets(full, q)
        assert got == [0, 2 ** (n - 1) * (2 - n) % q]

    @pytest.mark.parametrize("q", [Q20, Q30, Q_TOP])
    def test_every_update_the_largest(self, q):
        # A = L U with unit L, U and q - 1 off the diagonal: elimination without
        # swaps meets factors q - 1 and pivot rows (1, q - 1, ...) at every column,
        # so every update subtracts (q-1)^2 from every trailing entry
        n = 24
        lower = np.tril(np.full((n, n), q - 1, dtype=object), -1) + np.eye(n, dtype=object)
        a = (lower @ lower.T % q).astype(np.int64)
        assert _det_mod_stack(a[None], q).tolist() == oracle_dets(a[None], q) == [1]
