"""The evaluation-interpolation backend's proofs: the circulant declarations of
the built families, certified on their entry tables, the signed Galois-orbit
certificate that lets one node per coset stand for all p-1 on any other
matrix, and the coefficient bounds, from a declaration or from the coset
embeddings of the dense rows, that stop the CRT lift.

Every built family certifies its declaration, and its value, taken from one
resultant of its first row per node, equals the dense path's on a hand-built
copy of its coefficients (`hand_built`, which carries no declaration).  The
orbit certificate is checked against `CycElt.galois` on the dense entries, the
bounds against every coefficient of the determinants of the sweep's families,
against their images under all p-1 embeddings (`oracles.embeddings_abs_sq`)
and against the coefficient-size bound (`oracles.ell_bound_sq`), and the
backend against the all-node loop with a stability stop
(`oracles.evalinterp_all_nodes`) and Bareiss.  The bounds and the certificates
are read through `detkit` on every call, so that a mutant installed there is
the one tested.
"""
import dataclasses
import itertools
import math
import random
from functools import cache

import numpy as np
import pytest

from cyclodet import detkit, matrices
from cyclodet.cycring import CycElt
from cyclodet.detkit import det_cyc_bareiss, det_cyc_evalinterp
from cyclodet.matrices import ExactMatrix, MatrixMeta, build, build_D
from cyclodet.modarith import (
    AUX_PRIME_FLOOR,
    aux_primes,
    distinct_nonresidues,
    is_prime,
    least_nonresidue,
    primitive_root,
)
from cyclodet.subfield import fourth_power_sum

from oracles import (
    ell_bound_sq,
    embeddings_abs_sq,
    entries,
    evalinterp_all_nodes,
    exact_matrix,
    orbit_step_tuples,
    random_cyc,
)

PRIMES = [p for p in range(3, 104) if is_prime(p)]


def families(p: int) -> list[str]:
    return ["C", "D", "Dtilde"] + (["E"] if p % 4 == 3 else ["DD", "F"])


@cache
def matrix(family: str, p: int) -> ExactMatrix:
    delta = (least_nonresidue(p),) if family in ("DD", "F") else ()
    return build(family, p, *delta)


def evalinterp(family: str, p: int):
    """The determinant and its stats, taken afresh: a cache would hand a test that
    mutates `detkit` a value of the unmutated code, or later tests a mutated one."""
    stats = {}
    return detkit.det_cyc_evalinterp(matrix(family, p), stats), stats


def hand_built(m: ExactMatrix) -> ExactMatrix:
    """A copy of m's coefficients with no declaration: it takes the dense path."""
    return ExactMatrix(m.coeffs, m.meta)


def orbit_step(m: ExactMatrix) -> tuple[int, int]:
    return detkit._orbit_step(m.coeffs)


def bound_sq(m: ExactMatrix) -> int:
    """H^2 as the backend takes it: from m's declaration when it is certified, else over
    the coset embeddings of the orbit certificate."""
    if detkit._certified(m) is not None:
        return detkit._declared_bound_sq(m.circulant, m.meta.p)
    return max(detkit._coset_bounds_sq(m.coeffs, orbit_step(m)[0]))


def galois_sign(m: ExactMatrix, b: int):
    """The sign of the row permutation P with galois(b) of every entry of M
    equal to P*M, or None when no such P exists (rows compared as CycElts)."""
    rows = [list(row) for row in entries(m)]
    if any(rows.count(row) > 1 for row in rows):
        return None
    perm = []
    for row in rows:
        image = [e.galois(b) for e in row]
        if image not in rows:
            return None
        perm.append(rows.index(image))
    cycles, seen = 0, set()
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)


ALL_PRIMES = [p for p in range(3, 114) if is_prime(p)]


def built(p: int):
    """Every cyclotomic family of p, with each delta of `distinct_nonresidues(p, 3)`."""
    for family in families(p):
        for delta in distinct_nonresidues(p, 3) if family in ("DD", "F") else [None]:
            yield build(family, p, *([] if delta is None else [delta]))


class TestDeclarations:
    """The `Circulant` declaration each builder attaches, certified on its entry table."""

    @pytest.mark.parametrize("p", ALL_PRIMES)
    def test_every_built_family_certifies(self, p):
        for m in built(p):
            assert detkit._certified(m) is not None, m

    @pytest.mark.parametrize("p", ALL_PRIMES)
    def test_certified_value_equals_the_dense_path(self, p):
        """One resultant per node against one elimination per node of a hand-built copy
        of the same coefficients: the same value, nodes and primes."""
        for m in built(p):
            stats, dense_stats = {}, {}
            assert (detkit.det_cyc_evalinterp(m, stats)
                    == detkit.det_cyc_evalinterp(hand_built(m), dense_stats)), m
            assert stats == dense_stats

    def test_hand_built_matrix_carries_no_declaration(self):
        """D(7) scaled past the floor, built by hand: it takes the dense path and gets
        its own determinant, 2^(40 n) det D(7)."""
        m = ExactMatrix(build_D(7).coeffs * 2**40, MatrixMeta(7, "D"))
        assert m.circulant is None and detkit._certified(m) is None
        value = det_cyc_evalinterp(m)
        assert value == det_cyc_bareiss(m) == det_cyc_evalinterp(build_D(7)) * 2 ** (40 * m.n)

    def test_a_declaration_of_the_wrong_size_is_refused(self):
        d7 = build_D(7)
        assert detkit._certified(ExactMatrix(d7.coeffs[1:, 1:], d7.meta, d7.circulant)) is None

    @pytest.mark.parametrize("x", [-(2**63 // 3), 2**62, 3**50])
    def test_a_large_border_is_reduced_exactly(self, x):
        """D(7) with x in row 0 past int64's headroom, in its table and its declaration,
        both by hand: x m just above -2^63 (where c H(1) - x m would wrap in int64), past
        2^63, and x itself past 2^63.  It certifies, and its value and primes are those of
        the dense path on the same coefficients."""
        d7 = build_D(7)
        mult = d7.table.mult.astype(object)
        mult[0, 1:] *= x
        decl = dataclasses.replace(d7.circulant, border=(d7.circulant.border[0], x))
        m = ExactMatrix(dataclasses.replace(d7.table, mult=mult), d7.meta, decl)
        assert m.coeffs.dtype == object and m.coeffs[0, 1:, 0].tolist() == [x] * 3
        assert detkit._certified(m) == 1  # sigma_(g^2) shifts the first row: a 3-cycle
        stats, dense_stats = {}, {}
        value = det_cyc_evalinterp(m, stats)
        assert value == det_cyc_evalinterp(hand_built(m), dense_stats) == det_cyc_bareiss(m)
        assert stats == dense_stats

    @pytest.mark.parametrize("x", [np.array([1, 0, 0, 0, 0, 0]), 1.0])
    def test_a_border_that_is_not_an_int_is_refused(self, x):
        decl = build_D(7).circulant
        with pytest.raises(TypeError):
            dataclasses.replace(decl, border=(decl.border[0], x))


class TestTables:
    """The builders' entry tables, read by lookup: node values and the certified path."""

    @pytest.mark.parametrize("p", ALL_PRIMES)
    def test_node_values_by_lookup_equal_the_evaluator(self, p):
        """`_node_values` on each built table equals `_PrimeTables.values` on the filled
        coefficients (a hand-built copy) at every node of the first two auxiliary primes up
        to p = 47, and at the two nodes of the certified path above; the scaled rows of C,
        the corners of E and F and a multiplier past the floor included."""
        tables = detkit._tables(p)
        nodes = slice(None) if p <= 47 else tables.pow_g[:2] - 1
        for m in built(p):
            for q in list(itertools.islice(tables, 2)):
                expected = detkit._node_values(tables, q, hand_built(m), nodes)
                assert np.array_equal(detkit._node_values(tables, q, m, nodes), expected), m
        big = build_D(7)
        mult = big.table.mult.astype(object) * (AUX_PRIME_FLOOR * 3**40)
        m = ExactMatrix(dataclasses.replace(big.table, mult=mult), big.meta)
        tables = detkit._tables(7)
        q = next(iter(tables))
        assert np.array_equal(detkit._node_values(tables, q, m, slice(None)),
                              detkit._node_values(tables, q, hand_built(m), slice(None)))

    def test_the_certified_path_fills_no_coefficients(self, monkeypatch):
        """C(199) is taken from its table and declaration alone: its coefficient array,
        (99, 99, 198), is never filled."""
        m = build("C", 199)

        def filled(table, p):
            raise AssertionError("coefficients filled")

        monkeypatch.setattr(matrices, "_filled", filled)
        det_cyc_evalinterp(m)
        assert detkit._certified(m) is not None and m._coeffs is None


def circulant(row) -> np.ndarray:
    """The circulant Z_(u,v) = row[(v - u) mod m]."""
    m = len(row)
    return np.array([[row[(v - u) % m] for v in range(m)] for u in range(m)], dtype=np.int64)


class TestEuclid:
    """The lockstep Euclid of `_resultants` against `_det_mod_stack` on the expanded
    circulant, whose determinant is H(1) R'."""

    def check(self, h, q):
        got = detkit._resultants(np.array(h, dtype=np.int64), np.array([q] * len(h)))
        for row, r in zip(h, got.tolist()):
            assert sum(row) * r % q == detkit._det_mod_stack(circulant(row)[None], q)[0]
        return got

    def test_random_rows(self):
        rng, q = random.Random(0xE0C1), next(aux_primes(23))
        for m in (1, 2, 3, 8, 11):
            self.check([[rng.randrange(q) for _ in range(m)] for _ in range(4)], q)

    def test_degenerate_row_takes_a_stack_of_its_own(self, monkeypatch):
        """B = H mod (1 + ... + x^8) of degree 7 with A = (x + t) B + R, R of degree 5:
        the remainder after the first step loses two degrees (its leading coefficient
        vanishes mod q), and the step after, from degrees 7 and 5, has the sign
        (-1)^35.  Stacked with a random row, whose remainders lose one degree at each
        step, the row is taken again alone; alone, it takes the lockstep's own steps."""
        rng, q, m = random.Random(0xDE6E), next(aux_primes(19)), 9
        t = rng.randrange(q)
        b = [rng.randrange(q) for _ in range(m - 4)] + [(1 - t * (1 - t)) % q, (1 - t) % q, 1]
        degenerate, normal = b + [0], [rng.randrange(q) for _ in range(m)]
        stacks, real = [], detkit._resultants
        monkeypatch.setattr(detkit, "_resultants",
                            lambda h, q: stacks.append(h.tolist()) or real(h, q))
        both = self.check([normal, degenerate], q)
        assert stacks == [[normal, degenerate], [degenerate]]
        stacks.clear()
        assert self.check([degenerate], q).tolist() == both[1:].tolist()
        assert stacks == [[degenerate]]

    def test_shared_root_is_zero(self):
        """H = 1 + x vanishes at -1, a root of 1 + x + ... + x^5: R' is 0, in a stack
        with another row and alone."""
        q = next(aux_primes(13))
        shared = [1, 1, 0, 0, 0, 0]
        assert self.check([shared, [1, 2, 3, 4, 5, 7]], q)[0] == 0
        assert self.check([shared], q)[0] == 0

    def test_refuses_a_prime_past_int64_headroom(self):
        q = next(q for q in range((1 << 31) + 1, 1 << 32, 2) if is_prime(q))
        with pytest.raises(OverflowError):
            detkit._resultants(np.ones((1, 3), dtype=np.int64), np.array([q]))


class TestOrbitCertificate:
    @pytest.mark.parametrize("p", PRIMES)
    def test_galois_oracle_and_listed_steps(self, p):
        """Every family takes f = 2: galois(g^2) is a row permutation of the sign s
        `_orbit_step` returns, the sign (g/p) = -1 of x -> g^2 x on the squares for C,
        D, DD and Dtilde at p = 1 (mod 4), and s = 1 otherwise; the tuple-keyed
        certificate `orbit_step_tuples` returns the same pair.  galois(g) permutes
        no family's rows, so 2 is the least step, but at p = 3, where 2 = p-1 and
        C(3) is the 1 x 1 matrix [1]."""
        g = primitive_root(p)
        for family in families(p):
            m = matrix(family, p)
            f, s = orbit_step(m)
            assert (f, s) == orbit_step_tuples(m.coeffs)
            assert f == 2
            assert galois_sign(m, pow(g, 2, p)) == s
            assert s == (-1 if p % 4 == 1 and family != "F" else 1)
            if p > 3 or family != "C":
                assert galois_sign(m, g) is None

    @pytest.mark.parametrize("p", ALL_PRIMES)
    def test_tuple_keyed_certificate_to_113(self, p):
        """At every prime to 113, where the images of the rows take several runs, every
        family, with each delta of `distinct_nonresidues(p, 3)`, gives the (f, s) of the
        tuple-keyed certificate, which accepts any row permutation, and f = 2."""
        for m in built(p):
            assert orbit_step(m) == orbit_step_tuples(m.coeffs)
            assert orbit_step(m)[0] == 2

    def test_odd_symmetry_takes_two_nodes(self):
        """sigma_(g^2) maps D(13) to an odd row permutation of itself (the sign
        of a -> g^2 a on the squares is (g/13) = -1): f = 2 with s = -1, and the
        value at r^(g^(i+2j)) is (-1)^j times the value at r^(g^i)."""
        m = matrix("D", 13)
        assert galois_sign(m, pow(primitive_root(13), 2, 13)) == -1
        assert orbit_step(m) == (2, -1)
        value, stats = evalinterp("D", 13)
        assert stats["nodes"] == 2
        assert value == det_cyc_bareiss(m) == evalinterp_all_nodes(m)

    @pytest.mark.parametrize("family", ["C", "D"])
    def test_rows_permuted_another_way_take_every_node(self, family):
        """D(13) and C(13) with their last two rows swapped: sigma_(g^2) still permutes
        the rows, so the certificate that takes any row permutation (`orbit_step_tuples`)
        finds one of sign -1, but no longer the shift along the squares that `_orbit_step`
        reads.  The matrix takes all p-1 nodes, and its value is Bareiss's."""
        m = matrix(family, 13)
        order = [*range(m.n - 2), m.n - 1, m.n - 2]
        swapped = ExactMatrix(m.coeffs[order], m.meta)
        assert orbit_step_tuples(swapped.coeffs) == (2, -1)
        assert orbit_step(swapped) == (12, 1)
        stats = {}
        assert det_cyc_evalinterp(swapped, stats) == det_cyc_bareiss(swapped)
        assert stats["nodes"] == 12

    def test_rational_matrix_takes_two_nodes(self):
        """Every sigma_b fixes a rational entry, so sigma_(g^2) maps every row to itself."""
        p, rows = 13, [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        m = exact_matrix([[CycElt.rational(p, a) for a in row] for row in rows], p)
        assert orbit_step(m) == orbit_step_tuples(m.coeffs) == (2, 1)
        stats = {}
        assert det_cyc_evalinterp(m, stats) == det_cyc_bareiss(m) == CycElt.rational(p, 18)
        assert stats["nodes"] == 2


def perturbed(m: ExactMatrix, j: int, k: int, delta) -> ExactMatrix:
    rows = [list(row) for row in entries(m)]
    rows[j][k] = rows[j][k] + delta
    return exact_matrix(rows, m.meta.p)


class TestCertificateCannotBeFooled:
    """Matrices without the symmetry take every node and agree with Bareiss."""

    def check_all_nodes(self, m: ExactMatrix) -> CycElt:
        p = m.meta.p
        assert orbit_step(m) == orbit_step_tuples(m.coeffs) == (p - 1, 1)
        stats = {}
        value = det_cyc_evalinterp(m, stats)
        assert stats["nodes"] == p - 1
        assert value == det_cyc_bareiss(m)
        return value

    def test_fixed_by_sigma_g4_not_by_sigma_g2(self):
        """[sum_t zeta^(t^4)] over Z[zeta_13] is fixed by sigma_(g^4), not by sigma_(g^2),
        the one step the certificate tries."""
        p = 13
        x, b = fourth_power_sum(p), pow(primitive_root(p), 2, p)
        assert x.galois(b * b % p) == x != x.galois(b)
        assert self.check_all_nodes(exact_matrix([[x]], p)) == x

    def test_one_entry_perturbed(self):
        self.check_all_nodes(perturbed(matrix("D", 13), 2, 3, 1))
        self.check_all_nodes(perturbed(matrix("C", 29), 1, 4, CycElt.zeta(29)))

    def test_random_matrix(self):
        rng = random.Random(0x0B17)
        p, n = 11, 5
        self.check_all_nodes(exact_matrix([[random_cyc(rng, p) for _ in range(n)]
                                            for _ in range(n)], p))

    def test_repeated_row(self):
        rows = [list(row) for row in entries(matrix("D", 13))]
        rows[5] = rows[4]
        assert self.check_all_nodes(exact_matrix(rows, 13)).is_zero()

    def test_coefficients_beyond_int64(self):
        rng = random.Random(0xB16)
        p, n = 7, 3
        m = exact_matrix([[random_cyc(rng, p, span=2**80) for _ in range(n)] for _ in range(n)], p)
        assert m.coeffs.dtype == object
        self.check_all_nodes(m)
        # the symmetric D(7) scaled past int64 keeps its two orbits
        scaled = exact_matrix([[e * 2**70 for e in row] for row in entries(matrix("D", 7))], 7)
        assert scaled.coeffs.dtype == object
        assert orbit_step(scaled) == orbit_step_tuples(scaled.coeffs) == (2, 1)
        assert det_cyc_evalinterp(scaled) == det_cyc_bareiss(scaled)


class TestCoefficientBound:
    """H^2 as the backend takes it (`bound_sq`: from a built family's declaration,
    `_declared_bound_sq`, else `_coset_bounds_sq` on the dense rows) is at least
    |sigma_a(det M)|^2 at every one of the
    p-1 embeddings (`embeddings_abs_sq`), whichever f cosets it reads, and at most
    the coefficient-size bound `ell_bound_sq` but for its float64 margin: every
    |sigma_a(x)| <= l(x) <= l1(x) <= (p-1) l(x), the margin adds at most 2^-29 l1(x)
    to each and a factor 1 + 2^-30 to each row, and H^2 is a ceiling, so
    H^2 <= l-bound ((1 + 2^-29 (p-1))^2 (1 + 2^-30))^n + 1 < l-bound (1 + 2^-15) + 1
    for n <= 52 and p <= 103, the sizes tested."""

    def check(self, m: ExactMatrix, value: CycElt, ell: bool = True) -> int:
        h2 = bound_sq(m)
        assert max(embeddings_abs_sq(value)) <= h2
        if ell:
            ell = ell_bound_sq(m.coeffs)
            assert h2 <= ell + (ell >> 14) + 1
        return h2

    @pytest.mark.parametrize("p", PRIMES)
    def test_bound_holds_and_stops_the_lift(self, p):
        """Every coefficient of det is below 2H, every embedding at most H, with H^2
        from the family's declaration, and the lift stops at the first modulus above
        4H, where the bound from the dense rows stops it too."""
        for family in families(p):
            m = matrix(family, p)
            assert detkit._certified(m) is not None
            value, stats = evalinterp(family, p)
            h2 = self.check(m, value)
            assert max(c * c for c in value.coeffs) < 4 * h2
            modulus = math.prod(stats["moduli"])
            assert modulus**2 > 16 * h2 >= (modulus // stats["moduli"][-1]) ** 2
            dense = max(detkit._coset_bounds_sq(m.coeffs, 2))
            assert detkit._lift_primes(p, 16 * dense) == stats["moduli"]

    def test_c_takes_about_the_primes_of_d(self):
        """At p = 199 det C and det D both have about 283 bits; C's lift takes at
        most 1.2 times D's primes (the coefficient-size bound took 38 against 14)."""
        primes = {family: len(evalinterp(family, 199)[1]["moduli"]) for family in "CD"}
        assert primes["C"] <= 1.2 * primes["D"]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int64_edge_entries(self, sign):
        """Coefficients of +-(2^24 - 1), the largest that stay int64."""
        rng, p = random.Random(0xED6E + sign), 11
        top = AUX_PRIME_FLOOR - 1
        m = exact_matrix([[CycElt(p, [sign * rng.choice([top, -top, 0]) for _ in range(p - 1)])
                           for _ in range(3)] for _ in range(3)], p)
        assert m.coeffs.dtype == np.int64 and abs(m.coeffs).max() == top
        value = det_cyc_evalinterp(m)
        assert value == det_cyc_bareiss(m)
        self.check(m, value)

    def test_object_entries_past_2_to_the_53(self):
        """Python-int coefficients that float64 rounds, and a row past 2^500, where
        the l1 of an entry is too large for a sum of squares in float64: that row's
        factor is the exact sum_k l1(M_jk)^2, which the coefficient-size bound
        undercuts by its median form."""
        rng, p = random.Random(0xB1653), 7
        rows = [[random_cyc(rng, p, span=2**60) for _ in range(3)] for _ in range(3)]
        m = exact_matrix(rows, p)
        assert m.coeffs.dtype == object
        value = det_cyc_evalinterp(m)
        assert value == det_cyc_bareiss(m)
        self.check(m, value)
        huge = exact_matrix([[x * 2**600 for x in rows[0]]] + rows[1:], p)
        value = det_cyc_evalinterp(huge)
        assert value == det_cyc_bareiss(huge) == det_cyc_bareiss(m) * 2**600
        self.check(huge, value, ell=False)
        x = rows[0][0] * 2**600
        assert bound_sq(exact_matrix([[x]], p)) == sum(map(abs, x.coeffs)) ** 2

    def test_zero_row(self):
        """A zero row makes H = 0, and the lift takes one prime."""
        rows = [list(row) for row in entries(matrix("D", 13))]
        rows[3] = [CycElt.zero(13)] * len(rows)
        m, stats = exact_matrix(rows, 13), {}
        assert bound_sq(m) == 0
        assert det_cyc_evalinterp(m, stats).is_zero()
        assert len(stats["moduli"]) == 1

    def test_zeta_to_the_p_minus_1_counts_one(self):
        """|sigma(zeta^(p-1))| = 1, though its coefficients, all -1, sum to p-1 in
        absolute value: H^2 of [[zeta^(p-1)]] is the ceiling of 1 and its margin."""
        p = 11
        m = exact_matrix([[CycElt.zeta(p, p - 1)]], p)
        assert ell_bound_sq(m.coeffs) == 1 and bound_sq(m) == 2

    def test_every_coset_is_read(self):
        """1 + zeta^((p-1)/2) is small at a = 1 and near 2 at a = 2: a 1 x 1 matrix,
        which no sigma_b other than the identity maps to a row permutation of itself."""
        p = 13
        x = CycElt.one(p) + CycElt.zeta(p, (p - 1) // 2)
        m = exact_matrix([[x]], p)
        assert orbit_step(m) == (p - 1, 1)
        self.check(m, x)

    def test_the_dense_lift_reads_every_coset(self):
        """The diagonal matrix of 30 copies of x = 1 + zeta^6 over Z[zeta_13]: |sigma_1(x)|^2
        < 0.06, so the embedding a = 1 alone bounds det M = x^30 by H^2 < 2^-120 and one
        prime, but x^30 has coefficients past 2^26, beyond the symmetric residues of one
        auxiliary prime.  The dense path reads the 12 cosets of its f = p-1 and takes two
        primes."""
        p, n = 13, 30
        x = CycElt.one(p) + CycElt.zeta(p, (p - 1) // 2)
        zero = CycElt.zero(p)
        m = exact_matrix([[x if j == k else zero for k in range(n)] for j in range(n)], p)
        power = CycElt.one(p)
        for _ in range(n):
            power = power * x
        assert max(map(abs, power.coeffs)) > 1 << 26
        stats = {}
        assert detkit.det_cyc_evalinterp(m, stats) == power
        assert (stats["nodes"], len(stats["moduli"])) == (p - 1, 2)

    @pytest.mark.parametrize("p", [101, 103])
    def test_agrees_with_all_node_oracle(self, p):
        for family in families(p):
            assert evalinterp(family, p)[0] == evalinterp_all_nodes(matrix(family, p))
