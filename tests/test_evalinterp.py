"""The evaluation-interpolation backend's two proofs: the Galois-orbit
certificate that lets one node per coset stand for all p-1, and the
coefficient bound that stops the CRT lift.

The certificate is checked against `CycElt.galois` on the dense entries, the
bound against every coefficient of the determinants of the sweep's families
and against their complex embeddings, and the backend against the all-node
loop with a stability stop (`oracles.evalinterp_all_nodes`) and Bareiss.
"""
import builtins
import cmath
import math
import random
from functools import cache

import numpy as np
import pytest

from cyclodet import detkit
from cyclodet.cycring import CycElt
from cyclodet.detkit import (
    _embedding_bound_sq,
    _orbit_step,
    det_cyc_bareiss,
    det_cyc_evalinterp,
)
from cyclodet.matrices import ExactMatrix, build
from cyclodet.modarith import is_prime, least_nonresidue, primitive_root

from oracles import entries, evalinterp_all_nodes, exact_matrix, orbit_step_tuples, random_cyc

PRIMES = [p for p in range(3, 104) if is_prime(p)]


def families(p: int) -> list[str]:
    return ["C", "D", "Dtilde"] + (["E"] if p % 4 == 3 else ["DD", "F"])


@cache
def matrix(family: str, p: int) -> ExactMatrix:
    delta = (least_nonresidue(p),) if family in ("DD", "F") else ()
    return build(family, p, *delta)


@cache
def evalinterp(family: str, p: int):
    stats = {}
    return det_cyc_evalinterp(matrix(family, p), stats), stats


def expected_f(family: str, p: int) -> int:
    """2 for p = 3 (mod 4) and for F; 4 for C, D, DD and Dtilde when p = 1 (mod 4)."""
    return 2 if p % 4 == 3 or family == "F" else 4


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


class TestOrbitCertificate:
    @pytest.mark.parametrize("p", PRIMES)
    def test_galois_oracle_and_listed_steps(self, p):
        """For each family, galois(g^f) is a row permutation of sign +1 at the
        f `_orbit_step` returns, and at no smaller divisor of p-1; the tuple-keyed
        certificate `orbit_step_tuples` returns the same f."""
        g = primitive_root(p)
        for family in families(p):
            m = matrix(family, p)
            f = _orbit_step(m.coeffs)
            assert f == orbit_step_tuples(m.coeffs)
            assert (p - 1) % f == 0
            assert galois_sign(m, pow(g, f, p)) == 1
            for smaller in range(1, f):
                if (p - 1) % smaller == 0:
                    assert galois_sign(m, pow(g, smaller, p)) != 1
            if p > 3 or family != "C":  # C(3) is the 1 x 1 matrix [1]: f = 1
                assert f == expected_f(family, p)

    @pytest.mark.parametrize("p", [q for q in range(PRIMES[-1] + 1, 114) if is_prime(q)])
    def test_tuple_keyed_certificate_to_113(self, p):
        """Past PRIMES, to 113, where the images of the rows take several runs:
        every family gives the f of the tuple-keyed certificate."""
        for family in families(p):
            m = matrix(family, p)
            assert _orbit_step(m.coeffs) == orbit_step_tuples(m.coeffs) == expected_f(family, p)

    def test_odd_symmetry_is_refused(self):
        """sigma_(g^2) maps D(13) to an odd row permutation of itself (the sign
        of a -> g^2 a on the squares is (g/13) = -1), so f = 2 is refused."""
        m = matrix("D", 13)
        assert galois_sign(m, pow(primitive_root(13), 2, 13)) == -1
        assert _orbit_step(m.coeffs) == 4

    def test_colliding_keys_are_refused(self, monkeypatch):
        """A key function under which each row's image under sigma_g collides with
        that row's own key would certify f = 1 on D(7) without the comparison of
        the rows; compared, every such match is refused, and f stays 2."""
        m, p = matrix("D", 7), 7
        g = primitive_root(p)
        images = [np.array([e.galois(g).coeffs for e in row], dtype=np.int64).tobytes()
                  for row in entries(m)]
        alias = {image: m.coeffs[j].tobytes() for j, image in enumerate(images)
                 if image != m.coeffs[j].tobytes()}  # row 0, all ones, is its own image
        hits = []

        def colliding(obj):
            if obj in alias:
                hits.append(obj)
                return builtins.hash(alias[obj])
            return builtins.hash(obj)

        monkeypatch.setattr(detkit, "hash", colliding, raising=False)
        assert _orbit_step(m.coeffs) == 2
        assert hits  # a colliding image was looked up
        assert det_cyc_evalinterp(m) == det_cyc_bareiss(m)


def perturbed(m: ExactMatrix, j: int, k: int, delta) -> ExactMatrix:
    rows = [list(row) for row in entries(m)]
    rows[j][k] = rows[j][k] + delta
    return exact_matrix(rows, m.meta.p)


class TestCertificateCannotBeFooled:
    """Matrices without the symmetry take every node and agree with Bareiss."""

    def check_all_nodes(self, m: ExactMatrix) -> CycElt:
        p = m.meta.p
        assert _orbit_step(m.coeffs) == orbit_step_tuples(m.coeffs) == p - 1
        stats = {}
        value = det_cyc_evalinterp(m, stats)
        assert stats["nodes"] == p - 1
        assert value == det_cyc_bareiss(m)
        return value

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
        assert _orbit_step(scaled.coeffs) == 2
        assert orbit_step_tuples(scaled.coeffs) == 2
        assert det_cyc_evalinterp(scaled) == det_cyc_bareiss(scaled)


class TestCoefficientBound:
    @pytest.mark.parametrize("p", PRIMES)
    def test_bound_holds_and_stops_the_lift(self, p):
        """Every coefficient of det is below 2H, every embedding at most H,
        and the lift stops at the first modulus above 4H."""
        for family in families(p):
            m = matrix(family, p)
            h2 = _embedding_bound_sq(m.coeffs)
            value, stats = evalinterp(family, p)
            assert max(c * c for c in value.coeffs) < 4 * h2
            roots = [cmath.exp(2j * math.pi * a / p) for a in range(1, p)]
            top = max(abs(sum(c * w**i for i, c in enumerate(value.coeffs))) for w in roots)
            assert top == 0 or math.log(top) <= math.log(h2) / 2 + 1e-9
            modulus = math.prod(stats["moduli"])
            assert modulus**2 > 16 * h2 >= (modulus // stats["moduli"][-1]) ** 2

    def test_zeta_to_the_p_minus_1_counts_one(self):
        """l(zeta^(p-1)) = 1: the median form, not the p-1 of sum |b_i|."""
        p = 11
        m = exact_matrix([[CycElt.zeta(p, p - 1)]], p)
        assert _embedding_bound_sq(m.coeffs) == 1

    @pytest.mark.parametrize("p", [101, 103])
    def test_agrees_with_all_node_oracle(self, p):
        for family in families(p):
            assert evalinterp(family, p)[0] == evalinterp_all_nodes(matrix(family, p))
