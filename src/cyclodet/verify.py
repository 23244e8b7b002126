"""Per-prime verification of the determinant, subfield, and valuation identities.

`run_primes` produces one PrimeReport per prime, shaped only by its
SweepOptions: which deltas and which backends.
Each report is a named map of checks; a failing check carries both sides of
the violated identity as exact strings.  Wherever a classical statement
involves a sign convention (which square root a symbol denotes), the
pass/fail criterion is the squared or absolute form, and the observed sign
under the fixed embedding zeta -> exp(2*pi*i/p) is recorded separately.

Every check is one row of the `CHECKS` table, over the values of one prime
(`_PrimeValues`, each computed on first use), and over a multiplier a or a
usable delta d where the row says so; adding a check is adding a row.  Every
determinant, of any family and delta, is taken by one method
(`_PrimeValues.det_of`) and read by one rule (`_PrimeValues.value`).
"""
from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .classno import ClassData, verify_product_formula
from .cycring import CycElt, eval_complex
from .detkit import DetResult, det, identity_holds
from .matrices import build
from .modarith import (
    distinct_nonresidues,
    least_nonresidue,
    legendre,
    primitive_root,
    require_odd_prime,
)
from .subfield import (
    QuadElt,
    gauss_sum,
    padic_val,
    quad_decompose,
    quartic_decompose,
    quartic_gauss_check,
    two_squares,
)

# p-cap for dense Z[zeta_p] work: the Bareiss cross-check, and the literal identity, the built
# matrices multiplied node by node (`matrix_identity_direct`)
BAREISS_LIMIT = 60


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    lhs: str = ""
    rhs: str = ""
    note: str = ""


@dataclass(frozen=True)
class SweepOptions:
    """Everything that shapes a report, each choice in one spelling."""

    delta: str = "least"  # "least" | "sweep:K" | an integer; "sweep" is "sweep:3"
    backend: str = "both"  # "bareiss" | "modular" | "both"

    def __post_init__(self) -> None:
        """Normalise `delta` once; resolve_deltas decodes it.  ValueError if bad."""
        text = "sweep:3" if self.delta == "sweep" else self.delta
        if text.startswith("sweep:"):
            count = int(text[len("sweep:"):])
            if count < 1:
                raise ValueError(f"sweep count must be positive, got {count}")
            text = f"sweep:{count}"
        elif text != "least":
            text = str(int(text))
        object.__setattr__(self, "delta", text)


@dataclass
class PrimeReport:
    p: int
    residue8: int
    class_info: ClassData
    delta: int | None = None
    deltas: tuple[int, ...] = ()
    det_S: int | None = None
    det_T: int | None = None
    det_SD: int | None = None
    det_C: CycElt | None = None
    det_D: CycElt | None = None
    decomp: dict = field(default_factory=dict)
    nu_a: int | None = None
    nu_b: int | None = None
    checks: dict = field(default_factory=dict)
    discrepancies: tuple[str, ...] = ()
    timings_ms: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks.values())


def _short(s: str) -> str:
    if len(s) <= 400:
        return s
    digest = hashlib.sha256(s.encode()).hexdigest()[:12]
    return f"<len {len(s)}, sha256 {digest}>"


# -- permutation sign (multiplication by a^2 on the nonzero squares) -------


def check_perm_sign(p: int, a: int) -> bool:
    """Compare the cycle-decomposition sign of x -> a^2*x on the squares mod p
    with the closed form: +1 when p = 3 (mod 4), (a/p) when p = 1 (mod 4)."""
    require_odd_prime(p)
    a %= p
    if a == 0:
        raise ValueError("a must be coprime to p")
    m = (p - 1) // 2
    a2 = a * a % p
    seen: set[int] = set()
    cycles = 0
    for x in {k * k % p for k in range(1, m + 1)}:
        if x not in seen:
            cycles += 1
            while x not in seen:
                seen.add(x)
                x = a2 * x % p
    sign = (-1) ** (m - cycles)  # a permutation of m points with `cycles` cycles
    return sign == (1 if p % 4 == 3 else legendre(a, p))


# -- Legendre-sum identities ------------------------------------------------


def _twisted_square_sums(p: int) -> list[CycElt]:
    """w[n] = sum_{t=1..m} zeta^(n t^2) for every residue n."""
    m = (p - 1) // 2
    raws = [[0] * p for _ in range(p)]
    for t in range(1, m + 1):
        e = t * t % p
        for n in range(p):
            raws[n][n * e % p] += 1
    return [CycElt._from_raw(p, raw) for raw in raws]


def legendre_sum_classes_hold(p: int) -> bool:
    """1 + 2*sum_t zeta^(n t^2) = (n/p)*g for every n != 0, and = p for n = 0.

    This is the entrywise content of Dtilde*D = g*E and Dtilde*DD = g*F:
    every product entry is 1 + 2*w(j^2 + delta*k^2), so checking all residue
    classes checks every entry of every such product.
    """
    g = gauss_sum(p)
    w = _twisted_square_sums(p)
    return 1 + 2 * w[0] == CycElt.rational(p, p) and all(
        1 + 2 * w[n] == legendre(n, p) * g for n in range(1, p))


def matrix_identity_direct(p: int, delta: int | None = None) -> bool:
    """The literal identity Dtilde*D = g*E (or Dtilde*DD = g*F) on the built matrices
    themselves, multiplied node by node: their values and g's at all p-1 nodes mod
    auxiliary primes whose product passes twice a proven bound on every coefficient
    of Dtilde*D - g*E (`detkit.identity_holds`), so the check is exact."""
    ds = () if delta is None else (delta,)
    return identity_holds(build("Dtilde", p), build("DD" if ds else "D", p, *ds),
                          build("F" if ds else "E", p, *ds), gauss_sum(p))


def resolve_deltas(p: int, opt: SweepOptions) -> tuple[list[int], list[int]]:
    """(usable deltas, rejected explicit deltas) for a prime p = 1 (mod 4)."""
    if p % 4 != 1:
        return [], []
    if opt.delta == "least":
        return [least_nonresidue(p)], []
    if opt.delta.startswith("sweep:"):
        return distinct_nonresidues(p, int(opt.delta[len("sweep:"):])), []
    d = int(opt.delta)
    return ([d], []) if legendre(d, p) == -1 else ([], [d])


# -- per-prime values ----------------------------------------------------------

class _PrimeValues:
    """The values the checks of one prime share, each computed on first use."""

    def __init__(self, p: int, opt: SweepOptions) -> None:
        self.p, self.m, self.opt = p, (p - 1) // 2, opt
        self.timings_ms = {"build": 0.0, "determinants": 0.0}  # summed over det_of
        self._dets: dict[tuple, DetResult] = {}

    def cross_checked(self, family: str) -> bool:
        """Whether backend "both" runs Bareiss beside the modular backend on
        `family`: S, T and SD always, C and D while p <= BAREISS_LIMIT (read
        at each call), the other families never."""
        return family in ("S", "T", "SD") or (family in ("C", "D") and self.p <= BAREISS_LIMIT)

    def det_of(self, family: str, *delta: int) -> DetResult:
        """The determinant of `family` (with delta for T, SD, DD and F), taken
        once through `detkit.det`: the options' backend, with "both" narrowed
        to the modular one unless the family is cross-checked.  The matrix is
        built here and dropped once its determinant is taken."""
        key = (family, *delta)
        if key not in self._dets:
            t0 = time.perf_counter()
            mat = build(family, self.p, *delta)
            t1 = time.perf_counter()
            backend = self.opt.backend
            if backend == "both" and not self.cross_checked(family):
                backend = "modular"
            self._dets[key] = det(mat, backend)
            self.timings_ms["build"] += (t1 - t0) * 1000
            self.timings_ms["determinants"] += (time.perf_counter() - t1) * 1000
        return self._dets[key]

    def value(self, family: str, *delta: int):
        """The determinant's value: the last backend run, the modular one whenever it ran."""
        return self.det_of(family, *delta).values[-1]

    deltas = cached_property(lambda pv: resolve_deltas(pv.p, pv.opt))  # (usable, rejected)
    # the a of the square_perm_sign checks
    multipliers = cached_property(
        lambda pv: sorted({2 % pv.p, 3 % pv.p, primitive_root(pv.p), pv.p - 1} - {0}))
    g = cached_property(lambda pv: gauss_sum(pv.p))
    pf = cached_property(lambda pv: verify_product_formula(pv.p))
    classes_ok = cached_property(lambda pv: legendre_sum_classes_hold(pv.p))
    # p = 3 (mod 4): det D = u + v*g, and det C = (a + b*g) times a sign set by h
    sign_h = cached_property(lambda pv: -1 if ((pv.pf.h or 0) + 1) // 2 % 2 else 1)
    d_quad = cached_property(lambda pv: quad_decompose(pv.value("D")))
    c_quad = cached_property(lambda pv: quad_decompose(pv.value("C")))
    u = cached_property(lambda pv: pv.d_quad.x)
    v = cached_property(lambda pv: pv.d_quad.y)
    a_p = cached_property(lambda pv: pv.sign_h * pv.c_quad.x)
    b_p = cached_property(lambda pv: pv.sign_h * pv.c_quad.y)
    nu = cached_property(lambda pv: [padic_val(x, pv.p) for x in (pv.a_p, pv.b_p, pv.u, pv.v)])
    # p = 1 (mod 4)
    split = cached_property(lambda pv: two_squares(pv.p))  # p = a^2 + b^2
    qd4 = cached_property(lambda pv: quartic_decompose(pv.value("D")))
    checks = cached_property(lambda pv: _run_checks(pv))


# -- the checks ----------------------------------------------------------------


class Check(NamedTuple):
    """One row of CHECKS.

    `fn(values)` returns (lhs, rhs), which pass when equal; or (ok, lhs, rhs),
    or (ok, lhs, rhs, note) to replace the row's note.  ok None is a skip.
    `over` is "" for one check, "a" for one per multiplier a (fn also takes
    a), or "d" for one per usable delta (fn also takes d).
    """

    name: str
    residue: int | None  # p mod 4 the row applies to; None: every p
    over: str
    note: str
    fn: Callable


def _agreement(pv, families: tuple[str, ...], lhs, rhs, *delta: int, limit=math.inf) -> tuple:
    """Bit-exact agreement of the backends on each family's determinant.  Which ran is
    read from its DetResult; a pair that did not run fails unless p > `limit` excuses it."""
    if pv.opt.backend != "both":
        return None, "", "", f"single backend {pv.opt.backend!r}"
    results = [pv.det_of(f, *delta) for f in families]
    single = [f for f, r in zip(families, results) if len(r.values) != 2]
    if not single:
        return all(r.agree for r in results), lhs, rhs
    if pv.p > limit:
        return None, "", "", f"p > bareiss limit {limit}"
    return False, lhs, rhs, f"the backend pair did not run on {', '.join(single)}"


def _legendre_identity(pv, delta: int | None = None) -> tuple:
    """Dtilde*D = g*E (no delta) or Dtilde*DD = g*F, literally while small."""
    ok = pv.classes_ok
    note = "residue classes (literal product skipped above size limit)"
    if pv.p <= BAREISS_LIMIT:
        ok = ok and matrix_identity_direct(pv.p, delta)
        note = "residue classes + literal matrix product"
    sides = ("Dtilde*D", "g*E") if delta is None else ("Dtilde*DD", "g*F")
    return ok, *sides, note


def _gauss_sign(pv) -> tuple:
    """g is sqrt(p) (p = 1 mod 4) or i*sqrt(p) (p = 3 mod 4) under zeta -> exp(2*pi*i/p).

    g^2 = (-1)^m p is checked exactly, so g's image is one of two points
    2*sqrt(p) apart, and the sign of its real (or imaginary) part picks the
    point.  The image sums p-1 terms +/-zeta^t at 50 digits (40 and ten guard
    digits), each term and each partial sum (at most p-1 in absolute value)
    rounded once, so its error is below p^2 * 10^-50, far below sqrt(p), and a
    float keeps its sign: that sign cannot be wrong, and no tolerance is compared."""
    approx = complex(eval_complex(pv.g, 40))
    expected = math.sqrt(pv.p) * (1 if pv.p % 4 == 1 else 1j)
    part = approx.real if pv.p % 4 == 1 else approx.imag
    return (pv.g * pv.g == (-1) ** pv.m * pv.p and part > 0,
            f"{approx:.12g}", f"{expected:.12g}")


def _valuations(pv) -> tuple:
    p, (nu_a, nu_b, nu_u, nu_v) = pv.p, pv.nu
    if p % 8 == 3:
        ok = nu_a == nu_b == (p - 3) // 8 and nu_u == nu_v + 1 == (p + 5) // 8
        expected = f"nu(a)=nu(b)={(p - 3) // 8}; nu(u)=nu(v)+1={(p + 5) // 8}"
    else:
        ok = nu_a == nu_b + 1 == (p + 1) // 8 and nu_u == nu_v == (p + 1) // 8
        expected = f"nu(a)=nu(b)+1={(p + 1) // 8}; nu(u)=nu(v)={(p + 1) // 8}"
    return ok, f"nu(a)={nu_a}, nu(b)={nu_b}, nu(u)={nu_u}, nu(v)={nu_v}", expected


def _quartic_branch(pv) -> tuple:
    ts = pv.split
    try:
        lhs = f"(g4 - g)^2 matches a' = {quartic_gauss_check(pv.p) * ts.a}"
    except ArithmeticError as exc:
        return False, str(exc), "branch +/-a", ""
    return True, lhs, f"a = {ts.a}, b = {ts.b}"


def _quartic_reconstruction(pv) -> tuple:
    """y^2 delta^2 = d^2 for y = alpha + beta*sqrt(p) and d = det D, exactly in Q(sqrt(p)).

    delta^2 = root^2 for root = g4 - g or its conjugate (`quartic_gauss_check`), so the
    equality is (d - y root)(d + y root) = 0 in Q(zeta_p): it holds exactly when
    d = +/-y root.  As g maps to +sqrt(p) under zeta -> exp(2*pi*i/p)
    (`gauss_sign_numeric`), this is what a comparison of the numeric images would only
    approximate.  The note's "numeric branch" suffix, which the benchmark's references
    pin, prints this exact result."""
    qd4 = pv.qd4
    square = quad_decompose(pv.value("D") * pv.value("D"))
    recon = (qd4.quad_part() * qd4.quad_part()) * qd4.delta_squared()
    ok = recon == square
    return (ok, recon, square,
            f"(alpha + beta*sqrt(p))^2 * delta^2 = (det D)^2; numeric branch ok={ok}")


def _unit_power(pv) -> tuple:
    pf = pv.pf
    if pf.h is None or pf.sign is None:
        return None, "", "", "product formula did not resolve h"
    eps_power = QuadElt(pv.p, Fraction(pf.eps[0], 2), Fraction(pf.eps[1], 2)) ** pf.h
    return pv.value("C") * pv.g, pf.sign * (pv.value("D") * eps_power.embed())


def _quartic_norm(pv, d: int) -> tuple:
    p, m, qd4 = pv.p, pv.m, pv.qd4
    lhs = 2 ** (m + 1) * pv.split.b * (qd4.alpha * qd4.alpha - p * qd4.beta * qd4.beta)
    rhs = p ** (m // 2) * pv.value("T", d)
    return (abs(lhs) == abs(rhs), lhs, rhs,
            f"|2^(m+1) * b * (alpha^2 - p*beta^2)| = |p^(m/2) * det T|; "
            f"observed sign {'+' if lhs == rhs else '-'}")


# Every check of a prime, in report order.  A new check is one more row.
CHECKS = (
    Check("cyc_backend_agreement", None, "", "bit-exact comparison on C and D",
          lambda pv: _agreement(pv, ("C", "D"), "bareiss(C), bareiss(D)",
                                "evalinterp(C), evalinterp(D)", limit=BAREISS_LIMIT)),
    Check("gauss_square", None, "", "g^2 = (-1)^((p-1)/2) * p",
          lambda pv: (pv.g * pv.g, (-1) ** pv.m * pv.p)),
    Check("gauss_sign_numeric", None, "",
          "embedding zeta -> exp(2*pi*i/p) puts g on the principal branch", _gauss_sign),
    Check("square_perm_sign", None, "a", "multiplication by a^2 on the nonzero squares",
          lambda pv, a: (check_perm_sign(pv.p, a), "cycle sign",
                         1 if pv.p % 4 == 3 else legendre(a, pv.p))),
    Check("residue_product_formula", None, "", "",
          lambda pv: (pv.pf.passed, pv.pf.detail, "exact product identity")),
    Check("det_product_relation", None, "", "det D = (-1)^m * prod(1 - zeta^(k^2)) * det C",
          lambda pv: (pv.value("D"), (-1) ** pv.m * (pv.pf.prod * pv.value("C")))),
    Check("dtilde_scaling", None, "", "det Dtilde = 2^m * det D",
          lambda pv: (pv.value("Dtilde"), 2**pv.m * pv.value("D"))),
    # p = 3 (mod 4)
    Check("int_backend_agreement", 3, "", "bareiss vs CRT on det S",
          lambda pv: _agreement(pv, ("S",), pv.det_of("S").values[0], pv.value("S"))),
    Check("detC_quad_half_integers", 3, "", "all of a, b, u, v lie in (1/2)Z",
          lambda pv: (all(Fraction(2 * x).denominator == 1
                          for x in (pv.a_p, pv.b_p, pv.u, pv.v)),
                      f"a={pv.a_p}, b={pv.b_p}", f"u={pv.u}, v={pv.v}")),
    Check("coordinate_transfer", 3, "", "det C coordinates vs det D coordinates",
          lambda pv: (pv.a_p == -pv.v and pv.b_p == pv.u / pv.p,
                      f"(a, b) = ({pv.a_p}, {pv.b_p})",
                      f"(-v, u/p) = ({-pv.v}, {pv.u / pv.p})")),
    Check("ab_product_identity", 3, "",
          "2^((p+1)/2) * a * b = (-1)^((p+1)/4) * p^((p-3)/4) * det S",
          lambda pv: (2 ** ((pv.p + 1) // 2) * pv.a_p * pv.b_p,
                      (-1) ** ((pv.p + 1) // 4) * pv.p ** ((pv.p - 3) // 4) * pv.value("S"))),
    Check("ab_norm_identity", 3, "",
          "2^((p-1)/2) * (a^2 - p*b^2) = ((p-1)/2) * (-p)^((p-3)/4) * det S",
          lambda pv: (2**pv.m * (pv.a_p * pv.a_p - pv.p * pv.b_p * pv.b_p),
                      pv.m * (-pv.p) ** ((pv.p - 3) // 4) * pv.value("S"))),
    Check("padic_valuations", 3, "",
          "valuation dichotomy by p mod 8, in both coordinate systems", _valuations),
    Check("detS_two_adic_bound", 3, "", "",
          lambda pv: (padic_val(pv.value("S"), 2) >= (pv.p - 3) // 2,
                      f"nu_2({pv.value('S')}) = {padic_val(pv.value('S'), 2)}",
                      f">= {(pv.p - 3) // 2}")),
    Check("detS_not_divisible_by_p", 3, "", "",
          lambda pv: (pv.value("S") % pv.p != 0, f"det S = {pv.value('S')}", f"p = {pv.p}")),
    Check("detD_square_identity", 3, "", "2^m * (det D)^2 = (-p)^((m+1)/2) * (m - g) * det S",
          lambda pv: (2**pv.m * (pv.d_quad * pv.d_quad),
                      (-pv.p) ** ((pv.m + 1) // 2) * pv.value("S") * QuadElt(pv.p, pv.m, -1))),
    Check("legendre_matrix_identity", 3, "", "", _legendre_identity),
    Check("detE_column_reduction", 3, "", "det E = (m - g) * det S via zero column sums",
          lambda pv: (quad_decompose(pv.value("E")),
                      QuadElt(pv.p, pv.m * pv.value("S"), -pv.value("S")))),
    Check("det_multiplicativity", 3, "", "det Dtilde * det D = g^(m+1) * det E",
          lambda pv: (pv.value("Dtilde") * pv.value("D"),
                      (-pv.p) ** ((pv.m + 1) // 2) * pv.value("E"))),
    # p = 1 (mod 4)
    Check("quartic_gauss_branch", 1, "", "(g4 - g)^2 = (2/p)*2p + 2a'*sqrt(p), a' = +/-a",
          _quartic_branch),
    Check("quartic_reconstruction", 1, "", "", _quartic_reconstruction),
    Check("unit_power_product", 1, "", "det C * g = sign * det D * eps^h", _unit_power),
    # p = 1 (mod 4), once per usable delta
    Check("int_backend_agreement", 1, "d", "bareiss vs CRT on det T and det SD",
          lambda pv, d: _agreement(
              pv, ("T", "SD"),
              f"T: {pv.det_of('T', d).values[0]}, SD: {pv.det_of('SD', d).values[0]}",
              f"T: {pv.value('T', d)}, SD: {pv.value('SD', d)}", d)),
    Check("detSD_vanishes", 1, "d", "det S(delta, p) = 0", lambda pv, d: (pv.value("SD", d), 0)),
    Check("quartic_norm_identity", 1, "d", "", _quartic_norm),
    Check("twisted_det_galois", 1, "d", "det DD = sigma_delta(det D)",
          lambda pv, d: (pv.value("DD", d), pv.value("D").galois(d))),
    Check("detF_corner_expansion", 1, "d", "det F = det T + g * det SD",
          lambda pv, d: (quad_decompose(pv.value("F", d)),
                         QuadElt(pv.p, pv.value("T", d), pv.value("SD", d)))),
    Check("det_multiplicativity", 1, "d", "det Dtilde * det DD = g^(m+1) * det F",
          lambda pv, d: (pv.value("Dtilde") * pv.value("DD", d),
                         pv.p ** (pv.m // 2) * (pv.g * pv.value("F", d)))),
    Check("legendre_matrix_identity", 1, "d", "", _legendre_identity),
)


def _result(name: str, row: Check, out: tuple) -> CheckResult:
    """Record one outcome: ok None skips (sides dropped), a pass shortens its sides."""
    if len(out) == 2:
        out = (out[0] == out[1], *out)
    ok, lhs, rhs, note = (*out, row.note)[:4]  # the row's note unless fn gave one
    ls, rs = ("", "") if ok is None else (str(lhs), str(rhs))
    if ok:
        ls, rs = _short(ls), _short(rs)
    return CheckResult(name, "skipped" if ok is None else "pass" if ok else "fail", ls, rs, note)


def _run_checks(pv: _PrimeValues) -> dict[str, CheckResult]:
    rows = [row for row in CHECKS if row.residue in (None, pv.p % 4)]
    once = {"": [("", ())], "a": [(f"[a={a}]", (a,)) for a in pv.multipliers]}
    results = [_result(row.name + tag, row, row.fn(pv, *args))
               for row in rows if row.over != "d" for tag, args in once[row.over]]
    for d in pv.deltas[1]:  # rejected explicit deltas
        results.append(CheckResult(
            f"delta_valid[d={d}]", "fail", f"legendre({d}, {pv.p}) = {legendre(d, pv.p)}",
            "-1", "explicit delta must be a quadratic non-residue"))
    results += [_result(f"{row.name}[d={d}]", row, row.fn(pv, d))
                for d in pv.deltas[0] for row in rows if row.over == "d"]
    return {r.name: r for r in results}


def run_prime(p: int, options: SweepOptions | None = None) -> PrimeReport:
    require_odd_prime(p)
    if p <= 3:
        raise ValueError("verification needs p > 3")
    pv = _PrimeValues(p, options or SweepOptions())
    t_start = time.perf_counter()
    checks = pv.checks  # every matrix is built and every determinant taken in here, by det_of
    timings = dict(pv.timings_ms)
    timings["checks"] = (time.perf_counter() - t_start) * 1000 - sum(timings.values())

    pf, deltas = pv.pf, pv.deltas[0]
    report = PrimeReport(
        p=p, residue8=p % 8, class_info=ClassData(p, h_neg=pf.h), deltas=tuple(deltas),
        det_C=pv.value("C"), det_D=pv.value("D"), checks=checks)
    if deltas:  # det T and det SD are the first delta's
        report.delta = d = deltas[0]
        report.det_T, report.det_SD = pv.value("T", d), pv.value("SD", d)
    if p % 4 == 3:
        report.det_S = pv.value("S")
        report.decomp = {"a_p": pv.a_p, "b_p": pv.b_p}
        report.nu_a, report.nu_b = (None if nu == math.inf else nu for nu in pv.nu[:2])
    else:
        qd4 = pv.qd4
        report.class_info = ClassData(p, h_pos=pf.h, eps=pf.eps)
        report.decomp = {"alpha": qd4.alpha, "beta": qd4.beta,
                         "delta_sign": qd4.delta_sign, "a": qd4.a}
        report.discrepancies = (
            f"quoted exponent 2^((p+1)/4) is non-integral for p={p} "
            f"((p+1)/4 = {Fraction(p + 1, 4)}); verified identity uses "
            f"2^(m+1) = 2^{pv.m + 1} with p^(m/2)",
        )
    timings["total"] = (time.perf_counter() - t_start) * 1000
    report.timings_ms = {k: round(v, 3) for k, v in timings.items()}
    return report


# -- sweep -------------------------------------------------------------------


def _internal_error(p: int, kind: str, note: str) -> PrimeReport:
    check = CheckResult("no_internal_error", "fail", kind, "", note)
    return PrimeReport(p=p, residue8=p % 8, class_info=ClassData(p),
                       checks={"no_internal_error": check})


def _run_prime_job(p: int, opt: SweepOptions) -> PrimeReport:
    try:
        return run_prime(p, opt)
    except Exception as exc:  # single-prime failures must not abort the sweep
        return _internal_error(p, type(exc).__name__, traceback.format_exc(limit=8))


def run_primes(
    primes: list[int], options: SweepOptions | None = None, threads: int = 1
) -> list[PrimeReport]:
    """Verify the given primes in order on up to `threads` processes; never aborts.

    A prime lost with a dead worker is rerun in a pool of its own, so only a
    prime whose own worker dies gets a `no_internal_error` report.
    """
    opt = options or SweepOptions()
    if threads <= 1 or len(primes) <= 1:
        return [_run_prime_job(p, opt) for p in primes]
    reports = _pool_run(primes, opt, min(threads, len(primes)))
    return [r or _pool_run([p], opt, 1)[0] or _internal_error(
        p, "BrokenProcessPool", f"the worker process died while verifying p={p}")
        for p, r in zip(primes, reports)]


def _pool_run(primes: list[int], opt: SweepOptions, workers: int) -> list:
    """One report per prime, in the given order, from a pool of `workers`; None
    where the pool broke.  The largest prime, the longest job, is submitted first
    (LPT scheduling; R. L. Graham, SIAM J. Appl. Math. 17, 1969), so that no
    large prime starts last and leaves the other workers idle.  The pool's module is
    imported here, so that a serial run never loads it."""
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    futures = [None] * len(primes)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for i in sorted(range(len(primes)), key=primes.__getitem__, reverse=True):
            futures[i] = pool.submit(_run_prime_job, primes[i], opt)
        return [None if isinstance(f.exception(), BrokenProcessPool) else f.result()
                for f in futures]


# -- serialization -----------------------------------------------------------


def _cyc_strs(x: CycElt | None) -> list[str] | None:
    return None if x is None else [str(c) for c in x.coeffs]


def report_to_dict(r: PrimeReport) -> dict:
    cls = r.class_info
    return {
        "p": r.p,
        "residue8": r.residue8,
        "class": {
            "h_neg": cls.h_neg,
            "h_pos": cls.h_pos,
            "eps_t": str(cls.eps[0]) if cls.eps else None,
            "eps_u": str(cls.eps[1]) if cls.eps else None,
        },
        "delta": r.delta,
        "deltas": list(r.deltas),
        "dets": {
            "S": None if r.det_S is None else str(r.det_S),
            "T": None if r.det_T is None else str(r.det_T),
            "SD": None if r.det_SD is None else str(r.det_SD),
            "C": _cyc_strs(r.det_C),
            "D": _cyc_strs(r.det_D),
        },
        "decomp": {
            k: (v if isinstance(v, int) else str(v)) for k, v in r.decomp.items()
        },
        "nu_a": r.nu_a,
        "nu_b": r.nu_b,
        "checks": {
            name: {
                "pass": c.status != "fail",
                "status": c.status,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "note": c.note,
            }
            for name, c in r.checks.items()
        },
        "discrepancies": list(r.discrepancies),
        "timings_ms": dict(r.timings_ms),
    }
