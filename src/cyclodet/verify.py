"""Per-prime verification of the determinant, subfield, and valuation identities.

`run_range` sweeps the primes in an interval and produces one PrimeReport per
prime.  Each report is a named map of checks; a failing check carries both
sides of the violated identity as exact strings.  Wherever a classical
statement involves a sign convention (which square root a symbol denotes),
the pass/fail criterion is the squared or absolute form, and the observed
sign under the fixed embedding zeta -> exp(2*pi*i/p) is recorded separately.

Every check is declared by a single `_PrimeChecks.check` call: in
`_PrimeChecks.run` (all primes), `checks_3mod4` or `checks_1mod4`.
"""
from __future__ import annotations

import hashlib
import math
import time
import traceback
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .classno import (
    ClassData,
    ProductFormulaResult,
    squares_product,
    verify_product_formula,
)
from .cycring import CycElt, eval_complex
from .detkit import DetResult, det
from .matrices import (
    ExactMatrix,
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
from .modarith import (
    distinct_nonresidues,
    is_prime,
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

BAREISS_LIMIT = 60  # p-cap for the cyclotomic Bareiss cross-check
DIRECT_IDENTITY_LIMIT = 60  # p-cap for literal matrix-product checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    lhs: str = ""
    rhs: str = ""
    note: str = ""


@dataclass(frozen=True)
class SweepOptions:
    delta_mode: str = "least"  # "least" | "explicit" | "sweep"
    delta_value: int | None = None
    sweep_count: int = 3
    backend: str = "both"  # "bareiss" | "modular" | "both"
    threads: int = 1


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
    squares = sorted({k * k % p for k in range(1, m + 1)})
    index = {s: i for i, s in enumerate(squares)}
    a2 = a * a % p
    perm = [index[a2 * s % p] for s in squares]
    sign = 1
    seen = [False] * m
    for start in range(m):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    expected = 1 if p % 4 == 3 else legendre(a, p)
    return sign == expected


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
    if 1 + 2 * w[0] != CycElt.rational(p, p):
        return False
    for n in range(1, p):
        if 1 + 2 * w[n] != legendre(n, p) * g:
            return False
    return True


def matrix_identity_direct(p: int, delta: int | None = None) -> bool:
    """Literal product check Dtilde*D = g*E (or Dtilde*DD = g*F)."""
    dt = build_D_tilde(p)
    right = build_D(p) if delta is None else build_D_delta(p, delta)
    target = build_E(p) if delta is None else build_F(p, delta)
    g = gauss_sum(p)
    prod = matmul(dt, right)
    for j in range(prod.n):
        for k in range(prod.n):
            if prod.rows[j][k] != g * target.rows[j][k]:
                return False
    return True


def resolve_deltas(p: int, opt: SweepOptions) -> tuple[list[int], list[int]]:
    """(usable deltas, rejected explicit deltas) for a prime p = 1 (mod 4)."""
    if p % 4 != 1:
        return [], []
    if opt.delta_mode == "least":
        return [least_nonresidue(p)], []
    if opt.delta_mode == "explicit":
        d = opt.delta_value
        if d is None:
            raise ValueError("explicit delta mode needs a delta value")
        if legendre(d, p) == -1:
            return [d], []
        return [], [d]
    if opt.delta_mode == "sweep":
        return distinct_nonresidues(p, opt.sweep_count), []
    raise ValueError(f"unknown delta mode {opt.delta_mode!r}")


# -- per-prime driver --------------------------------------------------------


class _PrimeChecks:
    """The checks of one prime and the values they share.

    `check` records one named result; inside a delta loop `tag` is
    "[d=<delta>]" and suffixes every name recorded.
    """

    # set by `run` for the residue-class checks
    report: PrimeReport
    g: CycElt  # the Gauss sum
    det_c: CycElt
    det_d: CycElt
    det_dt: CycElt
    pf: ProductFormulaResult
    classes_ok: bool  # legendre_sum_classes_hold(p)

    def __init__(self, p: int, opt: SweepOptions) -> None:
        self.p = p
        self.m = (p - 1) // 2
        self.opt = opt
        self.checks: dict[str, CheckResult] = {}
        self.tag = ""

    def check(self, name: str, ok: bool | None, lhs, rhs, note: str = "") -> None:
        """Record `name`: ok True passes, False fails, None skips (sides dropped)."""
        name += self.tag
        ls, rs = ("", "") if ok is None else (str(lhs), str(rhs))
        if ok:
            ls, rs = _short(ls), _short(rs)
        status = "skipped" if ok is None else "pass" if ok else "fail"
        self.checks[name] = CheckResult(name, status, ls, rs, note)

    def det(self, mat: ExactMatrix, cross_check: bool = False) -> DetResult:
        """The options' backend; "both" runs the modular one alone unless cross_check."""
        both = self.opt.backend == "both"
        return det(mat, "modular" if both and not cross_check else self.opt.backend)

    def agreement(self, name: str, results: list[DetResult], lhs, rhs, note: str) -> None:
        """Bit-exact agreement of the backends behind each result, or a skip."""
        ok = all(r.agree for r in results)
        if self.opt.backend != "both":
            ok, note = None, f"single backend {self.opt.backend!r}"
        elif len(results[0].values) < 2:
            ok, note = None, f"p > bareiss limit {BAREISS_LIMIT}"
        self.check(name, ok, lhs, rhs, note)

    def legendre_identity(self, delta: int | None = None) -> None:
        """Dtilde*D = g*E (no delta) or Dtilde*DD = g*F, literally while small."""
        ok = self.classes_ok
        note = "residue classes (literal product skipped above size limit)"
        if self.p <= DIRECT_IDENTITY_LIMIT:
            ok = ok and matrix_identity_direct(self.p, delta)
            note = "residue classes + literal matrix product"
        sides = ("Dtilde*D", "g*E") if delta is None else ("Dtilde*DD", "g*F")
        self.check("legendre_matrix_identity", ok, *sides, note)

    def run(self) -> PrimeReport:
        p, m, opt, check = self.p, self.m, self.opt, self.check
        t_start = time.perf_counter()
        timings: dict[str, float] = {}

        # build
        t0 = time.perf_counter()
        g = self.g = gauss_sum(p)
        c_mat = build_C(p)
        d_mat = build_D(p)
        dt_mat = build_D_tilde(p)
        deltas, bad_deltas = resolve_deltas(p, opt)
        timings["build"] = (time.perf_counter() - t0) * 1000

        # determinants
        t0 = time.perf_counter()
        c_res = self.det(c_mat, cross_check=p <= BAREISS_LIMIT)
        d_res = self.det(d_mat, cross_check=p <= BAREISS_LIMIT)
        det_c = self.det_c = c_res.values[-1]  # evaluation-interpolation's when both ran
        det_d = self.det_d = d_res.values[-1]
        det_dt = self.det_dt = self.det(dt_mat).values[0]
        self.agreement("cyc_backend_agreement", [c_res, d_res], "bareiss(C), bareiss(D)",
                       "evalinterp(C), evalinterp(D)", "bit-exact comparison on C and D")
        timings["determinants"] = (time.perf_counter() - t0) * 1000

        # checks
        t0 = time.perf_counter()
        sign = 1 if p % 4 == 1 else -1
        check("gauss_square", g * g == CycElt.rational(p, sign * p), str(g * g),
              str(sign * p), "g^2 = (-1)^((p-1)/2) * p")
        approx = complex(eval_complex(g, 40))
        expected = math.sqrt(p) * (1 if p % 4 == 1 else 1j)
        check("gauss_sign_numeric", abs(approx - expected) < 1e-8 * math.sqrt(p),
              f"{approx:.12g}", f"{expected:.12g}",
              "embedding zeta -> exp(2*pi*i/p) puts g on the principal branch")

        for a in sorted({2 % p, 3 % p, primitive_root(p), p - 1} - {0}):
            check(f"square_perm_sign[a={a}]", check_perm_sign(p, a), "cycle sign",
                  str(1 if p % 4 == 3 else legendre(a, p)),
                  "multiplication by a^2 on the nonzero squares")

        pf = self.pf = verify_product_formula(p)
        check("residue_product_formula", pf.passed, pf.detail, "exact product identity")
        cls = (
            ClassData(p, h_neg=pf.h)
            if p % 4 == 3
            else ClassData(p, h_pos=pf.h, eps=pf.eps)
        )

        rhs_rel = (1 if m % 2 == 0 else -1) * (squares_product(p) * det_c)
        check("det_product_relation", det_d == rhs_rel, str(det_d), str(rhs_rel),
              "det D = (-1)^m * prod(1 - zeta^(k^2)) * det C")
        scaled = (2**m) * det_d
        check("dtilde_scaling", det_dt == scaled, str(det_dt), str(scaled),
              "det Dtilde = 2^m * det D")

        self.report = PrimeReport(
            p=p,
            residue8=p % 8,
            class_info=cls,
            deltas=tuple(deltas),
            delta=deltas[0] if deltas else None,
            det_C=det_c,
            det_D=det_d,
            checks=self.checks,
        )
        self.classes_ok = legendre_sum_classes_hold(p)
        if p % 4 == 3:
            self.checks_3mod4()
        else:
            self.checks_1mod4(deltas, bad_deltas)

        timings["checks"] = (time.perf_counter() - t0) * 1000
        timings["total"] = (time.perf_counter() - t_start) * 1000
        self.report.timings_ms = {k: round(v, 3) for k, v in timings.items()}
        return self.report

    def checks_3mod4(self) -> None:
        report = self.report
        p, m, check = self.p, self.m, self.check
        det_c, det_d, det_dt = self.det_c, self.det_d, self.det_dt

        s_res = self.det(build_S(p), cross_check=True)
        det_s = report.det_S = s_res.values[0]
        self.agreement("int_backend_agreement", [s_res], det_s, s_res.values[-1],
                       "bareiss vs CRT on det S")
        det_e = self.det(build_E(p)).values[0]

        d_quad = quad_decompose(det_d)
        u, v = d_quad.x, d_quad.y
        h = self.pf.h if self.pf.h is not None else 0
        sign_h = -1 if ((h + 1) // 2) % 2 else 1
        c_quad = quad_decompose(det_c)
        a_val = sign_h * c_quad.x
        b_val = sign_h * c_quad.y
        report.decomp = {"a_p": a_val, "b_p": b_val}
        nu_a = padic_val(a_val, p)
        nu_b = padic_val(b_val, p)
        report.nu_a = None if nu_a == math.inf else nu_a
        report.nu_b = None if nu_b == math.inf else nu_b

        halves_ok = all(Fraction(2 * x).denominator == 1 for x in (a_val, b_val, u, v))
        check("detC_quad_half_integers", halves_ok, f"a={a_val}, b={b_val}",
              f"u={u}, v={v}", "all of a, b, u, v lie in (1/2)Z")

        # consistency between the two quadratic coordinates: a = -v, b = u/p
        check("coordinate_transfer", a_val == -v and b_val == u / p,
              f"(a, b) = ({a_val}, {b_val})", f"(-v, u/p) = ({-v}, {u / p})",
              "det C coordinates vs det D coordinates")

        lhs1 = 2 ** ((p + 1) // 2) * a_val * b_val
        rhs1 = (-1) ** ((p + 1) // 4) * p ** ((p - 3) // 4) * det_s
        check("ab_product_identity", lhs1 == rhs1, lhs1, rhs1,
              "2^((p+1)/2) * a * b = (-1)^((p+1)/4) * p^((p-3)/4) * det S")

        lhs2 = 2 ** ((p - 1) // 2) * (a_val * a_val - p * b_val * b_val)
        rhs2 = m * (-p) ** ((p - 3) // 4) * det_s
        check("ab_norm_identity", lhs2 == rhs2, lhs2, rhs2,
              "2^((p-1)/2) * (a^2 - p*b^2) = ((p-1)/2) * (-p)^((p-3)/4) * det S")

        nu_u = padic_val(u, p)
        nu_v = padic_val(v, p)
        if p % 8 == 3:
            val_ok = nu_a == nu_b == (p - 3) // 8 and nu_u == nu_v + 1 == (p + 5) // 8
            expected = f"nu(a)=nu(b)={(p - 3) // 8}; nu(u)=nu(v)+1={(p + 5) // 8}"
        else:
            val_ok = nu_a == nu_b + 1 == (p + 1) // 8 and nu_u == nu_v == (p + 1) // 8
            expected = f"nu(a)=nu(b)+1={(p + 1) // 8}; nu(u)=nu(v)={(p + 1) // 8}"
        check("padic_valuations", val_ok,
              f"nu(a)={nu_a}, nu(b)={nu_b}, nu(u)={nu_u}, nu(v)={nu_v}", expected,
              "valuation dichotomy by p mod 8, in both coordinate systems")

        check("detS_two_adic_bound", padic_val(det_s, 2) >= (p - 3) // 2,
              f"nu_2({det_s}) = {padic_val(det_s, 2)}", f">= {(p - 3) // 2}")
        check("detS_not_divisible_by_p", det_s % p != 0, f"det S = {det_s}", f"p = {p}")

        k_const = (-p) ** ((m + 1) // 2) * det_s
        lhs_sq = (2**m) * (d_quad * d_quad)
        rhs_sq = QuadElt(p, m * k_const, -k_const)
        check("detD_square_identity", lhs_sq == rhs_sq, lhs_sq, rhs_sq,
              "2^m * (det D)^2 = (-p)^((m+1)/2) * (m - g) * det S")

        self.legendre_identity()

        e_quad = quad_decompose(det_e)
        e_rhs = QuadElt(p, m * det_s, -det_s)
        check("detE_column_reduction", e_quad == e_rhs, e_quad, e_rhs,
              "det E = (m - g) * det S via zero column sums")

        mult_lhs = det_dt * det_d
        mult_rhs = (-p) ** ((m + 1) // 2) * det_e
        check("det_multiplicativity", mult_lhs == mult_rhs, mult_lhs, mult_rhs,
              "det Dtilde * det D = g^(m+1) * det E")

    def checks_1mod4(self, deltas: list[int], bad_deltas: list[int]) -> None:
        report = self.report
        p, m, check = self.p, self.m, self.check
        g, pf, det_c, det_d, det_dt = self.g, self.pf, self.det_c, self.det_d, self.det_dt
        ts = two_squares(p)

        ok, rhs = True, f"a = {ts.a}, b = {ts.b}"
        note = "(g4 - g)^2 = (2/p)*2p + 2a'*sqrt(p), a' = +/-a"
        try:
            lhs = f"(g4 - g)^2 matches a' = {quartic_gauss_check(p) * ts.a}"
        except ArithmeticError as exc:
            ok, lhs, rhs, note = False, str(exc), "branch +/-a", ""
        check("quartic_gauss_branch", ok, lhs, rhs, note)

        qd4 = quartic_decompose(det_d, p)
        alpha, beta = qd4.alpha, qd4.beta
        report.decomp = {
            "alpha": alpha, "beta": beta, "delta_sign": qd4.delta_sign, "a": qd4.a,
        }
        square = quad_decompose(det_d * det_d)
        recon = (qd4.quad_part() * qd4.quad_part()) * qd4.delta_squared()
        check("quartic_reconstruction", recon == square and qd4.resolved_numerically,
              recon, square,
              f"(alpha + beta*sqrt(p))^2 * delta^2 = (det D)^2; "
              f"numeric branch ok={qd4.resolved_numerically}")

        ok, lhs_up, rhs_up = None, "", ""
        note = "product formula did not resolve h"
        if pf.h is not None and pf.sign is not None:
            eps_power = QuadElt(p, Fraction(pf.eps[0], 2), Fraction(pf.eps[1], 2)) ** pf.h
            lhs_up = det_c * g
            rhs_up = pf.sign * (det_d * eps_power.embed())
            ok, note = lhs_up == rhs_up, "det C * g = sign * det D * eps^h"
        check("unit_power_product", ok, lhs_up, rhs_up, note)

        report.discrepancies = report.discrepancies + (
            f"quoted exponent 2^((p+1)/4) is non-integral for p={p} "
            f"((p+1)/4 = {Fraction(p + 1, 4)}); verified identity uses "
            f"2^(m+1) = 2^{m + 1} with p^(m/2)",
        )

        for d in bad_deltas + deltas:
            self.tag = f"[d={d}]"
            if d in bad_deltas:
                check("delta_valid", False, f"legendre({d}, {p}) = {legendre(d, p)}", "-1",
                      "explicit delta must be a quadratic non-residue")
                continue
            t_res = self.det(build_T(p, d), cross_check=True)
            sd_res = self.det(build_S_delta(p, d), cross_check=True)
            det_t, det_sd = t_res.values[0], sd_res.values[0]
            self.agreement(
                "int_backend_agreement", [t_res, sd_res], f"T: {det_t}, SD: {det_sd}",
                f"T: {t_res.values[-1]}, SD: {sd_res.values[-1]}",
                "bareiss vs CRT on det T and det SD",
            )
            if report.det_T is None:
                report.det_T, report.det_SD = det_t, det_sd

            check("detSD_vanishes", det_sd == 0, det_sd, 0, "det S(delta, p) = 0")

            lhs_n = 2 ** (m + 1) * ts.b * (alpha * alpha - p * beta * beta)
            rhs_n = p ** (m // 2) * det_t
            check("quartic_norm_identity", abs(lhs_n) == abs(rhs_n), lhs_n, rhs_n,
                  f"|2^(m+1) * b * (alpha^2 - p*beta^2)| = |p^(m/2) * det T|; "
                  f"observed sign {'+' if lhs_n == rhs_n else '-'}")

            det_dd = self.det(build_D_delta(p, d)).values[0]
            check("twisted_det_galois", det_dd == det_d.galois(d), det_dd,
                  det_d.galois(d), "det DD = sigma_delta(det D)")

            det_f = self.det(build_F(p, d)).values[0]
            f_quad = quad_decompose(det_f)
            f_rhs = QuadElt(p, det_t, det_sd)
            check("detF_corner_expansion", f_quad == f_rhs, f_quad, f_rhs,
                  "det F = det T + g * det SD")

            mult_lhs = det_dt * det_dd
            mult_rhs = p ** (m // 2) * (g * det_f)
            check("det_multiplicativity", mult_lhs == mult_rhs, mult_lhs, mult_rhs,
                  "det Dtilde * det DD = g^(m+1) * det F")

            self.legendre_identity(d)
        self.tag = ""


def run_prime(p: int, options: SweepOptions | None = None) -> PrimeReport:
    require_odd_prime(p)
    if p <= 3:
        raise ValueError("verification needs p > 3")
    return _PrimeChecks(p, options or SweepOptions()).run()


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


def run_range(
    pmin: int, pmax: int, options: SweepOptions | None = None
) -> list[PrimeReport]:
    """Verify every prime in [pmin, pmax]; deterministic order, never aborts."""
    if not (isinstance(pmin, int) and isinstance(pmax, int)):
        raise ValueError("integer bounds required")
    if not 3 < pmin <= pmax:
        raise ValueError(f"need 3 < pmin <= pmax, got ({pmin}, {pmax})")
    return run_primes([p for p in range(pmin, pmax + 1) if is_prime(p)], options)


def run_primes(primes: list[int], options: SweepOptions | None = None) -> list[PrimeReport]:
    """Verify the given primes in order on up to `threads` processes; never aborts.

    A prime lost with a dead worker is rerun in a pool of its own, so only a
    prime whose own worker dies gets a `no_internal_error` report.
    """
    opt = options or SweepOptions()
    if opt.threads <= 1 or len(primes) <= 1:
        return [_run_prime_job(p, opt) for p in primes]
    reports = _pool_run(primes, opt, min(opt.threads, len(primes)))
    return [r or _pool_run([p], opt, 1)[0] or _internal_error(
        p, "BrokenProcessPool", f"the worker process died while verifying p={p}")
        for p, r in zip(primes, reports)]


def _pool_run(primes: list[int], opt: SweepOptions, workers: int) -> list:
    """One report per prime from a pool of `workers`; None where the pool broke."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_prime_job, p, opt) for p in primes]
        return [None if isinstance(f.exception(), BrokenProcessPool) else f.result()
                for f in futures]


# -- serialization -----------------------------------------------------------


def _cyc_strs(x: CycElt | None) -> list[str] | None:
    if x is None:
        return None
    return [str(c) for c in x.coeffs]


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
