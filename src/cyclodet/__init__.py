"""cyclodet: exact cyclotomic/Legendre matrix determinants and their identities."""

from .cycring import (
    CycElt,
    eval_complex,
    make,
)
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
from .detkit import (
    DetResult,
    det,
    det_cyc_bareiss,
    det_cyc_evalinterp,
    det_int_bareiss,
    det_int_modular,
)
from .subfield import (
    QuadElt,
    QuarticDecomp,
    TwoSquares,
    fourth_power_sum,
    gauss_sum,
    padic_val,
    quad_decompose,
    quartic_decompose,
    quartic_gauss_check,
    two_squares,
)
from .classno import (
    ClassData,
    ProductFormulaResult,
    class_data,
    fundamental_unit,
    h_neg,
    squares_product,
    verify_product_formula,
)
from .verify import (
    CheckResult,
    PrimeReport,
    SweepOptions,
    check_perm_sign,
    report_to_dict,
    run_prime,
    run_primes,
)

__version__ = "0.1.0"
