"""shaclass: certified bounds relating Sha of an elliptic curve over Q to
the class group of its p-division field.

The pipeline: exact Weierstrass arithmetic (curve), Tate's algorithm and
the rank-one prime set T (localred), mod-p image certification and the
wild-ramification status at p (galrep), finite group cohomology over F_p
(cohom), external rank/Sha data (selmerdata), and the hypothesis ledgers with the
two-sided bound on dim Hom_G(Cl_K/pCl_K, E[p]) (engine).
"""

from .curve import (
    CurveModel,
    GoodPrimeProfile,
    Invariants,
    classify_good_prime,
    compute_invariants,
    detect_cm,
    minimal_model,
    parse_curve_spec,
    trace_of_frobenius,
)
from .localred import (
    LocalReductionData,
    bad_primes,
    compute_t_set,
    local_data,
    tamagawa_unit_check,
    tate_algorithm,
)
from .galrep import (
    ImageCertificate,
    certify_image,
    division_polynomial,
    wild_ramification_status,
)
from .cohom import (
    MatrixGroup,
    central_scalar_shortcut,
    close_group,
    h0,
    h1,
    h1_cyclic,
)
from .selmerdata import (
    ExternalCurveRecord,
    SelmerScenario,
    fetch_curve_record,
    selmer_rank_scenarios,
)
from .engine import (
    analyze,
    certificate_to_json,
    certificate_to_text,
    evaluate_hypotheses,
)

__all__ = [
    "CurveModel",
    "GoodPrimeProfile",
    "Invariants",
    "classify_good_prime",
    "compute_invariants",
    "detect_cm",
    "minimal_model",
    "parse_curve_spec",
    "trace_of_frobenius",
    "LocalReductionData",
    "bad_primes",
    "compute_t_set",
    "local_data",
    "tamagawa_unit_check",
    "tate_algorithm",
    "ImageCertificate",
    "certify_image",
    "division_polynomial",
    "wild_ramification_status",
    "MatrixGroup",
    "central_scalar_shortcut",
    "close_group",
    "h0",
    "h1",
    "h1_cyclic",
    "ExternalCurveRecord",
    "SelmerScenario",
    "fetch_curve_record",
    "selmer_rank_scenarios",
    "analyze",
    "certificate_to_json",
    "certificate_to_text",
    "evaluate_hypotheses",
]

__version__ = "0.1.0"
