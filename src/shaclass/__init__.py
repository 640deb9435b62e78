"""shaclass: certified bounds relating Sha of an elliptic curve over Q to
the class group of its p-division field.

The pipeline: exact Weierstrass arithmetic (curve), Tate's algorithm and
the rank-one prime set T (localred), mod-p image certification (galrep),
finite group cohomology over F_p (cohom), external rank/Sha data
(selmerdata), and the hypothesis ledgers, wild ramification at p among
them, with the two-sided bound on dim Hom_G(Cl_K/pCl_K, E[p]) (engine).
"""

from .curve import (
    CurveModel,
    Invariants,
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
from .galrep import ImageCertificate, certify_image, division_polynomial
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
    wild_ramification_status,
)

__version__ = "0.1.0"
