"""Exact prime-field probes for secant dimensions and generic identifiability
of products of projective spaces under the coordinate-product embedding.

All linear algebra runs over F_p with p < 2**31, so every rank, kernel and
corank reported here is an exact statement about the chosen prime and seed.
Corank-0 tangency certificates imply generic identifiability over the
rationals; defects and positive coranks are evidence only, since a special
prime or point can drop ranks but never raise them.
"""

from .bounds import (
    NOTE_BOUND_FORMS,
    NOTE_M6_K9,
    Regime,
    RegimeReport,
    ceil_log2,
    classify,
    k_max,
    log_ceiling_bound_holds,
    log_ceiling_bound_max_k,
    product_bound_holds,
    product_bound_max_k,
    regime_report,
    sqrt_bound_holds,
    sqrt_bound_max_k_plus_1,
)
from .certificates import (
    CERTIFICATE_SCHEMA,
    Certificate,
    certificate_from_dict,
    certificate_from_verdict,
    validate_certificate_dict,
    verdict_from_certificate,
    write_certificate,
)
from .exactlin import (
    DEFAULT_PRIMES,
    SplitMix64,
    check_prime,
    ff_kernel,
    ff_rank,
    random_unit_vector,
)
from .segre import (
    COORDINATE_ORDER,
    ProductShape,
    coerce_point,
    random_point,
    segre_embed,
)
from .tangency import (
    Verdict,
    VerdictStatus,
    contact_coranks,
    identifiability_verdict,
    order_one_applicable,
    tangent_hyperplanes,
    weak_defectivity_probe,
)
from .terracini import (
    DEFECT_CANDIDATE,
    DEFECT_EVIDENCE,
    SecantProbeResult,
    defect_status,
    expected_dim,
    secant_dim_probe,
    terracini_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CERTIFICATE_SCHEMA",
    "COORDINATE_ORDER",
    "Certificate",
    "DEFAULT_PRIMES",
    "DEFECT_CANDIDATE",
    "DEFECT_EVIDENCE",
    "NOTE_BOUND_FORMS",
    "NOTE_M6_K9",
    "ProductShape",
    "Regime",
    "RegimeReport",
    "SecantProbeResult",
    "SplitMix64",
    "Verdict",
    "VerdictStatus",
    "ceil_log2",
    "certificate_from_dict",
    "certificate_from_verdict",
    "check_prime",
    "classify",
    "coerce_point",
    "contact_coranks",
    "defect_status",
    "expected_dim",
    "ff_kernel",
    "ff_rank",
    "identifiability_verdict",
    "k_max",
    "log_ceiling_bound_holds",
    "log_ceiling_bound_max_k",
    "order_one_applicable",
    "product_bound_holds",
    "product_bound_max_k",
    "random_point",
    "random_unit_vector",
    "regime_report",
    "secant_dim_probe",
    "segre_embed",
    "sqrt_bound_holds",
    "sqrt_bound_max_k_plus_1",
    "tangent_hyperplanes",
    "terracini_matrix",
    "validate_certificate_dict",
    "verdict_from_certificate",
    "weak_defectivity_probe",
    "write_certificate",
]
