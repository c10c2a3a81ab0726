"""The public surface, and the names the benchmark's span recorder wraps.

``bench/spans.py`` wraps functions by (module, attribute) from outside
the package, so a name it lists must keep resolving even when it is not
exported; deleting one would otherwise fail only the traced benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import segreid

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

PUBLIC = [
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


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [
        (module, attr)
        for module, attr, _ in spans.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


def test_public_names_are_pinned_and_resolve():
    names = segreid.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(segreid, name) for name in names)
    assert sorted(names) == PUBLIC
    assert len(PUBLIC) == 46
