"""The public surface, the names the benchmark's span recorder wraps,
and the package's module imports.

``bench/spans.py`` wraps functions by (module, attribute) from outside
the package, so a name it lists must keep resolving even when it is not
exported; deleting one would otherwise fail only the traced benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import segreid

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PACKAGE = Path(segreid.__file__).resolve().parent

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

# The public attributes of a seeded generator: the draws every recorded
# seed replays.  A draw method added or removed changes this.
GENERATOR = ["name", "next_u64s", "nonzero_residues", "residues", "seed"]

# Every defaulted parameter of an exported function: a new knob changes this.
DEFAULTED = {
    "certificate_from_verdict": ("probe", "pins", "wall_time_s"),
    "secant_dim_probe": ("trials", "prime", "seed"),
    "weak_defectivity_probe": ("trials", "prime", "seed"),
}


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
    assert len(PUBLIC) == 45


def test_generator_attributes_are_pinned():
    rng = segreid.SplitMix64(0)
    assert [a for a in dir(rng) if not a.startswith("_")] == GENERATOR


def test_defaulted_parameters_are_pinned():
    found = {}
    for name in segreid.__all__:
        obj = getattr(segreid, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            defaulted = tuple(q.name for q in params if q.default is not q.empty)
            if defaulted:
                found[name] = defaulted
    assert found == DEFAULTED
    assert sum(map(len, DEFAULTED.values())) == 9


def test_every_module_import_is_used():
    """Each top-level import of a module is read in that module.

    ``__init__.py`` is left out: it imports names to re-export them.
    """
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s: %s" % (path.name, name) for name in bound if name not in read]
    assert not unused
