"""Certificate records: the replayable JSON trail of every probe.

A certificate pins (shape, k, prime, seed, generator, trials) and
carries every numeric outcome of the probe at that cell.  Replaying the
pinned inputs reproduces every numeric field bit for bit; wall_time_s
is informational only and excluded from the content digest, so the
digest (and the content-addressed store filename) identifies the
replayable content.  One check, validate_certificate_dict, decides every
dict by the field rules CERTIFICATE_SCHEMA publishes, under exact JSON
types (1.0 is no integer, a NaN or infinite float no number), so a valid
dict has one canonical text.  Every emission is validated, and emitted
only if it rebuilds to itself from the evidence its fields record.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .bounds import VerdictStatus
from .exactlin import SplitMix64
from .segre import COORDINATE_ORDER, ProductShape
from .tangency import Verdict, identifiability_verdict, order_one_applicable
from .terracini import SecantProbeResult, expected_dim

SCHEMA_VERSION = 1
GENERATOR_NAME = SplitMix64.name

# The fields a certificate copies from its cell's probe record, and back.
_PROBE_OUTCOMES = ("observed_dim", "kernel_dim", "hyperplane_coeffs", "coranks")


# A value's JSON types by its exact Python type: a bool is no integer, a tuple
# no array, and a float is a number only when finite, and never an integer.
_JSON_TYPES = {type(None): {"null"}, bool: {"boolean"}, int: {"integer", "number"},
               float: {"number"}, str: {"string"}, list: {"array"}}
_KEYWORDS = {
    "type": lambda v, t: (type(v) is not float or math.isfinite(v))
        and not _JSON_TYPES.get(type(v), set()).isdisjoint([t] if type(t) is str else t),
    "const": lambda v, c: type(v) is type(c) and v == c,
    "enum": lambda v, cs: any(type(v) is type(c) and v == c for c in cs),
    "minimum": lambda v, low: type(v) not in (int, float) or v >= low,
    "minItems": lambda v, n: type(v) is not list or len(v) >= n,
    "items": lambda v, rule: type(v) is not list or not any(_broken(rule, x) for x in v),
}


def _broken(rule, v):
    """The first (keyword, wanted value) of ``rule`` that ``v`` breaks, or None."""
    for key, want in rule.items():
        if not _KEYWORDS[key](v, want):
            return key, want


def _rule(default=MISSING, **rule):
    """A certificate field and its JSON Schema rule, kept in its metadata; a
    keyword with no check in _KEYWORDS raises here, at import, never skipped."""
    if unknown := rule.keys() - _KEYWORDS.keys():
        raise ValueError(f"no check for schema keywords {sorted(unknown)}")
    if "items" in rule:
        _rule(**rule["items"])
    return field(default=default, metadata={"schema": rule})


_COUNT = {"type": "integer", "minimum": 0}
_COUNT_OR_NULL = {"type": ["integer", "null"], "minimum": 0}


@dataclass(frozen=True, kw_only=True)
class Certificate:
    """One probe cell, pinned inputs plus outcomes, ready for JSON.

    Each field's JSON Schema rule lives in its metadata, where
    CERTIFICATE_SCHEMA reads it; construction takes keywords only.
    """

    schema_version: int = _rule(SCHEMA_VERSION, const=SCHEMA_VERSION)
    shape: tuple[int, ...] = _rule(
        type="array", minItems=2, items={"type": "integer", "minimum": 1}
    )
    k: int = _rule(type="integer", minimum=1)
    prime: int = _rule(type="integer", minimum=3)
    seed: int = _rule(**_COUNT)
    generator: str = _rule(GENERATOR_NAME, const=GENERATOR_NAME)
    trials: int = _rule(type="integer", minimum=1)
    coordinate_order: str = _rule(COORDINATE_ORDER, const=COORDINATE_ORDER)
    expected_dim: int = _rule(**_COUNT)
    observed_dim: int | None = _rule(**_COUNT_OR_NULL)
    defect: int | None = _rule(**_COUNT_OR_NULL)
    kernel_dim: int | None = _rule(**_COUNT_OR_NULL)
    hyperplane_coeffs: tuple[int, ...] | None = _rule(type=["array", "null"], items=_COUNT)
    coranks: tuple[int, ...] | None = _rule(type=["array", "null"], items=_COUNT)
    verdict: str = _rule(enum=[status.value for status in VerdictStatus])
    propagated_from_k: int | None = _rule(None, type=["integer", "null"], minimum=1)
    cited: tuple[str, ...] = _rule(type="array", items={"type": "string"})
    notes: tuple[str, ...] = _rule((), type="array", items={"type": "string"})
    wall_time_s: float | None = _rule(None, type=["number", "null"], minimum=0)

    def to_dict(self) -> dict:
        """The record as JSON values: each field by name, tuples as lists."""
        return {
            f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
            for f in fields(self)
        }

    def json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """sha256 over the canonical JSON without the wall time."""
        d = self.to_dict()
        d.pop("wall_time_s")
        payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


CERTIFICATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "secant identifiability probe certificate",
    "type": "object",
    "additionalProperties": False,
    "properties": {f.name: f.metadata["schema"] for f in fields(Certificate)},
    "required": [f.name for f in fields(Certificate)],
}


def validate_certificate_dict(d: dict) -> None:
    """Raise ValueError unless ``d`` holds exactly the certificate's fields and
    each value is admitted by its field's rule in CERTIFICATE_SCHEMA."""
    rules = CERTIFICATE_SCHEMA["properties"]
    if (keys := d.keys() if type(d) is dict else ()) != rules.keys():
        missing, unknown = [n for n in rules if n not in keys], [n for n in keys if n not in rules]
        raise ValueError(f"not a certificate: missing fields {missing}, unknown {unknown}")
    for name, v in d.items():
        if broken := _broken(rules[name], v):
            raise ValueError("certificate field %r: %r breaks %s %r" % (name, v, *broken))


def certificate_from_dict(d: dict) -> Certificate:
    """Inverse of ``Certificate.to_dict``: the schema admits exactly its fields."""
    validate_certificate_dict(d)
    return Certificate(**{key: tuple(v) if isinstance(v, list) else v for key, v in d.items()})


def certificate_from_verdict(
    verdict: Verdict,
    probe: SecantProbeResult | None = None,
    *,
    pins: tuple[int, int, int] | None = None,
    wall_time_s: float | None = None,
) -> Certificate:
    """The certificate of the verdict's cell.

    ``probe`` is the cell's own probe record: its (prime, seed, trials)
    and numeric fields are recorded.  A cell settled without a probe of
    its own (by arithmetic, a recorded special cell, or support from a
    higher k) passes ``pins=(prime, seed, trials)`` instead, and its
    numeric probe fields stay null.  propagated_from_k is the verdict's
    support whenever that lies above the cell's own k.
    """
    shape, k = verdict.shape, verdict.k
    if probe is not None:
        if (probe.shape, probe.k) != (shape, k):
            raise ValueError("probe and verdict belong to different cells")
        pins = (probe.prime, probe.seed, probe.trials)
    prime, seed, trials = pins
    propagated = verdict.support_k if verdict.support_k != k else None
    outcomes = {
        name: None if probe is None else getattr(probe, name)
        for name in (*_PROBE_OUTCOMES, "defect")
    }
    return Certificate(
        shape=shape.factor_dims,
        k=k,
        prime=prime,
        seed=seed,
        trials=trials,
        expected_dim=expected_dim(shape, k),
        **outcomes,
        verdict=verdict.status.value,
        propagated_from_k=propagated,
        cited=verdict.cited,
        notes=verdict.notes,
        wall_time_s=wall_time_s,
    )


def verdict_from_certificate(cert: Certificate) -> Verdict:
    """The verdict of a certificate that rebuilds to itself from its evidence.

    The evidence is the cell's own probe record, read from the probe
    fields, and for a propagated certificate its support: a certified
    corank-0 probe at k' = propagated_from_k, which by construction
    attained the expected dimension with every corank 0 there.  The
    verdict over that evidence rebuilds the certificate through
    ``certificate_from_verdict``; a ValueError names every field whose
    stored and rebuilt values differ.  A probe field that breaks its
    rule raises in ``SecantProbeResult``.
    """
    shape, k, kk = ProductShape(cert.shape), cert.k, cert.propagated_from_k
    pins = dict(shape=shape, trials=cert.trials, prime=cert.prime, seed=cert.seed)
    probes = []
    if kk is not None and order_one_applicable(shape, kk):  # else the verdict ignores it
        top = expected_dim(shape, kk)
        support = dict(k=kk, observed_dim=top, expected_dim=top, coranks=(0,) * (kk + 1))
        probes.append(SecantProbeResult(**support, **pins))
    own = None
    if cert.observed_dim is not None:
        outcomes = {name: getattr(cert, name) for name in _PROBE_OUTCOMES}
        own = SecantProbeResult(k=k, expected_dim=expected_dim(shape, k), **outcomes, **pins)
        probes.append(own)
    verdict = identifiability_verdict(shape, k, probes)
    stored = cert.to_dict()
    rebuilt = certificate_from_verdict(
        verdict, own, pins=(cert.prime, cert.seed, cert.trials), wall_time_s=cert.wall_time_s
    ).to_dict()
    if stored != rebuilt:
        # as JSON text, so that a NaN wall time equals itself
        texts = [(name, json.dumps(v), json.dumps(rebuilt[name])) for name, v in stored.items()]
        raise ValueError("; ".join("%s %s, recomputed %s" % t for t in texts if t[1] != t[2]))
    return verdict


def write_certificate(cert: Certificate, directory) -> Path:
    """Write one content-addressed file; identical replays overwrite in place.

    The file appears whole or not at all: the text goes to a temporary
    file in the same directory, which then replaces the target, and a
    failed write removes its temporary file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"cert-{cert.digest()[:16]}.json"
    tmp = directory / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(cert.json_line() + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
