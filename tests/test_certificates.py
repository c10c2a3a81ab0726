import dataclasses
import json
import os
import pathlib
import re
import tracemalloc

import jsonschema
import pytest

from segreid import certificates
from segreid.certificates import (
    CERTIFICATE_SCHEMA,
    Certificate,
    certificate_from_dict,
    certificate_from_verdict,
    validate_certificate_dict,
    verdict_from_certificate,
    write_certificate,
)
from segreid.cli import main
from segreid.exactlin import DEFAULT_PRIMES
from segreid.segre import ProductShape
from segreid.tangency import (
    CITE_MONOTONE,
    VerdictStatus,
    identifiability_verdict,
    weak_defectivity_probe,
)
from segreid.terracini import secant_dim_probe

P = DEFAULT_PRIMES[0]
GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_SCHEMA = GOLDEN / "certificate_schema.json"


def weak_cert(m=5, k=4, seed=0, wall=None):
    s = ProductShape.binary(m)
    res = weak_defectivity_probe(s, k, seed=seed)
    verdict = identifiability_verdict(s, k, [res])
    return certificate_from_verdict(verdict, res, wall_time_s=wall)


def test_schema_keys_are_the_certificate_fields():
    # certificate_from_dict passes a validated dict straight to Certificate(**d)
    names = {f.name for f in dataclasses.fields(Certificate)}
    assert set(CERTIFICATE_SCHEMA["properties"]) == names
    assert CERTIFICATE_SCHEMA["required"] == list(CERTIFICATE_SCHEMA["properties"])


def test_schema_is_the_published_one():
    # key order included: dumps keeps insertion order, and so does loads
    golden = json.loads(GOLDEN_SCHEMA.read_text())
    assert json.dumps(CERTIFICATE_SCHEMA) == json.dumps(golden)


def test_probe_certificate_validates():
    cert = weak_cert(wall=0.25)
    d = cert.to_dict()
    validate_certificate_dict(d)
    assert d["shape"] == [1, 1, 1, 1, 1]
    assert d["kernel_dim"] == 2
    assert d["coranks"] == [1, 1, 1, 1, 1]
    assert d["generator"] == "splitmix64"
    assert d["coordinate_order"] == "lex-leftmost-slowest"


def test_secant_only_certificate_has_null_tangency_fields():
    s = ProductShape.binary(4)
    res = secant_dim_probe(s, 2, seed=0)
    verdict = identifiability_verdict(s, 2, [res])
    cert = certificate_from_verdict(verdict, res)
    d = cert.to_dict()
    validate_certificate_dict(d)
    assert d["kernel_dim"] is None
    assert d["hyperplane_coeffs"] is None
    assert d["coranks"] is None
    assert d["observed_dim"] == 13
    assert d["verdict"] == "DefectCandidate"


def test_unprobed_certificate_null_numerics():
    s = ProductShape.binary(6)
    verdict = identifiability_verdict(s, 9, [])
    cert = certificate_from_verdict(verdict, pins=(P, 0, 3))
    d = cert.to_dict()
    validate_certificate_dict(d)
    assert d["observed_dim"] is None
    assert d["defect"] is None
    assert d["verdict"] == "Undetermined"
    assert d["notes"]


def test_schema_rejects_unknown_and_missing_keys():
    d = weak_cert().to_dict()
    extra = dict(d)
    extra["surprise"] = 1
    with pytest.raises(ValueError, match=r"unknown \['surprise'\]"):
        validate_certificate_dict(extra)
    short = dict(d)
    del short["verdict"]
    with pytest.raises(ValueError, match=r"missing fields \['verdict'\]"):
        validate_certificate_dict(short)


def test_schema_rejects_bad_field_values():
    base = weak_cert().to_dict()
    for key, bad in [
        ("verdict", "Maybe"),
        ("generator", "mersenne"),
        ("coordinate_order", "colexicographic"),
        ("schema_version", 2),
        ("k", 0),
        ("prime", 1),
        ("shape", [1]),
    ]:
        d = dict(base)
        d[key] = bad
        with pytest.raises(ValueError, match="field '%s'" % key):
            validate_certificate_dict(d)


def test_round_trip_through_json():
    cert = weak_cert(wall=1.5)
    line = cert.json_line()
    back = certificate_from_dict(json.loads(line))
    assert back == cert
    assert isinstance(back.coranks, tuple)
    assert isinstance(back.cited, tuple)


def test_digest_ignores_wall_time_only():
    a = weak_cert(wall=0.1)
    b = weak_cert(wall=9.9)
    assert a.json_line() != b.json_line()
    assert a.digest() == b.digest()
    assert dataclasses.replace(a, wall_time_s=None) == dataclasses.replace(b, wall_time_s=None)
    c = weak_cert(seed=1, wall=0.1)
    assert c.digest() != a.digest()


def test_write_certificate_content_addressed(tmp_path):
    cert = weak_cert()
    path = write_certificate(cert, tmp_path)
    assert path.name == f"cert-{cert.digest()[:16]}.json"
    on_disk = json.loads(path.read_text())
    validate_certificate_dict(on_disk)
    assert certificate_from_dict(on_disk) == cert
    again = write_certificate(cert, tmp_path)
    assert again == path
    assert len(list(tmp_path.iterdir())) == 1


def test_verdict_recomputes_from_numeric_fields():
    cases = []
    s5 = ProductShape.binary(5)
    res = weak_defectivity_probe(s5, 4, seed=0)
    cases.append(certificate_from_verdict(identifiability_verdict(s5, 4, [res]), res))
    s6 = ProductShape.binary(6)
    res8 = weak_defectivity_probe(s6, 8, seed=0)
    cases.append(certificate_from_verdict(identifiability_verdict(s6, 8, [res8]), res8))
    s4 = ProductShape.binary(4)
    r42 = secant_dim_probe(s4, 2, seed=0)
    cases.append(certificate_from_verdict(identifiability_verdict(s4, 2, [r42]), r42))
    cases.append(
        certificate_from_verdict(identifiability_verdict(s4, 3, []), pins=(P, 0, 3))
    )
    cases.append(
        certificate_from_verdict(identifiability_verdict(s6, 9, []), pins=(P, 0, 3))
    )
    for cert in cases:
        assert verdict_from_certificate(cert).status.value == cert.verdict


def test_read_back_rejects_tampered_derived_fields():
    s4 = ProductShape.binary(4)
    res = secant_dim_probe(s4, 2, seed=0)
    probed = certificate_from_verdict(identifiability_verdict(s4, 2, [res]), res).to_dict()
    assert (probed["expected_dim"], probed["observed_dim"], probed["defect"]) == (14, 13, 1)
    unprobed = certificate_from_verdict(
        identifiability_verdict(s4, 3, []), pins=(P, 0, 3)
    ).to_dict()
    exception = weak_cert().to_dict()
    s7 = ProductShape.binary(7)
    unprobed7 = certificate_from_verdict(
        identifiability_verdict(s7, 3, []), pins=(P, 0, 3)
    ).to_dict()
    s6 = ProductShape.binary(6)
    res8 = weak_defectivity_probe(s6, 8, seed=0)
    propagated = certificate_from_verdict(
        identifiability_verdict(s6, 3, [res8]), pins=(P, 0, 3)
    ).to_dict()
    assert propagated["propagated_from_k"] == 8 and CITE_MONOTONE in propagated["cited"]
    for tampered in [
        {**probed, "expected_dim": 13, "defect": 0, "verdict": "Undetermined"},
        {**probed, "defect": 5},
        {**unprobed, "defect": 0},
        {**exception, "cited": ["anything"]},
        {**exception, "notes": ["made up"]},
        {**unprobed7, "coranks": [0, 0, 0, 0]},
        {**propagated, "cited": [c for c in propagated["cited"] if c != CITE_MONOTONE]},
        # a support at k' = k needs no probe data at all
        {**unprobed7, "propagated_from_k": 3, "verdict": "IdentifiableCertified"},
    ]:
        cert = certificate_from_dict(tampered)
        with pytest.raises(ValueError, match="recomputed"):
            verdict_from_certificate(cert)


def test_read_back_rejects_probe_fields_that_break_their_rules():
    # without these rules, the first two recompute as IdentifiableCertified:
    # an empty tuple of coranks is vacuously all 0
    s = ProductShape((1, 2, 3))
    res = weak_defectivity_probe(s, 2, seed=0)
    weak = certificate_from_verdict(identifiability_verdict(s, 2, [res]), res).to_dict()
    assert (weak["verdict"], weak["coranks"], weak["kernel_dim"]) == (
        "WeaklyDefectiveEvidence", [4, 4, 4], 3
    )
    certified = {**weak, "verdict": "IdentifiableCertified"}
    for tampered, rule in [
        ({**certified, "coranks": []}, "len(coranks) = k + 1"),
        ({**certified, "coranks": [0]}, "len(coranks) = k + 1"),
        ({**weak, "kernel_dim": 0}, "kernel_dim = r - observed_dim"),
        ({**weak, "hyperplane_coeffs": [1]}, "len(hyperplane_coeffs) = kernel_dim"),
    ]:
        cert = certificate_from_dict(tampered)
        with pytest.raises(ValueError, match=r"^probe record breaks .*%s" % re.escape(rule)):
            verdict_from_certificate(cert)


def test_propagated_certificate_recomputes_support():
    s6 = ProductShape.binary(6)
    res8 = weak_defectivity_probe(s6, 8, seed=0)
    v3 = identifiability_verdict(s6, 3, [res8])
    assert v3.support_k == 8
    cert = certificate_from_verdict(v3, pins=(P, 0, 3))
    assert cert.propagated_from_k == 8
    validate_certificate_dict(cert.to_dict())
    out = verdict_from_certificate(cert)
    assert out.status is VerdictStatus.IDENTIFIABLE_CERTIFIED
    assert out.support_k == 8


def jsonschema_validator():
    # jsonschema.validate(d, CERTIFICATE_SCHEMA)'s validator, with the schema
    # checked once instead of once per dict (about 15 ms each)
    cls = jsonschema.validators.validator_for(CERTIFICATE_SCHEMA)
    cls.check_schema(CERTIFICATE_SCHEMA)
    return cls(CERTIFICATE_SCHEMA)


def test_validation_raises_what_jsonschema_validate_raises():
    # jsonschema rejects each dict, and the ValueError names a field that
    # jsonschema reports too, by its path or, for a key, in its message
    base = weak_cert().to_dict()
    bad = [
        {**base, "surprise": 1},
        {**base, "k": 0, "verdict": "Maybe"},
        {**base, "shape": [1], "coranks": "none"},
        {k: v for k, v in base.items() if k != "prime"},
    ]
    validator = jsonschema_validator()
    for d in bad:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(d, CERTIFICATE_SCHEMA)
        reported = set()
        for error in validator.iter_errors(d):
            if error.absolute_path:
                reported.add(error.absolute_path[0])
            else:
                reported |= {name for name in {*d, *base} if repr(name) in error.message}
        assert reported
        with pytest.raises(ValueError) as got:
            validate_certificate_dict(d)
        assert any(repr(name) in str(got.value) for name in reported), (got.value, reported)


# Every value the corpus sets each field to: the JSON types, the edges of
# every minimum, the values Python and JSON Schema type differently (a bool
# is a Python int, 1.0 a JSON Schema integer, a tuple no JSON array), and
# every const and enum string of the schema.
CORPUS_VALUES = [
    None, True, 0, -1, 1, 3, 2**70, 1.0, 2.5, float("nan"), float("inf"), -float("inf"), "",
    *sorted({
        c
        for rule in CERTIFICATE_SCHEMA["properties"].values()
        for c in [rule.get("const"), *rule.get("enum", [])]
        if isinstance(c, str)
    }),
    [], [1], [-1], [True], [1.0], ["s"], (1, 1), {},
]


def corpus():
    base = weak_cert().to_dict()
    dicts = [base, {**base, "surprise": 1}, [], None, "x"]
    for name in base:
        dicts.append({key: v for key, v in base.items() if key != name})
        dicts += [{**base, name: value} for value in CORPUS_VALUES]
    return dicts


def accepts(d):
    try:
        validate_certificate_dict(d)
    except ValueError:
        return False
    return True


def test_validation_agrees_with_jsonschema_on_a_corpus():
    validator = jsonschema_validator()
    base = weak_cert().to_dict()
    dicts = corpus()
    assert len(dicts) == 5 + 19 * (1 + len(CORPUS_VALUES)) == 575
    valid = admitted = 0
    differ = []
    for d in dicts:
        want = not any(validator.iter_errors(d))
        got = accepts(d)
        # accepted only if jsonschema accepts it; so every dict that
        # jsonschema rejects is rejected too
        assert want or not got, d
        valid += want
        admitted += got
        if want and not got:
            texts = {name: json.dumps(v) for name, v in d.items()}
            differ += [(name, t) for name, t in texts.items() if t != json.dumps(base[name])]
    # jsonschema also accepts the non-canonical numbers: 1.0 as an integer
    # (schema_version's const included, and prime's 1.0 is below 3) or in an
    # integer array, and a NaN or infinite wall time
    integers = ["schema_version", "k", "seed", "trials", "expected_dim", "observed_dim",
                "defect", "kernel_dim", "propagated_from_k"]
    assert (valid, admitted) == (75, 62)
    assert sorted(differ) == sorted(
        [(name, "1.0") for name in integers]
        + [("hyperplane_coeffs", "[1.0]"), ("coranks", "[1.0]")]
        + [("wall_time_s", "NaN"), ("wall_time_s", "Infinity")]
    )


def test_schema_keyword_without_a_check_fails_at_import():
    # a keyword added to a field's rule later can never be skipped silently
    certificates._rule(type="integer", minimum=0)
    with pytest.raises(ValueError, match="maximum"):
        certificates._rule(type="integer", maximum=5)
    with pytest.raises(ValueError, match="format"):
        certificates._rule(type="array", items={"type": "string", "format": "date"})


def test_validation_accepts_every_golden_certificate(capsys):
    cases = json.loads((GOLDEN / "digests.json").read_text())
    for case in cases:
        main(case["argv"])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        dicts = [d for d in lines if "schema_version" in d]
        assert len(dicts) == len(case["digests"])
        for d in dicts:
            validate_certificate_dict(d)
            # and each rebuilds to itself from its stored evidence
            verdict_from_certificate(certificate_from_dict(d))


def test_read_back_rejects_non_canonical_numbers():
    # 29 and 29.0 are equal values with different JSON texts, so different
    # digests: a stored 29.0 would not match the replay that names its file
    d = weak_cert().to_dict()
    assert d["expected_dim"] == 29 and d["coranks"] == [1, 1, 1, 1, 1]
    for name, bad in [("expected_dim", 29.0), ("coranks", [1.0, 1, 1, 1, 1])]:
        with pytest.raises(ValueError, match="field '%s'" % name):
            certificate_from_dict({**d, name: bad})


def test_read_back_of_a_huge_support_k_stays_small():
    # the support record at propagated_from_k holds k' + 1 coranks; it is
    # built only where the order-1 criterion applies, which bounds k' by r
    s7 = ProductShape.binary(7)
    res14 = weak_defectivity_probe(s7, 14, seed=0)
    d = certificate_from_verdict(identifiability_verdict(s7, 3, [res14]), pins=(P, 0, 3)).to_dict()
    assert (d["propagated_from_k"], d["observed_dim"]) == (14, None)
    cert = certificate_from_dict({**d, "propagated_from_k": 10**6})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="propagated_from_k 1000000, recomputed null"):
            verdict_from_certificate(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_certificate_rejects_probe_of_another_cell():
    s = ProductShape.binary(6)
    res8 = weak_defectivity_probe(s, 8, seed=0)
    with pytest.raises(ValueError):
        certificate_from_verdict(identifiability_verdict(s, 3, [res8]), res8)


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_store_write_leaves_no_file(tmp_path, monkeypatch, failing):
    old = weak_cert(seed=1)
    old_path = write_certificate(old, tmp_path)
    old_text = old_path.read_text()
    cert = weak_cert()

    def partial_write(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    def refuse(src, dst):
        raise OSError("replace refused")

    if failing == "write":
        monkeypatch.setattr(pathlib.Path, "write_text", partial_write)
    else:
        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write_certificate(cert, tmp_path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == [old_path.name]
    assert old_path.read_text() == old_text
    path = write_certificate(cert, tmp_path)
    assert certificate_from_dict(json.loads(path.read_text())) == cert
    assert len(list(tmp_path.iterdir())) == 2
