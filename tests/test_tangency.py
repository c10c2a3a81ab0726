import numpy as np
import pytest

from contact_oracle import first_order_residuals
from echelon_oracle import matmul_mod
from segreid.bounds import NOTE_M6_K9
from segreid.exactlin import DEFAULT_PRIMES, SplitMix64
from segreid.segre import ProductShape, random_point
from segreid.tangency import (
    CITE_MONOTONE,
    NOTE_FILLING,
    NOTE_NO_EVIDENCE,
    VerdictStatus,
    contact_corank,
    contact_jacobian,
    identifiability_verdict,
    order_one_applicable,
    tangency_residuals,
    tangent_hyperplanes,
    weak_defectivity_probe,
)
from segreid.terracini import (
    DEFECT_EVIDENCE,
    SecantProbeResult,
    expected_dim,
    secant_dim_probe,
    terracini_matrix,
)

P = DEFAULT_PRIMES[0]


def points_and_kernel(m, k, seed=0, prime=P):
    s = ProductShape.binary(m)
    rng = SplitMix64(seed)
    pts = [random_point(s, rng, prime) for _ in range(k + 1)]
    return s, pts, tangent_hyperplanes(s, pts, prime)


def test_kernel_size_five_lines_k4():
    s, pts, ker = points_and_kernel(5, 4)
    assert ker.shape == (2, 32)


def test_kernel_empty_when_span_fills():
    s, pts, ker = points_and_kernel(3, 1)
    assert ker.shape == (0, 8)


def test_kernel_vectors_are_tangent_everywhere():
    s, pts, ker = points_and_kernel(5, 4)
    mat = terracini_matrix(s, pts, P)
    for h in ker:
        assert not matmul_mod(mat, h, P).any()
        for q in pts:
            assert not tangency_residuals(s, h, q, P).any()


def test_contact_coranks_five_lines_k4():
    s, pts, ker = points_and_kernel(5, 4)
    rng = SplitMix64(99)
    h = (rng.nonzero_residue(P) * ker[0] + rng.nonzero_residue(P) * ker[1]) % P
    assert [contact_corank(s, h, q, P) for q in pts] == [1, 1, 1, 1, 1]


def test_contact_corank_rejects_non_contact_point():
    s, pts, ker = points_and_kernel(5, 4)
    stranger = random_point(s, SplitMix64(1234), P)
    with pytest.raises(ValueError):
        contact_corank(s, ker[0], stranger, P)


def test_corank_chart_independent():
    s, pts, ker = points_and_kernel(5, 4, seed=3)
    h = (ker[0] + 2 * ker[1]) % P
    q = pts[0]
    charts = [(0, 0, 0, 0, 0), (1, 0, 1, 0, 1), (1, 1, 1, 1, 1), (0, 1, 0, 1, 0)]
    vals = {contact_corank(s, h, q, P, chart=c) for c in charts}
    assert vals == {1}


def test_first_order_matches_jacobian():
    s, pts, ker = points_and_kernel(5, 4, seed=7)
    h = (3 * ker[0] + 5 * ker[1]) % P
    q = pts[2]
    jac = contact_jacobian(s, h, q, P)
    rng = SplitMix64(11)
    for _ in range(10):
        v = np.array([rng.residue(P) for _ in range(s.dim)], dtype=np.int64)
        val, eps = first_order_residuals(s, h, q, v, P)
        assert not val.any()
        assert (eps == matmul_mod(jac, v, P)).all()


def test_first_order_value_part_off_contact():
    # at a non-contact point the value part is the residual vector itself
    s = ProductShape.binary(4)
    rng = SplitMix64(2)
    q = random_point(s, rng, P)
    h = np.array([rng.residue(P) for _ in range(16)], dtype=np.int64)
    v = np.zeros(4, dtype=np.int64)
    val, eps = first_order_residuals(s, h, q, v, P)
    assert (val == tangency_residuals(s, h, q, P)).all()
    assert not eps.any()


def test_jacobian_shape_and_zero_block():
    s, pts, ker = points_and_kernel(5, 4)
    jac = contact_jacobian(s, ker[0], pts[0], P)
    assert jac.shape == (10, 5)
    # factor-i rows do not depend on the factor-i variable
    for i in range(5):
        assert not jac[2 * i : 2 * i + 2, i].any()


def test_weak_probe_five_lines_k4():
    res = weak_defectivity_probe(ProductShape.binary(5), 4, seed=0)
    assert res.kernel_dim == 2
    assert res.coranks == (1, 1, 1, 1, 1)
    assert res.defect == 0
    assert not res.certified
    assert res.hyperplane_coeffs is not None


def test_weak_probe_six_lines_k8_certifies():
    res = weak_defectivity_probe(ProductShape.binary(6), 8, seed=0)
    assert res.kernel_dim == 1
    assert res.coranks == (0,) * 9
    assert res.certified


def test_weak_probe_replay_is_bit_exact():
    a = weak_defectivity_probe(ProductShape.binary(5), 4, seed=5)
    b = weak_defectivity_probe(ProductShape.binary(5), 4, seed=5)
    assert a == b


def test_weak_probe_argument_validation():
    s = ProductShape.binary(6)
    with pytest.raises(ValueError):
        weak_defectivity_probe(s, 0)
    with pytest.raises(ValueError):
        weak_defectivity_probe(s, 1, trials=0)
    with pytest.raises(ValueError):
        # k*dim + dim + k = 69 >= 63: no general tangent hyperplane
        weak_defectivity_probe(s, 9)
    with pytest.raises(ValueError):
        # filling: 3*1 + 3 + 1 = 7 = r
        weak_defectivity_probe(ProductShape.binary(3), 1)


def test_order_one_applicable_boundaries():
    assert order_one_applicable(ProductShape.binary(6), 8)
    assert not order_one_applicable(ProductShape.binary(6), 9)
    assert not order_one_applicable(ProductShape.binary(3), 1)


def _certified_result(shape, k, prime=P, seed=0):
    exp = expected_dim(shape, k)
    return SecantProbeResult(
        shape=shape,
        k=k,
        trials=3,
        prime=prime,
        seed=seed,
        observed_dim=exp,
        expected_dim=exp,
        kernel_dim=shape.ambient_dim - exp,
        hyperplane_coeffs=(1,),
        coranks=(0,) * (k + 1),
    )


def test_verdict_dimension_count():
    v = identifiability_verdict(ProductShape.binary(4), 3, [])
    assert v.status is VerdictStatus.NOT_IDENTIFIABLE_DIMENSION_COUNT
    assert v.cited


def test_verdict_known_exception_wins_over_probe_data():
    s = ProductShape.binary(5)
    res = weak_defectivity_probe(s, 4, seed=0)
    v = identifiability_verdict(s, 4, [res])
    assert v.status is VerdictStatus.KNOWN_EXCEPTION_SECANT_ORDER_2


def test_verdict_contradicted_exception_raises():
    # all coranks 0 on a rank-attaining record certifies what the recorded
    # m=5 k=4 exception denies; the record must not mask it
    s = ProductShape.binary(5)
    with pytest.raises(ValueError, match="m=5 k=4"):
        identifiability_verdict(s, 4, [_certified_result(s, 4)])


def test_verdict_six_lines_k9_recorded_discrepancy():
    s = ProductShape.binary(6)
    v = identifiability_verdict(s, 9, [_certified_result(s, 8)])
    assert v.status is VerdictStatus.UNDETERMINED
    assert NOTE_M6_K9 in v.notes


def test_verdict_certified_at_own_k():
    s = ProductShape.binary(6)
    v = identifiability_verdict(s, 8, [_certified_result(s, 8)])
    assert v.status is VerdictStatus.IDENTIFIABLE_CERTIFIED
    assert v.support_k == 8
    assert CITE_MONOTONE not in v.cited


def test_verdict_propagates_down_with_monotonicity_citation():
    s = ProductShape.binary(6)
    v = identifiability_verdict(s, 2, [_certified_result(s, 8)])
    assert v.status is VerdictStatus.IDENTIFIABLE_CERTIFIED
    assert v.support_k == 8
    assert CITE_MONOTONE in v.cited


def test_verdict_prefers_smallest_support():
    s = ProductShape.binary(6)
    probes = [_certified_result(s, 8), _certified_result(s, 5)]
    v = identifiability_verdict(s, 3, probes)
    assert v.support_k == 5


def test_verdict_defect_candidate_and_escalation_note():
    s = ProductShape.binary(4)
    one = [secant_dim_probe(s, 2, prime=P, seed=0)]
    v = identifiability_verdict(s, 2, one)
    assert v.status is VerdictStatus.DEFECT_CANDIDATE
    assert v.notes == ()
    grid = [
        secant_dim_probe(s, 2, prime=p, seed=sd)
        for p in DEFAULT_PRIMES
        for sd in (0, 1, 2)
    ]
    v = identifiability_verdict(s, 2, grid)
    assert v.status is VerdictStatus.DEFECT_CANDIDATE
    assert DEFECT_EVIDENCE in v.notes


def test_verdict_weak_evidence_path():
    s = ProductShape.binary(6)
    exp = expected_dim(s, 2)
    probe = SecantProbeResult(
        shape=s, k=2, trials=3, prime=P, seed=0,
        observed_dim=exp, expected_dim=exp,
        kernel_dim=43, hyperplane_coeffs=(1,) * 43, coranks=(1, 0, 0),
    )
    v = identifiability_verdict(s, 2, [probe])
    assert v.status is VerdictStatus.WEAKLY_DEFECTIVE_EVIDENCE


def test_verdict_undetermined_notes():
    s3 = ProductShape.binary(3)
    v = identifiability_verdict(s3, 1, [secant_dim_probe(s3, 1, seed=0)])
    assert v.status is VerdictStatus.UNDETERMINED
    assert NOTE_FILLING in v.notes
    s6 = ProductShape.binary(6)
    v = identifiability_verdict(s6, 2, [])
    assert v.status is VerdictStatus.UNDETERMINED
    assert NOTE_NO_EVIDENCE in v.notes


def test_verdict_rejects_bad_k():
    with pytest.raises(ValueError):
        identifiability_verdict(ProductShape.binary(4), 0, [])


def test_verdict_ignores_foreign_cells():
    # a certified probe for a different shape must not leak in
    s6 = ProductShape.binary(6)
    s7 = ProductShape.binary(7)
    v = identifiability_verdict(s6, 2, [_certified_result(s7, 8)])
    assert v.status is VerdictStatus.UNDETERMINED
