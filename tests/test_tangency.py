import weakref

import numpy as np
import pytest

import contact_oracle as oracle
from contact_oracle import first_order_residuals
from echelon_oracle import matmul_mod
from segreid import terracini
from segreid.bounds import CITE_EXCEPTION_M5K4, NOTE_M6_K9, SPECIAL_CELLS
from segreid.exactlin import DEFAULT_PRIMES, SplitMix64, ff_rank
from segreid.segre import ProductShape, random_point
from segreid.tangency import (
    CITE_CORANK_ZERO,
    CITE_DEFECT_EVIDENCE,
    CITE_DIM_COUNT,
    CITE_MONOTONE,
    CITE_ORDER_ONE,
    CITE_RANK_CERTIFICATE,
    CITE_WEAK_EVIDENCE,
    NOTE_FILLING,
    NOTE_NO_EVIDENCE,
    Verdict,
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


@pytest.mark.parametrize("probe", [secant_dim_probe, weak_defectivity_probe])
def test_each_trial_matrix_is_freed_before_the_next_is_built(monkeypatch, probe):
    # m=4 k=2 is defective, so all three trials run
    built = []

    def build(*args):
        alive = [i for i, ref in enumerate(built) if ref() is not None]
        assert not alive, f"trial {alive} matrix alive while trial {len(built)} is built"
        mat = terracini_matrix(*args)
        built.append(weakref.ref(mat))
        return mat

    monkeypatch.setattr(terracini, "terracini_matrix", build)
    assert probe(ProductShape.binary(4), 2, trials=3).defect == 1
    assert len(built) == 3


def test_hyperplane_rejects_non_integer_entries():
    s, pts, ker = points_and_kernel(5, 4)
    with pytest.raises(ValueError, match="expected integer entries, got float64"):
        contact_corank(s, ker[0] + 0.5, pts[0], P)


def test_corank_chart_independent():
    s, pts, ker = points_and_kernel(5, 4, seed=3)
    h = (ker[0] + 2 * ker[1]) % P
    q = pts[0]
    charts = [(0, 0, 0, 0, 0), (1, 0, 1, 0, 1), (1, 1, 1, 1, 1), (0, 1, 0, 1, 0)]
    vals = {s.dim - ff_rank(oracle.contact_jacobian(s, h, q, P, chart=c), P) for c in charts}
    assert vals == {contact_corank(s, h, q, P)} == {1}


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
        hyperplane_coeffs=(1,) * (shape.ambient_dim - exp),
        coranks=(0,) * (k + 1),
    )


# the citations of a certified cell, before any monotonicity citation
CERTIFIED = (CITE_RANK_CERTIFICATE, CITE_CORANK_ZERO, CITE_ORDER_ONE)


def test_verdict_dimension_count():
    s = ProductShape.binary(4)
    assert identifiability_verdict(s, 3, []) == Verdict(
        VerdictStatus.NOT_IDENTIFIABLE_DIMENSION_COUNT, s, 3, (CITE_DIM_COUNT,)
    )


def test_verdict_known_exception_wins_over_probe_data():
    s = ProductShape.binary(5)
    res = weak_defectivity_probe(s, 4, seed=0)
    assert identifiability_verdict(s, 4, [res]) == Verdict(
        VerdictStatus.KNOWN_EXCEPTION_SECANT_ORDER_2, s, 4, (CITE_EXCEPTION_M5K4,)
    )


def test_verdict_contradicted_exception_raises():
    # all coranks 0 on a rank-attaining record certifies what the recorded
    # m=5 k=4 exception denies; the record must not mask it
    s = ProductShape.binary(5)
    want = (
        "probes at k=4 certify identifiability of the binary cell m=5 k=4,"
        " contradicting its recorded verdict KnownExceptionSecantOrder2"
    )
    with pytest.raises(ValueError, match="^%s$" % want):
        identifiability_verdict(s, 4, [_certified_result(s, 4)])


def test_verdict_six_lines_k9_recorded_discrepancy():
    s = ProductShape.binary(6)
    assert identifiability_verdict(s, 9, [_certified_result(s, 8)]) == Verdict(
        VerdictStatus.UNDETERMINED, s, 9, (), (NOTE_M6_K9,)
    )


def test_no_order_one_cell_above_a_special_cell():
    # a top-down sweep carries a certificate at k' down to every k <= k',
    # and identifiability_verdict raises when it reaches a recorded cell;
    # so no recorded binary cell may lie below an order-one-applicable k'
    tops = {}
    for m, k in SPECIAL_CELLS:
        s = ProductShape.binary(m)
        tops[m] = max(kk for kk in range(1, 2**m) if order_one_applicable(s, kk))
        assert tops[m] <= k
    assert tops == {5: 4, 6: 8}


def test_verdict_certified_at_own_k():
    s = ProductShape.binary(6)
    assert identifiability_verdict(s, 8, [_certified_result(s, 8)]) == Verdict(
        VerdictStatus.IDENTIFIABLE_CERTIFIED, s, 8, CERTIFIED, support_k=8
    )


def test_verdict_propagates_down_with_monotonicity_citation():
    s = ProductShape.binary(6)
    assert identifiability_verdict(s, 2, [_certified_result(s, 8)]) == Verdict(
        VerdictStatus.IDENTIFIABLE_CERTIFIED, s, 2, CERTIFIED + (CITE_MONOTONE,), support_k=8
    )


def test_verdict_prefers_smallest_support():
    s = ProductShape.binary(6)
    probes = [_certified_result(s, 8), _certified_result(s, 5)]
    assert identifiability_verdict(s, 3, probes) == Verdict(
        VerdictStatus.IDENTIFIABLE_CERTIFIED, s, 3, CERTIFIED + (CITE_MONOTONE,), support_k=5
    )


def test_verdict_defect_candidate_and_escalation_note():
    s = ProductShape.binary(4)
    one = [secant_dim_probe(s, 2, prime=P, seed=0)]
    candidate = Verdict(VerdictStatus.DEFECT_CANDIDATE, s, 2, (CITE_DEFECT_EVIDENCE,))
    assert identifiability_verdict(s, 2, one) == candidate
    grid = [
        secant_dim_probe(s, 2, prime=p, seed=sd)
        for p in DEFAULT_PRIMES
        for sd in (0, 1, 2)
    ]
    assert identifiability_verdict(s, 2, grid) == Verdict(
        VerdictStatus.DEFECT_CANDIDATE, s, 2, (CITE_DEFECT_EVIDENCE,), (DEFECT_EVIDENCE,)
    )


def test_verdict_weak_evidence_path():
    s = ProductShape.binary(6)
    exp = expected_dim(s, 2)
    probe = SecantProbeResult(
        shape=s, k=2, trials=3, prime=P, seed=0,
        observed_dim=exp, expected_dim=exp,
        kernel_dim=43, hyperplane_coeffs=(1,) * 43, coranks=(1, 0, 0),
    )
    assert identifiability_verdict(s, 2, [probe]) == Verdict(
        VerdictStatus.WEAKLY_DEFECTIVE_EVIDENCE, s, 2, (CITE_WEAK_EVIDENCE,)
    )


def test_verdict_undetermined_notes():
    s3 = ProductShape.binary(3)
    v = identifiability_verdict(s3, 1, [secant_dim_probe(s3, 1, seed=0)])
    assert v == Verdict(VerdictStatus.UNDETERMINED, s3, 1, (), (NOTE_FILLING,))
    s6 = ProductShape.binary(6)
    v = identifiability_verdict(s6, 2, [])
    assert v == Verdict(VerdictStatus.UNDETERMINED, s6, 2, (), (NOTE_NO_EVIDENCE,))
    # a probe of the cell's own that neither certifies nor shows evidence
    # leaves the verdict without notes
    probe = SecantProbeResult(
        shape=s6, k=2, trials=3, prime=P, seed=0,
        observed_dim=expected_dim(s6, 2), expected_dim=expected_dim(s6, 2),
    )
    v = identifiability_verdict(s6, 2, [probe])
    assert v == Verdict(VerdictStatus.UNDETERMINED, s6, 2, ())


def test_verdict_rejects_bad_k():
    with pytest.raises(ValueError):
        identifiability_verdict(ProductShape.binary(4), 0, [])


def test_verdict_ignores_foreign_cells():
    # a certified probe for a different shape must not leak in
    s6 = ProductShape.binary(6)
    s7 = ProductShape.binary(7)
    assert identifiability_verdict(s6, 2, [_certified_result(s7, 8)]) == Verdict(
        VerdictStatus.UNDETERMINED, s6, 2, (), (NOTE_NO_EVIDENCE,)
    )
