import re
import tracemalloc

import numpy as np
import pytest

from segreid import exactlin
from segreid.exactlin import DEFAULT_PRIMES, SplitMix64, ff_rank
from segreid.segre import ProductShape, random_point
from segreid.tangency import weak_defectivity_probe
from segreid.terracini import (
    DEFECT_CANDIDATE,
    DEFECT_EVIDENCE,
    SecantProbeResult,
    _trials,
    defect_status,
    expected_dim,
    secant_dim_probe,
    terracini_matrix,
)

P = DEFAULT_PRIMES[0]


def test_expected_dim_examples():
    assert expected_dim(ProductShape.binary(3), 1) == 7
    assert expected_dim(ProductShape.binary(4), 2) == 14
    assert expected_dim(ProductShape.binary(5), 4) == 29
    # capped by the ambient dimension once the count overshoots
    assert expected_dim(ProductShape.binary(6), 8) == 62
    assert expected_dim(ProductShape.binary(6), 9) == 63
    assert expected_dim(ProductShape.binary(6), 20) == 63


def test_expected_dim_rejects_negative_k():
    with pytest.raises(ValueError):
        expected_dim(ProductShape.binary(3), -1)


def test_terracini_matrix_sizes():
    rng = SplitMix64(1)
    for m, k, rows, cols in [(3, 1, 8, 8), (4, 2, 15, 16), (5, 4, 30, 32)]:
        s = ProductShape.binary(m)
        pts = [random_point(s, rng, P) for _ in range(k + 1)]
        assert terracini_matrix(s, pts, P).shape == (rows, cols)


def test_terracini_matrix_single_point_rank():
    for dims in [(1, 1, 1), (1, 2), (2, 2, 1)]:
        s = ProductShape(dims)
        pts = [random_point(s, SplitMix64(9), P)]
        assert ff_rank(terracini_matrix(s, pts, P), P) == 1 + s.dim


def test_terracini_matrix_rejects_empty():
    with pytest.raises(ValueError):
        terracini_matrix(ProductShape.binary(3), [], P)


TRIAL_SHAPES = [(1, 2, 3), (2, 2, 2)] + [(1,) * m for m in range(3, 9)]


@pytest.mark.parametrize("p", [3, 65521, 2**31 - 1])
@pytest.mark.parametrize("dims", TRIAL_SHAPES, ids=str)
def test_trial_matrix_is_the_terracini_matrix_of_its_draws(dims, p):
    # as many points as the expected dimension allows, in two trials
    s = ProductShape(dims)
    k = max(1, s.ambient_dim // (1 + s.dim))
    for _, qs, mat in _trials(s, k, 2, p, 7):
        pts = [tuple(f[a] for f in qs) for a in range(k + 1)]
        want = terracini_matrix(s, pts, p)
        assert mat.dtype == want.dtype and mat.shape == want.shape
        assert mat.tobytes() == want.tobytes()


def test_rank_probe_holds_one_int32_matrix():
    # the 1034x1024 Terracini matrix of m=10 k=93 is factored in place as
    # int32: the peak (6.17 MB measured, 6.47 MB while the elimination's
    # temporaries grew with the rows) stays below one int64 copy of it,
    # 8.47 MB
    s = ProductShape.binary(10)
    bound = 94 * (1 + s.dim) * (s.ambient_dim + 1) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert secant_dim_probe(s, 93).defect == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound == 8_470_528


def test_tangency_probe_holds_one_int32_matrix():
    # probe-m10's first cell, whose elimination's workspace holds the
    # limbs of all 451 rows of its 451x1024 matrix and the sum and result
    # of a block of rows: the peak (3.11 MB with fresh temporaries per
    # product, 3.35 MB with a sum and result as tall as the matrix, 3.09
    # MB with blocks, 3.04 MB with no temporary growing with the rows)
    # stays below one int64 copy of the matrix, 3.69 MB
    s = ProductShape.binary(10)
    bound = 41 * (1 + s.dim) * (s.ambient_dim + 1) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert weak_defectivity_probe(s, 40).certified
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound == 3_694_592


def test_rank_probe_workspace_grows_only_with_limbs():
    # m=11 k=169 factors its 2040x2048 matrix in place.  The elimination's
    # workspace grows with the rows only by -L21's limbs, 128 words a row,
    # and holds the sum and result of a block of _ROWS rows: 2.58 MB.
    # Above the int32 matrix the peak stays below twice that (3.16 MB
    # measured, 3.99 MB while the elimination's temporaries grew with the
    # rows); with a sum and result as tall as the matrix, 320 words a
    # row, it was 6.48 MB.
    s = ProductShape.binary(11)
    rows = 170 * (1 + s.dim)
    matrix = rows * (s.ambient_dim + 1) * 4
    bound = 2 * sum(buf.nbytes for buf in exactlin._workspace(rows, P))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert secant_dim_probe(s, 169).defect == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - matrix < bound == 5_160_960


def test_elimination_allocates_only_its_workspace():
    # _eliminate alone on the m=11 k=169 trial matrix, 2040x2048: beside
    # the matrix and its 2.58 MB workspace, only temporaries bounded by a
    # block of rows or a panel and the index of the rows holding a
    # multiplier, 0.27 MB measured.  L21 gathered and balanced on all
    # rows, the rows below gathered once a slab and the pivot loop's
    # int64 row update on all rows took 1.09 MB.
    s = ProductShape.binary(11)
    _, _, mat = next(_trials(s, 169, 1, P, 0))
    work = sum(buf.nbytes for buf in exactlin._workspace(len(mat), P))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert len(exactlin._eliminate(mat, P)) == len(mat)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - work < 1 << 19


def test_probe_three_lines_fills():
    res = secant_dim_probe(ProductShape.binary(3), 1, seed=0)
    assert res.observed_dim == 7
    assert res.expected_dim == 7
    assert res.defect == 0


def test_probe_four_lines_defect_across_primes():
    for prime in DEFAULT_PRIMES:
        for seed in (0, 1, 2):
            res = secant_dim_probe(ProductShape.binary(4), 2, prime=prime, seed=seed)
            assert res.observed_dim == 13
            assert res.expected_dim == 14
            assert res.defect == 1


def test_probe_five_lines_no_defect():
    res = secant_dim_probe(ProductShape.binary(5), 4, seed=0)
    assert res.observed_dim == 29
    assert res.defect == 0


def test_observed_dim_monotone_in_nested_point_sets():
    s = ProductShape.binary(4)
    rng = SplitMix64(55)
    pts = [random_point(s, rng, P) for _ in range(4)]
    ranks = [
        ff_rank(terracini_matrix(s, pts[: k + 1], P), P) for k in range(4)
    ]
    assert ranks == sorted(ranks)


def test_result_rejects_observed_above_expected():
    s = ProductShape.binary(4)
    base = dict(shape=s, k=1, trials=1, prime=P, seed=0, observed_dim=9, expected_dim=9)
    assert SecantProbeResult(**base, kernel_dim=6, hyperplane_coeffs=(1,) * 6, coranks=(0, 0))
    with pytest.raises(ValueError, match="observed dimension above"):
        SecantProbeResult(**{**base, "observed_dim": 10})
    # a record holds no more evidence than it has: without the first rule,
    # the empty coranks would be vacuously all 0 and certify the cell
    for fields, rule in [
        (dict(coranks=()), "len(coranks) = k + 1"),
        (dict(coranks=(0, 0, 0)), "len(coranks) = k + 1"),
        (dict(kernel_dim=5), "kernel_dim = r - observed_dim"),
        (dict(kernel_dim=6, hyperplane_coeffs=(1,)), "len(hyperplane_coeffs) = kernel_dim"),
        (dict(hyperplane_coeffs=(1,)), "len(hyperplane_coeffs) = kernel_dim"),
    ]:
        with pytest.raises(ValueError, match=r"^probe record breaks .*%s" % re.escape(rule)):
            SecantProbeResult(**base, **fields)


def test_probe_argument_validation():
    s = ProductShape.binary(3)
    with pytest.raises(ValueError):
        secant_dim_probe(s, 0)
    with pytest.raises(ValueError):
        secant_dim_probe(s, 1, trials=0)
    with pytest.raises(ValueError):
        secant_dim_probe(s, 1, prime=2147483646)


@pytest.mark.parametrize("probe", [secant_dim_probe, weak_defectivity_probe])
def test_probes_refuse_a_seed_their_stream_would_not_use(probe):
    # SplitMix64 takes its seed mod 2**64 and int() truncates: -1 would
    # draw the stream of 2**64 - 1, 2**64 seed 0's and 1.7 seed 1's, each
    # recorded under a seed it never used
    s = ProductShape.binary(4)
    for seed in (-1, 2**64, 1.7, "0"):
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*64\)"):
            probe(s, 2, trials=1, prime=65521, seed=seed)
    assert probe(s, 2, trials=1, prime=65521, seed=np.uint64(2**64 - 1)) == probe(
        s, 2, trials=1, prime=65521, seed=2**64 - 1
    )


@pytest.mark.parametrize("probe", [secant_dim_probe, weak_defectivity_probe])
def test_probes_record_numpy_pins_as_python_ints(probe):
    # a numpy prime and k overflowed SplitMix64's Python-int arithmetic,
    # and a numpy seed or trials was recorded as a numpy scalar
    s = ProductShape.binary(4)
    got = probe(s, np.int64(2), trials=np.int32(2), prime=np.int64(65521), seed=np.uint64(3))
    assert got == probe(s, 2, trials=2, prime=65521, seed=3)
    assert all(type(getattr(got, pin)) is int for pin in ("k", "trials", "prime", "seed"))


@pytest.mark.parametrize("probe", [secant_dim_probe, weak_defectivity_probe])
@pytest.mark.parametrize("pin, bad", [("k", True), ("k", 1.5), ("k", np.float64(2)),
                                      ("trials", True), ("trials", 1.5), ("seed", True),
                                      ("seed", np.bool_(True)), ("prime", True)])
def test_probes_refuse_a_pin_that_is_no_integer(probe, pin, bad):
    pins = {"k": 2, "trials": 1, "prime": 65521, "seed": 0, pin: bad}
    k = pins.pop("k")
    name = "modulus" if pin == "prime" else pin
    with pytest.raises(ValueError, match=rf"^{name} {re.escape(repr(bad))} (must be|is not)"):
        probe(ProductShape.binary(4), k, **pins)


def _result(shape, k, prime, seed, observed):
    return SecantProbeResult(
        shape=shape,
        k=k,
        trials=3,
        prime=prime,
        seed=seed,
        observed_dim=observed,
        expected_dim=expected_dim(shape, k),
    )


def test_defect_status_none_when_any_sample_attains():
    s = ProductShape.binary(4)
    rs = [_result(s, 2, P, 0, 13), _result(s, 2, P, 1, 14)]
    assert defect_status(rs) is None


def test_defect_status_candidate_until_grid_is_wide():
    s = ProductShape.binary(4)
    one = [_result(s, 2, P, 0, 13)]
    assert defect_status(one) == DEFECT_CANDIDATE
    # three primes but only two seeds
    narrow = [
        _result(s, 2, p, sd, 13) for p in DEFAULT_PRIMES for sd in (0, 1)
    ]
    assert defect_status(narrow) == DEFECT_CANDIDATE


def test_defect_status_escalates_on_full_grid():
    s = ProductShape.binary(4)
    grid = [
        _result(s, 2, p, sd, 13) for p in DEFAULT_PRIMES for sd in (0, 1, 2)
    ]
    assert defect_status(grid) == DEFECT_EVIDENCE


def test_defect_status_no_escalation_on_disagreeing_values():
    s = ProductShape.binary(4)
    grid = [
        _result(s, 2, p, sd, 13 if sd else 12)
        for p in DEFAULT_PRIMES
        for sd in (0, 1, 2)
    ]
    assert defect_status(grid) == DEFECT_CANDIDATE


def test_defect_status_input_validation():
    s = ProductShape.binary(4)
    with pytest.raises(ValueError):
        defect_status([])
    with pytest.raises(ValueError):
        defect_status([_result(s, 2, P, 0, 13), _result(s, 1, P, 0, 9)])
