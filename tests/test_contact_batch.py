"""The batched contact pass and frame pass against the per-point oracle.

``contact_oracle`` holds the per-point, per-pair contractions and the
per-point frame builder that the batched code replaced.  Residuals,
Jacobians in every chart, coranks and Terracini matrices must match it
byte for byte, for binary and unequal factor sizes, at a small, a
medium and the largest admissible prime.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import contact_oracle as oracle
from segreid import segre, tangency
from segreid.exactlin import SplitMix64, ff_kernel, ff_rank
from segreid.segre import ProductShape, coerce_points, random_point
from segreid.tangency import contact_coranks, contact_corank, contact_jacobian, tangency_residuals
from segreid.terracini import terracini_matrix

PRIMES = (3, 65521, 2**31 - 1)
SHAPES = [(1,) * m for m in range(2, 7)] + [(1, 2, 3), (2, 2, 2), (2, 3, 3)]


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_terracini(s, pts, p):
    # int32 residues, value for value the oracle's int64 matrix
    got, want = terracini_matrix(s, pts, p), oracle.terracini_matrix(s, pts, p)
    return got.dtype == np.int32 and got.shape == want.shape and got.tolist() == want.tolist()


def batch(s, h, pts, p, chart):
    """Residuals, and Jacobians in the chart freezing slot chart[i] of
    factor i, of every point from one pass."""
    qs = coerce_points(s, pts, p)
    hess = tangency._hessians(s, h, qs, p)
    at = np.cumsum((0,) + s.coord_sizes)
    cols = np.delete(np.arange(at[-1]), at[:-1] + np.array(chart))
    return tangency._residuals(hess, qs, p), hess[:, :, cols]


def contact_case(dims, p, seed=0):
    """Points and a nonzero hyperplane tangent at all of them.

    Takes as many points as leave the Terracini kernel nonempty, at most
    three; a product of two lines allows only one.
    """
    s = ProductShape(dims)
    rng = SplitMix64(seed)
    count = min(3, s.ambient_dim // (1 + s.dim))
    pts = [random_point(s, rng, p) for _ in range(count)]
    kernel = ff_kernel(oracle.terracini_matrix(s, pts, p), p)
    h = np.zeros(s.ambient_dim + 1, dtype=np.int64)
    while not h.any():
        for row in kernel:
            h = (h + rng.nonzero_residue(p) * row) % p
    return s, pts, h


def all_charts(s):
    return list(itertools.product(*(range(d) for d in s.coord_sizes)))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("dims", SHAPES, ids=str)
def test_batch_matches_oracle(dims, p):
    s, pts, h = contact_case(dims, p)
    assert same_terracini(s, pts, p)
    for chart in all_charts(s):
        res, jac = batch(s, h, pts, p, chart)
        for q, r_q, j_q in zip(pts, res, jac):
            assert same(r_q, oracle.tangency_residuals(s, h, q, p))
            assert same(j_q, oracle.contact_jacobian(s, h, q, p, chart))
    want = []
    for q in pts:
        assert not oracle.tangency_residuals(s, h, q, p).any()
        want.append(s.dim - ff_rank(oracle.contact_jacobian(s, h, q, p), p))
    assert contact_coranks(s, h, pts, p) == tuple(want)


@pytest.mark.parametrize("dims", SHAPES, ids=str)
def test_one_point_batch_matches_oracle(dims):
    p = PRIMES[1]
    s, pts, h = contact_case(dims, p, seed=5)
    q = pts[0]
    assert same_terracini(s, [q], p)
    assert same(tangency_residuals(s, h, q, p), oracle.tangency_residuals(s, h, q, p))
    assert same(contact_jacobian(s, h, q, p), oracle.contact_jacobian(s, h, q, p))
    want = s.dim - ff_rank(oracle.contact_jacobian(s, h, q, p), p)
    assert contact_coranks(s, h, [q], p) == (want,)
    assert contact_corank(s, h, q, p) == want


@pytest.mark.parametrize("dims", SHAPES, ids=str)
def test_largest_entries_match_oracle(dims):
    # every entry p - 1: each product is (p - 1)**2, the most int64 must
    # hold; then entries within 2**16 of p - 1, different at every point
    p = PRIMES[-1]
    s = ProductShape(dims)
    h = np.full(s.ambient_dim + 1, p - 1, dtype=np.int64)
    pts = [tuple(np.full(d, p - 1, dtype=np.int64) for d in s.coord_sizes)] * 2
    assert same_terracini(s, pts, p)
    res, jac = batch(s, h, pts, p, (0,) * s.num_factors)
    for r_q, j_q in zip(res, jac):
        assert same(r_q, oracle.tangency_residuals(s, h, pts[0], p))
        assert same(j_q, oracle.contact_jacobian(s, h, pts[0], p))
    g = np.random.default_rng(len(dims))
    h = p - 1 - g.integers(0, 1 << 16, s.ambient_dim + 1)
    pts = [tuple(p - 1 - g.integers(0, 1 << 16, d) for d in s.coord_sizes) for _ in range(3)]
    assert same_terracini(s, pts, p)
    res, jac = batch(s, h, pts, p, (0,) * s.num_factors)
    for q, r_q, j_q in zip(pts, res, jac):
        assert same(r_q, oracle.tangency_residuals(s, h, q, p))
        assert same(j_q, oracle.contact_jacobian(s, h, q, p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("dims", [(1,) * 6, (1,) * 8, (1, 2, 3), (2, 3, 3)], ids=str)
@pytest.mark.parametrize("per_chunk", [1, 3])
def test_frames_across_chunks_match_oracle(monkeypatch, per_chunk, dims, p):
    # seven points: chunks of one point, or of three with a last of one
    s = ProductShape(dims)
    rng = SplitMix64(11)
    pts = [random_point(s, rng, p) for _ in range(7)]
    monkeypatch.setattr(segre, "_FRAME_CHUNK", per_chunk * 8 * 8 * (s.ambient_dim + 1))
    assert same_terracini(s, pts, p)


def test_frames_stay_within_one_chunk_above_their_result():
    # m=10 k=93: the int64 partial products of a chunk, not the int64
    # frames of the whole chunk, are all that is held beside the result
    s = ProductShape.binary(10)
    p = PRIMES[-1]
    rng = SplitMix64(0)
    qs = coerce_points(s, [random_point(s, rng, p) for _ in range(94)], p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = segre._frames(qs, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= segre._FRAME_CHUNK


def test_frame_errors_match_oracle():
    s = ProductShape((1, 2, 3))
    rng = SplitMix64(4)
    pts = [random_point(s, rng, 7) for _ in range(3)]
    pts[1] = (pts[1][0], np.array([0, 1, 2]), pts[1][2])
    for build in (terracini_matrix, oracle.terracini_matrix):
        with pytest.raises(ValueError, match="factor 1 has first coordinate 0 mod 7"):
            build(s, pts, 7)
    for build in (terracini_matrix, oracle.terracini_matrix):
        with pytest.raises(ValueError, match="factor 1 has shape"):
            build(s, [(pts[0][0], pts[0][1][:2], pts[0][2])], 7)


def test_batch_names_the_stranger_point():
    s, pts, h = contact_case((1,) * 5, PRIMES[-1])
    stranger = random_point(s, SplitMix64(1234), PRIMES[-1])
    batch_pts = pts[:2] + [stranger] + pts[2:]
    with pytest.raises(ValueError, match="not tangent at point 2:"):
        contact_coranks(s, h, batch_pts, PRIMES[-1])


def test_batch_names_the_point_outside_its_chart():
    p = PRIMES[-1]
    s, pts, h = contact_case((1,) * 5, p)
    q = pts[0]
    pts = pts + [q[:2] + (np.array([0, q[2][1]]),) + q[3:]]
    message = f"point 3: factor 2 has first coordinate 0 mod {p}: chart invalid at this point"
    with pytest.raises(ValueError, match=message):
        contact_coranks(s, h, pts, p)
    with pytest.raises(ValueError, match=message):
        terracini_matrix(s, pts, p)
