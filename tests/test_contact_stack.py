"""The contact stage's whole-stack passes against their one-at-a-time oracles.

A tangency probe draws the points of a trial as one array, fills the
Hessians of all points by divide and conquer over the factors, and ranks
every chart Jacobian in one pivot pass over the stack.  Each must match
what it replaced exactly: the scalar SplitMix64 draws, the per-pair
contractions of ``contact_oracle``, and ``ff_rank`` together with the
unblocked echelon of ``echelon_oracle``.
"""

import numpy as np
import pytest

import contact_oracle as oracle
from echelon_oracle import _echelon, matmul_mod
from segreid import tangency
from segreid.exactlin import SplitMix64, _ranks, ff_kernel, ff_rank
from segreid.segre import ProductShape, _random_points, coerce_points, random_point
from segreid.tangency import contact_coranks

PRIMES = (3, 65521, 2**31 - 1)
U64 = (1 << 64) - 1
GAMMA, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def oracle_hessian(s, h, q, p):
    """Block (a, b) is h contracted with q_l in every other slot, one pair at a time."""
    t = oracle._hyperplane_tensor(s, h, p)
    at = np.cumsum((0,) + s.coord_sizes)
    hess = np.zeros((at[-1], at[-1]), dtype=np.int64)
    for a in range(s.num_factors):
        for b in range(a + 1, s.num_factors):
            blk = oracle._contract_all_but(t, q, {a, b}, p)
            hess[at[a] : at[a + 1], at[b] : at[b + 1]] = blk
            hess[at[b] : at[b + 1], at[a] : at[a + 1]] = blk.T
    return hess


def assert_hessians_match(s, h, pts, p):
    got = tangency._hessians(s, h, coerce_points(s, pts, p), p)
    assert got.dtype == np.int64 and got.shape[0] == len(pts)
    for hq, q in zip(got, pts):
        want = oracle_hessian(s, h, q, p)
        assert hq.shape == want.shape and hq.tobytes() == want.tobytes()


HESSIAN_SHAPES = [(1,) * m for m in range(2, 12)] + [(1, 2, 3), (2, 3, 3), (3, 1, 1, 1, 2)]


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("dims", HESSIAN_SHAPES, ids=str)
def test_hessians_match_oracle(dims, count):
    # h need not be tangent: the Hessian is defined for every form
    s = ProductShape(dims)
    for p in PRIMES if s.ambient_dim < 1000 else PRIMES[-1:]:
        rng = SplitMix64(sum(dims) + count)
        pts = [random_point(s, rng, p) for _ in range(count)]
        h = rng.residues(p, s.ambient_dim + 1)
        assert_hessians_match(s, h, pts, p)
    # entries within 2**16 of p - 1 make the products nearest p**2
    p = PRIMES[-1]
    g = np.random.default_rng([len(dims), count])
    h = p - 1 - g.integers(0, 1 << 16, s.ambient_dim + 1)
    pts = [tuple(p - 1 - g.integers(0, 1 << 16, d) for d in s.coord_sizes) for _ in range(count)]
    assert_hessians_match(s, h, pts, p)


def stack_cases(p, g):
    """Stacks of one shape: random, zero, duplicated rows, planted rank."""
    for rows, cols in [(1, 1), (3, 7), (7, 3), (20, 10), (9, 9)]:
        stack = g.integers(0, p, (12, rows, cols))
        stack[1] = 0
        stack[2, rows // 2 :] = stack[2, : rows - rows // 2]
        stack[3] = stack[3, :1]
        for i in range(4, 9):
            k = int(g.integers(0, min(rows, cols) + 1))
            stack[i] = matmul_mod(g.integers(0, p, (rows, k)), g.integers(0, p, (k, cols)), p)
        stack[9, :, 0] = 0
        stack[10] = np.eye(rows, cols, dtype=np.int64) * (p - 1)
        yield stack


@pytest.mark.parametrize("p", PRIMES)
def test_stacked_ranks_match_ff_rank_and_oracle(p):
    g = np.random.default_rng(p)
    for stack in stack_cases(p, g):
        want = [ff_rank(a, p) for a in stack]
        assert want == [len(_echelon(a, p, reduced=False)[1]) for a in stack]
        got = _ranks(stack.copy(), p)
        assert got.tolist() == want


def test_stacked_ranks_of_an_empty_stack():
    assert _ranks(np.zeros((0, 4, 3), dtype=np.int64), 7).tolist() == []
    assert _ranks(np.zeros((2, 4, 0), dtype=np.int64), 7).tolist() == [0, 0]


@pytest.mark.parametrize("p", PRIMES[1:])
def test_five_lines_k4_every_contact_corank_is_one(p):
    # the defective cell of five lines: every contact point has corank 1
    s = ProductShape.binary(5)
    rng = SplitMix64(7)
    pts = [random_point(s, rng, p) for _ in range(5)]
    ker = ff_kernel(oracle.terracini_matrix(s, pts, p), p)
    assert len(ker) == 2
    h = (rng.nonzero_residue(p) * ker[0] + rng.nonzero_residue(p) * ker[1]) % p
    want = tuple(s.dim - ff_rank(oracle.contact_jacobian(s, h, q, p), p) for q in pts)
    assert contact_coranks(s, h, pts, p) == want == (1,) * 5


SEEDS = (0, 1, 42, GAMMA, U64)


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_draws_replay_the_scalar_stream(seed):
    for p in (2, 3, 97, 65521, 2**31 - 1):
        vec, scalar = SplitMix64(seed), SplitMix64(seed)
        assert vec.residues(p, 0).tolist() == []
        assert vec.residues(p, 257).tolist() == [scalar.residue(p) for _ in range(257)]
        if p > 2:
            got = vec.nonzero_residues(p, 33).tolist()
            assert got == [scalar.nonzero_residue(p) for _ in range(33)]
        assert vec.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
def test_points_drawn_as_one_array_replay_the_scalar_stream(seed):
    s = ProductShape((1, 2, 3))
    p = PRIMES[-1]
    vec, scalar = SplitMix64(seed), SplitMix64(seed)
    qs = _random_points(s, vec, p, 6)
    assert [f.shape for f in qs] == [(6, d) for d in s.coord_sizes]
    flat = np.concatenate(qs, axis=1).ravel().tolist()
    assert flat == [scalar.nonzero_residue(p) for _ in range(6 * sum(s.coord_sizes))]
    assert np.concatenate(random_point(s, vec, p)).tolist() == [
        scalar.nonzero_residue(p) for _ in range(sum(s.coord_sizes))
    ]


def unshift(z, k):
    """Inverse of z ^ (z >> k) on 64 bits."""
    x = z
    for _ in range(64 // k + 1):
        x = z ^ (x >> k)
    return x


def unmix(z):
    """The Weyl state whose SplitMix64 output is z: the finalizer inverted."""
    z = unshift(z, 31) * pow(MIX2, -1, 1 << 64) & U64
    z = unshift(z, 27) * pow(MIX1, -1, 1 << 64) & U64
    return unshift(z, 30)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("target", ["lim", "top", "lim-1"])
def test_vector_draws_reject_as_the_scalar_draws(target, at, p):
    # outputs at or above lim = 2**64 - 2**64 % p are rejected: a seed is
    # built whose draw `at` of a batch of five is lim, the largest u64,
    # or lim - 1, which is kept; a rejection at the last draw leaves the
    # batch one short, so a second round draws it
    lim = (1 << 64) - (1 << 64) % p
    u = {"lim": lim, "top": U64, "lim-1": lim - 1}[target]
    seed = (unmix(u) - (at + 1) * GAMMA) & U64
    scalar = SplitMix64(seed)
    assert [scalar.next_u64() for _ in range(at + 1)][-1] == u
    vec, scalar = SplitMix64(seed), SplitMix64(seed)
    want = [scalar.residue(p) for _ in range(5)]
    assert vec.residues(p, 5).tolist() == want
    draws = 5 if u < lim else 6
    assert vec._state == scalar._state == (seed + draws * GAMMA) & U64
