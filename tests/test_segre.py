import numpy as np
import pytest

from contact_oracle import tangent_frame
from echelon_oracle import matmul_mod
from segreid.exactlin import DEFAULT_PRIMES, SplitMix64, ff_rank
from segreid.segre import (
    COORDINATE_ORDER,
    ProductShape,
    coerce_point,
    random_point,
    segre_embed,
)
from segreid.terracini import terracini_matrix
from stream_oracle import ScalarSplitMix64

P = 2147483647


def test_coordinate_order_constant():
    assert COORDINATE_ORDER == "lex-leftmost-slowest"


def test_shape_validation():
    with pytest.raises(ValueError):
        ProductShape((2,))
    with pytest.raises(ValueError):
        ProductShape((1, 0))
    with pytest.raises(ValueError):
        ProductShape(())


def test_shape_properties():
    s = ProductShape((1, 2, 3))
    assert s.num_factors == 3
    assert s.dim == 6
    assert s.coord_sizes == (2, 3, 4)
    assert s.ambient_dim == 2 * 3 * 4 - 1
    assert not s.is_binary
    b = ProductShape.binary(5)
    assert b.factor_dims == (1, 1, 1, 1, 1)
    assert b.is_binary
    assert b.ambient_dim == 31


def test_binary_rejects_small_m():
    with pytest.raises(ValueError):
        ProductShape.binary(1)


def test_embed_two_factor_example():
    s = ProductShape((1, 1))
    out = segre_embed(s, (np.array([1, 2]), np.array([1, 3])), P)
    assert out.tolist() == [1, 3, 2, 6]


def test_embed_leftmost_slowest_indexing():
    # s[(i1*d2 + i2)*d3 + i3] must equal q1[i1]*q2[i2]*q3[i3]
    s = ProductShape((1, 2, 1))
    rng = SplitMix64(3)
    q = random_point(s, rng, P)
    out = segre_embed(s, q, P)
    d2, d3 = 3, 2
    for i1 in range(2):
        for i2 in range(3):
            for i3 in range(2):
                want = int(q[0][i1]) * int(q[1][i2]) % P * int(q[2][i3]) % P
                assert out[(i1 * d2 + i2) * d3 + i3] == want


def test_embed_multilinear_in_each_factor():
    s = ProductShape((2, 1, 2))
    rng = ScalarSplitMix64(17)
    for case in range(30):
        q = list(random_point(s, rng, P))
        i = case % 3
        a, b = rng.residue(P), rng.residue(P)
        u = np.array([rng.residue(P) for _ in range(len(q[i]))], dtype=np.int64)
        v = np.array([rng.residue(P) for _ in range(len(q[i]))], dtype=np.int64)
        qu, qv, qw = list(q), list(q), list(q)
        qu[i], qv[i], qw[i] = u, v, (a * u + b * v) % P
        lhs = segre_embed(s, qw, P)
        rhs = (a * segre_embed(s, qu, P) + b * segre_embed(s, qv, P)) % P
        assert (lhs == rhs).all()


def test_coerce_point_errors():
    s = ProductShape((1, 1))
    with pytest.raises(ValueError):
        coerce_point(s, (np.array([1, 2]),), P)
    with pytest.raises(ValueError):
        coerce_point(s, (np.array([1, 2, 3]), np.array([1, 2])), P)


def test_coerce_point_rejects_non_integer_coordinates():
    # a cast would have truncated 2.9 to 2
    s = ProductShape((1, 1))
    with pytest.raises(ValueError, match="expected integer entries, got float64"):
        coerce_point(s, ([1, 2.9], [1, 2]), P)
    with pytest.raises(ValueError, match="got <U1"):
        coerce_point(s, ([1, 2], ["1", "2"]), P)


def test_random_point_nonzero_and_deterministic():
    s = ProductShape((1, 2, 3))
    a = random_point(s, SplitMix64(42), P)
    b = random_point(s, SplitMix64(42), P)
    for fa, fb in zip(a, b):
        assert (fa == fb).all()
        assert ((1 <= fa) & (fa < P)).all()


def test_random_point_all_nonzero():
    # one nonzero_residue per coordinate, factor by factor
    s = ProductShape((3, 9, 26))
    rng, twin = SplitMix64(11), ScalarSplitMix64(11)
    for p in DEFAULT_PRIMES:
        q = random_point(s, rng, p)
        for f in q:
            assert f.dtype == np.int64
            assert ((1 <= f) & (f < p)).all()
        want = [twin.nonzero_residue(p) for _ in range(sum(s.coord_sizes))]
        assert np.concatenate(q).tolist() == want


def test_tangent_frame_rows_and_rank():
    for dims in [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 1, 2)]:
        s = ProductShape(dims)
        q = random_point(s, SplitMix64(13), P)
        frame = tangent_frame(s, q, P)
        assert frame.shape == (sum(s.coord_sizes), s.ambient_dim + 1)
        assert ff_rank(frame, P) == 1 + s.dim
        aff = terracini_matrix(s, [q], P)
        assert aff.shape == (1 + s.dim, s.ambient_dim + 1)
        assert ff_rank(aff, P) == 1 + s.dim


def test_tangent_frame_contracts_to_embedded_point():
    # within each factor block, the q_i-weighted row sum is the embedding
    s = ProductShape((2, 1, 2))
    q = random_point(s, SplitMix64(23), P)
    frame = tangent_frame(s, q, P)
    emb = segre_embed(s, q, P)
    row = 0
    for i, size in enumerate(s.coord_sizes):
        block = frame[row : row + size]
        got = np.zeros_like(emb)
        for j in range(size):
            got = (got + int(q[i][j]) * block[j]) % P
        assert (got == emb).all()
        row += size


def test_affine_frame_rows_and_span():
    s = ProductShape((1, 2, 1))
    q = random_point(s, SplitMix64(29), P)
    aff = terracini_matrix(s, [q], P)
    assert aff.shape == (1 + s.dim, s.ambient_dim + 1)
    assert (aff[0] == segre_embed(s, q, P)).all()
    full = tangent_frame(s, q, P)
    # the chart partials are the substitutions with j >= 1
    slot = np.cumsum((0,) + s.coord_sizes)
    assert (aff[1:] == np.delete(full, slot[:-1], axis=0)).all()
    assert ff_rank(aff, P) == ff_rank(full, P) == 1 + s.dim
    # same row space: stacking adds nothing
    assert ff_rank(np.vstack([aff, full]), P) == 1 + s.dim


def test_affine_frame_rejects_zero_chart_coordinate():
    s = ProductShape((1, 1))
    q = (np.array([0, 1]), np.array([1, 1]))
    with pytest.raises(ValueError):
        terracini_matrix(s, [q], P)


def test_frame_at_basis_point_is_coordinate_rows():
    # at (e_0, e_0) the affine frame rows are unit vectors; the factor-0
    # partial lands at flat index 1*2+0 = 2 (leftmost index is slowest)
    s = ProductShape((1, 1))
    q = (np.array([1, 0]), np.array([1, 0]))
    aff = terracini_matrix(s, [q], P)
    assert aff.tolist() == [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ]


def test_embed_gl_equivariance():
    # acting by a Kronecker product of factor matrices commutes with embedding
    s = ProductShape((1, 2))
    rng = ScalarSplitMix64(31)
    for _ in range(20):
        q = random_point(s, rng, P)
        mats = [
            np.array(
                [[rng.residue(P) for _ in range(n + 1)] for _ in range(n + 1)],
                dtype=np.int64,
            )
            for n in s.factor_dims
        ]
        moved = [matmul_mod(m, f, P) for m, f in zip(mats, q)]
        big = np.kron(mats[0], mats[1]) % P
        lhs = segre_embed(s, moved, P)
        rhs = matmul_mod(big, segre_embed(s, q, P), P)
        assert (lhs == rhs).all()
