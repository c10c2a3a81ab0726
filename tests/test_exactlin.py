import numpy as np
import pytest
import sympy
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from echelon_oracle import matmul_mod
from segreid.exactlin import (
    DEFAULT_PRIMES,
    SplitMix64,
    _matmul_mod,
    check_prime,
    ff_kernel,
    ff_rank,
)

P = DEFAULT_PRIMES[0]


def sympy_rank(mat, p):
    """Independent rank oracle: sympy's dense RREF over GF(p)."""
    k = GF(p)
    rows = [[k(int(x)) for x in row] for row in np.atleast_2d(mat)]
    return DomainMatrix(rows, np.atleast_2d(mat).shape, k).rank()


def random_matrix(rng, rows, cols, p):
    return np.array(
        [[rng.residue(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


def planted(rng, rows, cols, rank, p):
    # [I; R] @ [I | C] has rank exactly `rank`: at most by the
    # factorization, at least because the top-left block is I.
    b = np.zeros((rows, rank), dtype=np.int64)
    b[:rank] = np.eye(rank, dtype=np.int64)
    for i in range(rank, rows):
        for j in range(rank):
            b[i, j] = rng.residue(p)
    c = np.zeros((rank, cols), dtype=np.int64)
    c[:, :rank] = np.eye(rank, dtype=np.int64)
    for i in range(rank):
        for j in range(rank, cols):
            c[i, j] = rng.residue(p)
    return matmul_mod(b, c, p)


def test_splitmix64_reference_stream():
    # published test vector for the 0 seed
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_splitmix64_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_splitmix64_seed_masked_to_64_bits():
    assert SplitMix64(2**64 + 7).seed == 7


def test_residue_ranges():
    rng = SplitMix64(5)
    for _ in range(500):
        assert 0 <= rng.residue(97) < 97
    for _ in range(500):
        assert 1 <= rng.nonzero_residue(97) < 97


def test_check_prime_accepts_defaults_and_small():
    for p in DEFAULT_PRIMES + (3, 5, 7, 11, 101):
        assert check_prime(p) == p


@pytest.mark.parametrize(
    "bad",
    [1, 2, 4, 9, 15, 2147483646, 2**31 + 11, 0, -7]
    # strong pseudoprimes to base 2; to bases 2 and 3; to bases 2, 3 and 5
    + [2047, 3277, 4033, 4681, 8321, 1373653, 25326001]
    # Carmichael numbers; the square of the largest prime below 2**15.5
    + [561, 1105, 1729, 2465, 2821, 6601, 8911, 46337**2],
)
def test_check_prime_rejects(bad):
    with pytest.raises(ValueError):
        check_prime(bad)


def test_check_prime_agrees_with_sympy():
    sample = np.random.default_rng(31).integers(3, 2**31, 3000).tolist()
    primes = {n for n in sample if sympy.isprime(n)}
    assert len(primes) > 50
    for n in sample:
        if n in primes:
            assert check_prime(n) == n
        else:
            with pytest.raises(ValueError):
                check_prime(n)


def test_rank_and_kernel_reject_non_integer_entries():
    # a cast would have truncated the first row to zeros: rank 1
    for f in (ff_rank, ff_kernel):
        with pytest.raises(ValueError, match="expected integer entries, got float64"):
            f([[0.5, 0.7], [1, 1]], 7)
        with pytest.raises(ValueError, match="got object"):
            f([[2**70, 1], [1, 1]], 7)


def test_rank_identity_and_zero():
    assert ff_rank(np.eye(12, dtype=np.int64), P) == 12
    assert ff_rank(np.zeros((5, 9), dtype=np.int64), P) == 0


def test_rank_planted_grid():
    rng = SplitMix64(2024)
    for p in DEFAULT_PRIMES:
        for rows, cols in [(6, 6), (7, 11), (13, 8), (20, 20)]:
            for rank in range(0, min(rows, cols) + 1, 2):
                m = planted(rng, rows, cols, rank, p)
                assert ff_rank(m, p) == rank


def test_rank_matches_sympy_oracle():
    rng = SplitMix64(31337)
    for p in DEFAULT_PRIMES:
        for _ in range(20):
            m = random_matrix(rng, 7, 9, p)
            assert ff_rank(m, p) == sympy_rank(m, p)


def test_rank_transpose_invariant():
    rng = SplitMix64(8)
    for _ in range(30):
        m = planted(rng, 9, 12, 5, P)
        assert ff_rank(m.T, P) == ff_rank(m, P)


def test_rank_invariant_under_invertible_factors():
    rng = SplitMix64(77)
    for _ in range(20):
        m = planted(rng, 8, 10, 4, P)
        left = planted(rng, 8, 8, 8, P)
        right = planted(rng, 10, 10, 10, P)
        assert ff_rank(matmul_mod(left, m, P), P) == 4
        assert ff_rank(matmul_mod(m, right, P), P) == 4


def test_kernel_exactness_and_size():
    rng = SplitMix64(404)
    for p in DEFAULT_PRIMES:
        for _ in range(10):
            m = planted(rng, 9, 14, 6, p)
            ker = ff_kernel(m, p)
            assert ker.shape == (14 - 6, 14)
            for v in ker:
                assert not matmul_mod(m, v, p).any()
            assert ff_rank(ker, p) == len(ker)


def test_kernel_of_full_column_rank_is_empty():
    m = planted(SplitMix64(1), 10, 6, 6, P)
    assert ff_kernel(m, P).shape == (0, 6)


def test_rank_nullity_on_random_matrices():
    rng = SplitMix64(5150)
    for _ in range(25):
        m = random_matrix(rng, 8, 12, P)
        assert ff_rank(m, P) + len(ff_kernel(m, P)) == 12


def test_entries_near_modulus_do_not_overflow():
    # worst case (p-1)^2 products with p just under 2**31
    p = DEFAULT_PRIMES[0]
    m = np.full((40, 40), p - 1, dtype=np.int64)
    assert ff_rank(m, p) == 1
    v = np.full((40, 1), p - 1, dtype=np.int64)
    assert _matmul_mod(m, v, p).tolist() == matmul_mod(m, v, p).tolist() == [[40 % p]] * 40
