"""The blocked elimination against the unblocked oracle and sympy.

The blocked elimination must find exactly the oracle's pivots, and
``ff_kernel`` must return exactly the basis the oracle's reduced echelon
form gives.  A kernel vector is fixed by its free coordinates, so that
basis holds the non-pivot part of the reduced form, and matching it
checks the whole elimination although the package never forms that
form.  ``_kernel`` on the factored form must return exactly the
combinations of the basis it is given as free coordinates: one column,
the probe's hyperplane, and three.  Matrices wider than
``_PLAIN_MAX_COLS`` take the blocked path anyway; narrower ones run
twice, once routed by width and once with the blocked path forced.
The factored int32 matrix itself must equal the oracle's unblocked
int64 CUP form value for value, with entries at the int32 limit and on
Terracini matrices.
"""

import operator

import numpy as np
import pytest
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from echelon_oracle import _echelon, cup, kernel_basis, matmul_mod
from segreid import exactlin
from segreid.exactlin import SplitMix64, ff_kernel, ff_rank
from segreid.segre import ProductShape, random_point
from segreid.terracini import terracini_matrix

NB = exactlin._PANEL
SUB = exactlin._SUB
CROSSOVER = exactlin._PLAIN_MAX_COLS
PRIMES = (3, 65521, 2**31 - 1)
# the int32 maximum, and the largest admissible modulus
P31 = 2**31 - 1
WIDTHS = sorted({NB - 1, NB, NB + 1, CROSSOVER, CROSSOVER + 1, 2 * NB + 1})


@pytest.fixture(params=["by-width", "blocked"])
def path(request, monkeypatch):
    if request.param == "blocked":
        monkeypatch.setattr(exactlin, "_PLAIN_MAX_COLS", 0)
    return request.param


def sympy_rank(mat, p):
    k = GF(p)
    rows = [[k(int(x)) for x in row] for row in mat]
    return DomainMatrix(rows, mat.shape, k).rank()


def low_rank(rng, rows, cols, rank, p):
    # entries of the right factor are 0..2, so the int64 product cannot overflow
    left = rng.integers(0, p, (rows, rank))
    return (left @ rng.integers(0, 3, (rank, cols))) % p


def assert_echelon_matches_oracle(m, p):
    # the factored matrix, its pivots and the oracle's kernel basis
    want, want_pivots = _echelon(m, p, reduced=True)
    a = exactlin._as_matrix(m, p)
    assert a.dtype == np.int32
    assert exactlin._eliminate(a, p) == want_pivots
    basis = ff_kernel(m, p)
    old = kernel_basis(want, want_pivots, p)
    assert basis.dtype == old.dtype and basis.shape == old.shape
    assert basis.tobytes() == old.tobytes()
    assert ff_rank(m, p) == len(want_pivots)
    return a, want_pivots, old


def assert_matches_oracle(m, p):
    return len(assert_echelon_matches_oracle(m, p)[1])


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("width", WIDTHS)
def test_dense_tall_and_wide_match_oracle(path, width, p):
    rng = np.random.default_rng([width, p])
    for rows in (width // 4 + 1, width + 2):
        assert_matches_oracle(rng.integers(0, p, (rows, width)), p)


@pytest.mark.parametrize("p", PRIMES)
def test_dependent_rows_and_zero_columns_match_oracle(p):
    rng = np.random.default_rng(p)
    cols = 3 * NB + 5
    m = low_rank(rng, 2 * NB, cols, NB // 2, p)
    m[:, rng.integers(0, cols, cols // 4)] = 0
    assert assert_matches_oracle(m, p) <= NB // 2
    # rows that repeat or combine earlier rows
    x = rng.integers(0, p, (5, cols))
    m = np.vstack([x, (3 * x) % p, (x[:1] + x[1:2]) % p, x[::-1]])
    assert assert_matches_oracle(m, p) == 5


@pytest.mark.parametrize("p", PRIMES)
def test_panel_without_pivot_matches_oracle(p):
    rng = np.random.default_rng([7, p])
    m = rng.integers(0, p, (NB + 9, 3 * NB + 3))
    m[:, NB : 2 * NB] = 0
    assert assert_matches_oracle(m, p) == NB + 9
    # a panel whose columns repeat the first panel's
    m = rng.integers(0, p, (NB + 9, 3 * NB + 3))
    m[:, NB : 2 * NB] = m[:, :NB]
    assert assert_matches_oracle(m, p) == NB + 9


@pytest.mark.parametrize("p", PRIMES)
def test_degenerate_shapes_match_oracle(path, p):
    rng = np.random.default_rng([11, p])
    wide = 2 * NB + 1
    assert assert_matches_oracle(np.zeros((7, wide), dtype=np.int64), p) == 0
    assert assert_matches_oracle(rng.integers(1, p, (1, wide)), p) == 1
    assert assert_matches_oracle(rng.integers(1, p, (wide, 1)), p) == 1
    row = np.zeros((1, wide), dtype=np.int64)
    row[0, -1] = 1
    assert assert_matches_oracle(row, p) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_sympy_across_panels(p):
    rng = np.random.default_rng([13, p])
    m = low_rank(rng, 12, 2 * NB + 1, 7, p)
    assert ff_rank(m, p) == sympy_rank(m, p)
    m = rng.integers(0, p, (2 * NB + 1, 9))
    assert ff_rank(m.T, p) == ff_rank(m, p) == sympy_rank(m, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", [10, 22])
def test_binary_terracini_matrices_match_oracle(k, p):
    # m=8: 256 columns, four panels; 99 and 207 rows
    shape = ProductShape((1,) * 8)
    rng = SplitMix64(k)
    m = terracini_matrix(shape, [random_point(shape, rng, p) for _ in range(k + 1)], p)
    assert m.shape == ((k + 1) * 9, 4 * NB)
    assert_matches_oracle(m, p)


def test_entries_near_modulus_across_panels():
    p = 2**31 - 1
    m = np.full((3 * NB, 3 * NB), p - 1, dtype=np.int64)
    assert ff_rank(m, p) == 1
    assert len(ff_kernel(m, p)) == 3 * NB - 1


def test_limb_product_exact_at_largest_inner_dimension():
    p = 2**31 - 1
    n = exactlin._MAX_INNER
    x = np.full((2, n), p - 1, dtype=np.int64)
    x[1] = np.random.default_rng(17).integers(p - 2**16, p, n)
    y = np.full((n, 1), p - 1, dtype=np.int64)
    got = exactlin._matmul_mod(x, y, p)
    assert got.tolist() == [[(p - 1) ** 2 * n % p], [(p - 1) * sum(x[1].tolist()) % p]]


def test_limb_product_rejects_inner_dimension_above_limit():
    n = exactlin._MAX_INNER + 1
    with pytest.raises(ValueError, match="inner dimension"):
        exactlin._matmul_mod(np.zeros((1, n), dtype=np.int64), np.zeros((n, 1), dtype=np.int64), 3)


@pytest.mark.parametrize("n", [1, 2, 64, 65, 2048, 2049, 1 << 20])
def test_limb_product_exact_at_limb_count_boundaries(n):
    # n = 64, 2048 and 2**20 are the largest inner dimensions taking 2, 3
    # and 16 limbs; entries near 2**31 fill every limb, and odd entries
    # make odd products, so a sum past 2**53 would round
    p = 2**31 - 1
    rng = np.random.default_rng([19, n])
    x = np.full((2, n), p - 1, dtype=np.int64)
    x[1] = rng.integers(p - 2**16, p, n)
    y = np.full((n, 2), p - 1, dtype=np.int64)
    y[:, 1] = rng.integers(p - 2**16, p, n)
    got = exactlin._matmul_mod(x, y, p)
    want = [[sum(map(operator.mul, row, col)) % p for col in y.T.tolist()] for row in x.tolist()]
    assert got.tolist() == want


def assert_cup_matches_oracle(m, p):
    # assert_matches_oracle, plus kernel vectors solved on the factored
    # form: one column of free coordinates, as the probe's hyperplane, and three
    a, pivots, basis = assert_echelon_matches_oracle(m, p)
    rng = np.random.default_rng([len(basis), p])
    for n in (1, 3):
        xf = rng.integers(0, p, (len(basis), n))
        x = exactlin._kernel(a, pivots, xf, p)
        assert x.dtype == np.int32
        assert x.T.tolist() == matmul_mod(xf.T, basis, p).tolist()
        assert not matmul_mod(m, x, p).any()
    return len(pivots)


def binary_terracini(m, k, p):
    shape = ProductShape((1,) * m)
    rng = SplitMix64(1000 * m + k)
    return terracini_matrix(shape, [random_point(shape, rng, p) for _ in range(k + 1)], p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("m, k", [(9, 27), (10, 40)])
def test_terracini_matrices_past_four_panels_match_oracle(m, k, p):
    # 280x512 and 451x1024, eight and sixteen panels; rank deficient at p = 3
    mat = binary_terracini(m, k, p)
    assert mat.shape == ((k + 1) * (m + 1), 2**m)
    assert_cup_matches_oracle(mat, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("cols", [SUB + 3, NB + SUB + 1, 2 * NB + 2 * SUB + 7, 4 * NB + SUB - 3])
def test_rank_deficient_odd_widths_match_oracle(path, cols, p):
    # widths no multiple of SUB or NB; zero columns and a rank below both dimensions
    rng = np.random.default_rng([cols, p])
    for rows in (cols // 3 + 2, cols + 5):
        m = low_rank(rng, rows, cols, min(rows, cols) // 2 + 1, p)
        m[:, rng.integers(0, cols, cols // 5)] = 0
        assert assert_cup_matches_oracle(m, p) <= min(rows, cols) // 2 + 1


@pytest.mark.parametrize("p", PRIMES)
def test_sub_panel_without_pivot_matches_oracle(path, p):
    rng = np.random.default_rng([23, p])
    cols = 2 * NB + 2 * SUB + 5
    m = rng.integers(0, p, (NB + 2 * SUB, cols))
    # the second sub-panel is zero, the third repeats the first
    m[:, SUB : 2 * SUB] = 0
    m[:, 2 * SUB : 3 * SUB] = m[:, :SUB]
    assert assert_cup_matches_oracle(m, p) == NB + 2 * SUB
    # the same in the second panel, below rows that took all of the first
    m = rng.integers(0, p, (NB + 2 * SUB, cols))
    m[:, NB + SUB : NB + 2 * SUB] = 0
    m[:, NB + 2 * SUB : NB + 3 * SUB] = m[:, NB : NB + SUB]
    assert assert_cup_matches_oracle(m, p) == NB + 2 * SUB


@pytest.mark.parametrize("p", [3, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 64, 65, 2048])
def test_limb_product_with_plus_exact(n, p):
    # entries p - 1 and odd entries fill every limb; plus rows of 0,
    # p - 1 and random residues reach both ends of the last Horner step
    rng = np.random.default_rng([29, n, p])
    odd = min(p // 2, 2**15)
    x = np.full((3, n), p - 1, dtype=np.int64)
    x[1] = p - 2 - 2 * rng.integers(0, odd, n)
    x[2] = rng.integers(0, p, n)
    y = np.full((n, 3), p - 1, dtype=np.int64)
    y[:, 1] = p - 2 - 2 * rng.integers(0, odd, n)
    y[:, 2] = rng.integers(0, p, n)
    plus = rng.integers(0, p, (3, 3))
    plus[0] = 0
    plus[1] = p - 1
    got = exactlin._matmul_mod(x, y, p, plus=plus)
    prod = [[sum(map(operator.mul, row, col)) for col in y.T.tolist()] for row in x.tolist()]
    want = [[(int(pv) + v) % p for pv, v in zip(prow, row)] for prow, row in zip(plus, prod)]
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("diagonal", [P31 - 1, P31 - 2])
@pytest.mark.parametrize("cols", [CROSSOVER, 3 * NB + 5])
def test_entries_at_int32_limit_match_oracle(path, cols, diagonal):
    # every entry p - 1, so any product taken in int32 would wrap; with
    # p - 2 on the diagonal the top square is -(J + I), of full rank
    m = np.full((cols + 3, cols), P31 - 1, dtype=np.int64)
    np.fill_diagonal(m, diagonal)
    a, pivots, basis = assert_echelon_matches_oracle(m, P31)
    assert len(pivots) == (1 if diagonal == P31 - 1 else cols)
    assert a.tolist() == cup(m, P31)[0].tolist()
    # free coordinates 0, the identity's and all p - 1
    nf = len(basis)
    xf = np.hstack([np.zeros((nf, 1), dtype=np.int64), np.eye(nf, dtype=np.int64),
                    np.full((nf, 1), P31 - 1)])
    x = exactlin._kernel(a, pivots, xf, P31)
    want = np.vstack([np.zeros((1, cols), dtype=np.int64), basis,
                      -basis.sum(axis=0, keepdims=True) % P31])
    assert x.dtype == np.int32 and x.T.tolist() == want.tolist()


@pytest.mark.parametrize("k", [1, SUB, NB])
def test_lower_inverse_at_int32_limit_matches_oracle(k):
    # the pivot block as stored, every entry p - 1; the oracle reduces [L | I]
    t = np.full((k, k), P31 - 1, dtype=np.int32)
    lower = np.tril(t.astype(np.int64))
    want = _echelon(np.hstack([lower, np.eye(k, dtype=np.int64)]), P31, reduced=True)[0]
    assert exactlin._lower_inverse(t, P31).tolist() == want[:, k:].tolist()


@pytest.mark.parametrize("m, k", [(6, 8), (7, 14), (8, 27), (9, 27), (10, 40)])
def test_terracini_matrices_factor_as_oracle(m, k):
    # the plain path at m = 6, 7 and the blocked one above
    mat = binary_terracini(m, k, P31)
    want, pivots = cup(mat, P31)
    assert mat.dtype == np.int32
    assert exactlin._eliminate(mat, P31) == pivots
    assert mat.tolist() == want.tolist()
